import copy
import json
import re
import subprocess
import sys
from fractions import Fraction

import numpy as np
import pytest

import census_oracle as oracle
import lattice_oracle
import transpo_oracle
from exact_oracle import in_span
from voacensus import census as cz
from voacensus import gf2code as gc
from voacensus import registry
from voacensus.census import GRAM_32ND, GRAM_QUARTER, GRAM_ZERO
from voacensus.griess import ElementBatch, GriessAlgebra, GriessError


def test_code_census_counts():
    assert len(registry.census("code:rm24")) == 496
    assert len(registry.census("code:hamming8")) == 24
    for n, expect in ((2, 24), (3, 60), (4, 112)):
        assert len(registry.census(f"code:dcode{2 * n}")) == expect


def test_code_census_formula_cross_check():
    # two independent enumerations: census count vs 16N + n
    for tag in ("rm24", "hamming8", "dcode6"):
        code = registry.code(tag)
        census = registry.census(f"code:{tag}")
        n_emb = len(gc.hamming_embeddings(code))
        assert len(census) == 16 * n_emb + code.length


def test_code_census_rejects_small_weight():
    with pytest.raises(cz.CensusError):
        cz.code_census(gc.named_code("full", 6))


def test_lattice_census_counts():
    assert len(registry.census("lattice:E8")) == 496
    assert len(registry.census("lattice:A2")) == 6
    assert len(registry.census("lattice:D4")) == 24
    counts = registry.census("lattice:E8").counts_by_kind()
    assert counts == {"twist": 256, "wminus": 120, "wplus": 120}


def test_lattice_census_direct_sum():
    c = registry.census("lattice:A1+A1")
    assert len(c) == 4
    assert (c.gram[:2, 2:] == GRAM_ZERO).all()
    c2 = registry.census("lattice:A2+E6")
    assert len(c2) == 6 + 72


def test_direct_sum_sigma_blockwise():
    table = registry.sigma_table("lattice:A2+A2").rows
    c = registry.census("lattice:A2+A2")
    n = len(c)
    for i in range(6):
        assert (table[i, 6:] == np.arange(6, n)).all()
        assert (table[6 + i, :6] == np.arange(6)).all()


def test_commutant_census_counts():
    assert len(registry.census("me8")) == 255
    assert registry.census("me8").counts_by_kind() == \
        {"twist": 135, "wminus": 120}
    assert len(registry.census("uc")) == 136
    assert registry.census("uc").counts_by_kind() == \
        {"twist": 72, "wminus": 64}
    assert registry.census("me7").counts_by_kind() == {"wminus": 63}
    assert registry.census("me6").counts_by_kind() == {"wminus": 36}


def test_commutant_membership_in_kernel():
    alg = registry.algebra("E6")
    kern = alg.commutant_weight2(alg.conformal_wtilde().element)
    me6 = registry.census("me6")
    for e in me6.elements:
        assert in_span(alg, e, kern)
    alg8 = registry.algebra("E8")
    kern8 = alg8.commutant_weight2(alg8.conformal_wtilde().element)
    me8 = registry.census("me8")
    for e in me8.elements[::6]:
        assert in_span(alg8, e, kern8)
    full = registry.census("lattice:E8")
    assert not in_span(alg8, full.elements[len(full) - 1], kern8) or \
        full.elements[-1] in me8.elements


def test_gram_law():
    c = registry.census("lattice:E6")
    vals = set(np.unique(c.gram).tolist())
    assert vals <= {GRAM_ZERO, GRAM_32ND, GRAM_QUARTER}
    assert (np.diag(c.gram) == GRAM_QUARTER).all()
    assert (c.gram == c.gram.T).all()


def test_census_closed_under_sigma():
    c = registry.census("me6")
    alg = c.algebra
    for i, j in np.argwhere(np.triu(c.gram == GRAM_32ND, k=1))[:60]:
        g = transpo_oracle.product_sigma_image(alg, c.elements[i], c.elements[j])
        c.element_index(g.batch)  # raises if missing


def test_sigma_type_check_cases():
    h8 = gc.named_code("hamming8")
    demb = gc.hamming_embeddings(h8)[0]
    assert cz.sigma_type_check(h8, demb)
    rm24 = gc.named_code("reed_muller", 2, 4)
    for emb in gc.hamming_embeddings(rm24):
        assert cz.sigma_type_check(rm24, emb)
    # hand-built fixture meeting the support in one coordinate
    rows = list(h8.generators) + [gc.word_from_str("00000001110")]
    fixture = gc.BinaryCode.from_rows(11, rows)
    assert fixture.min_weight() == 3
    femb = gc.hamming_embeddings(fixture)[0]
    assert set(femb.support) == set(range(8))
    assert not cz.sigma_type_check(fixture, femb)


def test_hamming_model_structure():
    hm = registry.census("hamming24")
    assert len(hm) == 24
    assert hm.counts_by_kind() == {"frame": 8, "hamming": 16}
    orth = (hm.gram == GRAM_ZERO).sum(axis=1)
    close = (hm.gram == GRAM_32ND).sum(axis=1)
    assert (orth == 7).all()
    assert (close == 16).all()


def test_hamming_model_combinatorial_sigma_rules():
    hm = registry.census("hamming24")
    table = registry.sigma_table("hamming24").rows
    # sigma of a frame point sends the block label through a coordinate flip
    emb = hm.embeddings[0]
    sub_words = set(emb.words)
    reps = [p.data[1] for p in hm.points[8:]]
    label_at = {8 + a: rep for a, rep in enumerate(reps)}
    for i in range(8):
        coord = emb.support[i]
        for a, rep in enumerate(reps):
            img = int(table[coord, 8 + a])
            flipped = rep ^ (1 << coord)
            coset = {flipped ^ w for w in sub_words}
            assert label_at[img] in coset
            # and symmetrically for the involution of the block point
            assert int(table[8 + a, coord]) == img
        # frame points fix each other
        for j in range(8):
            assert int(table[i, j]) == j


def test_rm24_census_equals_lattice_census_gram():
    # the realized code census and the paired lattice census carry the same
    # points; entry-by-entry Gram agreement under the matching bijection
    code_c = registry.census("code:rm24")
    lat_c = registry.census("lattice:E8H")
    m = lat_c.element_index(code_c.elements)
    assert sorted(m.tolist()) == list(range(496))
    assert (code_c.gram == lat_c.gram[np.ix_(m, m)]).all()


COMMUTANTS = [alias for alias, spec in registry.CENSUS_ALIASES.items()
              if spec.startswith("commutant:")] + ["commutant:E8:s"]


@pytest.mark.parametrize("spec", COMMUTANTS)
def test_commutant_census_is_the_lattice_subcensus(spec):
    # the census filtered before its Gram against the full lattice census
    # filtered one Fraction inner product at a time
    _, lat, constraints = registry.CENSUS_ALIASES.get(spec, spec).split(":", 2)
    full = registry.census(f"lattice:{lat}")
    cons = [registry.constraint_element(full.algebra, name)
            for name in constraints.split(",")]
    keep = [i for i, e in enumerate(full.elements)
            if all(e.inner(c) == 0 for c in cons)]
    got = registry.census(spec)
    want = oracle.subcensus(full, keep, got.source)
    assert 0 < len(got) < len(full)
    assert got.points == want.points
    assert [e.key() for e in got.elements] == [e.key() for e in want.elements]
    assert got.gram.dtype == want.gram.dtype
    assert np.array_equal(got.gram, want.gram)
    assert (got.frame_size, got.algebra) == (want.frame_size, want.algebra)


def test_commutant_filter_refuses_oversized_constraints():
    lat, alg = registry.lattice("E8"), registry.algebra("E8")
    # the same hyperplane as wtilde, with entries past the int64 bound
    big = Fraction(1, 2 ** 50) * alg.conformal_wtilde().element
    assert alg.inner_gain * 8 * big.mag >= 2 ** 62
    with pytest.raises(GriessError, match="too large"):
        cz.commutant_filter(lat, alg, [big], "oversized")


def test_standard_e8_model_isomorphic_census():
    # carry the standard-model census onto the code-frame model by an exact
    # lattice isometry and compare Gram matrices entry by entry
    e8 = registry.lattice("E8")
    e8h = registry.lattice("E8H")
    T = lattice_oracle.root_isometry(e8, e8h)
    assert T is not None
    src = registry.census("lattice:E8")
    dst = registry.census("lattice:E8H")
    alg = dst.algebra
    reps = {c.key: c.representative for c in e8.mod2_classes()}
    mapping = []
    for pt, el in zip(src.points, src.elements):
        if pt.kind in ("wminus", "wplus"):
            img = lattice_oracle.apply_fraction_map(T, e8.pairs[pt.data[0]])
            vec = np.array([int(x) for x in img], dtype=np.int64)
            sign = -1 if pt.kind == "wminus" else 1
            mapping.append(alg.w_vector(e8h.pair_of(vec), sign).element)
        else:
            img = lattice_oracle.apply_fraction_map(
                T, np.array(reps[pt.data[0]], dtype=np.int64))
            vec = np.array([int(x) for x in img], dtype=np.int64)
            wt = alg.conformal_wtilde().element
            mapping.append(alg.phi_twist(vec, wt))
    m = dst.element_index(ElementBatch.of(alg, mapping))
    assert sorted(m.tolist()) == list(range(496))
    assert (src.gram == dst.gram[np.ix_(m, m)]).all()


def test_unrealized_cross_block_errors():
    raw = cz.code_census(registry.code("rm24"))
    assert raw.gram[16, 40] == cz.GRAM_UNKNOWN
    # frame rows and within-block entries are still defined
    assert (raw.gram[:16] != cz.GRAM_UNKNOWN).all()
    assert (raw.gram[16:32, 16:32] != cz.GRAM_UNKNOWN).all()
    assert raw.gram[0, 1] == GRAM_ZERO
    assert raw.gram[16, 17] in (GRAM_ZERO, GRAM_32ND)


def test_combinatorial_gram_matches_realization():
    raw = cz.code_census(registry.code("rm24"))
    real = registry.census("code:rm24")
    mask = raw.gram != cz.GRAM_UNKNOWN
    assert (raw.gram[mask] == real.gram[mask]).all()


# counts lattice censuses built in a fresh process that asks for a code
# census and then for its paired model's lattice census
_COUNT_LATTICE_CENSUSES = """
from collections import Counter
from voacensus import census, registry
calls, build = Counter(), census.lattice_census
def counting(lattice, algebra=None):
    calls[lattice.name] += 1
    return build(lattice, algebra)
census.lattice_census = counting
registry.census("code:rm24")
registry.census("lattice:E8H")
print(calls["E8H"])
"""


def test_paired_model_census_built_once_per_process():
    out = subprocess.run([sys.executable, "-c", _COUNT_LATTICE_CENSUSES],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1"]


# counts sigma tables built in a fresh process for four spellings of the
# census me8
_COUNT_SIGMA_TABLES = """
from voacensus import registry, transpo
calls, build = [], transpo.sigma_permutations
def counting(c):
    calls.append(c)
    return build(c)
transpo.sigma_permutations = counting
tables = {id(registry.sigma_table(s))
          for s in ("me8", "ME8", " me8", "commutant:E8:wtilde")}
print(len(calls), len(tables))
"""


def test_sigma_table_built_once_per_census():
    out = subprocess.run([sys.executable, "-c", _COUNT_SIGMA_TABLES],
                         capture_output=True, text=True, check=True).stdout
    assert out.split() == ["1", "1"]


# counts stacked sigma-image calls in a fresh process per derived census, and
# names every census whose table takes Griess products
_COUNT_SIGMA_IMAGES = """
from voacensus import registry, transpo
from voacensus.griess import GriessAlgebra
calls, images = [], GriessAlgebra.sigma_images
def counting(self, e, fs):
    calls.append(e.key())
    return images(self, e, fs)
GriessAlgebra.sigma_images = counting
built, build = [], transpo.sigma_permutations
def recording(c):
    built.append(c.source)
    return build(c)
transpo.sigma_permutations = recording
for spec in ("code:rm24", "hamming24", "lattice:A2+A2"):
    before = len(calls)
    registry.sigma_table(spec)
    # a seed's partners go by blocks: count the distinct seeds
    print(len(set(calls[before:])))
print(*built)
"""


def test_derived_sigma_tables_gather_their_sources():
    out = subprocess.run([sys.executable, "-c", _COUNT_SIGMA_IMAGES],
                         capture_output=True, text=True, check=True).stdout
    # only the seed rows of E8H, D4C and A2 take products
    assert out.split("\n")[:4] == ["10", "5", "3", "lattice:E8H lattice:D4C lattice:A2"]


@pytest.mark.parametrize("spec", ["code:rm24", "code:dcode6", "hamming24",
                                  "lattice:A2+A2", "lattice:A2+E6+A1"])
def test_derived_table_is_the_source_table_relabelled(spec):
    c = registry.census(spec)
    table = registry.sigma_table(spec)
    covered = np.zeros(len(c), dtype=bool)
    for src, pos in c.sources:
        part = registry.sigma_table(src.source)
        assert table.rows[np.ix_(pos, pos)].tolist() == pos[part.rows].tolist()
        assert set(pos[part.seeds].tolist()) <= set(table.seeds.tolist())
        covered[pos] = True
    assert covered.all()
    if c.elements is not None:   # a code census: one source, every point
        (src, pos), = c.sources
        assert [src.elements[k].key() for k in np.argsort(pos)] == \
            [e.key() for e in c.elements]


def _corrupt_source_row(monkeypatch, spec):
    """Serve the source tables of `spec` with row 0 equal to row 1; the
    derived table is assembled afresh, outside the cache."""
    registry.census(spec)   # its blocks placed with the true table
    assemble = registry._sigma_table

    def corrupted(c):
        if c.sources is None:
            good = assemble(c)
            bad = copy.copy(good)
            bad.rows = good.rows.copy()
            bad.rows[0] = good.rows[1]
            return bad
        return assemble.__wrapped__(c)
    monkeypatch.setattr(registry, "_sigma_table", corrupted)


@pytest.mark.parametrize("spec", ["code:dcode6", "hamming24", "lattice:A2+A2"])
def test_corrupted_source_row_is_refused(monkeypatch, spec, capsys):
    from voacensus import cli, transpo
    _corrupt_source_row(monkeypatch, spec)
    with pytest.raises(transpo.SigmaCheckError, match="not injective"):
        registry.sigma_table(spec)
    assert cli.main(["group", "--census", spec]) == 1
    assert "not injective" in json.loads(capsys.readouterr().out)["error"]


def test_non_bijective_relabelling_is_refused(monkeypatch, tmp_path, capsys):
    from voacensus import cli
    realize = cz._realize_code_census

    def repeat_first(*args):
        index = realize(*args)
        return index[:-1] + index[:1]
    monkeypatch.setattr(cz, "_realize_code_census", repeat_first)
    code = registry.code("hamming8")
    model, table = _paired(code)
    with pytest.raises(cz.CensusCheckError, match="do not relabel lattice:D4C"):
        cz.code_census(code, realize=model, sigmas=table)
    # a file spec keeps the cached census of hamming8 out of play
    path = tmp_path / "h8.txt"
    path.write_text(gc.format_code_text(code))
    assert cli.main(["census", "code", f"file:{path}"]) == 1
    assert "do not relabel" in json.loads(capsys.readouterr().out)["error"]


SPELLINGS = [("lattice:e8", "lattice:E8"), ("code:RM24", "code:rm24"),
             ("commutant:e8:wtilde", "me8"), (" Lattice: a2 + A3 ", "lattice:A2+A3"),
             ("commutant:E8: WTilde , Phi:Alpha0", "uc")]


@pytest.mark.parametrize("spelling, spec", SPELLINGS)
def test_census_spellings_share_one_instance(spelling, spec):
    assert registry.census(spelling) is registry.census(spec)
    assert registry.sigma_table(spelling) is registry.sigma_table(spec)
    assert registry.census(spelling).source == registry.census(spec).source


def test_commutant_source_is_canonical():
    assert registry.census("commutant:e8:wtilde").source == "commutant:E8:wtilde"
    assert registry.census("lattice: a1 + a1").source == "lattice:A1+A1"


@pytest.mark.parametrize("spec, message", [
    # the CLI forms are in test_cli.py::test_malformed_census_spec_is_usage_error
    ("commutant:E8:", "commutant:<lattice>:<constraint>"),
    ("commutant:A2+A2:wtilde", "indecomposable"),
    ("lattice:+", "empty summand"),
    ("lattice:", "empty summand"),
])
def test_malformed_census_specs_are_refused(spec, message):
    with pytest.raises(registry.RegistryError, match=re.escape(message)):
        registry.census(spec)


def _paired(code):
    """The paired model's lattice census of `code` and its registry σ-table."""
    spec = f"lattice:{cz.paired_model(code)}"
    return registry.census(spec), registry.sigma_table(spec)


def _realize_recording_blocks(monkeypatch, tag):
    """Realize code `tag` afresh; returns the census, the paired lattice
    census and, per block, the arguments of its translation, the placed
    points and the Griess products and σ images evaluated inside it."""
    translate = cz._translate_block
    code = registry.code(tag)
    model, table = _paired(code)
    calls = [0]
    blocks = []

    def counting(method):
        def wrapper(*args):
            calls[0] += 1
            return method(*args)
        return wrapper

    def record(*args):
        before = calls[0]
        placed = translate(*args)
        blocks.append((args, placed, calls[0] - before))
        return placed

    for name in ("sigma_image", "sigma_images", "product", "products"):
        monkeypatch.setattr(GriessAlgebra, name, counting(getattr(GriessAlgebra, name)))
    monkeypatch.setattr(cz, "_translate_block", record)
    census = cz.code_census(code, realize=model, sigmas=table)
    monkeypatch.undo()
    return census, model, table, blocks


@pytest.mark.parametrize("tag", ["hamming8", "rm24", "dcode4", "dcode6", "dcode8"])
def test_tree_translation_matches_all_edges_oracle(monkeypatch, tag):
    census, model, table, blocks = _realize_recording_blocks(monkeypatch, tag)
    assert len(blocks) == len(census.embeddings)
    elems = model.elements
    for (rows, frame, emb, reps, anchor, cands), placed, products in blocks:
        # 15 coset words and 4 weight-4 generators walked, all off the table
        assert rows is table.rows and products == 0
        want = oracle.translate_block_all_edges(
            model.algebra, [elems[k] for k in frame], emb, reps, elems[anchor],
            [elems[k] for k in cands])
        assert {r: elems[k].key() for r, k in zip(reps, placed)} == \
            {r: e.key() for r, e in want.items()}


def test_translate_block_rejects_corrupted_input(monkeypatch):
    _, _, _, blocks = _realize_recording_blocks(monkeypatch, "hamming8")
    (rows, frame, emb, reps, anchor, cands), placed, _ = blocks[0]
    # an anchor outside the block: a frame point every sigma fixes
    with pytest.raises(cz.CensusCheckError, match="distinct candidates"):
        cz._translate_block(rows, frame, emb, reps, frame[emb.support[0]], cands)
    # two labels in one coset, so another coset has none: both land on one point
    bad = list(reps)
    bad[1] = reps[2] ^ emb.words[1]
    with pytest.raises(cz.CensusCheckError, match="distinct candidates"):
        cz._translate_block(rows, frame, emb, bad, anchor, cands)
    # labels by another [8,4,4] subcode: swap two support coordinates
    i, j = emb.support[0], emb.support[1]
    swapped = [g ^ ((1 << i) | (1 << j)) if ((g >> i) ^ (g >> j)) & 1 else g
               for g in emb.subcode_generators]
    other = gc.HammingEmbedding(emb.parent, gc.rref(swapped), emb.support)
    assert set(other.words) != set(emb.words)
    with pytest.raises(cz.CensusCheckError):
        cz._translate_block(rows, frame, other, cz._coset_reps(other), anchor, cands)
    # labels 0 and a weight-1 coset exchanged: only the Gram comparison sees it
    zero, odd = reps[0], next(r for r in reps if gc.weight(r) == 1)

    def exchange(*args):
        out = dict(zip(reps, placed))
        out[zero], out[odd] = out[odd], out[zero]
        return [out[r] for r in reps]

    monkeypatch.setattr(cz, "_translate_block", exchange)
    code = registry.code("hamming8")
    model, table = _paired(code)
    with pytest.raises(cz.CensusCheckError, match="Gram"):
        cz.code_census(code, realize=model, sigmas=table)


@pytest.mark.parametrize("tag", ["hamming8", "rm24", "dcode6"])
def test_corrupted_frame_row_is_refused(tag):
    # copies of the paired table in which the involution of frame point 0
    # fixes every point, or acts as that of frame point 1: a generator walk
    # through coordinate 0 no longer returns to its anchor
    code = registry.code(tag)
    model, table = _paired(code)
    frame = model.element_index(registry.census(f"code:{tag}").elements[:2]).tolist()
    for row in (np.arange(len(model), dtype=table.rows.dtype), table.rows[frame[1]]):
        corrupted = copy.copy(table)
        corrupted.rows = table.rows.copy()
        corrupted.rows[frame[0]] = row
        with pytest.raises(cz.CensusCheckError, match="moves the block anchor"):
            cz.code_census(code, realize=model, sigmas=corrupted)


def test_realized_code_census_needs_its_table():
    code = registry.code("hamming8")
    model, _ = _paired(code)
    with pytest.raises(cz.CensusError, match="sigma-table"):
        cz.code_census(code, realize=model)
    with pytest.raises(cz.CensusError, match="sigma-table"):
        cz.code_census(code, realize=model, sigmas=registry.sigma_table("me8"))


def test_gram_law_violation_is_check_error():
    c = registry.census("lattice:A2")
    i, j = map(int, np.argwhere(c.gram == GRAM_ZERO)[0])
    with pytest.raises(cz.CensusCheckError, match="outside"):
        cz.gram_from_elements((c.elements[i] + c.elements[j]).batch)


def test_gram_text_rows():
    # the digit strings are the codes entry by entry, unrealized (3) included
    raw = cz.code_census(registry.code("rm24"))
    rows = raw.to_json()["gram_dense"]
    assert "3" in rows[16]
    assert rows == ["".join(str(int(x)) for x in row) for row in raw.gram]
    assert "gram_dense" not in raw.to_json(include_gram=False)
    empty = cz.IsingCensus([], None, np.zeros((0, 0), dtype=np.int8), "empty")
    data = empty.to_json()
    assert data["count"] == 0 and data["gram_dense"] == []


def test_census_json():
    data = registry.census("lattice:A2").to_json()
    assert data["count"] == 6
    assert len(data["points"]) == 6
    assert all("tag" in p for p in data["points"])
    assert len(data["gram_dense"]) == 6
    assert data["counts_by_tag"] == {"wminus": 3, "wplus": 3}


def _doubled(points, k):
    """The batch `points` with its row k replaced by twice that point."""
    carts, xvs = points.carts.copy(), points.xvs.copy()
    carts[k] *= 2
    xvs[k] *= 2
    return ElementBatch(points.alg, carts, xvs, points.dens)


def test_blocked_gram_names_the_first_bad_pair():
    # the Gram is classified by cz.BLOCK_ROWS rows; a doubled point is out
    # of the law with itself and its 1/32 partners, and the error names the
    # first bad pair in row-major order, as the whole-matrix scan does
    c = registry.census("lattice:E8")
    points = c.elements
    # in the first block: point 3 and its first partner
    bad = _doubled(points, 3)
    want = oracle.gram_law_failure(bad)
    i, j = map(int, re.match(r"inner product of points (\d+),(\d+)", want).groups())
    assert i < cz.BLOCK_ROWS and 3 in (i, j)
    with pytest.raises(cz.CensusCheckError) as exc:
        cz.gram_from_elements(bad)
    assert str(exc.value) == want
    # in the last block: the points orthogonal to point 490, then point 490
    # doubled, whose only bad pair is with itself
    keep = np.append(np.flatnonzero(c.gram[490] == GRAM_ZERO), 490)
    bad = _doubled(points[keep], len(keep) - 1)
    want = oracle.gram_law_failure(bad)
    last = len(keep) - 1
    assert last // cz.BLOCK_ROWS > 0
    assert want == f"inner product of points {last},{last} is 1, outside {{0, 1/32, 1/4}}"
    with pytest.raises(cz.CensusCheckError) as exc:
        cz.gram_from_elements(bad)
    assert str(exc.value) == want
    # unbroken, the blocks give the whole-matrix scan's Gram
    assert oracle.gram_law_failure(points) is None


@pytest.mark.parametrize("narrow", [lambda fp: fp % 3, lambda fp: 0 * fp])
def test_fingerprint_collisions_are_resolved_exactly(monkeypatch, narrow):
    # with fingerprints that collide (three values, then one), every point
    # sharing a row's fingerprint is compared exactly: the positions are
    # still right and a row that is no point is still refused
    fingerprints = ElementBatch.fingerprints
    monkeypatch.setattr(ElementBatch, "fingerprints",
                        lambda self: narrow(fingerprints(self)))
    c = oracle.subcensus(registry.census("me6"), range(36), "fresh")
    order = [5, 0, 35, 17, 17]
    assert c.element_index(c.elements[order]).tolist() == order
    rows = c.elements[[3, 4]]
    doubled = ElementBatch(rows.alg, rows.carts, rows.xvs, rows.dens * [1, 2])
    with pytest.raises(cz.MissingPointError, match="row 1 is not a census point"):
        c.element_index(doubled)


def test_fingerprints_are_read_off_each_row():
    points = registry.census("lattice:E8").elements
    fp = points.fingerprints()
    # a row's fingerprint does not depend on the rows around it
    assert fp[[7, 300, 495]].tolist() == points[[7, 300, 495]].fingerprints().tolist()
    assert fp.tolist() == [int(points[k:k + 1].fingerprints()[0]) for k in range(len(points))]
    # and on E8 the 496 points have 496 of them
    assert len(set(fp.tolist())) == len(points)
