"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`.  Every assertion is exact
(integer or rational equality); the stated wall-clock bounds are asserted
where the criterion gives one.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from voacensus import census as cz
from voacensus import gf2code as gc
from voacensus import qchar, registry, rootlat
from voacensus import transpo as tp
from voacensus.census import GRAM_32ND, GRAM_QUARTER, GRAM_ZERO
from voacensus.griess import verify_orthogonal_split, verify_twist_chain

OMEGA_10_PLUS = 2 ** 20 * (2 ** 5 - 1) * (2 ** 2 - 1) * (2 ** 4 - 1) \
    * (2 ** 6 - 1) * (2 ** 8 - 1)
OMEGA_8_MINUS = 2 ** 12 * (2 ** 4 + 1) * (2 ** 6 - 1) * (2 ** 4 - 1) * (2 ** 2 - 1)
SP8_ORDER = 2 ** 16 * (2 ** 2 - 1) * (2 ** 4 - 1) * (2 ** 6 - 1) * (2 ** 8 - 1)


def _line(num: int, ok: bool, text: str):
    print(f"[criterion {num:2d}] {'PASS' if ok else 'FAIL'}  {text}")
    assert ok, f"criterion {num}: {text}"


def test_criterion_01_code_census_counts():
    timings = []
    results = []
    cases = [("rm24", gc.named_code("reed_muller", 2, 4), 496),
             ("hamming8", gc.named_code("hamming8"), 24)]
    for n, expect in ((2, 24), (3, 60), (4, 112)):
        cases.append((f"dcode{2 * n}", gc.structure_code_dplus(n), expect))
    for tag, code, expect in cases:
        t0 = time.monotonic()
        spec = f"lattice:{cz.paired_model(code)}"
        model, table = registry.census(spec), registry.sigma_table(spec)
        got = len(cz.code_census(code, realize=model, sigmas=table))
        dt = time.monotonic() - t0
        timings.append(dt)
        results.append(got == expect)
    ok = all(results) and all(t < 5.0 for t in timings)
    _line(1, ok, f"code censuses 496/24/24/60/112, slowest "
                 f"{max(timings):.2f}s < 5s")


def test_criterion_02_embedding_counts():
    ok = len(gc.hamming_embeddings(gc.named_code("reed_muller", 2, 4))) == 30
    for n in (2, 3, 4):
        got = len(gc.hamming_embeddings(gc.structure_code_dplus(n)))
        ok = ok and got == n * (n - 1) // 2
    _line(2, ok, "30 embeddings in rm24; n(n-1)/2 in the code family")


def test_criterion_03_mod2_classes():
    t0 = time.monotonic()
    lat = rootlat.build_lattice("E8")
    kinds: dict[str, int] = {}
    for cl in lat.mod2_classes():
        kinds[cl.kind] = kinds.get(cl.kind, 0) + 1
    dt = time.monotonic() - t0
    ok = kinds == {"zero": 1, "root-pair": 120, "frame": 135} and dt < 10.0
    _line(3, ok, f"coset census (1, 120, 135) in {dt:.2f}s < 10s")


def test_criterion_04_idempotents_and_gram():
    t0 = time.monotonic()
    c = registry.census("lattice:E8")
    alg = c.algebra
    lat = alg.lattice
    for e in c.elements:
        assert e * e == 2 * e
        assert e.inner(e) == Fraction(1, 4)
    # the coded Gram validated values in {0, 1/32, 1/4} at construction;
    # reproduce every case split of the pairing table
    npairs = lat.npairs
    pairdot = (lat.pairs @ lat.pairs.T) // lat.scale_sq
    classes = lat.mod2_classes()
    reps = np.array([cl.representative for cl in classes], dtype=np.int64)
    par_wx = ((reps @ lat.pairs.T) // lat.scale_sq) % 2   # class x pair parity
    g = c.gram
    # w-w block
    wm = slice(0, npairs)
    wp = slice(npairs, 2 * npairs)
    absdot = np.abs(pairdot)
    same_sign_expect = np.where(np.eye(npairs, dtype=bool), GRAM_QUARTER,
                                np.where(absdot == 1, GRAM_32ND, GRAM_ZERO))
    opp_sign_expect = np.where(absdot == 1, GRAM_32ND, GRAM_ZERO)
    ok = (g[wm, wm] == same_sign_expect).all()
    ok &= (g[wp, wp] == same_sign_expect).all()
    ok &= (g[wm, wp] == opp_sign_expect).all()
    # w-twist block: 1/32 iff the sign condition matches
    tw = slice(2 * npairs, 2 * npairs + 256)
    minus_expect = np.where(par_wx.T == 1, GRAM_32ND, GRAM_ZERO)
    plus_expect = np.where(par_wx.T == 0, GRAM_32ND, GRAM_ZERO)
    ok &= (g[wm, tw] == minus_expect).all()
    ok &= (g[wp, tw] == plus_expect).all()
    # twist-twist block through the coset kind of the difference
    key_index = {cl.key: i for i, cl in enumerate(classes)}
    kind_code = {"zero": GRAM_QUARTER, "root-pair": GRAM_32ND,
                 "frame": GRAM_ZERO}
    coords = [lat.coords(cl.representative) for cl in classes]
    for i in range(256):
        for j in range(i, 256):
            dkey = tuple((int(a - b)) % 2 for a, b in zip(coords[i], coords[j]))
            expect = kind_code[classes[key_index[dkey]].kind]
            ok &= int(g[2 * npairs + i, 2 * npairs + j]) == expect
    dt = time.monotonic() - t0
    ok = bool(ok) and dt < 60.0
    _line(4, ok, f"496 exact idempotents; full Gram reproduces the pairing "
                 f"table in {dt:.1f}s < 60s")


def test_criterion_05_commutant_dimensions():
    ok = True
    dims = {}
    for tag in ("A2", "A3", "D4", "E6", "E7", "E8"):
        alg = registry.algebra(tag)
        kern = alg.commutant_weight2(alg.conformal_wtilde().element)
        dims[tag] = len(kern)
        ok = ok and len(kern) == len(alg.lattice.roots) // 2
    _line(5, ok, f"kernel dimensions {dims} equal half the root counts")


def test_criterion_06_commutant_censuses():
    me8 = registry.census("me8")
    uc = registry.census("uc")
    ok = (len(me8) == 255 and me8.counts_by_kind() ==
          {"twist": 135, "wminus": 120})
    ok = ok and len(uc) == 136 and uc.counts_by_kind() == \
        {"twist": 72, "wminus": 64}
    ok = ok and len(registry.census("me7")) == 63
    ok = ok and len(registry.census("me6")) == 36
    _line(6, ok, "filtered censuses 255 = 120+135, 136 = 64+72, 63, 36")


def test_criterion_07_group_orders():
    t0 = time.monotonic()
    checks = []
    orders = {}
    for spec, expect in (("me8", SP8_ORDER), ("me6", 51840), ("me7", 1451520)):
        o = tp.group_order(list(registry.sigma_table(spec).rows))
        orders[spec] = o
        checks.append(o == expect)
    o496 = tp.group_order(list(registry.sigma_table("lattice:E8").rows))
    orders["full496"] = o496
    checks.append(o496 == 2 * OMEGA_10_PLUS)
    ouc = tp.group_order(list(registry.sigma_table("uc").rows))
    orders["uc"] = ouc
    checks.append(ouc == 2 * OMEGA_8_MINUS)
    # rank-n chains: the involution group follows the permutation table of
    # the reflection group; rank one acts trivially on its single point
    for n in range(1, 6):
        o = tp.group_order(list(registry.sigma_table(f"ma{n}").rows))
        orders[f"ma{n}"] = o
        checks.append(o == (1 if n == 1 else math.factorial(n + 1)))
    dt = time.monotonic() - t0
    ok = all(checks) and dt < 300.0
    _line(7, ok, f"orders {orders}; 496-set = 2*Omega(10,+), "
                 f"U-complement = 2*Omega(8,-); {dt:.0f}s < 300s")


def test_criterion_08_transposition_and_inductive():
    ok = True
    for spec in ("me8", "lattice:E8", "uc", "ma2", "ma3", "ma4", "ma5",
                 "me6", "me7"):
        c = registry.census(spec)
        table = registry.sigma_table(spec)
        good3, _ = tp.is_3transposition(table)
        ok = ok and good3
        space = tp.fischer_space(c, table)
        ok = ok and tp.is_symplectic_type(space, table)
    full = registry.census("lattice:E8")
    table = registry.sigma_table("lattice:E8")
    alg = full.algebra
    wt = alg.conformal_wtilde().element
    phiwt = alg.phi_twist(np.array(registry.alpha0(), dtype=np.int64), wt)
    x, y = full.element_index(wt), full.element_index(phiwt)
    ind = tp.inductive_structure(table.rows, x, y)
    ouc = tp.group_order(list(registry.sigma_table("uc").rows))
    ok = ok and len(ind["d2_points"]) == 136 and ind["d2_order"] == ouc
    _line(8, ok, f"all sigma-sets of 3-transposition symplectic type; "
                 f"two-level commuting set: 136 points, order {ind['d2_order']}")


def test_criterion_09_hamming_frames():
    c = registry.census("hamming24")
    table = registry.sigma_table("hamming24").rows
    frames = tp.enumerate_frames(c)
    ok = len(frames) == 3
    for a in range(3):
        for b in range(3):
            word = tp.frame_conjugator(c, table, frames[a], frames[b])
            ok = ok and tp.apply_word(table, word, frames[a]) == frozenset(frames[b])
            if a != b:
                ok = ok and len(word) == 1
    # single involutions from the third frame swap the other two
    sets = [frozenset(f) for f in frames]
    for a in range(3):
        others = [s for k, s in enumerate(sets) if k != a]
        for e in sets[a]:
            ok = ok and {tp.apply_word(table, [e], o) for o in others} \
                == set(others)
    _line(9, ok, "exactly 3 frames, pairwise conjugate by single involutions")


def test_criterion_10_exact_identities():
    rep8 = verify_twist_chain(registry.algebra("E8"), registry.alpha0())
    rep6 = verify_orthogonal_split(registry.algebra("E6"))
    ok = rep8["ok"] and rep6["ok"]
    _line(10, ok, f"twist-chain identities {rep8['ok']}, "
                  f"rank-6 orthogonal split {rep6['ok']}")


def test_criterion_11_character_identities():
    t0 = time.monotonic()
    checks = qchar.verify_decompositions(8)
    failures = [c["identity"] for c in checks if c["status"] != "pass"]
    dt = time.monotonic() - t0
    ok = not failures and dt < 600.0
    _line(11, ok, f"{len(checks)} exact series identities, failures "
                  f"{failures}, {dt:.0f}s < 600s")


def test_criterion_12_headline_summaries():
    # census-and-order level verification of the classification statements;
    # generation and simplicity claims are documented assumptions
    ok = len(registry.census("lattice:E8")) == 496
    for n in (2, 3):
        c = registry.census(f"lattice:A{n}")
        ok = ok and len(c) == len(registry.lattice(f"A{n}").roots)
    ok = ok and tp.group_order(list(registry.sigma_table("me8").rows)) == SP8_ORDER
    ok = ok and len(registry.census("md4")) == 12
    documented = [
        "idempotent criterion stands in for simplicity of the generated "
        "Virasoro subalgebra",
        "generation of commutants by degree-2 vectors is used, not re-proved",
        "rank-n chain automorphism groups beyond the involution-generated "
        "subgroup are not recomputed",
    ]
    for note in documented:
        print(f"    [documented assumption] {note}")
    _line(12, bool(ok), "classification theorems verified at census, "
                        "dimension and order level")
