import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import census_oracle as oracle
from voacensus import gf2code as gc
from voacensus import registry


def test_hamming8_weight_enumerator():
    h8 = gc.named_code("hamming8")
    assert h8.length == 8 and h8.rank == 4
    assert h8.weight_enumerator() == (1, 0, 0, 0, 14, 0, 0, 0, 1)


def test_hamming8_self_dual():
    h8 = gc.named_code("hamming8")
    assert gc.dual(h8) == h8
    assert h8.min_weight() == 4


def test_reed_muller_duality():
    rm14 = gc.named_code("reed_muller", 1, 4)
    rm24 = gc.named_code("reed_muller", 2, 4)
    assert gc.dual(rm14) == rm24
    assert gc.dual(rm24) == rm14
    assert rm24.min_weight() == 4


def test_d_construction_matches_first_order():
    h8 = gc.named_code("hamming8")
    assert gc.d_construction(h8, 1) == gc.named_code("reed_muller", 1, 4)
    d0 = gc.d_construction(h8, 0)
    assert d0.rank == gc.dual(h8).rank


def test_zero_full_duality():
    assert gc.dual(gc.named_code("zero", 5)) == gc.named_code("full", 5)
    assert gc.dual(gc.named_code("full", 7)) == gc.named_code("zero", 7)
    assert gc.named_code("full", 3).min_weight() == 1


def test_named_code_errors():
    with pytest.raises(gc.CodeError):
        gc.named_code("nonsense")
    with pytest.raises(gc.CodeError):
        gc.named_code("reed_muller", 5, 4)
    with pytest.raises(gc.CodeError):
        gc.named_code("zero", 0)


def test_d_construction_index():
    # index 2 exactly when the alternating word is outside the doubled dual
    for name, params in (("hamming8", ()), ("cn", (2,)), ("full", (4,))):
        c = gc.named_code(name, *params)
        d0 = gc.d_construction(c, 0)
        d1 = gc.d_construction(c, 1)
        assert all(g in d1 for g in d0.generators)
        gamma = gc.gamma_word(2 * c.length)
        index = 1 << (d1.rank - d0.rank)
        assert index == (1 if gamma in d0 else 2)


def test_embeddings_rm24():
    rm24 = gc.named_code("reed_muller", 2, 4)
    embs = gc.hamming_embeddings(rm24)
    assert len(embs) == 30
    rm14 = gc.named_code("reed_muller", 1, 4)
    for e in embs:
        support_word = 0
        for i in e.support:
            support_word |= 1 << i
        assert support_word in rm14
        assert e.restricted_enumerator() == gc.HAMMING_ENUMERATOR


def test_embeddings_hamming_and_dplus():
    assert len(gc.hamming_embeddings(gc.named_code("hamming8"))) == 1
    for n in (2, 3, 4):
        code = gc.structure_code_dplus(n)
        assert len(gc.hamming_embeddings(code)) == n * (n - 1) // 2


def test_dplus2_is_hamming():
    assert gc.structure_code_dplus(2) == gc.named_code("hamming8")


def test_min_weight_two_paths():
    # row-span enumeration vs brute-force parity-check null space
    for name, params in (("hamming8", ()), ("reed_muller", (1, 4)), ("cn", (3,))):
        c = gc.named_code(name, *params)
        d = gc.dual(c)
        direct = d.min_weight()
        null = [v for v in range(1, 1 << c.length)
                if all(gc.dot2(v, g) == 0 for g in c.generators)]
        assert direct == min(gc.weight(v) for v in null)


def test_file_roundtrip(tmp_path):
    c = gc.named_code("cn", 3)
    text = gc.format_code_text(c)
    back = gc.parse_code_text(text)
    assert back == c
    assert gc.format_code_text(back) == text


def test_parse_errors():
    with pytest.raises(gc.CodeError):
        gc.parse_code_text("4 2\n1010\n10")
    with pytest.raises(gc.CodeError):
        gc.parse_code_text("bogus\n")


@st.composite
def random_code(draw):
    n = draw(st.integers(min_value=1, max_value=10))
    k = draw(st.integers(min_value=0, max_value=n))
    rows = draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                         min_size=k, max_size=k))
    return gc.BinaryCode.from_rows(n, rows)


@settings(max_examples=60, deadline=None)
@given(random_code())
def test_dual_involution(code):
    assert gc.dual(gc.dual(code)) == code
    assert code.rank + gc.dual(code).rank == code.length


@settings(max_examples=60, deadline=None)
@given(random_code())
def test_words_closed_under_addition(code):
    words = set(code.words())
    assert len(words) == 1 << code.rank
    sample = sorted(words)[: min(len(words), 8)]
    for a in sample:
        for b in sample:
            assert a ^ b in words


# the catalog and structure_code_dplus(5), (6), which pair with D10C, D12C
@pytest.mark.parametrize("tag", [*registry.CODE_TAGS, "dcode10", "dcode12"])
def test_hamming_embeddings_match_trio_oracle(tag):
    code = registry.code(tag)
    assert gc.hamming_embeddings(code) == oracle.hamming_embeddings_by_trio(code)


@st.composite
def code_with_hamming_block(draw):
    """A code holding the [8,4,4] code on 8 of its n coordinates, plus rows."""
    n = draw(st.integers(min_value=8, max_value=12))
    place = draw(st.permutations(range(n)))[:8]
    rows = [sum(1 << place[k] for k in range(8) if (g >> k) & 1)
            for g in gc.named_code("hamming8").generators]
    rows += draw(st.lists(st.integers(min_value=0, max_value=(1 << n) - 1),
                          max_size=4))
    return gc.BinaryCode.from_rows(n, rows)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.one_of(random_code(), code_with_hamming_block()), st.data())
def test_embeddings_and_support_subcode_match_oracle(code, data):
    assert gc.hamming_embeddings(code) == oracle.hamming_embeddings_by_trio(code)
    # the trio oracle's subcode on a support: the codewords inside it
    mask = data.draw(st.integers(min_value=0, max_value=(1 << code.length) - 1))
    assert set(oracle._subcode_on_support(code, mask).words()) == \
        {x for x in code.words() if not x & ~mask}


def test_enumeration_guard():
    big = gc.named_code("full", 25)
    with pytest.raises(gc.CodeError):
        big.words()
    with pytest.raises(gc.CodeError):
        gc.named_code("zero", 4).min_weight()
