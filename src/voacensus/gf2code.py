"""Exact linear algebra over GF(2) for the binary codes used in the census.

Bit-vector convention, used everywhere in the package: a word of length n is
a Python int whose bit i is coordinate i+1 of the printed word.  So the
printed word ``11110000`` of length 8 is the integer with bits 0..3 set.
All codes are stored by a generator matrix in reduced row-echelon form, so
two codes are equal as subspaces iff their generator tuples are equal.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

ENUM_GUARD = 24  # hard cap on code dimension for exhaustive word enumeration


class CodeError(ValueError):
    pass


def word_from_str(s: str) -> int:
    """Parse a printed word like '11110000' (leftmost char = coordinate 1)."""
    w = 0
    for i, ch in enumerate(s):
        if ch == "1":
            w |= 1 << i
        elif ch != "0":
            raise CodeError(f"invalid bit character {ch!r}")
    return w


def word_to_str(w: int, n: int) -> str:
    return "".join("1" if (w >> i) & 1 else "0" for i in range(n))


def weight(w: int) -> int:
    return bin(w).count("1")


def rref(rows: list[int]) -> tuple[int, ...]:
    """Reduced row-echelon form over GF(2); returns the nonzero rows."""
    rows = [r for r in rows]
    out: list[int] = []
    pivots: list[int] = []
    for r in rows:
        for piv, p in zip(pivots, out):
            if (r >> piv) & 1:
                r ^= p
        if r == 0:
            continue
        piv = (r & -r).bit_length() - 1
        for k, (piv2, p2) in enumerate(zip(pivots, out)):
            if (p2 >> piv) & 1:
                out[k] = p2 ^ r
        # keep rows sorted by pivot position
        pos = 0
        while pos < len(pivots) and pivots[pos] < piv:
            pos += 1
        pivots.insert(pos, piv)
        out.insert(pos, r)
    return tuple(out)


@dataclass(frozen=True)
class BinaryCode:
    """A linear subspace of GF(2)^n given by generators in RREF."""

    length: int
    generators: tuple[int, ...]

    @staticmethod
    def from_rows(length: int, rows: list[int]) -> "BinaryCode":
        if length < 1:
            raise CodeError("length must be positive")
        for r in rows:
            if r >> length:
                raise CodeError("generator exceeds code length")
        return BinaryCode(length, rref(rows))

    @property
    def rank(self) -> int:
        return len(self.generators)

    def words(self) -> list[int]:
        """All 2^k codewords (exhaustive; guarded)."""
        k = self.rank
        if k > ENUM_GUARD:
            raise CodeError(f"dimension {k} above enumeration guard {ENUM_GUARD}")
        out = [0]
        for g in self.generators:
            out += [w ^ g for w in out]
        return out

    def __contains__(self, w: int) -> bool:
        for g in self.generators:
            piv = (g & -g).bit_length() - 1
            if (w >> piv) & 1:
                w ^= g
        return w == 0

    def min_weight(self) -> int:
        if self.rank == 0:
            raise CodeError("minimum weight of the zero code is undefined")
        return min(weight(w) for w in self.words() if w)


def dual(code: BinaryCode) -> BinaryCode:
    """The orthogonal complement {v : <v,c> = 0 for all c in code}."""
    n = code.length
    pivots = [(g & -g).bit_length() - 1 for g in code.generators]
    free = [i for i in range(n) if i not in pivots]
    rows = []
    for f in free:
        v = 1 << f
        for piv, g in zip(pivots, code.generators):
            if (g >> f) & 1:
                v |= 1 << piv
        rows.append(v)
    return BinaryCode.from_rows(n, rows)


def hamming8_code() -> BinaryCode:
    gens = ["11111111", "11110000", "11001100", "10101010"]
    return BinaryCode.from_rows(8, [word_from_str(g) for g in gens])


def reed_muller_code(r: int, m: int) -> BinaryCode:
    """RM(r, m): spanned by evaluation vectors of degree-<=r monomials."""
    if not (0 <= r <= m):
        raise CodeError(f"reed_muller requires 0 <= r <= m, got ({r}, {m})")
    n = 1 << m
    rows = []
    for deg in range(r + 1):
        for subset in combinations(range(m), deg):
            w = 0
            for x in range(n):
                if all((x >> i) & 1 for i in subset):
                    w |= 1 << x
            rows.append(w)
    return BinaryCode.from_rows(n, rows)


def cn_code(n: int) -> BinaryCode:
    """Length-4n code spanned by the n blocks 1^4 and the word (1^2 0^2)^n."""
    if n < 1:
        raise CodeError("cn requires n >= 1")
    rows = [0b1111 << (4 * i) for i in range(n)]
    w = 0
    for i in range(n):
        w |= 0b0011 << (4 * i)
    rows.append(w)
    return BinaryCode.from_rows(4 * n, rows)


def gamma_word(length: int) -> int:
    """The alternating word 1010...10 (odd printed positions set)."""
    if length % 2:
        raise CodeError("gamma word needs even length")
    w = 0
    for i in range(0, length, 2):
        w |= 1 << i
    return w


def named_code(name: str, *params: int) -> BinaryCode:
    """Catalog lookup: hamming8 | reed_muller r m | cn n | zero n | full n."""
    if name == "hamming8":
        return hamming8_code()
    if name == "reed_muller":
        return reed_muller_code(*params)
    if name == "cn":
        return cn_code(*params)
    if name == "zero":
        (n,) = params
        if n < 1:
            raise CodeError("zero(n) requires n >= 1")
        return BinaryCode(n, ())
    if name == "full":
        (n,) = params
        if n < 1:
            raise CodeError("full(n) requires n >= 1")
        return BinaryCode.from_rows(n, [1 << i for i in range(n)])
    raise CodeError(f"unknown code name {name!r}")


def structure_code_dplus(n: int) -> BinaryCode:
    """The length-4n code realizing the census of the rank-2n even frame lattice."""
    base = cn_code(n)
    return dual(BinaryCode.from_rows(4 * n, [*base.generators, gamma_word(4 * n)]))


def frame_pair_code(m: int) -> BinaryCode:
    """Length-m code spanned by the m/2 adjacent 1^2 blocks and 1010...10."""
    if m % 2 or m < 2:
        raise CodeError("frame pair code needs even length")
    rows = [0b11 << (2 * i) for i in range(m // 2)]
    rows.append(gamma_word(m))
    return BinaryCode.from_rows(m, rows)


@dataclass(frozen=True)
class HammingEmbedding:
    """A 4-dimensional subcode of `parent` equivalent to the [8,4,4] code."""

    parent: BinaryCode = field(compare=False)
    subcode_generators: tuple[int, ...]
    support: tuple[int, ...]

    @property
    def words(self) -> tuple[int, ...]:
        return tuple(sorted(BinaryCode(self.parent.length, self.subcode_generators).words()))


def hamming_embeddings(code: BinaryCode) -> list[HammingEmbedding]:
    """Every 4-dimensional subcode with the [8,4,4] weight enumerator.

    Such a subcode is <w> for its one weight-8 word w, plus a plane of the
    quotient by w whose 7 nonzero classes {x, x^w} are weight-4 codewords.
    So the classes on each support w come from the disjoint pairs of
    weight-4 codewords, each kept by its smaller word, and a plane is taken
    once, from its smallest class a, the smallest b beyond a and the
    smallest c off the line {a, b, a^b}, before a generator matrix is built.
    Deterministic order: by sorted support, then by the sorted tuple of the
    16 codewords.
    """
    wt4 = [x for x in code.words() if weight(x) == 4]
    classes: dict[int, set[int]] = {}
    for i, x in enumerate(wt4):
        for y in wt4[i + 1:]:
            if not x & y:
                classes.setdefault(x | y, set()).add(min(x, y))
    found: list[HammingEmbedding] = []
    for w, members in classes.items():
        cls = sorted(members)
        for i, a in enumerate(cls):
            for j in range(i + 1, len(cls)):
                b = cls[j]
                ab = min(a ^ b, a ^ b ^ w)
                if ab < b or ab not in members:
                    continue
                for c in cls[j + 1:]:
                    rest = [min(x, x ^ w) for x in (a ^ c, b ^ c, a ^ b ^ c)]
                    if c < min(rest) and members.issuperset(rest):
                        support = tuple(k for k in range(code.length) if (w >> k) & 1)
                        found.append(HammingEmbedding(code, rref([w, a, b, c]), support))
    return sorted(found, key=lambda e: (e.support, e.words))


def parse_code_text(text: str) -> BinaryCode:
    """Code file format: first line 'n k', then k rows of n characters."""
    lines = [ln.strip() for ln in text.strip().splitlines() if ln.strip()]
    if not lines:
        raise CodeError("code text is empty: expected a header line 'n k'")
    try:
        n, k = map(int, lines[0].split())
    except Exception as exc:
        raise CodeError(f"bad header line {lines[0]!r}") from exc
    if len(lines) != k + 1:
        raise CodeError(f"expected {k} generator rows, got {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        if len(ln) != n:
            raise CodeError(f"row {ln!r} does not have length {n}")
        rows.append(word_from_str(ln))
    return BinaryCode.from_rows(n, rows)


def format_code_text(code: BinaryCode) -> str:
    head = f"{code.length} {code.rank}"
    return "\n".join([head] + [word_to_str(g, code.length) for g in code.generators]) + "\n"
