"""Shared object registry: string tags resolving to codes, lattices, censuses.

The CLI and the test suite resolve every object through this module, so the
same cached instances back both.  All constructions are deterministic.
Every module is imported by the functions that use it: `gf2code` by
`code`, numpy and the lattice, Griess and census modules by the lattice and
census resolvers.  So a `characters` job, which reads only `RegistryError`,
loads no code module, and resolving a code loads `gf2code` and no numpy.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from . import census as census_mod
    from . import gf2code
    from . import rootlat
    from .griess import GriessAlgebra, GriessElement


class RegistryError(ValueError):
    pass


@lru_cache(maxsize=None)
def code(tag: str) -> gf2code.BinaryCode:
    """Resolve a catalog code tag (or read `file:PATH`)."""
    from . import gf2code
    if tag[:5].lower() == "file:":
        try:
            with open(tag[5:], "r", encoding="ascii") as fh:
                return gf2code.parse_code_text(fh.read())
        except OSError as exc:
            raise RegistryError(f"cannot read code file {tag[5:]!r}: "
                                f"{exc.strerror}") from exc
    tag = tag.lower()
    if tag == "hamming8" or tag == "h8":
        return gf2code.named_code("hamming8")
    if tag.startswith("rm") and len(tag) == 4:
        return gf2code.named_code("reed_muller", int(tag[2]), int(tag[3]))
    if tag.startswith("cn"):
        return gf2code.named_code("cn", int(tag[2:]))
    if tag.startswith("dcode"):
        m = int(tag[5:])
        if m % 2:
            raise RegistryError(f"tag {tag}: rank must be even")
        return gf2code.structure_code_dplus(m // 2)
    if tag.startswith("zero"):
        return gf2code.named_code("zero", int(tag[4:]))
    if tag.startswith("full"):
        return gf2code.named_code("full", int(tag[4:]))
    raise RegistryError(f"unknown code tag {tag!r}")


def lattice_tags(spec: str) -> list[str]:
    """The summands of a lattice spec, stripped and upper-cased."""
    tags = [part.strip().upper() for part in spec.split("+")]
    if not all(tags):
        raise RegistryError(f"lattice spec {spec!r} has an empty summand")
    return tags


@lru_cache(maxsize=None)
def lattice(tag: str) -> rootlat.RootLattice:
    """The model of a catalog tag.  Every lattice resolved here gets a
    Griess algebra, so one past `griess.DIM_GUARD` is refused from its type
    alone, before its roots are derived."""
    from . import griess, rootlat
    try:
        kind, rank = rootlat.lattice_type(tag)
        griess.guard_dimension(rank, rootlat.root_count(kind, rank) // 2)
        return rootlat.build_lattice(tag)
    except rootlat.LatticeError as exc:
        raise RegistryError(str(exc)) from exc


@lru_cache(maxsize=None)
def algebra(tag: str) -> GriessAlgebra:
    from .griess import GriessAlgebra
    return GriessAlgebra(lattice(tag))


def alpha0() -> tuple:
    """The largest root of E8: the last of its lexicographically sorted roots."""
    return tuple(lattice("E8").roots[-1].tolist())


def constraint_element(alg: GriessAlgebra, name: str) -> GriessElement:
    """Constraint vectors for commutant filters: wtilde | s | phi:alpha0, the
    twist of wtilde by the largest root of `alg`'s lattice (`alpha0()` on E8)."""
    name = name.strip().lower()
    if name == "wtilde":
        return alg.conformal_wtilde().element
    if name == "s":
        return alg.conformal_s().element
    if name == "phi:alpha0":
        wt = alg.conformal_wtilde().element
        return alg.phi_twist(alg.lattice.roots[-1], wt)
    raise RegistryError(f"unknown constraint {name!r}")


CENSUS_ALIASES = {
    "hamming24": "code:hamming8",
    "me8": "commutant:E8:wtilde",
    "me7": "commutant:E7:wtilde",
    "me6": "commutant:E6:wtilde",
    "md4": "commutant:D4:wtilde",
    "uc": "commutant:E8:wtilde,phi:alpha0",
    "e8full": "lattice:E8",
}
for _n in range(1, 6):
    CENSUS_ALIASES[f"ma{_n}"] = f"commutant:A{_n}:wtilde"


def census(spec: str) -> census_mod.IsingCensus:
    """Resolve a census spec, built once per process in one spelling.

    Forms: `code:<tag>`, `lattice:<spec>`,
    `commutant:<lattice>:<constraints>`, or an alias (me8, uc, hamming24,
    ma1..ma5, e8full, md4) standing for one of them.  The cache key has
    lattice tags stripped, upper-cased and joined by `+`, and code tags and
    constraint names stripped and lower-cased (a `file:` path as given).
    """
    spec = spec.strip()
    spec = CENSUS_ALIASES.get(spec.lower(), spec)
    kind, colon, rest = spec.partition(":")
    kind = kind.lower()
    if colon and kind == "code":
        return _census("code:" + (rest if rest[:5].lower() == "file:"
                                  else rest.strip().lower()))
    if colon and kind == "lattice":
        return _census("lattice:" + "+".join(lattice_tags(rest)))
    if colon and kind == "commutant":
        lat, colon, cons = rest.partition(":")
        names = [name.strip().lower() for name in cons.split(",")]
        if not colon or not all(names):
            raise RegistryError("commutant specs have the form "
                                "commutant:<lattice>:<constraint>[,<constraint>...]")
        tags = lattice_tags(lat)
        if len(tags) != 1:
            raise RegistryError("commutant filters need an indecomposable lattice")
        return _census(f"commutant:{tags[0]}:{','.join(names)}")
    raise RegistryError(f"unknown census spec {spec!r}")


@lru_cache(maxsize=None)
def _census(spec: str) -> census_mod.IsingCensus:
    """The census of a spec spelled as `census` keys it; a code's is read
    off its paired model's lattice census and that census's sigma-table."""
    from . import census as census_mod
    kind, rest = spec.split(":", 1)
    if kind == "lattice":
        tags = rest.split("+")
        if len(tags) == 1:
            return census_mod.lattice_census(lattice(rest), algebra(rest))
        return census_mod.direct_sum([_census(f"lattice:{t}") for t in tags], spec)
    if kind == "commutant":
        tag, constraints = rest.split(":", 1)
        alg = algebra(tag)
        elems = [constraint_element(alg, c) for c in constraints.split(",")]
        return census_mod.commutant_filter(lattice(tag), alg, elems, spec)
    c = code(rest)
    model = census_mod.paired_model(c)
    if model is None:
        return census_mod.code_census(c)
    base = _census(f"lattice:{model}")
    return census_mod.code_census(c, realize=base, sigmas=_sigma_table(base))


def sigma_table(spec: str):
    """Checked involution table (see `transpo.SigmaTable`), one per census."""
    return _sigma_table(census(spec))


@lru_cache(maxsize=None)
def _sigma_table(c: census_mod.IsingCensus):
    """The one assembly point of sigma-tables: a derived census gathers each
    source's table through `pos` (sigma_{pos a} sends pos b to pos sigma_a(b),
    seeds map along); any other takes `transpo.sigma_permutations`."""
    from . import transpo
    if c.sources is None:
        return transpo.sigma_permutations(c)
    import numpy as np
    rows = np.tile(np.arange(len(c), dtype=np.int32), (len(c), 1))
    seeds = []
    for src, pos in c.sources:
        table = _sigma_table(src)
        rows[np.ix_(pos, pos)] = pos[table.rows]
        seeds.append(pos[table.seeds])
    return transpo.SigmaTable(rows, c.gram, np.concatenate(seeds))
