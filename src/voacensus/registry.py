"""Shared object registry: string tags resolving to codes, lattices, censuses.

The CLI and the test suite resolve every object through this module, so the
same cached instances back both.  All constructions are deterministic.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from . import census as census_mod
from . import gf2code, rootlat
from .griess import GriessAlgebra, GriessElement


class RegistryError(ValueError):
    pass


CODE_TAGS = ("hamming8", "rm14", "rm24", "cn2", "cn3", "cn4",
             "dcode4", "dcode6", "dcode8")


@lru_cache(maxsize=None)
def code(tag: str) -> gf2code.BinaryCode:
    """Resolve a catalog code tag (or read `file:PATH`)."""
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
    return [part.strip().upper() for part in spec.split("+") if part.strip()]


@lru_cache(maxsize=None)
def lattice(tag: str) -> rootlat.RootLattice:
    try:
        return rootlat.build_lattice(tag)
    except rootlat.LatticeError as exc:
        raise RegistryError(str(exc)) from exc


@lru_cache(maxsize=None)
def algebra(tag: str) -> GriessAlgebra:
    return GriessAlgebra(lattice(tag))


@lru_cache(maxsize=None)
def alpha0() -> tuple:
    return rootlat.sublattice_embedding("A1_E7_in_E8").alpha0


def constraint_element(alg: GriessAlgebra, name: str) -> GriessElement:
    """Constraint vectors for commutant filters: wtilde | s | phi:alpha0."""
    name = name.strip().lower()
    if name == "wtilde":
        return alg.conformal_wtilde().element
    if name == "s":
        return alg.conformal_s().element
    if name == "phi:alpha0":
        wt = alg.conformal_wtilde().element
        return alg.phi_twist(np.array(alpha0(), dtype=np.int64), wt)
    raise RegistryError(f"unknown constraint {name!r}")


@lru_cache(maxsize=None)
def lattice_census(spec: str) -> census_mod.IsingCensus:
    """Census of a lattice spec; direct sums are concatenated blockwise."""
    tags = lattice_tags(spec)
    if not tags:
        raise RegistryError("empty lattice spec")
    if len(tags) == 1:
        tag = tags[0]
        return census_mod.lattice_census(lattice(tag), algebra(tag))
    parts = [census_mod.lattice_census(lattice(t), algebra(t)) for t in tags]
    return _direct_sum_census(parts, spec)


def _direct_sum_census(parts, spec: str) -> census_mod.IsingCensus:
    points = []
    total = sum(len(p) for p in parts)
    gram = np.zeros((total, total), dtype=np.int8)
    offset = 0
    blocks = []
    for p in parts:
        points.extend(p.points)
        gram[offset:offset + len(p), offset:offset + len(p)] = p.gram
        blocks.append((offset, p))
        offset += len(p)
    frame = sum(p.frame_size for p in parts)
    return census_mod.IsingCensus(points, None, gram, f"lattice:{spec}",
                                  frame_size=frame, blocks=blocks)


@lru_cache(maxsize=None)
def commutant_census(spec: str, constraints: str) -> census_mod.IsingCensus:
    """Filter the lattice census of `spec` by comma-separated constraints."""
    tags = lattice_tags(spec)
    if len(tags) != 1:
        raise RegistryError("commutant filters need an indecomposable lattice")
    alg = algebra(tags[0])
    base = lattice_census(spec)
    elems = [constraint_element(alg, c) for c in constraints.split(",") if c]
    return census_mod.commutant_filter(
        base, elems, f"commutant:{spec}:{constraints}")


@lru_cache(maxsize=None)
def code_census(tag: str) -> census_mod.IsingCensus:
    c = code(tag)
    return census_mod.code_census(c, realize=census_mod.paired_model(c))


CENSUS_ALIASES = {
    "hamming24": ("code", "hamming8"),
    "me8": ("commutant", "E8", "wtilde"),
    "me7": ("commutant", "E7", "wtilde"),
    "me6": ("commutant", "E6", "wtilde"),
    "md4": ("commutant", "D4", "wtilde"),
    "uc": ("commutant", "E8", "wtilde,phi:alpha0"),
    "e8full": ("lattice", "E8"),
}
for _n in range(1, 6):
    CENSUS_ALIASES[f"ma{_n}"] = ("commutant", f"A{_n}", "wtilde")


@lru_cache(maxsize=None)
def census(spec: str) -> census_mod.IsingCensus:
    """Resolve a census spec.

    Forms: an alias (me8, uc, hamming24, ma1..ma5, e8full, md4),
    `code:<tag>`, `lattice:<spec>`, or
    `commutant:<lattice>:<constraints>`.
    """
    spec = spec.strip()
    low = spec.lower()
    if low in CENSUS_ALIASES:
        kind, *rest = CENSUS_ALIASES[low]
        if kind == "code":
            return code_census(rest[0])
        if kind == "lattice":
            return lattice_census(rest[0])
        return commutant_census(rest[0], rest[1])
    if ":" in spec:
        kind, rest = spec.split(":", 1)
        kind = kind.lower()
        if kind == "code":
            return code_census(rest)
        if kind == "lattice":
            return lattice_census(rest)
        if kind == "commutant":
            lat, cons = rest.split(":", 1)
            return commutant_census(lat, cons)
    raise RegistryError(f"unknown census spec {spec!r}")


@lru_cache(maxsize=None)
def sigma_table(spec: str):
    """Involution table of a census (see `transpo.sigma_permutations`)."""
    from . import transpo
    return transpo.sigma_permutations(census(spec))
