"""Exact censuses of central-charge-1/2 idempotents in code and lattice
vertex algebras, the 3-transposition groups their involutions generate, and
the q-series characters of the associated commutant algebras."""

__version__ = "0.1.0"


class CheckError(ValueError):
    """A computed object failed a mathematical check (CLI exit 1, not 2)."""
