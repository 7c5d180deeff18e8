"""Workloads: fixed lists of CLI jobs, seeded arguments and output checks.

A job is one `python -m voacensus.cli ARGS` invocation.  Fixed jobs are
checked byte for byte against the report pinned in `expected/` (exit code
and JSON text with the `wall_time_s` line removed).  Seeded jobs get their
arguments from the workload seed and are checked by an exact relation that
does not come from the code path they time.
"""

from __future__ import annotations

import json
import random
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from pathlib import Path
from typing import Callable

EXPECTED = Path(__file__).resolve().parent / "expected"

# the key is dropped with its line and the comma that joined it to the report
_WALL_TIME = re.compile(rb',\n[ \t]*"wall_time_s": [-+0-9.eE]+(?=\n)'
                        rb'|\n[ \t]*"wall_time_s": [-+0-9.eE]+,(?=\n)')


def strip_wall_time(stdout: bytes) -> bytes:
    """The report without its `wall_time_s` field, still valid JSON."""
    return _WALL_TIME.sub(b"", stdout)


def slug(args: tuple[str, ...]) -> str:
    text = "_".join(args).replace("+", "p")
    return re.sub(r"[^A-Za-z0-9.-]+", "_", text).strip("_")


@dataclass(frozen=True)
class Job:
    args: tuple[str, ...]
    # (exit code, stdout) -> None when correct, else the reason
    check: Callable[[int, bytes], str | None]

    @property
    def command(self) -> str:
        return self.args[0]

    @property
    def name(self) -> str:
        return slug(self.args)


def load_pinned(args: tuple[str, ...]) -> tuple[int, bytes]:
    name = slug(args)
    exit_code = json.loads((EXPECTED / "exit_codes.json").read_text())[name]
    return exit_code, (EXPECTED / f"{name}.out").read_bytes()


def _compare(want_code: int, want_out: bytes, code: int, out: bytes) -> str | None:
    if code != want_code:
        return f"exit code {code}, pinned {want_code}"
    if strip_wall_time(out) != want_out:
        return "report differs from the pinned report"
    return None


def pinned_job(*args: str, extra: Callable[[bytes], str | None] | None = None) -> Job:
    """A job checked against its pinned report, then by `extra` if given."""
    want_code, want_out = load_pinned(args)

    def check(code: int, out: bytes) -> str | None:
        return (_compare(want_code, want_out, code, out)
                or (extra(out) if extra else None))
    return Job(args, check)


# -- seeded jobs -------------------------------------------------------------

GRAM_SPEC = ("census", "lattice", "E8", "--gram")
INNER_TEMPLATE = ("griess", "inner", "E8", "w+:0", "w+:0")
E8_PAIRS = 120


@lru_cache(maxsize=None)
def _e8_gram() -> dict:
    return json.loads(load_pinned(GRAM_SPEC)[1])["results"]


def _e8_gram_value(sign: str, i: int, other_sign: str, j: int) -> str:
    """Inner product of two frame vectors, read from the pinned E8 Gram.

    Census rows 0..119 are w-:p and rows 120..239 are w+:p.
    """
    report = _e8_gram()
    row = i + (E8_PAIRS if sign == "+" else 0)
    col = j + (E8_PAIRS if other_sign == "+" else 0)
    return report["gram_legend"][report["gram_dense"][row][col]]


def griess_inner_job(rng: random.Random) -> Job:
    """`griess inner E8 w±:i w±:j`, checked against the pinned Gram entry."""
    (s1, i), (s2, j) = [(rng.choice("+-"), rng.randrange(E8_PAIRS)) for _ in range(2)]
    value = _e8_gram_value(s1, i, s2, j)
    _, template = load_pinned(INNER_TEMPLATE)
    want = template.replace(b'"inner": "1/4"', f'"inner": "{value}"'.encode())
    return Job(("griess", "inner", "E8", f"w{s1}:{i}", f"w{s2}:{j}"),
               lambda code, out: _compare(0, want, code, out))


def _man_vacuum_check(N: int) -> Callable[[bytes], str | None]:
    """man:N:0 starts 1 + 0 q + N(N+1)/2 q^2 (the rank-N chain count)."""
    def check(out: bytes) -> str | None:
        terms = {Fraction(e): c for e, c in json.loads(out)["results"]["terms"]}
        got = (terms.get(Fraction(0), 0), terms.get(Fraction(1), 0),
               terms.get(Fraction(2), 0))
        want = (1, 0, N * (N + 1) // 2)
        return None if got == want else f"man:{N}:0 starts {got}, expected {want}"
    return check


MAN_RANKS = (4, 5, 6)
MAN_CUTOFF = "8"


def man_args(N: int, twos: int) -> tuple[str, ...]:
    return ("characters", "show", f"man:{N}:{twos}", "--cutoff", MAN_CUTOFF)


def man_jobs(rng: random.Random) -> list[Job]:
    """One tower character per rank in MAN_RANKS; the seed picks the labels.

    Exactly one rank, chosen by the seed, gets label 0 and so the exact
    q^2 check; the others get a seeded nonzero even label.  Every report is
    also compared with its pinned copy.
    """
    vacuum = rng.choice(MAN_RANKS)
    jobs = []
    for N in MAN_RANKS:
        if N == vacuum:
            jobs.append(pinned_job(*man_args(N, 0), extra=_man_vacuum_check(N)))
        else:
            jobs.append(pinned_job(*man_args(N, rng.choice(range(2, N + 2, 2)))))
    return jobs


# -- workloads ------------------------------------------------------------------

SIGMA_GROUPS = [
    ("fischer", "--census", "me8"),
    ("group", "--census", "uc", "--inductive"),
]

CHARACTERS = [
    ("characters", "verify", "--cutoff", "4"),
    ("characters", "show", "vfull:E8", "--cutoff", "6"),
]

CATALOG_MIX = [
    ("griess", "build", "E8"),
    ("griess", "commutant", "E6", "wtilde"),
    ("griess", "commutant", "E7", "wtilde"),
    ("griess", "verify", "twist-chain"),
    ("griess", "verify", "orthogonal-split"),
    ("census", "code", "rm24"),
    ("census", "code", "hamming8"),
    ("census", "code", "dcode8"),
    GRAM_SPEC,
    ("census", "commutant", "E8", "--orthogonal-to", "wtilde,phi:alpha0"),
    ("group", "--census", "me6"),
    ("group", "--census", "ma5"),
    ("group", "--census", "hamming24"),
    ("group", "--census", "me7", "--inductive"),
    ("fischer", "--census", "hamming24"),
]

INNER_JOBS = 3


def sigma_groups(rng: random.Random) -> list[Job]:
    return [pinned_job(*a) for a in SIGMA_GROUPS]


def characters(rng: random.Random) -> list[Job]:
    return [pinned_job(*a) for a in CHARACTERS] + man_jobs(rng)


def catalog_mix(rng: random.Random) -> list[Job]:
    jobs = [pinned_job(*a) for a in CATALOG_MIX]
    return jobs + [griess_inner_job(rng) for _ in range(INNER_JOBS)]


WORKLOADS = {
    "sigma-groups": sigma_groups,
    "characters": characters,
    "catalog-mix": catalog_mix,
}


def workload_jobs(name: str, seed: int) -> list[Job]:
    return WORKLOADS[name](random.Random(f"{name}:{seed}"))


def pinned_args() -> list[tuple[str, ...]]:
    """Every invocation whose report is pinned in expected/."""
    out = SIGMA_GROUPS + CHARACTERS + CATALOG_MIX + [INNER_TEMPLATE]
    out += [man_args(N, twos) for N in MAN_RANKS for twos in range(0, N + 2, 2)]
    return out
