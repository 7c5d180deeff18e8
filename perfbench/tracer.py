"""Run one voacensus CLI invocation with spans recorded around layer functions.

Usage: python3 perfbench/tracer.py SUMMARY.json CLI-ARG...

The package is imported, the functions named in TARGETS are replaced by
wrappers that record a span (name, start, end, parent) per call, and then
`voacensus.cli.main` runs on the given arguments exactly as
`python -m voacensus.cli` would.  Spans stay in memory until the job ends;
then they are reduced to calls, total time and self time per function and
written to SUMMARY.json.  Nothing under src/ is modified.
"""

from __future__ import annotations

import importlib
import json
import sys
from time import perf_counter

# module -> wrapped functions, by qualified name inside the module
TARGETS = {
    "gf2code": ["hamming_embeddings"],
    "rootlat": ["build_lattice", "norm_counts", "RootLattice.mod2_classes"],
    "griess": ["GriessAlgebra.product", "GriessAlgebra.inner",
               "GriessAlgebra.sigma_image", "GriessAlgebra.commutant_weight2"],
    "census": ["IsingCensus.element_index", "lattice_census", "code_census",
               "commutant_filter", "gram_from_elements"],
    "registry": ["census", "sigma_table"],
    "transpo": ["sigma_permutations", "is_3transposition", "fischer_space",
                "is_symplectic_type", "check_fischer_hypotheses", "group_order",
                "PermutationGroup.sift", "inductive_structure"],
    "qchar": ["verify_decompositions", "man_character", "QSeries.__mul__",
              "minimal_character", "w_character", "vfull_character"],
    "cli": ["run", "_emit"],
}

SPAN_NAMES = [f"{mod}.{qual}" for mod, quals in TARGETS.items() for qual in quals]


class SpanRecorder:
    """Spans as parallel lists; a span's parent is the span open at its start."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._open: list[int] = []

    def wrap(self, name: str, fn):
        names, starts, ends, parents, open_ = (
            self.names, self.starts, self.ends, self.parents, self._open)

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name)
            parents.append(open_[-1] if open_ else -1)
            ends.append(0.0)
            open_.append(idx)
            starts.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = perf_counter()
                open_.pop()

        return traced

    def summary(self) -> dict:
        """name -> [calls, total_s, self_s].

        Self time is a span's duration minus that of its direct children.
        Total time counts only spans with no open span of the same name
        above them, so recursion is not counted twice.
        """
        n = len(self.names)
        dur = [self.ends[i] - self.starts[i] for i in range(n)]
        child = [0.0] * n
        for i, p in enumerate(self.parents):
            if p >= 0:
                child[p] += dur[i]
        out = {name: [0, 0.0, 0.0] for name in SPAN_NAMES}
        for i, name in enumerate(self.names):
            row = out[name]
            row[0] += 1
            row[2] += dur[i] - child[i]
            p = self.parents[i]
            while p >= 0 and self.names[p] != name:
                p = self.parents[p]
            if p < 0:
                row[1] += dur[i]
        return out


def install(recorder: SpanRecorder) -> None:
    """Wrap every target, rebinding each name wherever the package holds it."""
    package = importlib.import_module("voacensus")
    modules = {mod: importlib.import_module(f"voacensus.{mod}") for mod in TARGETS}
    holders = [package, *modules.values()]
    for mod, quals in TARGETS.items():
        for qual in quals:
            *path, attr = qual.split(".")
            owner = modules[mod]
            for part in path:
                owner = getattr(owner, part)
            orig = vars(owner)[attr]
            wrapped = recorder.wrap(f"{mod}.{qual}", orig)
            setattr(owner, attr, wrapped)
            if path:
                continue
            for holder in holders:
                for key, val in list(vars(holder).items()):
                    if val is orig:
                        setattr(holder, key, wrapped)


def main(argv: list[str]) -> int:
    summary_path, cli_args = argv[0], argv[1:]
    recorder = SpanRecorder()
    install(recorder)
    from voacensus import cli
    try:
        code = cli.main(cli_args)
    finally:
        sys.stdout.flush()
        with open(summary_path, "w", encoding="utf-8") as fh:
            json.dump({"spans": len(recorder.names),
                       "functions": recorder.summary()}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
