"""Working-set bounds of the realized-census chain.

Every stage from the mod-2 classes to the Fischer checks runs by blocks of
`census.BLOCK_ROWS` rows.  The budgets below bound what a stage allocates
beyond what it keeps (its tracemalloc peak minus its result); a stage that
goes back to whole-batch temporaries exceeds them.  A numpy submodule that
a job pulls in costs more peak RSS than any of these stages, so the import
guard runs the jobs themselves.
"""

import gc
import json
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

from voacensus import census as cz
from voacensus import cli, registry, transpo

SRC = Path(__file__).resolve().parents[1] / "src"
MIB = 1 << 20
# the whole-batch stages allocated about 2 MiB beyond their results on E8
# (1.98 MiB for the census, 1.81 MiB for its sigma-table); by blocks, both
# stay near 0.6 MiB
BUDGET = 1.0 * MIB


def _transient(build) -> int:
    """Bytes `build()` allocates at its peak beyond what it keeps."""
    gc.collect()
    tracemalloc.start()
    try:
        result = build()
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    del result
    return peak - kept


def test_lattice_census_stays_in_its_budget():
    lattice, algebra = registry.lattice("E8"), registry.algebra("E8")
    cz.lattice_census(lattice, algebra)     # first-call caches out of the count
    assert _transient(lambda: cz.lattice_census(lattice, algebra)) < BUDGET


def test_sigma_table_stays_in_its_budget():
    census = registry.census("lattice:E8")
    transpo.sigma_permutations(census)
    assert _transient(lambda: transpo.sigma_permutations(census)) < BUDGET


_JOB_MODULES = """
import json, runpy, sys
sys.argv = ["voacensus.cli", *sys.argv[1:]]
try:
    runpy.run_module("voacensus.cli", run_name="__main__")
except SystemExit:
    pass
print(json.dumps(sorted(m for m in sys.modules if m.startswith("numpy."))), file=sys.stderr)
"""
# numpy submodules that no census job needs; importing one costs several MiB
# of peak RSS per run
UNNEEDED = (["numpy", "random"], ["numpy", "ma"], ["numpy", "fft"], ["numpy", "polynomial"])


def test_census_jobs_import_no_unneeded_numpy_module():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    for args in (["fischer", "--census", "me8"], ["census", "code", "rm24"]):
        out = subprocess.run([sys.executable, "-c", _JOB_MODULES, *args], env=env,
                             capture_output=True, text=True, check=True)
        loaded = json.loads(out.stderr.strip().splitlines()[-1])
        assert loaded, args         # the job did load numpy
        assert [m for m in loaded if m.split(".")[:2] in UNNEEDED] == [], args


def test_noncommuting_pair_reads_rows_not_the_table():
    # the first row with a 1/32 entry gives the pair; a whole-table argwhere
    # held 2.05 MiB on E8's 496 points
    census = registry.census("lattice:E8")
    assert cli._noncommuting_pair(census) == (0, 2)
    assert _transient(lambda: cli._noncommuting_pair(census)) < 0.1 * MIB
