"""Every function `perfbench/tracer.py` wraps resolves under its name.

The tracer rebinds functions by name, so a function it names that is
renamed or deleted would otherwise fail only the traced benchmark run.  The
names are read from the tracer's TARGETS and resolved as its `install`
resolves them; nothing is wrapped.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TARGETS = _tracer().TARGETS


@pytest.mark.parametrize("mod, qual", [(mod, qual) for mod, quals in TARGETS.items()
                                       for qual in quals],
                         ids=lambda x: x)
def test_tracer_target_resolves(mod, qual):
    *path, attr = qual.split(".")
    owner = importlib.import_module(f"voacensus.{mod}")
    for part in path:
        owner = getattr(owner, part)
    assert callable(vars(owner).get(attr)), f"voacensus.{mod}.{qual}"
