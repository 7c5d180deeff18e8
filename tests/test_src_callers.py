"""Every name the package defines is used by the package.

A definition is a top-level function or class, a method, or an UPPER-case
module constant of `src/voacensus/*.py`.  It is used when its name occurs as
a Name, an Attribute or an import alias anywhere in `src/` outside the lines
of its own definition.  A name that only the tests reach belongs in
`tests/`.  Exempt are dunders, the functions `perfbench/tracer.py` wraps by
name (its TARGETS), and the pinned names below, each with its reason.

A use is matched to a definition by bare name, so a dead method passes when
another definition of its name is called.  Every definition whose bare name
`src/` defines more than once is therefore pinned in SHARED, with the `src/`
use of each, and a new or vanished shared name fails the test until it is
reviewed and pinned.

Run as a script, this prints the names the scan exempts, one per line with
its reason, then the shared names.
"""

import ast
import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "voacensus"
TRACER = ROOT / "perfbench" / "tracer.py"

# (module, qualified name) -> why it stays in src/ without a src/ caller
PINNED = {
    ("transpo", "enumerate_frames"):
        "acceptance criterion 09: the frames of a census",
    ("transpo", "frame_conjugator"):
        "acceptance criterion 09: a sigma word carrying one frame to another",
    ("transpo", "apply_word"):
        "acceptance criterion 09: applies that word",
    ("census", "sigma_type_check"):
        "the paper's parity rule: a Hamming block is of sigma type when every "
        "codeword meets its support evenly (ROADMAP item 4)",
}

# (module, qualified name) of a definition whose bare name is defined more
# than once in src/ -> its own src/ use, which the bare-name scan cannot tell
# from the others'
SHARED = {
    ("census", "IsingPoint.to_json"): "IsingCensus.to_json, point by point",
    ("census", "IsingCensus.to_json"): "cli: the census report",
    ("exact", "rref"): "exact.inverse and exact.kernel: the rational elimination",
    ("gf2code", "rref"): "BinaryCode.from_rows and hamming_embeddings: GF(2) bases",
    ("gf2code", "BinaryCode.words"): "min_weight, hamming_embeddings, sigma_type_check",
    ("gf2code", "HammingEmbedding.words"): "census._coset_reps and the embedding order",
    ("griess", "GriessElement.inner"): "cli griess inner and build, the verify reports",
    ("griess", "GriessAlgebra.inner"): "GriessElement.inner and sigma_image",
    ("griess", "GriessElement.is_zero"): "verify_orthogonal_split",
    ("qchar", "QSeries.is_zero"): "the tower step of qchar",
    ("griess", "GriessElement.coords"): "GriessElement.to_json",
    ("rootlat", "RootLattice.coords"): "RootLattice membership and the theta shift",
    ("griess", "GriessElement.to_json"): "cli griess product",
}


def _tracer_targets() -> set[tuple[str, str]]:
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return {(mod, qual) for mod, quals in module.TARGETS.items() for qual in quals}


def _scan():
    """(definitions, references): definitions as (module, qualname, name,
    first line, last line), references as (module, name, line)."""
    defs, refs = [], []
    for path in sorted(SRC.glob("*.py")):
        mod = path.stem
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defs.append((mod, node.name, node.name, node.lineno, node.end_lineno))
                if isinstance(node, ast.ClassDef):
                    defs += [(mod, f"{node.name}.{sub.name}", sub.name,
                              sub.lineno, sub.end_lineno)
                             for sub in node.body
                             if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef))]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defs += [(mod, t.id, t.id, node.lineno, node.end_lineno)
                         for t in targets if isinstance(t, ast.Name) and t.id.isupper()]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((mod, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((mod, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs += [(mod, name.split(".")[-1], node.lineno)
                         for name in (node.name, node.asname) if name]
    return defs, refs


def uncalled() -> list[tuple[str, str]]:
    """(module, qualname) of every non-dunder definition with no use in src/."""
    defs, refs = _scan()
    used: dict[str, list[tuple[str, int]]] = {}
    for mod, name, line in refs:
        used.setdefault(name, []).append((mod, line))
    return [(mod, qual) for mod, qual, name, lo, hi in defs
            if not (name.startswith("__") and name.endswith("__"))
            and not any(m != mod or not lo <= line <= hi
                        for m, line in used.get(name, ()))]


def shared() -> set[tuple[str, str]]:
    """(module, qualname) of every non-dunder definition whose bare name
    src/ defines more than once."""
    defs = [(mod, qual, name) for mod, qual, name, *_ in _scan()[0]
            if not (name.startswith("__") and name.endswith("__"))]
    counts: dict[str, int] = {}
    for _, _, name in defs:
        counts[name] = counts.get(name, 0) + 1
    return {(mod, qual) for mod, qual, name in defs if counts[name] > 1}


def exemptions(names) -> dict[tuple[str, str], str]:
    """Those of the uncalled `names` the scan lets stand, with the reason
    for each."""
    tracer = _tracer_targets()
    return {key: PINNED.get(key, "wrapped by name in perfbench/tracer.py")
            for key in names if key in PINNED or key in tracer}


def test_every_src_name_has_a_src_caller():
    names = uncalled()
    exempt = exemptions(names)
    left = [f"{mod}.{qual}" for mod, qual in names if (mod, qual) not in exempt]
    assert left == [], "defined in src/ but used only outside it: " + ", ".join(left)


def test_shared_names_are_pinned():
    # a dead method whose name another definition shares passes the scan
    # above: each shared name is pinned with its own use, and a new one fails
    found, pinned = shared(), set(SHARED)
    assert (sorted(found - pinned), sorted(pinned - found)) == ([], []), \
        "(shared names without a pin, pins of names no longer shared)"


def test_pinned_names_are_defined_and_uncalled():
    # a pinned name that is gone or has gained a src/ caller is a stale pin
    defined = {(mod, qual) for mod, qual, *_ in _scan()[0]}
    assert set(PINNED) <= defined
    assert set(PINNED) <= set(uncalled())


if __name__ == "__main__":
    for (mod, qual), reason in sorted(exemptions(uncalled()).items()):
        print(f"{mod}.{qual}: {reason}")
    for mod, qual in sorted(shared()):
        print(f"{mod}.{qual}: shared name; used by {SHARED.get((mod, qual), 'UNPINNED')}")
