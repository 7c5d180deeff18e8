"""Every integer matrix product of the package goes through `exact.int_product`.

`int_product` checks the bound of a product before it multiplies and takes
BLAS only where float64 is exact.  A product written directly, with `@`,
`@=`, `np.dot`, `np.matmul` or `np.einsum`, checks nothing, so the scan below
fails on any of them in `src/voacensus/*.py` outside `exact.py`, except in
the functions pinned here with their reasons.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "voacensus"

PRODUCTS = {"dot", "matmul", "einsum"}

# (module, qualified name) -> why its products may stay direct
EXEMPT = {
    ("griess", "GriessAlgebra.expand"):
        "object arrays: the products run on Python ints, which cannot overflow",
    ("rootlat", "RootLattice.coords"):
        "object arrays: the products run on Python ints, which cannot overflow",
    ("transpo", "check_fischer_hypotheses"):
        "boolean arrays: a boolean product is an or of ands, with no sum to bound",
}


def _is_product(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in PRODUCTS and isinstance(node.func.value, ast.Name)
            and node.func.value.id in ("np", "numpy"))


def direct_products() -> dict[tuple[str, str], list[int]]:
    """(module, qualified name of the innermost enclosing def, or the module
    level as "") -> line of each direct product in it."""
    found: dict[tuple[str, str], list[int]] = {}

    def visit(node, mod, qual):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, mod, f"{qual}.{child.name}" if qual else child.name)
                continue
            if _is_product(child):
                found.setdefault((mod, qual), []).append(child.lineno)
            visit(child, mod, qual)

    for path in sorted(SRC.glob("*.py")):
        if path.stem != "exact":
            visit(ast.parse(path.read_text()), path.stem, "")
    return found


def test_integer_products_go_through_int_product():
    left = {f"{mod}.{qual or '<module>'}": lines
            for (mod, qual), lines in direct_products().items()
            if (mod, qual) not in EXEMPT}
    assert left == {}, "direct products outside exact.int_product (lines): " + str(left)


def test_exemptions_are_not_stale():
    assert set(EXEMPT) <= set(direct_products())


def test_the_scan_sees_each_form():
    tree = ast.parse("a @ b\na @= b\nnp.dot(a, b)\nnumpy.matmul(a, b)\n"
                     "np.einsum('ij,jk->ik', a, b)\nalg.inner(a, b)\nnp.outer(a, b)\n")
    assert [_is_product(node) for node in ast.walk(tree)
            if isinstance(node, (ast.BinOp, ast.AugAssign, ast.Call))] == \
        [True, True, True, True, True, False, False]
