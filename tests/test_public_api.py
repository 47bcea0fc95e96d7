"""Every public symbol of the package has a caller outside the tests.

A public function, class or method of `src/bartree` must be referenced
somewhere in `src/`, `scripts/` or `perfbench/` other than inside its
own definition: code that only the tests call is either wired into a
workload or deleted. A reference is a name, an attribute access, or a
string naming an attribute (as in a `setattr` patch table). Imports do
not count, so a re-export from `__init__` keeps nothing alive.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "bartree"
CALLER_DIRS = ("src", "scripts", "perfbench")

ALLOWED = {
    # The scalar RNG spec: the executable definition of the node streams
    # and of the BAR step that the vector engine must match bit for bit.
    "tree_sim.initial_randomness",
    "tree_sim.node_randomness",
    "bar_model.bar_transition",
}


def _public_symbols():
    """(module.qualname, name) of every public def, class and method."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            out.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        out.append((f"{module}.{node.name}.{item.name}", item.name))
    return out


class _References(ast.NodeVisitor):
    """Collect referenced names, skipping references to a def from inside it."""

    def __init__(self):
        self.names = set()
        self._enclosing = []

    def _visit_def(self, node):
        self._enclosing.append(node.name)
        self.generic_visit(node)
        self._enclosing.pop()

    visit_FunctionDef = visit_ClassDef = _visit_def

    def _add(self, name):
        if name not in self._enclosing:
            self.names.add(name)

    def visit_Name(self, node):
        self._add(node.id)

    def visit_Attribute(self, node):
        self._add(node.attr)
        self.generic_visit(node)

    def visit_Constant(self, node):
        if isinstance(node.value, str) and node.value.isidentifier():
            self._add(node.value)


def _referenced_names():
    refs = _References()
    for top in CALLER_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if "tests" in path.relative_to(ROOT).parts:
                continue
            refs.visit(ast.parse(path.read_text()))
    return refs.names


def test_every_public_symbol_has_a_caller():
    names = _referenced_names()
    unused = [
        qual for qual, name in _public_symbols() if qual not in ALLOWED and name not in names
    ]
    assert not unused, (
        "public symbols with no caller in src/, scripts/ or perfbench/ "
        f"(wire them into a workload or delete them): {unused}"
    )


def test_allowlist_is_current():
    # an allowlist entry whose symbol is gone, or has since found a
    # caller, must be removed from ALLOWED
    names = _referenced_names()
    symbols = dict(_public_symbols())
    stale = [q for q in sorted(ALLOWED) if q not in symbols or symbols[q] in names]
    assert not stale, f"stale ALLOWED entries: {stale}"
