"""No module imports a name that it never uses.

This AST scan stands in for a linter over `src/`, `scripts/`, `tests/`
and `perfbench/`. A package `__init__.py` is exempt: its imports are the
re-exported API.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED_DIRS = ("src", "scripts", "tests", "perfbench")


def _unused_imports(source: str) -> list:
    """Names bound by an import statement and never read, with line numbers."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


def test_scan_flags_only_unused_names():
    source = "import os.path\nimport sys\nfrom math import pi, tau as t\nprint(os.sep, t)\n"
    assert _unused_imports(source) == ["pi (line 3)", "sys (line 2)"]


def test_no_unused_imports():
    unused = []
    for top in SCANNED_DIRS:
        for path in sorted((ROOT / top).rglob("*.py")):
            if path.name == "__init__.py":
                continue
            for entry in _unused_imports(path.read_text()):
                unused.append(f"{path.relative_to(ROOT)}: {entry}")
    assert not unused, f"unused imports: {unused}"
