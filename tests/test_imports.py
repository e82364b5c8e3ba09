"""Source hygiene: every name a weylrg module imports at module level is used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "weylrg"


def _unused_imports(source: str) -> list[str]:
    """Names bound by the module-level imports of `source` that no Name node reads;
    `from __future__` imports are directives, not names."""
    tree = ast.parse(source)
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return sorted(imported - used)


def test_unused_import_detector():
    src = "from __future__ import annotations\nimport os, sys\nfrom a import b as c, d\nsys.exit(d)\n"
    assert _unused_imports(src) == ["c", "os"]


@pytest.mark.parametrize("path", sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py"),
                         ids=lambda p: p.name)
def test_module_imports_are_used(path):
    assert _unused_imports(path.read_text()) == [], f"unused imports in {path.name}"
