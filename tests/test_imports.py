"""Source hygiene: every name a weylrg module imports at module level is used,
and every private module-level name is read somewhere in the package."""

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


def _dead_privates(sources: dict) -> list[str]:
    """"module.name" of each module-level function, class or constant of
    `sources` ({module: source}) named with a leading _ (dunders aside) that no
    statement but its own definition reads, as a name or an attribute."""
    defs, reads = {}, []
    for module, source in sources.items():
        for stmt in ast.parse(source).body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = {stmt.name}
            elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
                targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            for name in names:
                if name.startswith("_") and not (name.startswith("__") and name.endswith("__")):
                    defs[f"{module}.{name}"] = (name, len(reads))
            reads.append({n.id for n in ast.walk(stmt)
                          if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                         | {n.attr for n in ast.walk(stmt) if isinstance(n, ast.Attribute)})
    return sorted(key for key, (name, i) in defs.items()
                  if not any(name in r for j, r in enumerate(reads) if j != i))


def test_dead_private_detector():
    a = ("__all__ = []\n_A, _B = 1, 2\n_T: int = 3\n"
         "def _f(n):\n    return _f(n - 1)\n"  # reads only itself
         "def _g():\n    return _A + _T\nclass _C:\n    pass\n")
    b = "from a import _g\nimport a\nprint(_g(), a._C)\n"
    assert _dead_privates({"a": a, "b": b}) == ["a._B", "a._f"]


def test_private_names_are_read():
    sources = {p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))}
    assert _dead_privates(sources) == [], "private names nothing in weylrg reads"
