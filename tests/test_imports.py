"""Every module-level import under ``src/``, ``tests/`` and ``tools/`` is used.

The repository has no lint step; this is the one lint rule it keeps.  A name
bound by a module-level ``import`` counts as used when it appears anywhere
else in the module (as a name, or as the base of an attribute) or in its
``__all__``.  A package's ``__init__.py`` re-exports its imports, and a line
marked ``# noqa: F401`` imports for an effect, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted(
    p for d in ("src", "tests", "tools") for p in (ROOT / d).rglob("*.py") if p.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    bound = {}  # name -> line of the import that binds it
    for node in tree.body:
        if isinstance(node, ast.If):  # e.g. ``if TYPE_CHECKING:``
            body = node.body
        else:
            body = [node]
        for stmt in body:
            if not isinstance(stmt, (ast.Import, ast.ImportFrom)):
                continue
            if "# noqa: F401" in lines[stmt.lineno - 1] or getattr(stmt, "module", None) == "__future__":
                continue
            for alias in stmt.names:
                name = alias.asname or alias.name.split(".")[0]
                bound[name] = stmt.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)}
    return [f"line {line}: {name}" for name, line in sorted(bound.items()) if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_module_level_import(path):
    assert unused_imports(path.read_text()) == []


def imported_modules(source: str) -> set[str]:
    """Every module an ``import`` anywhere in ``source`` names, at any level
    (``from . import x`` names ``x``, ``from .a import b`` names ``a`` and
    ``a.b``), relative dots dropped."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            names |= {base} | {f"{base}.{alias.name}".lstrip(".") for alias in node.names}
    return names - {""}


def test_controller_imports_nothing_of_the_engine():
    # The engine runs the feedback law; the solver takes the engine's map as
    # a function.  The dependency runs one way.
    source = (ROOT / "src" / "janus_sim" / "controller.py").read_text()
    assert [m for m in imported_modules(source) if "sim_engine" in m.split(".")] == []


def test_import_scan_sees_function_level_imports():
    source = "def f():\n    from . import sim_engine\n    from .core_state import to_list\n"
    assert imported_modules(source) == {"sim_engine", "core_state", "core_state.to_list"}


def test_checker_flags_an_unused_import():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n\nprint(os.sep, tau)\n"
    assert unused_imports(source) == ["line 3: pi"]
