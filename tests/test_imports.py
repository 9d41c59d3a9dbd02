"""The package's modules import each other along a declared acyclic graph."""

import ast
from graphlib import TopologicalSorter
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "rmrll"

# module -> the package modules it imports with ``from .x import ...``
LAYERS = {
    "gf2": set(),
    "rll": {"gf2"},
    "rm": {"gf2"},
    "channels": {"gf2"},
    "ordering": {"gf2", "rll", "rm"},
    "subcodes": {"gf2", "rll", "rm"},
    "coset": {"channels", "gf2", "ordering", "rll", "rm", "subcodes"},
    "cli": {"channels", "coset", "gf2", "ordering", "rll", "rm", "subcodes"},
    "__main__": {"cli"},
    "__init__": {"channels", "coset", "gf2", "ordering", "rll", "rm", "subcodes"},
}


def package_imports(path: Path) -> set[str]:
    """The package modules that ``path`` imports relatively, at any depth
    of the file (``from . import x`` counts as importing x)."""
    out = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.ImportFrom) and node.level:
            if node.module:
                out.add(node.module.split(".")[0])
            else:
                out.update(alias.name for alias in node.names)
    return out


def test_declared_graph_is_acyclic():
    order = list(TopologicalSorter(LAYERS).static_order())  # raises CycleError
    assert set(order) == set(LAYERS)


def test_imports_follow_the_declared_graph():
    found = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert found == LAYERS

