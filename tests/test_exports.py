"""Every public name of the package is one that the package itself runs."""

import ast
from pathlib import Path

import safereach

SRC = Path(safereach.__file__).parent

# public names kept on purpose with no reference in src/
KEPT = {
    "distance_to_set": "bench/spans.py patches it",
    "integrate": "bench/spans.py patches it",
    "load_cloud": "reads the .rch files that the reach command writes",
    "hausdorff_distance": "a reference distance for the tests of reach clouds",
}


def _referenced_names() -> set:
    """Names loaded (x) or read as attributes (m.x) in src/, imports and
    definitions not counted; __init__ only lists the exports."""
    names = set()
    for path in SRC.glob("*.py"):
        if path.name == "__init__.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
    return names


def test_every_export_has_a_reference_in_src():
    unused = sorted(set(safereach.__all__) - _referenced_names() - set(KEPT))
    assert unused == [], f"exported but unreferenced in src/: {unused}"


def test_the_kept_names_are_still_exported_and_still_unreferenced():
    assert set(KEPT) <= set(safereach.__all__)
    assert not set(KEPT) & _referenced_names()
