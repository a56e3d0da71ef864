"""Every name defined in src/ is one that the package itself runs: each
export, top-level function and class, and method (dunders aside) is read
somewhere in src/ outside its own definition, and no function stores a
local name that it never reads."""

import ast
from collections import Counter
from pathlib import Path

import safereach

SRC = Path(safereach.__file__).parent

# names kept on purpose with no reference in src/
KEPT = {
    "distance_to_set": "bench/spans.py patches it",
    "integrate": "bench/spans.py patches it",
    "load_cloud": "reads the .rch files that the reach command writes",
    "hausdorff_distance": "a reference distance for the tests of reach clouds",
}


def _loads(node) -> Counter:
    """Names loaded (x) or read as attributes (m.x) under node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load))


def _modules() -> list:
    """The parsed modules of src/; __init__ only lists the exports."""
    return [ast.parse(p.read_text()) for p in SRC.glob("*.py") if p.name != "__init__.py"]


def _definitions(modules: list) -> list:
    """The top-level functions and classes of the modules and the methods of
    those classes, dunders aside."""
    defs = []
    for module in modules:
        for node in module.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append(node)
                if isinstance(node, ast.ClassDef):
                    defs += [m for m in node.body if isinstance(m, ast.FunctionDef)]
    return [d for d in defs if not (d.name.startswith("__") and d.name.endswith("__"))]


def _unreferenced() -> set:
    """Definitions whose name is read nowhere in src/ but in their own body
    (a recursion is not a use)."""
    modules = _modules()
    total = sum((_loads(m) for m in modules), Counter())
    return {d.name for d in _definitions(modules) if total[d.name] == _loads(d)[d.name]}


def test_every_export_has_a_reference_in_src():
    unused = sorted(set(safereach.__all__) & _unreferenced() - set(KEPT))
    assert unused == [], f"exported but unreferenced in src/: {unused}"


def test_every_definition_has_a_reference_in_src():
    unused = sorted(_unreferenced() - set(KEPT))
    assert unused == [], f"defined but unreferenced in src/: {unused}"


def test_the_kept_names_are_still_exported_and_still_unreferenced():
    # a kept name is an export or, like a method, a definition of src/
    assert set(KEPT) <= set(safereach.__all__) | {d.name for d in _definitions(_modules())}
    assert set(KEPT) <= _unreferenced()


def test_no_function_stores_a_name_it_never_reads():
    # a nested function counts apart and as part of the one around it; a
    # name stored only to be dropped is spelled with a leading _
    unread = []
    for path in sorted(SRC.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef):
                names = [n for n in ast.walk(f) if isinstance(n, ast.Name)]
                stored = {n.id for n in names if isinstance(n.ctx, ast.Store)}
                read = {n.id for n in names if isinstance(n.ctx, ast.Load)}
                unread += [f"{path.name}:{f.name}:{x}" for x in sorted(stored - read)
                           if not x.startswith("_")]
    assert unread == [], f"stored but never read: {unread}"
