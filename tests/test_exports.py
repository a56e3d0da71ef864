"""Every name defined in src/ is one that the package itself runs: each
export, top-level function and class, and method (dunders aside) is read
somewhere in src/ outside its own definition, no function stores a local
name that it never reads, and every parameter with a default is set by some
call in src/."""

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


# parameters with a default that no call in src/ sets, kept on purpose
KEPT_DEFAULTS = {
    ("main", "argv"): "the console entry point passes none; tests pass their argv",
    ("integrate", "direction"): "bench/spans.py patches integrate; tests integrate backward",
    ("integrate", "cfg"): "bench/spans.py patches integrate; tests pass their step",
    ("smooth_global", "seed"): "a library leftover: the validation draw",
    ("smooth_global", "validation_points"): "a library leftover: the validation count",
    ("singleton", "name"): "InclusionSpec's constructors name an inclusion for library callers",
    ("ball_perturbed", "name"): "as singleton",
    ("hull", "name"): "as singleton",
}


def _defaulted_parameters(modules: list) -> list:
    """(function, parameter, position) for every parameter with a default of
    every function of the modules, nested ones included; position is the
    parameter's index among a call's positional arguments (None for a
    keyword-only one), so a method's self or cls is skipped.  An __init__
    is called by its class's name."""
    out = []

    def visit(node, owner=None):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.FunctionDef):
                a = child.args
                positional = a.posonlyargs + a.args
                static = any(isinstance(d, ast.Name) and d.id == "staticmethod"
                             for d in child.decorator_list)
                skip = 1 if owner is not None and not static else 0
                name = owner.name if child.name == "__init__" and owner is not None else child.name
                for i, p in enumerate(positional[len(positional) - len(a.defaults):],
                                      len(positional) - len(a.defaults)):
                    out.append((name, p.arg, i - skip))
                out.extend((name, p.arg, None) for p, d in zip(a.kwonlyargs, a.kw_defaults)
                           if d is not None)
                visit(child)
            else:
                visit(child, child if isinstance(child, ast.ClassDef) else None)

    for module in modules:
        visit(module)
    return out


def _set_parameters(modules: list) -> set:
    """(callee, parameter or position) for every argument of every call in
    the modules, the callee named as called (f(...) or x.f(...)); a call
    unpacking *args or **kwargs sets every parameter of its callee."""
    out = set()
    for module in modules:
        for call in ast.walk(module):
            if not isinstance(call, ast.Call):
                continue
            name = getattr(call.func, "id", None) or getattr(call.func, "attr", None)
            if any(isinstance(a, ast.Starred) for a in call.args) or \
                    any(k.arg is None for k in call.keywords):
                out.add((name, "*"))
            out |= {(name, i) for i in range(len(call.args))}
            out |= {(name, k.arg) for k in call.keywords}
    return out


def _unset_defaults() -> set:
    modules = _modules()
    called = _set_parameters(modules)
    return {(f, p) for f, p, i in _defaulted_parameters(modules)
            if not {(f, p), (f, i), (f, "*")} & called}


def test_every_defaulted_parameter_is_set_in_src():
    # a default no caller overrides is a settable value nothing sets: make
    # it a constant, or name it in KEPT_DEFAULTS with its reason
    unset = sorted(_unset_defaults() - set(KEPT_DEFAULTS))
    assert unset == [], f"parameters with a default that no call in src/ sets: {unset}"
    assert set(KEPT_DEFAULTS) <= _unset_defaults()


def test_np_unique_is_always_called_with_a_return_flag():
    # numpy 2.4's np.unique without a return_* flag calls np.ma.is_masked,
    # which imports numpy.ma: 13.5 ms of every run that reaches it
    bare = []
    for path in sorted(SRC.glob("*.py")):
        for call in ast.walk(ast.parse(path.read_text())):
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute) and \
                    call.func.attr == "unique" and \
                    not any((k.arg or "").startswith("return_") for k in call.keywords):
                bare.append(f"{path.name}:{call.lineno}")
    assert bare == [], f"np.unique without a return_* keyword: {bare}"


def test_src_loads_neither_numpy_random_nor_hashlib():
    # numpy.random loads secrets, hmac and OpenSSL, and hashlib loads OpenSSL:
    # sampling.Stream draws numpy's default_rng stream itself, and config
    # hashes with CPython's own SHA-256, reaching hashlib only where that is
    # missing
    found = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        fallback = {id(n) for h in ast.walk(tree) if isinstance(h, ast.ExceptHandler) and
                    isinstance(h.type, ast.Name) and h.type.id == "ImportError"
                    for n in ast.walk(h)}
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                bad = node.attr == "random" and isinstance(node.value, ast.Name) and \
                    node.value.id in ("np", "numpy")
            elif isinstance(node, ast.Import):
                bad = any(a.name.startswith("numpy.random") or a.name == "hashlib"
                          for a in node.names)
            elif isinstance(node, ast.ImportFrom):
                module = node.module or ""
                bad = module.startswith("numpy.random") or \
                    (module == "numpy" and any(a.name == "random" for a in node.names)) or \
                    (module == "hashlib" and id(node) not in fallback)
            else:
                bad = False
            if bad:
                found.append(f"{path.name}:{node.lineno}")
    assert found == [], f"numpy.random or hashlib in src/: {found}"
