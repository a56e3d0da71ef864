"""Every name defined in src/ is one that the package itself runs: each
export, top-level function and class, and method (dunders aside) is read
somewhere in src/ outside its own definition, no function stores a local
name that it never reads, and every parameter or record field with a
default is set by some call in src/.  Every dataclass of src/ is more than a
plain record, and every field a record stores is read.

The checks match by name, so a definition or field passes when anything of
the same name is read anywhere in src/: a field read only as a tuple
element, or named like an attribute read elsewhere, goes unflagged (the
name of an InclusionSpec passed behind SetSpec.name while nothing read it).
A plain class is held tighter: each self.X it stores is read as self.X in
the class, unless READ_BY_CALLERS names it."""

import ast
import builtins
import dataclasses
import importlib
from collections import Counter
from pathlib import Path

import safereach

SRC = Path(safereach.__file__).parent

# names kept on purpose with no reference in src/
KEPT = {
    "distance_to_set": "bench/spans.py patches it",
    "integrate": "bench/spans.py patches it",
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


def _imports_the_package(node) -> bool:
    if isinstance(node, ast.ImportFrom):
        return bool(node.level) or (node.module or "").split(".")[0] == "safereach"
    return isinstance(node, ast.Import) and \
        any(a.name.split(".")[0] == "safereach" for a in node.names)


def test_only_the_command_line_imports_a_package_module_inside_a_function():
    # a library module imports what it runs at its top, so each check kind
    # lives in the module that holds what it calls; the command line imports
    # each command's and check's module when it runs, so a run loads only its own
    nested = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name != "cli.py":
            nested |= {f"{path.name}:{n.lineno}" for f in ast.walk(ast.parse(path.read_text()))
                       if isinstance(f, (ast.FunctionDef, ast.AsyncFunctionDef))
                       for n in ast.walk(f) if _imports_the_package(n)}
    assert not nested, f"a package module imported inside a function: {sorted(nested)}"


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


# every matrix product of src/ (an @, np.dot, np.matmul or np.einsum) by
# (module, enclosing function, source), with why it may stand: BLAS rounds
# one row unlike the same row in a batch, and a value of a batch of rows
# depends on its own row only
MATRIX_PRODUCTS = {
    ("solver.py", "bundle_step", "M @ M"): "the (n, n) matrices of the affine RK4 step",
    ("solver.py", "bundle_step", "M2 @ M"): "the (n, n) matrices of the affine RK4 step",
    ("solver.py", "bundle_step", "M @ T"): "the (n, n) matrices of the affine RK4 step",
    ("geometry.py", "_project", "S.normal @ S.normal"): "one normal's squared norm",
    ("smoothing.py", "smooth_on_compact", "W @ snaps[r]"):
        "the bandwidth probe: one kernel on one snapshot, whose error picks sigma",
    ("infinitesimal.py", "proximal_subgradient_test", "np.einsum('kij,kij->ki', d, d)"):
        "each offset's own squared norm, summed by einsum's loop, not BLAS",
}


def _is_product(node) -> bool:
    if isinstance(node, (ast.BinOp, ast.AugAssign)):
        return isinstance(node.op, ast.MatMult)
    return isinstance(node, ast.Call) and \
        getattr(node.func, "attr", getattr(node.func, "id", None)) in ("dot", "matmul", "einsum")


def _matrix_products() -> set:
    """(module, innermost enclosing function, source) of every @, @= and
    call of a dot, matmul or einsum in src/."""
    found = set()

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if _is_product(child):
                found.add((path.name, inner, ast.unparse(child)))
            visit(child, inner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    return found


def test_every_matrix_product_is_listed_with_its_reason():
    found = _matrix_products()
    assert sorted(found - set(MATRIX_PRODUCTS)) == [], \
        "a matrix product off the list: take a batch of rows with geometry.row_dot"
    assert sorted(set(MATRIX_PRODUCTS) - found) == [], "a listed product is gone"


# the @dataclass classes of src/, each with what makes it more than a plain
# record: a __post_init__, a field left out of equality or a mutable default.
# A plain record is a typing.NamedTuple, whose class costs a fraction of a
# dataclass's to build at import
DATACLASSES = {
    "FieldHandle": "a __post_init__ checks the declared matrix, which equality leaves out",
    "IntegratorConfig": "a __post_init__ checks the step and the escape radius",
    "Trajectory": "a __post_init__ coerces and checks its times and states",
    "CheckReport": "witness and details, mutable defaults",
    "SafetyReport": "witness and coverage, mutable defaults",
}


def _dataclasses() -> dict:
    """Class name -> module name of every class of src/ decorated with
    dataclass, called or not."""
    found = {}
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ClassDef) and any(
                    getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
                    for d in node.decorator_list):
                found[node.name] = path.stem
    return found


def _record_fields(cls: ast.ClassDef, dataclasses_: dict):
    """The annotated fields of cls, in order, if it is a NamedTuple or one of
    dataclasses_; None for a plain class."""
    bases = {getattr(b, "id", None) or getattr(b, "attr", None) for b in cls.bases}
    if "NamedTuple" not in bases and cls.name not in dataclasses_:
        return None
    return [a for a in cls.body if isinstance(a, ast.AnnAssign) and isinstance(a.target, ast.Name)]


def _stored_fields(modules: list) -> list:
    """(class, field) for every annotated field of a NamedTuple or dataclass
    of the modules and every self.X that a method of a plain class stores."""
    stored, records = [], _dataclasses()
    for module in modules:
        for cls in (n for n in module.body if isinstance(n, ast.ClassDef)):
            fields = _record_fields(cls, records)
            if fields is not None:
                stored += [(cls.name, a.target.id) for a in fields]
            else:
                stored += [(cls.name, n.attr) for n in ast.walk(cls)
                           if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Store)
                           and isinstance(n.value, ast.Name) and n.value.id == "self"]
    return sorted(set(stored))


def test_every_stored_field_is_read_in_src():
    # a field nothing reads is a value the library keeps for no one: drop it
    modules = _modules()
    read = {n.attr for m in modules for n in ast.walk(m)
            if isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load)}
    unread = [f"{cls}.{name}" for cls, name in _stored_fields(modules) if name not in read]
    assert unread == [], f"stored but never read as an attribute in src/: {unread}"


# record fields with a default that no call in src/ sets, kept on purpose
KEPT_FIELD_DEFAULTS = {
    ("ConverseResolution", "table_res"): "to be exposed as a [barrier] key; tests set less",
    ("ConverseResolution", "annulus_count"): "to be exposed as a [barrier] key; tests set less",
}


def _defaulted_fields(modules: list) -> list:
    """(class, field, position) for every annotated field with a default of
    a NamedTuple or dataclass of the modules; position is the field's index
    among the positional arguments of a call of the class."""
    out, records = [], _dataclasses()
    for module in modules:
        for cls in (n for n in module.body if isinstance(n, ast.ClassDef)):
            out += [(cls.name, a.target.id, i)
                    for i, a in enumerate(_record_fields(cls, records) or [])
                    if a.value is not None]
    return out


def _unset_field_defaults() -> set:
    modules = _modules()
    called = _set_parameters(modules)
    return {(c, f) for c, f, i in _defaulted_fields(modules)
            if not {(c, f), (c, i), (c, "*")} & called}


def test_every_defaulted_record_field_is_set_in_src():
    # a field default no constructor call overrides is a setting nothing
    # sets: make it a module constant, or name it in KEPT_FIELD_DEFAULTS
    unset = sorted(_unset_field_defaults() - set(KEPT_FIELD_DEFAULTS))
    assert unset == [], f"record fields with a default that no call in src/ sets: {unset}"
    assert set(KEPT_FIELD_DEFAULTS) <= _unset_field_defaults()


# self.X fields that a plain class stores for its callers and never reads itself
READ_BY_CALLERS = {
    ("Queries", "check"): "cli.cmd_check calls each check's entry through it",
    ("SmoothedFn", "certificate"): "the smooth command writes it to smooth_info.json",
}


def test_every_field_a_plain_class_stores_is_read_by_the_class():
    # by name anywhere in src/ is too loose for a plain class: a field of the
    # same name read on another class hides a field nothing reads
    found, records = {}, _dataclasses()
    for module in _modules():
        for cls in (n for n in module.body if isinstance(n, ast.ClassDef)):
            if _record_fields(cls, records) is not None:
                continue
            own = [n for n in ast.walk(cls) if isinstance(n, ast.Attribute)
                   and isinstance(n.value, ast.Name) and n.value.id == "self"]
            read = {n.attr for n in own if isinstance(n.ctx, ast.Load)}
            found.update({(cls.name, n.attr): n.attr in read for n in own
                          if isinstance(n.ctx, ast.Store)})
    unread = sorted(field for field, is_read in found.items() if not is_read)
    assert unread == sorted(READ_BY_CALLERS), \
        f"stored as self.X but never read as self.X in its class: {unread}"


def test_every_dataclass_is_more_than_a_plain_record():
    found = _dataclasses()
    assert sorted(found) == sorted(DATACLASSES), \
        "a plain record is a NamedTuple; a dataclass is listed in DATACLASSES with its reason"
    for name, module in found.items():
        cls = getattr(importlib.import_module(f"safereach.{module}"), name)
        fields = dataclasses.fields(cls)
        assert "__post_init__" in vars(cls) or any(not f.compare for f in fields) or any(
            f.default_factory is not dataclasses.MISSING for f in fields), name


# every raise of a builtin exception class in src/, by (module, enclosing
# function, class), with why it is not a safereach.Error
BUILTIN_RAISES = {
    ("sampling.py", "_seed_words", "ValueError"):
        "Stream(seed) refuses a negative seed as numpy's default_rng does; config refuses "
        "one first, by name",
    ("__init__.py", "__getattr__", "AttributeError"):
        "a module __getattr__ reports an unknown name by AttributeError (PEP 562)",
}


def _builtin_raises() -> set:
    """(module, innermost enclosing function, class) of every raise in src/
    of a builtin exception class, called or not."""
    found = set()

    def visit(node, where, path):
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, ast.FunctionDef) else where
            if isinstance(child, ast.Raise) and child.exc is not None:
                exc = child.exc.func if isinstance(child.exc, ast.Call) else child.exc
                cls = getattr(builtins, getattr(exc, "id", ""), None)
                if isinstance(cls, type) and issubclass(cls, BaseException):
                    found.add((path.name, inner, cls.__name__))
            visit(child, inner, path)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), None, path)
    return found


def test_every_error_class_of_src_is_a_safereach_error():
    # the command line catches safereach.Error alone: an error of any other
    # class ends a run in a traceback
    stray = []
    for path in sorted(SRC.glob("*.py")):
        name = "safereach" if path.stem == "__init__" else f"safereach.{path.stem}"
        module = importlib.import_module(name)
        stray += [f"{name}.{cls.__name__}" for cls in vars(module).values()
                  if isinstance(cls, type) and issubclass(cls, BaseException)
                  and cls.__module__ == name and not issubclass(cls, safereach.Error)]
    assert stray == [], f"exception classes that do not derive from safereach.Error: {stray}"


def test_src_raises_a_builtin_exception_only_where_listed():
    found = _builtin_raises()
    assert sorted(found - set(BUILTIN_RAISES)) == [], \
        "a builtin exception raised in src/: raise the module's safereach.Error class"
    assert sorted(set(BUILTIN_RAISES) - found) == [], "a listed raise is gone"


# parameters that their function never reads, kept on purpose
UNREAD_PARAMETERS = {
    (f"cli.py:{command}", "args"): "bench/child.py's set-up run replaces each command with a "
    "function of (scn, args, manifest), so main passes the parsed arguments"
    for command in ("cmd_simulate", "cmd_reach", "cmd_barrier_eval", "cmd_check", "cmd_smooth")
}


def test_every_parameter_is_read_in_its_function():
    # a parameter nothing reads is an argument every caller passes for nothing
    unread = set()
    for path in sorted(SRC.glob("*.py")):
        for f in ast.walk(ast.parse(path.read_text())):
            if isinstance(f, ast.FunctionDef):
                a = f.args
                params = a.posonlyargs + a.args + a.kwonlyargs + \
                    [p for p in (a.vararg, a.kwarg) if p is not None]
                read = {n.id for stmt in f.body for n in ast.walk(stmt)
                        if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
                unread |= {(f"{path.name}:{f.name}", p.arg) for p in params if p.arg not in read}
    assert sorted(unread - set(UNREAD_PARAMETERS)) == [], \
        "parameters that their function never reads"
    assert set(UNREAD_PARAMETERS) <= unread
