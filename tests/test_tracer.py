"""The benchmark's span tracer (bench/spans.py) patches names of the package
from outside; a rename in src/ must fail here, not in a traced benchmark run."""

import importlib.util
import sys
from pathlib import Path

import safereach.cli as cli
from safereach import barrier, dynamics, geometry, solver

SPANS = Path(__file__).resolve().parent.parent / "bench" / "spans.py"
PATCHED_CLASSES = (dynamics.FieldHandle, barrier.BarrierFn, cli.Manifest, solver.Trajectory)


def _load_spans(monkeypatch):
    # read bench/spans.py without writing its bytecode next to it
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("bench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _namespaces() -> dict:
    """Every attribute of every loaded safereach module and patched class."""
    owners = [m for name, m in sys.modules.items()
              if name.split(".")[0] == "safereach" and m is not None]
    return {(id(owner), attr): value for owner in owners + list(PATCHED_CLASSES)
            for attr, value in vars(owner).items()}


def test_install_then_uninstall_restores_every_patched_attribute(monkeypatch):
    tracer = _load_spans(monkeypatch).Tracer()
    # the modules install imports, loaded first so that no namespace grows under it
    from safereach import config, expr, verify  # noqa: F401
    before = _namespaces()
    distance = geometry.distance_to_set_many
    try:
        # a name missing from src/ makes install raise; what it patched is still undone
        tracer.install()
        changed = {key for key, value in _namespaces().items() if value is not before[key]}
        assert changed == {(id(owner), attr) for owner, attr, _ in tracer._undo}
        # a function is patched in every namespace that bound it, consumers included
        assert geometry.distance_to_set_many is not distance
        assert solver.distance_to_set_many is geometry.distance_to_set_many
        assert "__call__" in {attr for owner, attr, _ in tracer._undo
                              if owner is dynamics.FieldHandle}
    finally:
        tracer.uninstall()
    after = _namespaces()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert tracer._undo == []


CHECKS = """
seed = 5
[system]
kind = builtin
name = linear_safe
inclusion = singleton
[solver]
step = 0.015625
[sampling]
window = -4 -4 4 4
boundary = 4
interior = 4
tgrid = 0 1 2
[set X_o]
kind = ball
center = 0 0
radius = 1
[set X_u]
kind = halfspace
normal = 0 1
offset = 2
[barrier]
kind = user
expression = x1^2/10 + x2^2 - 1
[check safety]
kind = simulate
X_o = X_o
X_u = X_u
T = 0.5
[check sign]
kind = sign
X_o = X_o
X_u = X_u
n_samples = 8
"""


def test_checks_importing_per_kind_are_still_traced(monkeypatch, tmp_path):
    # a check kind imports its module when it runs, and must find the traced names there
    config = tmp_path / "checks.scenario"
    config.write_text(CHECKS)
    tracer = _load_spans(monkeypatch).Tracer()
    try:
        tracer.install()
        assert cli.main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
    finally:
        tracer.uninstall()
    names = [tracer.names[i] for i in tracer.name_id]
    assert names.count("verify.simulate") == 1 and names.count("barrier.check.sign") == 1
