"""Span tracing of safereach from outside the package, and the per-layer
metrics derived from the spans.

Nothing under ``src/`` knows about this module.  :class:`Tracer` wraps public
names only: functions are replaced in every ``safereach`` module namespace
that bound them at import (``barrier.py`` holds its own reference to
``geometry.distance_to_set_many``, for example), and methods are patched on
their class.  Work that a module does through private helpers of another
module (the RK4 loops that ``verify`` and ``barrier`` run through
``solver._rk4_batch``) is therefore the caller's self time.

Spans are kept in memory in flat arrays and written out once, at the end.
Each span records its name, start, end, parent and one size attribute (rows,
points or trajectories, depending on the span).
"""

from __future__ import annotations

import functools
import sys
import time
from array import array

import numpy as np

SET_KINDS = ("ball", "box", "halfspace", "sublevel", "points", "complement",
             "union", "intersection")
RHS_BUCKETS = (("rows_1", 1, 1), ("rows_2-32", 2, 32), ("rows_33-256", 33, 256),
               ("rows_257-up", 257, np.inf))


class Tracer:
    """Installs span-recording wrappers; ``uninstall`` restores the originals."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.size = array("q")
        self._stack: list[int] = []
        self._undo: list[tuple] = []

    # ---- recording -----------------------------------------------------

    def _open(self, name: str, size: int) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.size.append(size)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def _span(self, fn, name_of, size_of=None, size_after=None):
        """Wrap ``fn``; ``name_of``/``size_of`` see the call arguments and
        ``size_after`` the result."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = tracer._open(name_of(args, kwargs),
                               size_of(args, kwargs) if size_of else 0)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if size_after is not None:
                tracer.size[idx] = size_after(out)
            return out

        return wrapper

    # ---- installation --------------------------------------------------

    def _patch_function(self, module, name: str, wrapper_of) -> None:
        original = getattr(module, name)
        wrapped = wrapper_of(original)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] != "safereach" or mod is None:
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapped)
                    self._undo.append((mod, attr, original))

    def _patch_method(self, cls, name: str, wrapper_of) -> None:
        original = cls.__dict__[name]
        setattr(cls, name, wrapper_of(original))
        self._undo.append((cls, name, original))

    def install(self) -> "Tracer":
        import safereach.cli as cli
        from safereach import barrier, config, dynamics, expr, geometry, solver, verify

        fixed = lambda name: (lambda a, k: name)

        self._patch_method(dynamics.FieldHandle, "__call__", lambda f: self._span(
            f, fixed("dynamics.rhs"), lambda a, k: _rows(a[1])))
        self._patch_function(solver, "integrate", lambda f: self._span(
            f, fixed("solver.integrate")))
        self._patch_function(solver, "solution_bundle", lambda f: self._span(
            f, fixed("solver.solution_bundle")))
        self._patch_function(verify, "simulate_safety_check", lambda f: self._span(
            f, fixed("verify.simulate"),
            size_after=lambda rep: int(rep.coverage.get("trajectories", 0))))
        self._patch_method(barrier.BarrierFn, "evaluate_many", lambda f: self._span(
            f, fixed("barrier.eval"), lambda a, k: len(np.atleast_1d(a[1]))))
        self._patch_function(barrier, "candidate_sign_check", lambda f: self._span(
            f, fixed("barrier.check.sign")))
        self._patch_function(barrier, "monotonicity_check", lambda f: self._span(
            f, fixed("barrier.check.monotonicity")))
        self._patch_function(geometry, "distance_to_set_many", lambda f: self._span(
            f, lambda a, k: _dist_name(a[1]), lambda a, k: _rows(a[0])))
        self._patch_function(geometry, "distance_to_set", lambda f: self._span(
            f, lambda a, k: _dist_name(a[1]), lambda a, k: 1))
        self._patch_function(expr, "compile_expression",
                             lambda f: self._wrap_compiler(f))
        self._patch_function(config, "load_config", lambda f: self._span(
            f, fixed("config.load")))
        self._patch_function(config, "build_scenario", lambda f: self._span(
            f, fixed("config.build")))
        for command in ("cmd_simulate", "cmd_reach", "cmd_barrier_eval",
                        "cmd_check", "cmd_smooth"):
            self._patch_function(cli, command, lambda f: self._span(
                f, fixed("cli.command")))
        self._patch_method(cli.Manifest, "write", lambda f: self._span(
            f, fixed("cli.write")))
        self._patch_method(solver.Trajectory, "to_csv", lambda f: self._span(
            f, fixed("cli.write")))
        return self

    def _wrap_compiler(self, compile_fn):
        tracer = self

        @functools.wraps(compile_fn)
        def compile_traced(*args, **kwargs):
            fn = compile_fn(*args, **kwargs)
            traced = tracer._span(fn, lambda a, k: "expr.eval",
                                  lambda a, k: _points(a[0]))
            traced.source, traced.variables = fn.source, fn.variables
            return traced

        return compile_traced

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    # ---- output ----------------------------------------------------------

    def arrays(self) -> dict:
        return {"names": np.array(self.names, dtype=str),
                "name_id": np.frombuffer(self.name_id, dtype=np.int32).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "size": np.frombuffer(self.size, dtype=np.int64).copy()}

    def save(self, path) -> None:
        np.savez(path, **self.arrays())


def _rows(x) -> int:
    x = np.asarray(x)
    return int(x.shape[0]) if x.ndim >= 2 else 1


def _points(x) -> int:
    x = np.asarray(x)
    return int(np.prod(x.shape[:-1])) if x.ndim >= 1 else 1


def _dist_name(S) -> str:
    # estimated variants get their own name so that their time can be shared out
    tag = "geometry.dist" if S.exactness() == "exact" else "geometry.dist_est"
    return f"{tag}.{S.kind}"


# ---------------------------------------------------------------------------
# per-layer metrics
# ---------------------------------------------------------------------------

def layer_metrics(spans: dict) -> dict:
    """Per-layer metrics of one traced process, from its span arrays.

    Self time is a span's duration minus the time its direct children cover;
    spans of one thread nest, so children never overlap."""
    names = [str(n) for n in spans["names"]]
    nid = spans["name_id"]
    dur = spans["end"] - spans["start"]
    parent = spans["parent"]
    has_parent = parent >= 0
    covered = np.bincount(parent[has_parent], weights=dur[has_parent],
                          minlength=len(dur))
    self_t = dur - covered
    size = spans["size"]

    def named(name):
        return nid == (names.index(name) if name in names else -1)

    def layer(prefix):
        return np.isin(nid, [i for i, n in enumerate(names) if n.split(".")[0] == prefix])

    def total(mask, values=dur):
        return float(values[mask].sum())

    def mean(values):
        return float(values.mean()) if len(values) else 0.0

    def pct(values, q):
        return float(np.percentile(values, q)) if len(values) else 0.0

    m = {}
    rhs = named("dynamics.rhs")
    m["dynamics.rhs_calls"] = int(rhs.sum())
    m["dynamics.rows_per_call"] = mean(size[rhs])
    m["dynamics.rhs_self_s"] = total(rhs, self_t)
    for bucket, lo, hi in RHS_BUCKETS:
        sel = rhs & (size >= lo) & (size <= hi)
        m[f"dynamics.rhs_us.{bucket}"] = pct(dur[sel], 50) * 1e6
    m["solver.integrate_calls"] = int(named("solver.integrate").sum())
    m["solver.self_s"] = total(layer("solver"), self_t)
    sim = named("verify.simulate")
    m["verify.simulate_s"] = total(sim)
    m["verify.trajectories"] = int(size[sim].sum())
    ev = named("barrier.eval")
    m["barrier.eval_calls"] = int(ev.sum())
    m["barrier.points_per_call"] = mean(size[ev])
    m["barrier.eval_ms_p50"] = pct(dur[ev], 50) * 1e3
    m["barrier.eval_ms_p90"] = pct(dur[ev], 90) * 1e3
    m["barrier.self_s"] = total(layer("barrier"), self_t)
    m["barrier.check_s.sign"] = total(named("barrier.check.sign"))
    m["barrier.check_s.monotonicity"] = total(named("barrier.check.monotonicity"))
    dist_all = est = 0.0
    for kind in SET_KINDS:
        exact, estimated = named(f"geometry.dist.{kind}"), named(f"geometry.dist_est.{kind}")
        sel = exact | estimated
        m[f"geometry.dist_calls.{kind}"] = int(sel.sum())
        m[f"geometry.dist_points.{kind}"] = int(size[sel].sum())
        m[f"geometry.dist_s.{kind}"] = total(sel)
        dist_all += total(sel)
        est += total(estimated)
    m["geometry.estimated_share"] = est / dist_all if dist_all > 0 else 0.0
    ex = named("expr.eval")
    m["expr.calls"] = int(ex.sum())
    m["expr.points_per_call"] = mean(size[ex])
    m["expr.self_s"] = total(ex, self_t)
    m["cli.write_s"] = total(named("cli.write"))
    m["cli.self_s"] = total(layer("cli"), self_t)
    m["cli.command_s"] = total(named("cli.command"))
    m["config.build_s"] = total(named("config.load") | named("config.build"))
    return m


def load_spans(path) -> dict:
    with np.load(path) as data:
        return {key: data[key] for key in data.files}
