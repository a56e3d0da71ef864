"""Time-varying barrier functions and their validity checks.

The central construction is the marginal barrier

    B(t, x) = min distance to X_o over the backward reach tube R(-t, x),

realized as a running minimum of the distance along backward solution
bundles.  B(0, x) is the plain distance to X_o, B vanishes as soon as the
backward tube touches X_o, and nesting of backward tubes makes t -> B(t, x)
nonincreasing along solutions of the same system.

The sign and monotonicity checks are here; the infinitesimal decrease check
is in :mod:`safereach.infinitesimal`.  Checks are one-sided numerical
evidence: finitely many selections and sample points can witness a violation
but never prove safety.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import Error
from .dynamics import InclusionSpec
from .expr import compile_expression
# distance_to_set_many is unused here: bench/test_bench.py reads barrier.distance_to_set_many
from .geometry import GeometryError, SamplePlan, SetSpec, distance_to_set_many
from .solver import BundlePlan, IntegratorConfig, Trajectory, solution_bundle, tube_minimum

POS_TOL = 1e-9          # B >= POS_TOL on X_u samples stands for B > 0


# ---------------------------------------------------------------------------
# barrier functions
# ---------------------------------------------------------------------------

class BarrierError(Error, ValueError):
    pass


class BarrierValues(NamedTuple):
    """B at m (t, x) rows: value, the (m,) floats, and cut, the (m,) bools
    true where the value read a backward tube cut short by escape at or
    before its t, so it is only a lower bound of the marginal."""

    value: np.ndarray
    cut: np.ndarray


class BarrierFn(NamedTuple):
    """Scalar B(t, x), evaluated in batches.

    batch_fn maps times ts (m,) and states Xs (m, n) to the pair (values,
    cut) of (m,) arrays that evaluate_many returns as a BarrierValues; each
    row depends on its own (t, x) only, and a B with no backward tube cuts
    none.
    """

    batch_fn: Callable

    def evaluate_many(self, ts, Xs) -> BarrierValues:
        ts = np.asarray(ts, dtype=float)
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        # a non-finite value is rejected below by name, so numpy need not warn
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals, cut = self.batch_fn(ts, Xs)
            vals = np.asarray(vals, dtype=float)
        bad = ~np.isfinite(vals)
        if bad.any():
            i = int(np.argmax(bad))
            raise BarrierError(f"barrier returned non-finite value at t={float(ts[i])!r}, "
                               f"x={Xs[i].tolist()}")
        return BarrierValues(vals, cut)


def user_barrier(expression: str, dim: int) -> BarrierFn:
    """Barrier from an expression over x1..xn, optionally involving t."""
    time_dep = re.search(r"\bt\b", expression) is not None
    g = compile_expression(expression, (("t",) if time_dep else ())
                           + tuple(f"x{i + 1}" for i in range(dim)))
    batch = lambda ts, Xs: (g(np.column_stack([ts, Xs]) if time_dep else Xs),
                            np.zeros(len(ts), dtype=bool))
    return BarrierFn(batch)


# ---------------------------------------------------------------------------
# marginal barrier
# ---------------------------------------------------------------------------

def marginal_barrier(F: InclusionSpec, X_o: SetSpec,
                     cfg: IntegratorConfig = IntegratorConfig(),
                     directions: int = 8, switches: int = 0, seed: int = 0) -> BarrierFn:
    """The converse construction: B(t,x) = min over R(-t,x) of |y|_{X_o},
    evaluated by batched integration.

    The minimum runs along nested backward tubes, so one backward sweep per
    distinct x, to its largest queried t, yields B(t, x) at every queried t:
    each query reads the running minimum off the steps around its t, and
    its cut says whether its tube was cut short by escape at or before t."""
    if X_o.kind == "complement":
        raise BarrierError("X_o must be a closed set variant, not an open complement")
    plan = BundlePlan(directions, switches, seed)

    def values(ts, Xs):
        h = cfg.step
        if np.any(ts < 0):
            raise BarrierError("marginal barrier defined for t >= 0")
        if not np.all(np.isfinite(ts)):
            raise BarrierError(f"marginal barrier needs a finite t, got {ts[~np.isfinite(ts)][0]}")
        k_lo = np.floor(ts / h + 1e-12)
        frac = np.clip(ts / h - k_lo, 0.0, 1.0)
        k_hi = np.where(frac > 1e-12, k_lo + 1, k_lo)
        cfg.check_steps(ts, k_hi)
        max_k = int(k_hi.max(initial=0))
        best, cut = tube_minimum(F, plan.table(F, max_k * h if max_k > 0 else h), Xs,
                                 [k_lo, k_hi], h, "backward", X_o, cfg.escape_radius)
        return best[0] * (1.0 - frac) + best[1] * frac, cut[1]

    return BarrierFn(values)


# ---------------------------------------------------------------------------
# closed-form barrier for the built-in counterexample
# ---------------------------------------------------------------------------

def counterexample_barrier(t, x):
    """Backward radial flow through the limit-cycle annuli, in closed form.

    Zero at the origin; constant 1/(k*pi) on the circles 1/|x| = k*pi; on the
    open annulus 1/|x| in (k*pi, (k+1)*pi) the value is
    1 / (arccot(cot(1/|x|) - t/2) + k*pi) with arccot valued in (0, pi).
    The (m,) values at times t (m,) and states x (m, 2), each row on its own.
    """
    X = np.asarray(x, dtype=float)
    r = np.sqrt(np.vecdot(X, X))
    u = 1.0 / np.where(r == 0.0, 1.0, r)
    frac = u / np.pi
    k = np.rint(frac)
    circle = (k >= 1) & (np.abs(frac - k) <= 1e-12)
    phase = np.pi / 2.0 - np.arctan(np.cos(u) / np.sin(u) - 0.5 * np.asarray(t, dtype=float))
    return np.where(r == 0.0, 0.0, np.where(circle, 1.0 / (np.maximum(k, 1.0) * np.pi),
                                            1.0 / (phase + np.floor(frac) * np.pi)))


def counterexample_barrier_fn() -> BarrierFn:
    return BarrierFn(lambda ts, Xs: (counterexample_barrier(ts, Xs),
                                     np.zeros(len(ts), dtype=bool)))


# ---------------------------------------------------------------------------
# check reports
# ---------------------------------------------------------------------------

@dataclass
class CheckReport:
    check: str
    samples: int
    worst_margin: float
    witness: dict = field(default_factory=dict)
    verdict: str = "pass"           # pass | fail | inconclusive
    details: dict = field(default_factory=dict)

    def to_json(self) -> str:
        # every field holds native values: json.dumps needs no conversion
        return json.dumps({"check": self.check, "samples": self.samples,
                           "worst_margin": self.worst_margin, "witness": self.witness,
                           "verdict": self.verdict, "details": self.details},
                          indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# sign and monotonicity checks
# ---------------------------------------------------------------------------

class Queries:
    """The (t, x) rows one check asks of B.  report(got) makes the check's
    report from their BarrierValues, each row's value and whether it read a
    backward tube cut short by escape; check(source, drawn) runs the check's
    entry (:func:`candidate_sign_check` or :func:`monotonicity_check`, the
    spans bench/spans.py records) with these queries as drawn and source B
    or their values.  A plain class: a dataclass would add about 1 ms to
    every import of this module."""

    def __init__(self, ts: np.ndarray, Xs: np.ndarray, report: Callable, check: Callable):
        self.ts, self.Xs, self.report, self.check = ts, Xs, report, check

    def answer(self, source) -> CheckReport:
        """The report from source: B, or the BarrierValues of these queries."""
        return self.report(source if isinstance(source, BarrierValues)
                           else source.evaluate_many(self.ts, self.Xs))


def batch_values(B: BarrierFn, asked: list[Queries]) -> list:
    """What answers each of asked, in order: the BarrierValues of its rows
    from one evaluate_many of B on the rows of all of them, so a marginal B
    sweeps each distinct x once, to its largest t; or, when that batch
    raises, B itself, so each check evaluates its own rows and the first
    failing check raises its own error.  A value depends on its own (t, x)
    only, so a report is the one its queries alone would give."""
    try:
        whole = B.evaluate_many(np.concatenate([q.ts for q in asked]),
                                np.vstack([q.Xs for q in asked]))
    except Error:
        return [B] * len(asked)
    ends = np.cumsum([len(q.ts) for q in asked])[:-1]
    return [BarrierValues(*part) for part in zip(*(np.split(f, ends) for f in whole))]


def candidate_sign_check(B: BarrierFn | BarrierValues, X_o: SetSpec, X_u: SetSpec, t_grid,
                         samples: SamplePlan, n_unsafe: int = 64,
                         drawn: Optional[Queries] = None) -> CheckReport:
    """B <= 0 (within POS_TOL) on X_o samples x t-grid and B >= POS_TOL on
    X_u samples, from the queries :func:`sign_queries` draws, or drawn,
    those drawn already; B may be their BarrierValues.

    Strict positivity on X_u is tested against POS_TOL since "> 0" is not
    decidable from samples.  Marginal barriers are exactly zero on X_o so the
    nonpositive side uses the same tolerance.
    """
    if drawn is None:
        drawn = sign_queries(X_o, X_u, t_grid, samples, n_unsafe)
    return drawn.answer(B)


def sign_queries(X_o: SetSpec, X_u: SetSpec, t_grid, samples: SamplePlan,
                 n_unsafe: int = 64) -> Queries:
    """The queries of :func:`candidate_sign_check` at every t of the grid: the
    X_o points samples draws and n_unsafe of X_u, drawn at samples.seed + 2."""
    t_grid = np.asarray(t_grid, dtype=float)
    check = lambda source, drawn: candidate_sign_check(source, X_o, X_u, t_grid, samples,
                                                       n_unsafe, drawn)
    if len(t_grid) == 0:
        return Queries(np.empty(0), np.empty((0, X_o.dim)), lambda got: CheckReport(
            "candidate_sign", 0, 0.0, {}, "inconclusive", details={"reason": "empty t-grid"}),
            check)
    pts_o = samples.draw(X_o)
    pts_u = X_u.sample_interior(n_unsafe, seed=samples.seed + 2, window=samples.window)
    # one batch over t-grid x samples, t-major; argmax/argmin pick the first
    # extreme in that order
    pts = np.vstack([pts_o, pts_u])

    def report(got: BarrierValues) -> CheckReport:
        vals = got.value.reshape(len(t_grid), len(pts))
        vo, vu = vals[:, :len(pts_o)], vals[:, len(pts_o):]
        i, a = np.unravel_index(np.argmax(vo), vo.shape)
        j, b = np.unravel_index(np.argmin(vu), vu.shape)
        worst_o, wo = float(vo[i, a]), {"t": float(t_grid[i]), "x": pts_o[a].tolist()}
        worst_u, wu = float(vu[j, b]), {"t": float(t_grid[j]), "x": pts_u[b].tolist()}
        viol = max(worst_o - POS_TOL, POS_TOL - worst_u)
        witness = wo if worst_o - POS_TOL >= POS_TOL - worst_u else wu
        # samples counts every evaluated (t, x), repeats too: a one-point X_o is
        # drawn many times; distinct_samples counts them bit for bit, as sets
        # of their bits: np.unique would import numpy.ma for it
        distinct = (len(set(t_grid.view(np.uint64).tolist()))
                    * len(set(map(tuple, pts.view(np.uint64).tolist()))))
        details = {"max_on_X_o": worst_o, "min_on_X_u": worst_u, "distinct_samples": distinct}
        if got.cut.any():
            details["lower_bound_only"] = "backward tube cut short by escape"
        return CheckReport("candidate_sign", vals.size, viol, witness,
                           "pass" if viol <= 0.0 else "fail", details=details)

    return Queries(np.repeat(t_grid, len(pts)), np.tile(pts, (len(t_grid), 1)), report, check)


def monotonicity_check(B: BarrierFn | BarrierValues, trajs: list[Trajectory], tol: float = 1e-8,
                       stride: int = 1, drawn: Optional[Queries] = None) -> CheckReport:
    """Worst positive increment of t -> B(t, phi(t)) across the stored nodes
    of forward trajectories, every stride-th node and the last, from the
    queries :func:`monotonicity_queries` makes, or drawn, those made
    already; B may be their BarrierValues.  Returns the report of the first
    trajectory with the largest increment; one of a single node has no
    increment and is skipped, and if every trajectory is one of those the
    check is inconclusive."""
    if drawn is None:
        drawn = monotonicity_queries(trajs, tol, stride)
    return drawn.answer(B)


def monotonicity_queries(trajs: list[Trajectory], tol: float = 1e-8,
                         stride: int = 1) -> Queries:
    """The queries of :func:`monotonicity_check`: the trajectories' nodes it reads."""
    if not trajs:
        raise BarrierError("monotonicity check needs at least one trajectory")
    if any(tr.direction != "forward" for tr in trajs):
        raise BarrierError("monotonicity check expects forward trajectories")
    idxs = [np.append(np.arange(0, len(tr.times) - 1, stride), len(tr.times) - 1)
            for tr in trajs]

    def report(got: BarrierValues) -> CheckReport:
        vals = np.split(got.value, np.cumsum([len(idx) for idx in idxs])[:-1])
        incs = [np.diff(v) for v in vals]
        some = [w for w, inc in enumerate(incs) if len(inc)]
        if not some:
            return CheckReport("monotonicity", 1, 0.0, {}, "inconclusive")
        w = max(some, key=lambda w: incs[w].max())      # the first largest
        tr, idx, v, inc = trajs[w], idxs[w], vals[w], incs[w]
        k = int(np.argmax(inc))
        worst = float(inc[k])
        witness = {"t": float(tr.times[idx[k + 1]]), "x": tr.states[idx[k + 1]].tolist(),
                   "previous_value": float(v[k]), "value": float(v[k + 1])}
        return CheckReport("monotonicity", len(idx), worst, witness,
                           "pass" if worst <= tol else "fail")

    return Queries(np.concatenate([tr.times[idx] for tr, idx in zip(trajs, idxs)]),
                   np.vstack([tr.states[idx] for tr, idx in zip(trajs, idxs)]), report,
                   lambda source, drawn: monotonicity_check(source, trajs, tol, stride, drawn))


def bundle_monotonicity_queries(F: InclusionSpec, X_o: SetSpec, T: float, n_samples: int,
                                tol: float, stride: int, cfg: IntegratorConfig,
                                plan: BundlePlan, seed: int, window) -> Queries:
    """The queries of a monotonicity check along the solution bundle of F
    over [0, T] from n_samples boundary points of X_o, or interior points
    of a set without a boundary sampler."""
    try:
        starts = X_o.sample_boundary(n_samples, seed=seed, window=window)
    except GeometryError:
        starts = X_o.sample_interior(n_samples, seed=seed, window=window)
    bundles = solution_bundle(F, starts, T, cfg=cfg, plan=plan)
    return monotonicity_queries([tr for trajs in bundles for tr in trajs], tol, stride)
