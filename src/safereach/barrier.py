"""Time-varying barrier functions and their validity checks.

The central construction is the marginal barrier

    B(t, x) = min distance to X_o over the backward reach tube R(-t, x),

realized as a running minimum of the distance along backward solution
bundles.  B(0, x) is the plain distance to X_o, B vanishes as soon as the
backward tube touches X_o, and nesting of backward tubes makes t -> B(t, x)
nonincreasing along solutions of the same system.

Checks are one-sided numerical evidence: finitely many selections and sample
points can witness a violation but never prove safety.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from . import sampling
from .dynamics import InclusionSpec, max_rate
from .expr import compile_expression, compile_scalar_expression
# distance_to_set_many is unused here: bench/test_bench.py reads barrier.distance_to_set_many
from .geometry import (SamplePlan, SetSpec, SubgradientCandidate, bisect_boundary,
                       clarke_gradient_sample, distance_to_set_many,
                       proximal_subgradient_test)
from .solver import BundlePlan, IntegratorConfig, Trajectory, tube_minimum

POS_TOL = 1e-9          # B >= POS_TOL on X_u samples stands for B > 0
CLARKE_RADIUS = 1e-4    # radius of the Clarke gradient samples around (t, x)
FD_STEP = 1e-6          # step of the infinitesimal check's finite differences


# ---------------------------------------------------------------------------
# barrier functions
# ---------------------------------------------------------------------------

class BarrierError(ValueError):
    pass


@dataclass
class BarrierFn:
    """Scalar B(t, x), evaluated in batches, with provenance metadata.

    batch_fn maps times ts (m,) and states Xs (m, n) to the m values; each
    value depends on its own (t, x) row only.  provenance is one of
    marginal | closedform_counterexample | smoothed | user.  band_width is the
    default width of the margin band realizing "a neighborhood of the
    zero-sublevel set minus the set itself" in the infinitesimal checks.
    core is the marginal construction behind batch_fn, if any.
    """

    batch_fn: Callable
    provenance: str
    dim: int
    band_width: float = 0.1
    params: dict = field(default_factory=dict)
    core: Optional[MarginalBarrier] = None

    def evaluate_many(self, ts, Xs) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        # a non-finite value is rejected below by name, so numpy need not warn
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            vals = np.asarray(self.batch_fn(ts, Xs), dtype=float)
        bad = ~np.isfinite(vals)
        if bad.any():
            i = int(np.argmax(bad))
            raise BarrierError(f"barrier returned non-finite value at t={float(ts[i])!r}, "
                               f"x={Xs[i].tolist()}")
        return vals


def user_barrier(expression: str, dim: int, band_width: float = 0.1) -> BarrierFn:
    """Barrier from an expression over x1..xn, optionally involving t."""
    time_dep = re.search(r"\bt\b", expression) is not None
    if time_dep:
        variables = ("t",) + tuple(f"x{i + 1}" for i in range(dim))
        g = compile_expression(expression, variables)
        batch = lambda ts, Xs: g(np.column_stack([ts, Xs]))
    else:
        variables = tuple(f"x{i + 1}" for i in range(dim))
        g = compile_expression(expression, variables)
        batch = lambda ts, Xs: g(Xs)
    return BarrierFn(batch, "user", dim, band_width, params={"expression": expression})


# ---------------------------------------------------------------------------
# marginal barrier
# ---------------------------------------------------------------------------

class MarginalBarrier:
    """Backward-tube distance minimum, evaluated by batched integration.

    The minimum runs along nested backward tubes, so one backward sweep per
    distinct x, to its largest queried t, yields B(t, x) at every queried t:
    each query reads the running minimum off the steps around its t."""

    def __init__(self, F: InclusionSpec, X_o: SetSpec, cfg: IntegratorConfig,
                 plan: BundlePlan = BundlePlan()):
        if X_o.kind == "complement":
            raise ValueError("X_o must be a closed set variant, not an open complement")
        self.F = F
        self.X_o = X_o
        self.cfg = cfg
        self.plan = plan
        self.truncated = False      # the last batch had a tube cut short by escape

    def values(self, ts, Xs) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        h = self.cfg.step
        if np.any(ts < 0):
            raise BarrierError("marginal barrier defined for t >= 0")
        if not np.all(np.isfinite(ts)):
            raise BarrierError(f"marginal barrier needs a finite t, got {ts[~np.isfinite(ts)][0]}")
        k_lo = np.floor(ts / h + 1e-12)
        frac = np.clip(ts / h - k_lo, 0.0, 1.0)
        k_hi = np.where(frac > 1e-12, k_lo + 1, k_lo)
        self.cfg.check_steps(ts, k_hi)
        max_k = int(k_hi.max(initial=0))
        selectors = self.plan.selectors(self.F, max_k * h if max_k > 0 else h)
        best, self.truncated = tube_minimum(self.F, selectors, Xs, [k_lo, k_hi], h, "backward",
                                            self.X_o, self.cfg.escape_radius)
        return best[0] * (1.0 - frac) + best[1] * frac


def marginal_barrier(F: InclusionSpec, X_o: SetSpec,
                     cfg: IntegratorConfig = IntegratorConfig(),
                     directions: int = 8, switches: int = 0, seed: int = 0,
                     band_width: float = 0.1) -> BarrierFn:
    """The converse construction: B(t,x) = min over R(-t,x) of |y|_{X_o}."""
    core = MarginalBarrier(F, X_o, cfg, BundlePlan(directions, switches, seed))
    return BarrierFn(core.values, "marginal", F.dim, band_width,
                     params={"system": F.name, "X_o": X_o.name or X_o.kind,
                             "directions": directions, "switches": switches},
                     core=core)


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


def counterexample_barrier_fn(band_width: float = 0.1) -> BarrierFn:
    return BarrierFn(counterexample_barrier, "closedform_counterexample", 2, band_width)


# ---------------------------------------------------------------------------
# relaxation functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RelaxFn:
    """Right-hand side g of the relaxed decrease condition <zeta,(1,eta)> <= g(B)."""

    kind: str                       # zero | linear | extended_classK | minimal
    fn: Callable = None
    expression: str = ""

    @staticmethod
    def zero() -> "RelaxFn":
        return RelaxFn("zero", lambda b: np.zeros_like(np.asarray(b, dtype=float)))

    @staticmethod
    def linear(L: float) -> "RelaxFn":
        if L <= 0:
            raise ValueError("linear relaxation needs L > 0")
        return RelaxFn("linear", lambda b: L * np.asarray(b, dtype=float),
                       expression=f"{L}*b")

    @staticmethod
    def extended_classK(expression: str) -> "RelaxFn":
        g = compile_scalar_expression(expression, "b")
        probe = np.linspace(-2.0, 2.0, 41)
        vals = g(probe)
        if abs(float(g(np.array(0.0)))) > 1e-9:
            raise ValueError("extended class-K function must satisfy g(0) = 0")
        if np.any(np.diff(vals) <= 0):
            raise ValueError("extended class-K function must be strictly increasing")
        return RelaxFn("extended_classK", g, expression)

    @staticmethod
    def minimal(expression: str) -> "RelaxFn":
        return RelaxFn("minimal", compile_scalar_expression(expression, "b"),
                       expression)

    def __call__(self, b):
        return self.fn(b)


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
        payload = {
            "check": self.check,
            "samples": self.samples,
            "worst_margin": self.worst_margin,
            "witness": jsonable(self.witness),
            "verdict": self.verdict,
            "details": jsonable(self.details),
        }
        return json.dumps(payload, indent=2, sort_keys=True)


def jsonable(obj):
    if isinstance(obj, dict):
        return {k: jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    return obj


# ---------------------------------------------------------------------------
# sign and monotonicity checks
# ---------------------------------------------------------------------------

def candidate_sign_check(B: BarrierFn, X_o: SetSpec, X_u: SetSpec, t_grid,
                         n_init: int = 64, n_unsafe: int = 64,
                         window=None, seed: int = 0) -> CheckReport:
    """B <= 0 (within POS_TOL) on X_o samples x t-grid and B >= POS_TOL on
    X_u samples.

    Strict positivity on X_u is tested against POS_TOL since "> 0" is not
    decidable from samples.  Marginal barriers are exactly zero on X_o so the
    nonpositive side uses the same tolerance.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) == 0:
        return CheckReport("candidate_sign", 0, 0.0, {}, "inconclusive",
                           details={"reason": "empty t-grid"})
    n_b = max(1, n_init // 2)
    pts_o = SamplePlan(n_b, n_init - n_b, seed, window).draw(X_o)
    pts_u = X_u.sample_interior(n_unsafe, seed=seed + 2, window=window)
    # one batch over t-grid x samples, t-major; argmax/argmin pick the first
    # extreme in that order
    pts = np.vstack([pts_o, pts_u])
    vals = B.evaluate_many(np.repeat(t_grid, len(pts)), np.tile(pts, (len(t_grid), 1)))
    vals = vals.reshape(len(t_grid), len(pts))
    vo, vu = vals[:, :len(pts_o)], vals[:, len(pts_o):]
    i, a = np.unravel_index(np.argmax(vo), vo.shape)
    j, b = np.unravel_index(np.argmin(vu), vu.shape)
    worst_o, wo = float(vo[i, a]), {"t": float(t_grid[i]), "x": pts_o[a].tolist()}
    worst_u, wu = float(vu[j, b]), {"t": float(t_grid[j]), "x": pts_u[b].tolist()}
    viol = max(worst_o - POS_TOL, POS_TOL - worst_u)
    witness = wo if worst_o - POS_TOL >= POS_TOL - worst_u else wu
    # samples counts every evaluated (t, x), repeats too: a one-point X_o is
    # drawn many times; distinct_samples counts them bit for bit
    distinct = (len(np.unique(t_grid.view(np.uint64)))
                * len(np.unique(pts.view(np.uint64), axis=0)))
    details = {"max_on_X_o": worst_o, "min_on_X_u": worst_u, "distinct_samples": distinct}
    if B.core is not None and B.core.truncated:
        details["lower_bound_only"] = "backward tube truncated by escape"
    return CheckReport(
        "candidate_sign", vals.size, viol, witness,
        "pass" if viol <= 0.0 else "fail", details=details)


def monotonicity_check(B: BarrierFn, trajs: list[Trajectory], tol: float = 1e-8,
                       stride: int = 1) -> CheckReport:
    """Worst positive increment of t -> B(t, phi(t)) across the stored nodes
    of forward trajectories, every stride-th node and the last, all in one
    batch.  Returns the report of the first trajectory with the largest
    increment; a trajectory of one node is inconclusive."""
    if not trajs:
        raise ValueError("monotonicity check needs at least one trajectory")
    if any(tr.direction != "forward" for tr in trajs):
        raise ValueError("monotonicity check expects forward trajectories")
    idxs = [np.unique(np.append(np.arange(0, len(tr.times), stride), len(tr.times) - 1))
            for tr in trajs]
    vals = B.evaluate_many(np.concatenate([tr.times[idx] for tr, idx in zip(trajs, idxs)]),
                           np.vstack([tr.states[idx] for tr, idx in zip(trajs, idxs)]))
    vals = np.split(vals, np.cumsum([len(idx) for idx in idxs])[:-1])
    incs = [np.diff(v) for v in vals]
    w = int(np.argmax([inc.max() if len(inc) else 0.0 for inc in incs]))
    tr, idx, v, inc = trajs[w], idxs[w], vals[w], incs[w]
    if len(inc) == 0:
        return CheckReport("monotonicity", 1, 0.0, {}, "inconclusive")
    k = int(np.argmax(inc))
    worst = float(inc[k])
    witness = {"t": float(tr.times[idx[k + 1]]), "x": tr.states[idx[k + 1]].tolist(),
               "previous_value": float(v[k]), "value": float(v[k + 1])}
    return CheckReport("monotonicity", len(idx), worst, witness,
                       "pass" if worst <= tol else "fail")


# ---------------------------------------------------------------------------
# infinitesimal decrease checks
# ---------------------------------------------------------------------------

def _fd_extended_gradients(B: BarrierFn, ts: np.ndarray, X: np.ndarray) -> np.ndarray:
    """Central finite-difference gradients of B in (t, x) at every pair
    (ts[i], X[i]), from one batch of 2(n+1) probes per pair."""
    k, n = X.shape
    fd = FD_STEP
    tp = np.maximum(ts, fd)   # keep probes at t >= 0
    step = fd * np.eye(n)
    # per pair: (tp + fd, x), (tp - fd, x), (t, x + fd e_i) for each i, then (t, x - fd e_i)
    pt = np.column_stack([tp + fd, tp - fd, np.repeat(ts[:, None], 2 * n, axis=1)])
    px = np.concatenate([np.repeat(X[:, None], 2, axis=1), X[:, None] + step,
                         X[:, None] - step], axis=1)
    v = B.evaluate_many(pt.ravel(), px.reshape(-1, n)).reshape(k, 2 * n + 2)
    return np.column_stack([v[:, 0] - v[:, 1], v[:, 2:n + 2] - v[:, n + 2:]]) / (2 * fd)


def _region_samples(B: BarrierFn, region, t_grid, window, count, seed):
    """Sample (t, x) pairs in the requested region of the (t, x) space."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) == 0:
        return []
    lo, hi = window
    per_t = max(count // len(t_grid), 8)
    pool_x = sampling.box_points(lo, hi, per_t * 4, seed=seed)
    kind = region if isinstance(region, str) else region[0]
    width = None if isinstance(region, str) else region[1]
    # one t-major batch over t-grid x pool
    vals_t = B.evaluate_many(np.repeat(t_grid, len(pool_x)),
                             np.tile(pool_x, (len(t_grid), 1))).reshape(len(t_grid), -1)
    picked = []
    for t, vals in zip(t_grid, vals_t):
        if kind == "everywhere":
            keep = np.ones(len(pool_x), dtype=bool)
        elif kind == "margin_band":
            w = width if width is not None else _default_band(vals, B.band_width)
            keep = (vals > 0.0) & (vals <= w)
        elif kind == "boundary":
            keep = np.abs(vals) <= (width if width is not None else 1e-3)
            if not keep.any():
                picked.extend(_bisect_zero_level(B, float(t), pool_x, vals, per_t))
                continue
        else:
            raise ValueError(f"unknown region '{kind}'")
        pts = pool_x[keep][:per_t]
        picked.extend((float(t), p) for p in pts)
    return picked[:count] if count else picked


def _default_band(vals: np.ndarray, fallback: float) -> float:
    pos = vals[vals > 0]
    return 0.1 * float(np.median(pos)) if len(pos) else fallback


def _bisect_zero_level(B: BarrierFn, t: float, pool: np.ndarray,
                       vals: np.ndarray, count: int):
    """Bisect count pool pairs straddling the zero level at t, all together;
    returns the ends where B > 0."""
    neg, pos = pool[vals <= 0.0], pool[vals > 0.0]
    if len(neg) == 0 or len(pos) == 0:
        return []
    i = np.arange(count)
    ends = bisect_boundary(lambda P: B.evaluate_many(np.full(count, t), P) > 0.0,
                           pos[(3 * i + 1) % len(pos)], neg[i % len(neg)])
    return [(t, p) for p in ends]


def infinitesimal_check(B: BarrierFn, F: InclusionSpec, mode: str = "smooth",
                        region="everywhere", g: RelaxFn = None,
                        t_grid=(0.0,), window=None, count: int = 200,
                        seed: int = 0, tol: float = 1e-7) -> CheckReport:
    """Decrease condition <zeta, (1, eta)> <= g(B) over sampled region points.

    mode smooth: zeta is the finite-difference gradient of B;
    mode clarke: zeta ranges over Clarke gradient samples around (t, x);
    mode proximal: zeta ranges over candidates that pass the proximal
    subgradient inequality (an empty candidate set passes vacuously).
    Each zeta is tested against its exact maximum over eta in F(x)
    (:func:`~safereach.dynamics.max_rate`); samples counts the zetas.
    """
    if g is None:
        g = RelaxFn.zero()
    if window is None:
        raise ValueError("infinitesimal_check needs a sampling window")
    lo, hi = np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float)
    pairs = _region_samples(B, region, t_grid, (lo, hi), count, seed)
    if not pairs:
        return CheckReport(f"infinitesimal_{mode}", 0, 0.0, {}, "inconclusive",
                           details={"reason": "region empty after sampling"})
    ts, X = np.array([t for t, _ in pairs]), np.array([x for _, x in pairs])
    Z, keep = _zeta_candidates(B, mode, ts, X, seed)
    gbs = np.asarray(g(B.evaluate_many(ts, X)), dtype=float)
    if not keep.any():
        return CheckReport(f"infinitesimal_{mode}", 0, 0.0, {}, "inconclusive",
                           details={"reason": "no subgradient candidates"})
    rates, etas = max_rate(F, X, Z)
    margins = np.where(keep, rates - gbs[:, None], -np.inf)
    i, j = np.unravel_index(np.argmax(margins), margins.shape)
    worst = float(margins[i, j])
    witness = {"t": float(ts[i]), "x": X[i].tolist(), "eta": etas[i, j].tolist(),
               "zeta": Z[i, j].tolist()}
    return CheckReport(f"infinitesimal_{mode}", int(keep.sum()), worst, witness,
                       "pass" if worst <= tol else "fail",
                       details={"relaxation": g.kind, "region": str(region)})


def _zeta_candidates(B: BarrierFn, mode: str, ts: np.ndarray, X: np.ndarray, seed: int):
    """Candidate zetas (k, z, n + 1) of the k pairs, and a (k, z) mask of those to test."""
    prox_radius = 1e-3
    if mode == "smooth":
        return _fd_extended_gradients(B, ts, X)[:, None, :], np.ones((len(ts), 1), dtype=bool)
    if mode not in ("clarke", "proximal"):
        raise ValueError(f"unknown mode '{mode}'")
    handle = lambda U: B.evaluate_many(U[:, 0], U[:, 1:])
    # base times keep every probe of the Clarke (and proximal) ball at t >= 0
    floor = (max(CLARKE_RADIUS, prox_radius) if mode == "proximal" else CLARKE_RADIUS) + FD_STEP
    TX = np.column_stack([np.maximum(ts, floor), X])
    grads = clarke_gradient_sample(handle, TX, radius=CLARKE_RADIUS, fd_step=FD_STEP, seed=seed)
    if mode == "clarke":
        return grads, np.ones(grads.shape[:2], dtype=bool)
    # each margin is nondecreasing in eps, so the curvature bound 100 accepts
    # every zeta that a smaller one would; one test on every pair and its zetas
    keep = proximal_subgradient_test(SubgradientCandidate(TX, grads, radius=prox_radius,
                                                          eps=100.0), handle, m=24, seed=seed)
    return grads, keep["holds"]
