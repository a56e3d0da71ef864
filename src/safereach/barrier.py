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
from typing import Callable, NamedTuple, Optional

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


class BarrierValues(NamedTuple):
    """B at m (t, x) rows: value, the (m,) floats, and cut, the (m,) bools
    true where the value read a backward tube cut short by escape at or
    before its t, so it is only a lower bound of the marginal."""

    value: np.ndarray
    cut: np.ndarray


@dataclass
class BarrierFn:
    """Scalar B(t, x), evaluated in batches, with provenance metadata.

    batch_fn maps times ts (m,) and states Xs (m, n) to the pair (values,
    cut) of (m,) arrays that evaluate_many returns as a BarrierValues; each
    row depends on its own (t, x) only, and a B with no backward tube cuts
    none.  provenance is one of
    marginal | closedform_counterexample | smoothed | user.  band_width is the
    default width of the margin band realizing "a neighborhood of the
    zero-sublevel set minus the set itself" in the infinitesimal checks.
    """

    batch_fn: Callable
    provenance: str
    dim: int
    band_width: float = 0.1
    params: dict = field(default_factory=dict)

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


def user_barrier(expression: str, dim: int, band_width: float = 0.1) -> BarrierFn:
    """Barrier from an expression over x1..xn, optionally involving t."""
    time_dep = re.search(r"\bt\b", expression) is not None
    g = compile_expression(expression, (("t",) if time_dep else ())
                           + tuple(f"x{i + 1}" for i in range(dim)))
    batch = lambda ts, Xs: (g(np.column_stack([ts, Xs]) if time_dep else Xs),
                            np.zeros(len(ts), dtype=bool))
    return BarrierFn(batch, "user", dim, band_width, params={"expression": expression})


# ---------------------------------------------------------------------------
# marginal barrier
# ---------------------------------------------------------------------------

def marginal_barrier(F: InclusionSpec, X_o: SetSpec,
                     cfg: IntegratorConfig = IntegratorConfig(),
                     directions: int = 8, switches: int = 0, seed: int = 0,
                     band_width: float = 0.1) -> BarrierFn:
    """The converse construction: B(t,x) = min over R(-t,x) of |y|_{X_o},
    evaluated by batched integration.

    The minimum runs along nested backward tubes, so one backward sweep per
    distinct x, to its largest queried t, yields B(t, x) at every queried t:
    each query reads the running minimum off the steps around its t, and
    its cut says whether its tube was cut short by escape at or before t."""
    if X_o.kind == "complement":
        raise ValueError("X_o must be a closed set variant, not an open complement")
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
        selectors = plan.selectors(F, max_k * h if max_k > 0 else h)
        best, cut = tube_minimum(F, selectors, Xs, [k_lo, k_hi], h, "backward",
                                 X_o, cfg.escape_radius)
        return best[0] * (1.0 - frac) + best[1] * frac, cut[1]

    return BarrierFn(values, "marginal", F.dim, band_width,
                     params={"system": F.name, "X_o": X_o.name or X_o.kind,
                             "directions": directions, "switches": switches})


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
    return BarrierFn(lambda ts, Xs: (counterexample_barrier(ts, Xs),
                                     np.zeros(len(ts), dtype=bool)),
                     "closedform_counterexample", 2, band_width)


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

class Queries:
    """The (t, x) rows one check asks of B.  report(got) makes the check's
    report from their BarrierValues, each row's value and whether it read a
    backward tube cut short by escape; check(source, drawn) runs the check's entry
    (:func:`candidate_sign_check` or :func:`monotonicity_check`, the spans
    bench/spans.py records) with these queries as drawn.  A plain class: a
    dataclass would add about 1 ms to every import of this module."""

    def __init__(self, ts: np.ndarray, Xs: np.ndarray, report: Callable, check: Callable):
        self.ts, self.Xs, self.report, self.check = ts, Xs, report, check

    def answer(self, source) -> CheckReport:
        """The report from the values of source: B, or a Batch standing for it."""
        return self.report(source.values(self) if isinstance(source, Batch)
                           else source.evaluate_many(self.ts, self.Xs))


class Batch:
    """Stands for B in several checks: the first of them to ask for values
    evaluates the queries of all of them in one evaluate_many of B, so a
    marginal B sweeps each distinct x once, to its largest t.  A value
    depends on its own (t, x) only, so a report is the one its queries
    alone would give.  If that batch raises, each check's queries are
    evaluated alone when it asks, so the first failing check raises its own
    error."""

    def __init__(self, B: BarrierFn, asked: list[Queries]):
        self.B, self.asked, self.got = B, asked, None

    def values(self, q: Queries) -> BarrierValues:
        if self.got is None:
            self.got = {}
            try:
                whole = self.B.evaluate_many(np.concatenate([a.ts for a in self.asked]),
                                             np.vstack([a.Xs for a in self.asked]))
            except (ValueError, RuntimeError):     # the library's errors
                pass        # each check then evaluates its own queries, below
            else:
                ends = np.cumsum([len(a.ts) for a in self.asked])[:-1]
                self.got = {id(a): BarrierValues(*part) for a, part in
                            zip(self.asked, zip(*(np.split(f, ends) for f in whole)))}
        got = self.got.get(id(q))
        return got if got is not None else self.B.evaluate_many(q.ts, q.Xs)


def check_results(B: BarrierFn, runs: list):
    """The (JSON report, verdict) of each run of a check command, in order:
    a pair as it is, and each Queries from its check, all of them answered
    by one Batch."""
    batch = Batch(B, [run for run in runs if isinstance(run, Queries)])
    for run in runs:
        if isinstance(run, Queries):
            rep = run.check(batch, run)
            run = rep.to_json(), rep.verdict
        yield run


def candidate_sign_check(B: BarrierFn, X_o: SetSpec, X_u: SetSpec, t_grid, n_init: int = 64,
                         n_unsafe: int = 64, window=None, seed: int = 0,
                         drawn: Optional[Queries] = None) -> CheckReport:
    """B <= 0 (within POS_TOL) on X_o samples x t-grid and B >= POS_TOL on
    X_u samples, from the queries :func:`sign_queries` draws, or drawn,
    those drawn already; B may be a Batch answering them with other checks'.

    Strict positivity on X_u is tested against POS_TOL since "> 0" is not
    decidable from samples.  Marginal barriers are exactly zero on X_o so the
    nonpositive side uses the same tolerance.
    """
    if drawn is None:
        drawn = sign_queries(B, X_o, X_u, t_grid, n_init, n_unsafe, window, seed)
    return drawn.answer(B)


def sign_queries(B: BarrierFn, X_o: SetSpec, X_u: SetSpec, t_grid, n_init: int = 64,
                 n_unsafe: int = 64, window=None, seed: int = 0) -> Queries:
    """The queries of :func:`candidate_sign_check`: its X_o and X_u samples
    at every t of the grid."""
    t_grid = np.asarray(t_grid, dtype=float)
    check = lambda source, drawn: candidate_sign_check(source, X_o, X_u, t_grid, n_init,
                                                       n_unsafe, window, seed, drawn)
    if len(t_grid) == 0:
        return Queries(np.empty(0), np.empty((0, B.dim)), lambda got: CheckReport(
            "candidate_sign", 0, 0.0, {}, "inconclusive", details={"reason": "empty t-grid"}),
            check)
    n_b = max(1, n_init // 2)
    pts_o = SamplePlan(n_b, n_init - n_b, seed, window).draw(X_o)
    pts_u = X_u.sample_interior(n_unsafe, seed=seed + 2, window=window)
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


def monotonicity_check(B: BarrierFn, trajs: list[Trajectory], tol: float = 1e-8,
                       stride: int = 1, drawn: Optional[Queries] = None) -> CheckReport:
    """Worst positive increment of t -> B(t, phi(t)) across the stored nodes
    of forward trajectories, every stride-th node and the last, from the
    queries :func:`monotonicity_queries` makes, or drawn, those made
    already; B may be a Batch answering them with other checks'.  Returns
    the report of the first trajectory with the largest increment; one of a
    single node has no increment and is skipped, and if every trajectory is
    one of those the check is inconclusive."""
    if drawn is None:
        drawn = monotonicity_queries(trajs, tol, stride)
    return drawn.answer(B)


def monotonicity_queries(trajs: list[Trajectory], tol: float = 1e-8,
                         stride: int = 1) -> Queries:
    """The queries of :func:`monotonicity_check`: the trajectories' nodes it reads."""
    if not trajs:
        raise ValueError("monotonicity check needs at least one trajectory")
    if any(tr.direction != "forward" for tr in trajs):
        raise ValueError("monotonicity check expects forward trajectories")
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
    v = B.evaluate_many(pt.ravel(), px.reshape(-1, n)).value.reshape(k, 2 * n + 2)
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
                             np.tile(pool_x, (len(t_grid), 1))).value.reshape(len(t_grid), -1)
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
    ends = bisect_boundary(lambda P: B.evaluate_many(np.full(count, t), P).value > 0.0,
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
    gbs = np.asarray(g(B.evaluate_many(ts, X).value), dtype=float)
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
    handle = lambda U: B.evaluate_many(U[:, 0], U[:, 1:]).value
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
