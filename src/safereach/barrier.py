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
from .dynamics import (InclusionSpec, inclusion_extreme_points, negate, select,
                       selector_table)
from .expr import compile_expression, compile_scalar_expression
from .geometry import (GeometryError, SetSpec, SubgradientCandidate, clarke_gradient_sample,
                       distance_to_set_many, proximal_subgradient_test)
from .solver import BundlePlan, IntegratorConfig, Trajectory, rk4_sweep

DEFAULT_POS_TOL = 1e-9


# ---------------------------------------------------------------------------
# barrier functions
# ---------------------------------------------------------------------------

@dataclass
class BarrierFn:
    """Evaluable scalar B(t, x) with provenance metadata.

    provenance is one of marginal | closedform_counterexample | smoothed |
    user.  band_width is the default width of the margin band realizing
    "a neighborhood of the zero-sublevel set minus the set itself" in the
    infinitesimal checks.
    """

    fn: Callable                    # (t: float, x: (n,)) -> float
    provenance: str
    dim: int
    band_width: float = 0.1
    batch_fn: Optional[Callable] = None   # (ts (m,), Xs (m,n)) -> (m,)
    params: dict = field(default_factory=dict)

    def evaluate(self, t: float, x) -> float:
        v = float(self.fn(float(t), np.asarray(x, dtype=float)))
        if not np.isfinite(v):
            raise ValueError(f"barrier returned non-finite value at t={t}, x={x}")
        return v

    def evaluate_many(self, ts, Xs) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        if self.batch_fn is not None:
            return np.asarray(self.batch_fn(ts, Xs), dtype=float)
        return np.array([self.evaluate(t, x) for t, x in zip(ts, Xs)])


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
    return BarrierFn(lambda t, x: float(batch(np.array([t]), x[None, :])[0]),
                     "user", dim, band_width, batch_fn=batch,
                     params={"expression": expression})


# ---------------------------------------------------------------------------
# marginal barrier
# ---------------------------------------------------------------------------

class MarginalBarrier:
    """Backward-tube distance minimum, evaluated by batched integration."""

    def __init__(self, F: InclusionSpec, X_o: SetSpec, cfg: IntegratorConfig,
                 plan: BundlePlan = BundlePlan()):
        if X_o.kind == "complement":
            raise ValueError("X_o must be a closed set variant, not an open complement")
        self.F = F
        self.X_o = X_o
        self.cfg = cfg
        self.plan = plan
        self._cache: dict = {}
        self.truncated_seen = False

    def _key(self, t: float, x: np.ndarray) -> tuple:
        q = 1e-9
        return (int(round(t / q)),) + tuple(int(round(c / q)) for c in x)

    def values(self, ts, Xs) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        Xs = np.atleast_2d(np.asarray(Xs, dtype=float))
        keys = [self._key(t, x) for t, x in zip(ts, Xs)]
        misses = [i for i, key in enumerate(keys) if key not in self._cache]
        if misses:
            vals, trunc = self._compute(ts[misses], Xs[misses])
            self._cache.update(zip([keys[i] for i in misses], vals.tolist()))
            self.truncated_seen |= bool(trunc.any())
        return np.array([self._cache[key] for key in keys])

    def _compute(self, ts: np.ndarray, Xs: np.ndarray):
        h = self.cfg.step
        m = len(ts)
        if np.any(ts < 0):
            raise ValueError("marginal barrier defined for t >= 0")
        k_lo = np.floor(ts / h + 1e-12).astype(int)
        frac = np.clip(ts / h - k_lo, 0.0, 1.0)
        k_hi = np.where(frac > 1e-12, k_lo + 1, k_lo)
        max_k = int(k_hi.max(initial=0))
        horizon = max_k * h if max_k > 0 else h
        selectors = self.plan.selectors(self.F, horizon)
        # one sweep over selectors x points: row j * m + i runs selector j from Xs[i]
        S = len(selectors)
        switch_times, D = selector_table(self.F, selectors)
        D = None if D is None else np.repeat(D, m, axis=1)
        # step k uses the direction of the segment holding its midpoint
        seg = np.searchsorted(switch_times, (np.arange(1, max_k + 1) - 0.5) * h, side="right")
        Fb = negate(self.F)
        lo, hi = np.tile(k_lo, S), np.tile(k_hi, S)
        dmin = np.tile(distance_to_set_many(Xs, self.X_o), S)
        out_lo = np.where(lo == 0, dmin, np.inf)
        out_hi = np.where(hi == 0, dmin, np.inf)

        def rhs(k, rows, X):
            return select(Fb, X, None if D is None else D[seg[k - 1]][rows])

        def observe(k, rows, X):
            dmin[rows] = np.minimum(dmin[rows], distance_to_set_many(X[rows], self.X_o))
            for out, ks in ((out_lo, lo), (out_hi, hi)):
                at = ks == k
                out[at] = dmin[at]

        _, steps, escaped = rk4_sweep(rhs, np.tile(Xs, (S, 1)), h, max_k, observe,
                                      self.cfg.escape_radius)
        truncated = (escaped & (steps <= hi)).reshape(S, m).any(axis=0)
        best_lo = out_lo.reshape(S, m).min(axis=0)
        best_hi = out_hi.reshape(S, m).min(axis=0)
        return best_lo * (1.0 - frac) + best_hi * frac, truncated


def marginal_barrier(F: InclusionSpec, X_o: SetSpec,
                     cfg: IntegratorConfig = IntegratorConfig(),
                     directions: int = 8, switches: int = 0, seed: int = 0,
                     band_width: float = 0.1) -> BarrierFn:
    """The converse construction: B(t,x) = min over R(-t,x) of |y|_{X_o}."""
    core = MarginalBarrier(F, X_o, cfg, BundlePlan(directions, switches, seed))
    fn = lambda t, x: float(core.values(np.array([t]), x[None, :])[0])
    b = BarrierFn(fn, "marginal", F.dim, band_width,
                  batch_fn=lambda ts, Xs: core.values(ts, Xs),
                  params={"system": F.name, "X_o": X_o.name or X_o.kind,
                          "directions": directions, "switches": switches})
    b.core = core
    return b


# ---------------------------------------------------------------------------
# closed-form barrier for the built-in counterexample
# ---------------------------------------------------------------------------

def counterexample_barrier(t: float, x) -> float:
    """Backward radial flow through the limit-cycle annuli, in closed form.

    Zero at the origin; constant 1/(k*pi) on the circles 1/|x| = k*pi; on the
    open annulus 1/|x| in (k*pi, (k+1)*pi) the value is
    1 / (arccot(cot(1/|x|) - t/2) + k*pi) with arccot valued in (0, pi).
    """
    x = np.asarray(x, dtype=float)
    r = float(np.linalg.norm(x))
    if r == 0.0:
        return 0.0
    u = 1.0 / r
    frac = u / np.pi
    k_round = int(round(frac))
    if k_round >= 1 and abs(frac - k_round) <= 1e-12:
        return 1.0 / (k_round * np.pi)
    k = int(np.floor(frac))
    c = np.cos(u) / np.sin(u)
    phase = np.pi / 2.0 - np.arctan(c - 0.5 * float(t))
    return float(1.0 / (phase + k * np.pi))


def counterexample_barrier_fn(band_width: float = 0.1) -> BarrierFn:
    batch = lambda ts, Xs: np.array(
        [counterexample_barrier(t, x) for t, x in zip(ts, Xs)])
    return BarrierFn(lambda t, x: counterexample_barrier(t, x),
                     "closedform_counterexample", 2, band_width, batch_fn=batch)


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
                         window=None, seed: int = 0,
                         pos_tol: float = DEFAULT_POS_TOL,
                         zero_tol: float = 1e-9) -> CheckReport:
    """B <= 0 on X_o samples x t-grid and B >= pos_tol on X_u samples.

    Strict positivity on X_u is tested against pos_tol since "> 0" is not
    decidable from samples.  Marginal barriers are exactly zero on X_o so the
    nonpositive side uses the same tolerance.
    """
    t_grid = np.asarray(t_grid, dtype=float)
    n_b = max(1, n_init // 2)
    pts_o = [X_o.sample_interior(n_init - n_b, seed=seed, window=window)]
    try:
        pts_o.append(X_o.sample_boundary(n_b, seed=seed + 1, window=window))
    except GeometryError:
        pass    # sets without a boundary sampler fall back to interior
    pts_o = np.vstack(pts_o)
    pts_u = X_u.sample_interior(n_unsafe, seed=seed + 2, window=window)
    worst_o, wo = -np.inf, None
    worst_u, wu = np.inf, None
    for t in t_grid:
        vo = B.evaluate_many(np.full(len(pts_o), t), pts_o)
        vu = B.evaluate_many(np.full(len(pts_u), t), pts_u)
        i = int(np.argmax(vo))
        if vo[i] > worst_o:
            worst_o, wo = float(vo[i]), {"t": float(t), "x": pts_o[i].tolist()}
        j = int(np.argmin(vu))
        if vu[j] < worst_u:
            worst_u, wu = float(vu[j]), {"t": float(t), "x": pts_u[j].tolist()}
    viol = max(worst_o - zero_tol, pos_tol - worst_u)
    witness = wo if worst_o - zero_tol >= pos_tol - worst_u else wu
    details = {"max_on_X_o": worst_o, "min_on_X_u": worst_u}
    core = getattr(B, "core", None)
    if core is not None and getattr(core, "truncated_seen", False):
        details["lower_bound_only"] = "backward tube truncated by escape"
    return CheckReport(
        "candidate_sign", (len(pts_o) + len(pts_u)) * len(t_grid),
        viol, witness, "pass" if viol <= 0.0 else "fail",
        details=details)


def monotonicity_check(B: BarrierFn, traj: Trajectory, tol: float = 1e-8,
                       stride: int = 1) -> CheckReport:
    """Worst positive increment of t -> B(t, phi(t)) across stored nodes."""
    if traj.direction != "forward":
        raise ValueError("monotonicity check expects a forward trajectory")
    idx = np.arange(0, len(traj.times), stride)
    if idx[-1] != len(traj.times) - 1:
        idx = np.append(idx, len(traj.times) - 1)
    ts = traj.times[idx]
    vals = B.evaluate_many(ts, traj.states[idx])
    incs = np.diff(vals)
    if len(incs) == 0:
        return CheckReport("monotonicity", 1, 0.0, {}, "inconclusive")
    k = int(np.argmax(incs))
    worst = float(incs[k])
    witness = {"t": float(ts[k + 1]), "x": traj.states[idx[k + 1]].tolist(),
               "previous_value": float(vals[k]), "value": float(vals[k + 1])}
    return CheckReport("monotonicity", len(idx), worst, witness,
                       "pass" if worst <= tol else "fail")


# ---------------------------------------------------------------------------
# infinitesimal decrease checks
# ---------------------------------------------------------------------------

def _fd_extended_gradient(B: BarrierFn, t: float, x: np.ndarray,
                          fd: float = 1e-6) -> np.ndarray:
    """Central finite-difference gradient of B in (t, x)."""
    n = len(x)
    g = np.empty(n + 1)
    tp = max(t, fd)   # keep probes at t >= 0
    g[0] = (B.evaluate(tp + fd, x) - B.evaluate(tp - fd, x)) / (2 * fd)
    for i in range(n):
        e = np.zeros(n)
        e[i] = fd
        g[i + 1] = (B.evaluate(t, x + e) - B.evaluate(t, x - e)) / (2 * fd)
    return g


def _region_samples(B: BarrierFn, region, t_grid, window, count, seed):
    """Sample (t, x) pairs in the requested region of the (t, x) space."""
    t_grid = np.asarray(t_grid, dtype=float)
    lo, hi = window
    per_t = max(count // max(len(t_grid), 1), 8)
    pool_x = sampling.box_points(lo, hi, per_t * 4, seed=seed)
    kind = region if isinstance(region, str) else region[0]
    width = None if isinstance(region, str) else region[1]
    picked = []
    for t in t_grid:
        vals = B.evaluate_many(np.full(len(pool_x), t), pool_x)
        if kind == "everywhere":
            keep = np.ones(len(pool_x), dtype=bool)
        elif kind == "margin_band":
            w = width if width is not None else _default_band(vals, B.band_width)
            keep = (vals > 0.0) & (vals <= w)
        elif kind == "boundary":
            keep = np.abs(vals) <= (width if width is not None else 1e-3)
            if not keep.any():
                picked.extend(_bisect_zero_level(B, t, pool_x, vals,
                                                 per_t, width or 1e-9))
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
                       vals: np.ndarray, count: int, band: float):
    neg = pool[vals <= 0.0]
    pos = pool[vals > 0.0]
    out = []
    for i in range(min(count, len(neg) * len(pos) and count)):
        if len(neg) == 0 or len(pos) == 0:
            break
        a = neg[i % len(neg)].copy()
        b = pos[(3 * i + 1) % len(pos)].copy()
        for _ in range(60):
            mid = 0.5 * (a + b)
            if B.evaluate(t, mid) <= 0.0:
                a = mid
            else:
                b = mid
        out.append((t, b))
    return out


def infinitesimal_check(B: BarrierFn, F: InclusionSpec, mode: str = "smooth",
                        region="everywhere", g: RelaxFn = None,
                        t_grid=(0.0,), window=None, count: int = 200,
                        fd: float = 1e-6, clarke_radius: float = 1e-4,
                        seed: int = 0, tol: float = 1e-7,
                        ball_directions: int = 16) -> CheckReport:
    """Decrease condition <zeta, (1, eta)> <= g(B) over sampled region points.

    mode smooth: zeta is the finite-difference gradient of B;
    mode clarke: zeta ranges over Clarke gradient samples around (t, x);
    mode proximal: zeta ranges over candidates that pass the proximal
    subgradient inequality (an empty candidate set passes vacuously).
    eta ranges over the inclusion vertices; for a ball inclusion the exact
    maximum over the ball is used.
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
    worst = -np.inf
    witness = {}
    checked = 0
    for (t, x) in pairs:
        zetas = _zeta_candidates(B, F, mode, t, x, fd, clarke_radius, seed)
        if len(zetas) == 0:
            continue
        gb = float(np.asarray(g(B.evaluate(t, x))))
        for zeta in zetas:
            zt, zx = zeta[0], zeta[1:]
            if F.kind == "ball":
                f0 = F.fields[0](x)
                cands = [(f0, zt + float(zx @ f0) + F.epsilon * float(np.linalg.norm(zx)) - gb)]
            else:
                cands = [(eta, zt + float(zx @ eta) - gb)
                         for eta in inclusion_extreme_points(F, x, ball_directions, seed)]
            for eta, margin in cands:
                checked += 1
                if margin > worst:
                    worst, witness = margin, {"t": t, "x": x.tolist(), "eta": eta.tolist(),
                                              "zeta": zeta.tolist()}
    if checked == 0:
        return CheckReport(f"infinitesimal_{mode}", 0, 0.0, {}, "inconclusive",
                           details={"reason": "no subgradient candidates"})
    return CheckReport(f"infinitesimal_{mode}", checked, float(worst), witness,
                       "pass" if worst <= tol else "fail",
                       details={"relaxation": g.kind, "region": str(region)})


def _zeta_candidates(B: BarrierFn, F: InclusionSpec, mode: str, t: float,
                     x: np.ndarray, fd: float, radius: float, seed: int):
    if mode == "smooth":
        return [_fd_extended_gradient(B, t, x, fd)]
    tx = np.concatenate([[max(t, radius + fd)], x])
    handle = lambda u: B.evaluate(u[0], u[1:])
    grads = clarke_gradient_sample(handle, tx, radius=radius, fd_step=fd, seed=seed)
    if mode == "clarke":
        return list(grads)
    if mode != "proximal":
        raise ValueError(f"unknown mode '{mode}'")
    out = []
    for zeta in grads:
        for eps in (0.0, 1.0, 10.0, 100.0):
            cand = SubgradientCandidate(tx, zeta, radius=1e-3, eps=eps)
            if proximal_subgradient_test(cand, handle, m=24, seed=seed)["holds"]:
                out.append(zeta)
                break
    return out


def sublevel_membership(B: BarrierFn, t: float, x) -> dict:
    """Membership of (t, x) in the zero-sublevel set K of B."""
    v = B.evaluate(t, np.asarray(x, dtype=float))
    return {"in_K": v <= 0.0, "value": v}


def lsc_probe(B: BarrierFn, t: float, x, radii=(1e-2, 1e-3, 1e-4),
              count: int = 16, seed: int = 0) -> dict:
    """One-sided lower-semicontinuity diagnostic: min of B over shrinking
    rings should not drop below B(t, x).  A diagnostic, not a certificate."""
    x = np.asarray(x, dtype=float)
    v0 = B.evaluate(t, x)
    drops = []
    for r in radii:
        ring = x + r * sampling.sphere_directions(len(x), count, seed=seed)
        vals = B.evaluate_many(np.full(count, t), ring)
        drops.append(float(v0 - vals.min()))
    return {"value": v0, "max_drop": max(drops), "drops": drops}
