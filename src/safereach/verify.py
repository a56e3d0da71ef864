"""End-to-end safety and invariance verdicts.

Simulation verdicts are one-sided: a violation names its witness (start,
selector, hit time and state), but "no violation found" is never reported as
"safe" - the bundle covers finitely many selections from finitely many
starting points.  Every report carries that disclaimer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

import numpy as np

from . import sampling
from .dynamics import InclusionSpec, inclusion_extreme_points, max_rate
from .geometry import (ConeProbe, SamplePlan, SetSpec,
                       clarke_gradient_sample, cone_residual,
                       distance_to_set_many)
from .solver import BundlePlan, IntegratorConfig, bundle_sweep, on_stepped

# nagumo_check and prop1_check import barrier when they run: a simulate check never loads it
if TYPE_CHECKING:
    from .barrier import BarrierFn, CheckReport, RelaxFn

UNDER_APPROX_DISCLAIMER = (
    "one-sided evidence: finitely many selections and initial samples "
    "under-approximate the solution set; upper semicontinuity and convexity "
    "of F are assumed, not verified")

NAGUMO_DEFAULT_TOL = 1e-5   # absorbs curvature x min-step plus distance noise
NAGUMO_SHELL_WIDTH = 1e-3   # width of nagumo_check's exterior shell
PROP1_CLARKE_RADIUS = 1e-6  # radius of prop1_check's Clarke gradient samples
PROP1_FD_STEP = 1e-7        # step of their finite differences
PROP1_TOL = 1e-7            # prop1_check passes when its worst margin is at most this


BundlePlanV = BundlePlan     # former name, still imported by bench/test_bench.py


@dataclass(frozen=True)
class SafetyProblem:
    F: InclusionSpec
    X_o: SetSpec
    X_u: SetSpec
    horizon: float
    cfg: IntegratorConfig = IntegratorConfig()
    samples: SamplePlan = SamplePlan()
    bundle: BundlePlan = BundlePlan()
    hit_tol: float = 1e-9

    def unsafe_hits(self, states: np.ndarray) -> np.ndarray:
        """Boolean mask of states counted as entering X_u."""
        return self.margin_hits(self.unsafe_margins(states))

    def unsafe_margins(self, states: np.ndarray) -> np.ndarray:
        """The values margin_hits tests: d(x, X_u), or -d(x, X_s) for
        X_u = complement(X_s)."""
        if self.X_u.kind == "complement":
            return -distance_to_set_many(states, self.X_u.members[0])
        return distance_to_set_many(states, self.X_u)

    def margin_hits(self, margins: np.ndarray) -> np.ndarray:
        """Hits from unsafe_margins.  For X_u = complement(X_s), which asks
        whether solutions stay in X_s, a hit means actually leaving X_s:
        boundary contact alone is not an excursion."""
        if self.X_u.kind == "complement":
            return -margins > self.hit_tol
        return margins <= self.hit_tol

    def initial_samples(self) -> np.ndarray:
        out = self.samples.draw(self.X_o)
        bad = self.unsafe_hits(out)
        if bad.any():
            raise ValueError("X_o and X_u are not sample-disjoint: "
                             f"sample {out[bad][0].tolist()} lies in both")
        return out


@dataclass
class SafetyReport:
    verdict: str                      # no_violation_found | violation
    witness: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
    disclaimers: list = field(default_factory=lambda: [UNDER_APPROX_DISCLAIMER])
    escapes: int = 0
    # min distance of any node to X_u; None where that distance is estimated
    margin: Optional[float] = float("inf")

    def to_json(self) -> str:
        # every field holds native values: json.dumps needs no conversion
        return json.dumps({
            "check": "simulate_safety",
            "verdict": self.verdict,
            "witness": self.witness,
            "coverage": self.coverage,
            "disclaimers": self.disclaimers,
            "escapes": self.escapes,
            "margin": self.margin if self.margin is not None and np.isfinite(self.margin)
            else None,
        }, indent=2, sort_keys=True)

    @property
    def passed(self) -> bool:
        return self.verdict == "no_violation_found"


def simulate_safety_check(p: SafetyProblem) -> SafetyReport:
    """Run bundles from every initial sample; violation iff a node enters
    X_u.  Escapes are reported, not counted as violations.

    All selectors x starts run as one sweep, and no path is kept: an
    observer tracks the smallest margin and each row's first hit, one
    distance batch per block of nodes, start included.  The witness is the
    earliest hit, ties going to the earlier selector, then the earlier
    start.

    The margin is the least distance of a node to X_u.  For X_u =
    complement(X_s) the hit test's -d(x, X_s) is 0 at every node inside
    X_s, so the margin is the least depth inside X_s, d(x, X_u), from a
    second batch per block; it is None when that distance is estimated,
    since an upper estimate would overstate it."""
    starts = p.initial_samples()
    sels = p.bundle.selectors(p.F, p.horizon)
    m = len(starts)
    margin = float("inf")
    hit_time = np.full(len(sels) * m, np.inf)
    hit_state = np.empty((len(sels) * m, starts.shape[1]))
    complement, exact = p.X_u.kind == "complement", p.X_u.exactness() == "exact"

    def observe(times, stepped, Xb):
        nonlocal margin
        # rows that did not step get an infinite margin: no hit, no new minimum
        margins = on_stepped(p.unsafe_margins, stepped, Xb)
        least = float(margins.min())
        if not complement:
            margin = min(margin, least)
        elif exact:
            depth = on_stepped(lambda Y: distance_to_set_many(Y, p.X_u), stepped, Xb)
            margin = min(margin, float(depth.min()))
        # a hit is a small margin: a block whose least margin is no hit has
        # none (a NaN least margin takes the full test)
        if least == least and not p.margin_hits(least):
            return
        hits = p.margin_hits(margins)
        rows = np.flatnonzero(hits.any(axis=0) & (hit_time == np.inf))
        if len(rows):
            first = hits[:, rows].argmax(axis=0)
            hit_time[rows] = times[first]
            hit_state[rows] = Xb[first, rows]

    termination, _ = bundle_sweep(p.F, sels, starts, p.horizon, p.cfg, observe=observe)
    witness = {}
    r = int(np.argmin(hit_time))
    if np.isfinite(hit_time[r]):
        witness = {"x0": starts[r % m].tolist(), "selector": sels[r // m].index,
                   "hit_time": float(hit_time[r]), "hit_state": hit_state[r].tolist()}
    return SafetyReport("violation" if witness else "no_violation_found", witness,
                        coverage={"initial_samples": m, "selectors": len(sels),
                                  "trajectories": len(sels) * m, "horizon": p.horizon},
                        escapes=int(np.sum(termination == "escape")),
                        margin=None if complement and not exact else margin)


# ---------------------------------------------------------------------------
# tangent-cone conditions
# ---------------------------------------------------------------------------

def nagumo_check(F: InclusionSpec, K: SetSpec, mode: str = "boundary",
                 n_samples: int = 64, tol: Optional[float] = None, seed: int = 0,
                 window=None) -> CheckReport:
    """Tangent-cone test for forward pre-invariance of K.

    boundary mode: every inclusion vertex at boundary samples must be admitted
    by the contingent cone; exterior mode: external-cone residual on a shell
    just outside K must be nonpositive up to tol.  Directions are normalized
    before probing (cones are positively homogeneous) so the residual is an
    outward rate per unit speed; the default tolerances absorb the curvature
    x step floor of the finite quotients (1e-5 on the boundary, 1e-3 on the
    exterior shell, NAGUMO_SHELL_WIDTH wide, where distances are themselves
    estimates).
    """
    from .barrier import CheckReport

    if mode not in ("boundary", "exterior"):
        raise ValueError(f"unknown mode {mode}")
    if tol is None:
        tol = NAGUMO_DEFAULT_TOL if mode == "boundary" else 1e-3
    pts = (K.sample_boundary(n_samples, seed=seed, window=window) if mode == "boundary"
           else _exterior_shell(K, n_samples, NAGUMO_SHELL_WIDTH, seed, window))
    if len(pts) == 0:
        reason = "no boundary samples" if mode == "boundary" else "empty shell after sampling"
        return CheckReport(f"nagumo_{mode}", 0, 0.0, {}, "inconclusive",
                           details={"reason": reason})
    E = inclusion_extreme_points(F, pts, seed=seed)
    X, E = np.repeat(pts, E.shape[1], axis=0), E.reshape(-1, pts.shape[1])
    speed = np.sqrt(np.vecdot(E, E))
    moving = speed >= 1e-15
    res = np.zeros(len(E))    # zero velocity is in every cone
    res[moving] = cone_residual(ConeProbe(
        X[moving], E[moving] / speed[moving, None],
        mode="contingent" if mode == "boundary" else "external"), K,
        tol=max(tol, NAGUMO_SHELL_WIDTH))
    i = int(np.argmax(res))     # the first largest, in (sample, vertex) order
    return CheckReport(f"nagumo_{mode}", len(res), float(res[i]),
                       {"x": X[i].tolist(), "eta": E[i].tolist()},
                       "pass" if res[i] <= tol else "fail",
                       details={"set": K.name or K.kind, "tol": tol})


def _exterior_shell(K: SetSpec, count: int, width: float, seed: int, window):
    box = K.bounding_box()
    if box is None and window is None:
        raise ValueError("exterior shell sampling needs a bounded K or window")
    if window is not None:
        lo, hi = np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float)
    else:
        lo, hi = box
        lo, hi = lo - 2 * width - 0.1 * (hi - lo) - 1e-6, hi + 2 * width + 0.1 * (hi - lo) + 1e-6
    cand = sampling.box_points(lo, hi, count * 32, seed=seed)
    d = distance_to_set_many(cand, K)
    keep = (d > 0.0) & (d <= width)
    return cand[keep][:count]


# ---------------------------------------------------------------------------
# conditional invariance via a time-independent barrier
# ---------------------------------------------------------------------------

def prop1_check(F: InclusionSpec, X_o: SetSpec, X_s: SetSpec, B: BarrierFn,
                g: RelaxFn = None, mode: str = "conditional",
                n_samples: int = 64, shell_width: float = 1e-3, window=None,
                seed: int = 0) -> CheckReport:
    """Sign conditions plus the Clarke decrease inequality for conditional
    (or strict conditional) invariance of X_s with respect to X_o.

    conditional mode: B > 0 just outside X_s, B <= 0 on the boundary of X_o,
    and <zeta, eta> <= g(B) between the boundary of X_o and the outside shell
    of X_s.  strict mode uses the boundary of X_s and the region X_s \\ X_o.
    Each Clarke gradient sample zeta is tested against its exact maximum over
    eta in F(x) (:func:`~safereach.dynamics.max_rate`).
    """
    from .barrier import CheckReport, RelaxFn

    if g is None:
        g = RelaxFn.zero()
    if g.kind not in ("minimal", "zero", "linear"):
        raise ValueError("prop1_check expects a minimal-type relaxation")
    if mode not in ("conditional", "strict"):
        raise ValueError(f"unknown mode {mode}")
    handle = lambda P: B.evaluate_many(np.zeros(len(P)), P).value
    sign_margins = []
    if mode == "conditional":
        outside = _exterior_shell(X_s, n_samples, shell_width, seed, window)
        if len(outside) == 0:
            return CheckReport("prop1_conditional", 0, 0.0, {}, "inconclusive",
                               details={"reason": "empty shell outside X_s"})
        pos_vals = handle(outside)
        sign_margins.append(("positivity_outside_X_s", float(-pos_vals.min()),
                             outside[int(np.argmin(pos_vals))]))
    else:
        bd_s = X_s.sample_boundary(n_samples, seed=seed, window=window)
        pos_vals = handle(bd_s)
        sign_margins.append(("positivity_on_boundary_X_s", float(-pos_vals.min()),
                             bd_s[int(np.argmin(pos_vals))]))
    bd_o = X_o.sample_boundary(n_samples, seed=seed + 1, window=window)
    neg_vals = handle(bd_o)
    sign_margins.append(("nonpositivity_on_boundary_X_o", float(neg_vals.max()),
                         bd_o[int(np.argmax(neg_vals))]))

    region = _between_region(X_o, X_s, mode, n_samples, shell_width, seed + 2, window)
    name, worst, x = max(sign_margins, key=lambda c: c[1])      # the first largest
    witness, checked = {"condition": name, "x": np.asarray(x).tolist()}, len(sign_margins)
    if len(region) == 0:
        return CheckReport(f"prop1_{mode}", checked, worst, witness, "inconclusive",
                           details={"reason": "empty decrease region"})
    grads = clarke_gradient_sample(handle, region, radius=PROP1_CLARKE_RADIUS,
                                   fd_step=PROP1_FD_STEP, seed=seed)
    # time-independent B: zeta_t = 0
    rates, etas = max_rate(F, region, np.concatenate(
        [np.zeros(grads.shape[:-1] + (1,)), grads], axis=-1))
    margins = rates - np.asarray(g(handle(region)), dtype=float)[:, None]
    i, j = np.unravel_index(np.argmax(margins), margins.shape)
    checked += margins.size
    if margins[i, j] > worst:
        worst, witness = margins[i, j], {"condition": "decrease", "x": region[i].tolist(),
                                         "eta": etas[i, j].tolist(), "zeta": grads[i, j].tolist()}
    return CheckReport(f"prop1_{mode}", checked, float(worst), witness,
                       "pass" if worst <= PROP1_TOL else "fail",
                       details={"relaxation": g.kind})


def _between_region(X_o: SetSpec, X_s: SetSpec, mode: str, count: int,
                    width: float, seed: int, window):
    if window is not None:
        lo, hi = np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float)
    else:
        box = X_s.bounding_box() or X_o.bounding_box()
        if box is None:
            raise ValueError("prop1_check needs a window for unbounded sets")
        lo, hi = box
    cand = sampling.box_points(lo, hi, count * 16, seed=seed)
    d_o = distance_to_set_many(cand, X_o)
    d_s = distance_to_set_many(cand, X_s)
    if mode == "conditional":
        keep = (d_o > 0.0) & (d_s <= width)      # U(X_s) \ X_o
    else:
        keep = (d_o > 0.0) & (d_s <= 0.0)        # X_s \ X_o
    return cand[keep][:count]
