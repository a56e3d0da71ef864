"""The simulation verdict: solutions from X_o never reach X_u.

:func:`simulate_safety_check` runs the solution bundle from samples of X_o
and reports the first node in X_u.  The infinitesimal checks live in
``infinitesimal`` and the Filippov check in ``reachability``.

Simulation verdicts are one-sided: a violation names its witness (start,
selector, hit time and state), but "no violation found" is never reported as
"safe" - the bundle covers finitely many selections from finitely many
starting points.  Every report carries that disclaimer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import NamedTuple, Optional

import numpy as np

from .dynamics import InclusionSpec
from .geometry import GeometryError, SamplePlan, SetSpec, distance_to_set_many
from .solver import BundlePlan, IntegratorConfig, bundle_sweep, on_stepped, selections

UNDER_APPROX_DISCLAIMER = (
    "one-sided evidence: finitely many selections and initial samples "
    "under-approximate the solution set; upper semicontinuity and convexity "
    "of F are assumed, not verified")

BundlePlanV = BundlePlan     # former name, still imported by bench/test_bench.py


class SafetyProblem(NamedTuple):
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
            raise GeometryError(f"X_o '{self.X_o.name}' and X_u '{self.X_u.name}' are not "
                                f"sample-disjoint: sample {out[bad][0].tolist()} lies in both")
        return out


@dataclass
class SafetyReport:
    verdict: str                      # no_violation_found | violation
    witness: dict = field(default_factory=dict)
    coverage: dict = field(default_factory=dict)
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
            "disclaimers": [UNDER_APPROX_DISCLAIMER],
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
    table = p.bundle.table(p.F, p.horizon)
    S, m = selections(table), len(starts)
    margin = float("inf")
    hit_time = np.full(S * m, np.inf)
    hit_state = np.empty((S * m, starts.shape[1]))
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

    termination, _ = bundle_sweep(p.F, table, starts, p.horizon, p.cfg, observe=observe)
    witness = {}
    r = int(np.argmin(hit_time))
    if np.isfinite(hit_time[r]):
        witness = {"x0": starts[r % m].tolist(), "selector": r // m,
                   "hit_time": float(hit_time[r]), "hit_state": hit_state[r].tolist()}
    return SafetyReport("violation" if witness else "no_violation_found", witness,
                        coverage={"initial_samples": m, "selectors": S,
                                  "trajectories": S * m, "horizon": p.horizon},
                        escapes=int(np.sum(termination == "escape")),
                        margin=None if complement and not exact else margin)
