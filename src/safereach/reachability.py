"""Sampled reachable-set maps and the regularity of the reach map.

``reach(F, x, t)`` follows the signed-horizon convention: t >= 0 collects all
states visited by the selected solutions over [0, t], t < 0 does the same for
backward solutions over [t, 0].  Clouds are raw trajectory nodes, never
convexified, and they under-approximate the true reach set: the selector
family is finite.

The Filippov check tests the regularity of the reach map: the empirical bound
on given pairs, and the command line's check on drawn pairs.
"""

from __future__ import annotations

import json
from typing import Optional

import numpy as np

from .dynamics import InclusionSpec, lipschitz_estimate
from .geometry import SetSpec, distance_to_set_many
from .sampling import Stream
from .solver import (BundlePlan, IntegratorConfig, SolverError, bundle_sweep, selections,
                     solution_bundle, start_states)


def reach(F: InclusionSpec, x, t: float, cfg: IntegratorConfig = IntegratorConfig(),
          plan: BundlePlan = BundlePlan(), stride: int = 1) -> tuple[np.ndarray, bool]:
    """Full-tube cloud: every stride-th node of each path of the solution
    bundle, then each path's final node, as (points, truncated), truncated
    true when a path escaped.  At t = 0 the cloud is x alone."""
    x = start_states(F, x)[0]
    if not np.isfinite(t):
        raise SolverError("horizon must be finite")
    if t == 0.0:
        return x[None, :], False
    trajs = solution_bundle(F, x[None], abs(t), "backward" if t < 0 else "forward", cfg, plan)[0]
    points = np.vstack([tr.states[::stride] for tr in trajs]
                       + [tr.states[-1][None, :] for tr in trajs])
    return points, any(tr.termination == "escape" for tr in trajs)


# ---------------------------------------------------------------------------
# empirical Filippov bound
# ---------------------------------------------------------------------------

def filippov_check(F: InclusionSpec, X, Y, T: float, lam: float,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   plan: BundlePlan = BundlePlan(),
                   box: Optional[SetSpec] = None, tol: float = 1e-6) -> dict:
    """Check |phi(s, x)|_{R^b(s, y)} <= exp(lam*s) |x - y| at every node
    (node 0 included) for p pairs (X, Y), (p, n), in one bundle sweep.

    lam should come from a Lipschitz estimate on a box holding both tubes: a
    pair with a row that leaves box, or escapes, is not applicable.  Returns
    per-pair arrays max_violation (nan where not applicable), holds and
    applicable."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
    p, n = X.shape
    D = X - Y
    base = np.sqrt(np.vecdot(D, D))     # rounds like np.linalg.norm of one row
    table = plan.table(F, T)
    S = selections(table)
    worst, inside = np.full(p, -np.inf), np.ones(p, dtype=bool)

    def fold(t, Xb):
        # row (j * 2 + e) * p + i runs selection j from the pair-i end e (0: x, 1: y)
        V = Xb.reshape(len(Xb), S, 2, p, n)
        gap = np.linalg.norm(V[:, :, None, 0] - V[:, None, :, 1], axis=-1).min(axis=2)
        viol = gap - np.exp(lam * t)[:, None, None] * base
        np.maximum(worst, viol.max(axis=(0, 1)), out=worst)
        if box is not None:
            out = distance_to_set_many(Xb.reshape(-1, n), box) > 0.0
            inside[out.reshape(len(Xb), S * 2, p).any(axis=(0, 1))] = False

    termination, _ = bundle_sweep(F, table, np.concatenate([X, Y]), T, cfg,
                                  observe=lambda t, stepped, Xb: fold(t, Xb))
    applicable = inside & ~(termination == "escape").reshape(S * 2, p).any(axis=0)
    worst = np.where(applicable, worst, np.nan)
    return {"max_violation": worst, "holds": applicable & (worst <= tol),
            "applicable": applicable}


def filippov_report(F: InclusionSpec, lam_box: SetSpec, T: float, pairs: int, max_sep: float,
                    tol: float, cfg: IntegratorConfig, plan: BundlePlan,
                    seed: int) -> tuple[str, str]:
    """(JSON report, verdict) of the Filippov check on pairs drawn pairs, at
    most max_sep apart, lam estimated on lam_box: the first applicable pair
    with the largest violation decides, and with none it is inconclusive."""
    lam = lipschitz_estimate(F, lam_box, grid=9)
    n = F.dim
    # per pair: x, then the offset of y, as successive draws of one stream
    U = Stream(seed).uniform(-1.0, 1.0, (pairs, 2, n))
    res = filippov_check(F, U[:, 0], U[:, 0] + U[:, 1] * max_sep / np.sqrt(n), T, lam,
                         cfg, plan, box=lam_box, tol=tol)
    ok = res["applicable"]
    worst = {"max_violation": None, "holds": True}
    if ok.any():
        i = int(np.argmax(np.where(ok, res["max_violation"], -np.inf)))
        worst = {"max_violation": float(res["max_violation"][i]), "holds": bool(res["holds"][i])}
    verdict = "inconclusive" if not ok.any() else "pass" if worst["holds"] else "fail"
    payload = json.dumps({"check": "filippov", "lambda": lam, **worst, "pairs": pairs,
                          "not_applicable": int(pairs - np.count_nonzero(ok)),
                          "verdict": verdict}, indent=2, sort_keys=True)
    return payload, verdict
