"""Sampled reachable-set maps, the empirical Filippov bound, and regularity probes.

``reach(F, x, t)`` follows the signed-horizon convention: t >= 0 collects all
states visited by the selected solutions over [0, t], t < 0 does the same for
backward solutions over [t, 0].  Clouds are raw trajectory nodes, never
convexified, and they under-approximate the true reach set: the selector
family is finite.  Every cloud records its resolution, so a saved cloud can
be reproduced bit-for-bit.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

import numpy as np

from .dynamics import InclusionSpec
from .geometry import SetSpec, distance_to_set_many, hausdorff_distance
from .solver import BundlePlan, IntegratorConfig, bundle_sweep, solution_bundle, write_csv

_MAGIC = b"RCH1"


@dataclass
class ReachCloud:
    """Finite point-cloud approximation of the reach set R(t, x)."""

    base: np.ndarray
    horizon: float                   # signed; negative means backward
    points: np.ndarray
    mode: str = "full_tube"          # full_tube | endpoints_only
    bundle_size: int = 1
    node_stride: int = 1
    truncated: bool = False

    def __post_init__(self):
        self.base = np.asarray(self.base, dtype=float)
        self.points = np.atleast_2d(np.asarray(self.points, dtype=float))
        if len(self.points) == 0:
            raise ValueError("reach cloud must be nonempty")


def reach(F: InclusionSpec, x, t: float, cfg: IntegratorConfig = IntegratorConfig(),
          plan: BundlePlan = BundlePlan(), stride: int = 1) -> ReachCloud:
    """Full-tube cloud: union of stored nodes of the solution bundle."""
    return _cloud(F, x, t, cfg, plan, stride, "full_tube")


def reach_endpoint(F: InclusionSpec, x, t: float,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   plan: BundlePlan = BundlePlan()) -> ReachCloud:
    """Keep only each trajectory's final node (the map R^b)."""
    return _cloud(F, x, t, cfg, plan, 1, "endpoints_only")


def _cloud(F: InclusionSpec, x, t: float, cfg: IntegratorConfig, plan: BundlePlan,
           stride: int, mode: str) -> ReachCloud:
    x = np.asarray(x, dtype=float)
    if not np.isfinite(t):
        raise ValueError("horizon must be finite")
    if t == 0.0:
        return ReachCloud(x, 0.0, x[None, :], mode, plan.directions, stride)
    trajs = solution_bundle(F, x, abs(t), "backward" if t < 0 else "forward", cfg, plan)
    ends = [tr.states[-1][None, :] for tr in trajs]
    tube = [tr.states[::stride] for tr in trajs] if mode == "full_tube" else []
    return ReachCloud(x, t, np.vstack(tube + ends), mode, len(trajs), stride,
                      truncated=any(tr.termination == "escape" for tr in trajs))


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
    applicable; one pair given as (n,) arrays gives a float and bools."""
    one = np.ndim(X) == 1
    X, Y = np.atleast_2d(np.asarray(X, dtype=float)), np.atleast_2d(np.asarray(Y, dtype=float))
    p, n = X.shape
    D = X - Y
    base = np.sqrt(np.vecdot(D, D))     # rounds like np.linalg.norm of one row
    sels = plan.selectors(F, T)
    S = len(sels)
    worst, inside = np.full(p, -np.inf), np.ones(p, dtype=bool)

    def fold(t, Xb):
        # row (j * 2 + e) * p + i runs selector j from the pair-i end e (0: x, 1: y)
        V = Xb.reshape(len(Xb), S, 2, p, n)
        gap = np.linalg.norm(V[:, :, None, 0] - V[:, None, :, 1], axis=-1).min(axis=2)
        viol = gap - np.exp(lam * t)[:, None, None] * base
        np.maximum(worst, viol.max(axis=(0, 1)), out=worst)
        if box is not None:
            out = distance_to_set_many(Xb.reshape(-1, n), box) > 0.0
            inside[out.reshape(len(Xb), S * 2, p).any(axis=(0, 1))] = False

    starts = np.concatenate([X, Y])
    fold(np.zeros(1), np.tile(starts, (S, 1))[None])
    termination, _ = bundle_sweep(F, sels, starts, T, cfg,
                                  observe=lambda t, stepped, Xb: fold(t, Xb))
    applicable = inside & ~(termination == "escape").reshape(S * 2, p).any(axis=0)
    worst = np.where(applicable, worst, np.nan)
    holds = applicable & (worst <= tol)
    if one:
        return {"max_violation": float(worst[0]), "holds": bool(holds[0]),
                "applicable": bool(applicable[0])}
    return {"max_violation": worst, "holds": holds, "applicable": applicable}


# ---------------------------------------------------------------------------
# regularity probes
# ---------------------------------------------------------------------------

def reach_regularity_probe(F: InclusionSpec, x, t_grid, perturbations,
                           cfg: IntegratorConfig = IntegratorConfig(),
                           plan: BundlePlan = BundlePlan()) -> dict:
    """Empirical continuity/Lipschitz moduli of the reach map (diagnostics,
    not proofs): Hausdorff increments over time steps and state perturbations."""
    x = np.asarray(x, dtype=float)
    t_grid = np.asarray(t_grid, dtype=float)
    clouds = [reach(F, x, float(t), cfg, plan) for t in t_grid]
    temporal = []
    for i in range(len(t_grid) - 1):
        dt = float(t_grid[i + 1] - t_grid[i])
        temporal.append(hausdorff_distance(clouds[i].points, clouds[i + 1].points) / dt)
    spatial = []
    t_ref = float(t_grid[-1])
    ref = clouds[-1]
    for delta in np.atleast_2d(np.asarray(perturbations, dtype=float)):
        other = reach(F, x + delta, t_ref, cfg, plan)
        spatial.append(hausdorff_distance(ref.points, other.points)
                       / float(np.linalg.norm(delta)))
    return {
        "temporal_moduli": temporal,
        "spatial_moduli": spatial,
        "max_temporal": max(temporal) if temporal else 0.0,
        "max_spatial": max(spatial) if spatial else 0.0,
    }


# ---------------------------------------------------------------------------
# binary persistence
# ---------------------------------------------------------------------------

def save_cloud(cloud: ReachCloud, path) -> None:
    """Binary layout: magic 'RCH1', then little-endian u32 n, u32 n_points,
    u32 bundle, u32 stride, u8 mode, u8 truncated, 2 pad bytes, f64 horizon,
    f64[n] base, f64[n_points * n] points."""
    n = cloud.points.shape[1]
    mode_flag = 0 if cloud.mode == "full_tube" else 1
    header = _MAGIC + struct.pack(
        "<IIIIBBxxd", n, len(cloud.points), cloud.bundle_size, cloud.node_stride,
        mode_flag, 1 if cloud.truncated else 0, cloud.horizon)
    body = cloud.base.astype("<f8").tobytes() + cloud.points.astype("<f8").tobytes()
    Path(path).write_bytes(header + body)


def load_cloud(path) -> ReachCloud:
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a reach-cloud file")
    n, npts, bundle, stride, mode_flag, trunc, horizon = struct.unpack(
        "<IIIIBBxxd", raw[4:4 + struct.calcsize("<IIIIBBxxd")])
    off = 4 + struct.calcsize("<IIIIBBxxd")
    base = np.frombuffer(raw, dtype="<f8", count=n, offset=off).copy()
    off += 8 * n
    pts = np.frombuffer(raw, dtype="<f8", count=npts * n, offset=off).reshape(npts, n).copy()
    return ReachCloud(base, horizon, pts,
                      "full_tube" if mode_flag == 0 else "endpoints_only",
                      bundle, stride, bool(trunc))


def cloud_to_csv(cloud: ReachCloud, path) -> None:
    write_csv(path, "index", np.column_stack([np.arange(len(cloud.points)), cloud.points]))
