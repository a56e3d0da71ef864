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
from .solver import BundlePlan, IntegratorConfig, Trajectory, solution_bundle

_MAGIC = b"RCH1"


class BoxExitError(ValueError):
    """The tubes of a Filippov check leave the box its Lipschitz bound holds on."""


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


def _run_bundle(F: InclusionSpec, x, t: float, cfg: IntegratorConfig,
                plan: BundlePlan) -> list[Trajectory]:
    direction = "backward" if t < 0 else "forward"
    return solution_bundle(F, x, abs(t), direction, cfg, plan)


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
    trajs = _run_bundle(F, x, t, cfg, plan)
    ends = [tr.states[-1][None, :] for tr in trajs]
    tube = [tr.states[::stride] for tr in trajs] if mode == "full_tube" else []
    return ReachCloud(x, t, np.vstack(tube + ends), mode, len(trajs), stride,
                      truncated=any(tr.termination == "escape" for tr in trajs))


# ---------------------------------------------------------------------------
# empirical Filippov bound
# ---------------------------------------------------------------------------

def filippov_check(F: InclusionSpec, x, y, T: float, lam: float,
                   cfg: IntegratorConfig = IntegratorConfig(),
                   plan: BundlePlan = BundlePlan(),
                   box: Optional[SetSpec] = None, tol: float = 1e-6) -> dict:
    """Check |phi(s, x)|_{R^b(s, y)} <= exp(lam*s) |x - y| at every stored node.

    lam should come from a Lipschitz estimate on a box containing both tubes;
    if the tubes exit that box the bound is not applicable and BoxExitError
    is raised.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    trajs_x, trajs_y = _run_bundle(F, np.stack([x, y]), T, cfg, plan)
    if box is not None:
        for tr in trajs_x + trajs_y:
            if np.any(distance_to_set_many(tr.states, box) > 0.0):
                raise BoxExitError("enlarge box: reach tubes leave the Lipschitz box")
    base = float(np.linalg.norm(x - y))
    times = trajs_x[0].times
    worst = -np.inf
    stack_y = np.stack([tr.states for tr in trajs_y])   # (bundle, nodes, n)
    for tr in trajs_x:
        k = min(len(tr.times), stack_y.shape[1])
        diffs = tr.states[None, :k, :] - stack_y[:, :k, :]
        dist_to_cloud = np.linalg.norm(diffs, axis=2).min(axis=0)
        bound = np.exp(lam * tr.times[:k]) * base
        worst = max(worst, float((dist_to_cloud - bound).max()))
    return {"max_violation": worst, "holds": worst <= tol}


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
    n = cloud.points.shape[1]
    header = "index," + ",".join(f"x{i + 1}" for i in range(n))
    data = np.column_stack([np.arange(len(cloud.points)), cloud.points])
    np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")
