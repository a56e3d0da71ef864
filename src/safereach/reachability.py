"""Sampled reachable-set maps and the empirical Filippov bound.

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
from .geometry import SetSpec, distance_to_set_many
from .solver import BundlePlan, IntegratorConfig, bundle_sweep, solution_bundle, write_csv

_MAGIC = b"RCH1"
_HEADER = struct.Struct("<IIIIBBxxd")   # after the magic, see save_cloud


@dataclass
class ReachCloud:
    """Finite point-cloud approximation of the reach set R(t, x)."""

    base: np.ndarray
    horizon: float                   # signed; negative means backward
    points: np.ndarray
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
    """Full-tube cloud: every stride-th node of each path of the solution
    bundle, then each path's final node.  Its bundle size is the number of
    selectors plan yields for F, t = 0 included."""
    x = np.asarray(x, dtype=float)
    if not np.isfinite(t):
        raise ValueError("horizon must be finite")
    if t == 0.0:
        return ReachCloud(x, 0.0, x[None, :], len(plan.selectors(F, 0.0)), stride)
    trajs = solution_bundle(F, x[None], abs(t), "backward" if t < 0 else "forward", cfg, plan)[0]
    points = np.vstack([tr.states[::stride] for tr in trajs]
                       + [tr.states[-1][None, :] for tr in trajs])
    return ReachCloud(x, t, points, len(trajs), stride,
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
    applicable."""
    X, Y = np.asarray(X, dtype=float), np.asarray(Y, dtype=float)
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

    termination, _ = bundle_sweep(F, sels, np.concatenate([X, Y]), T, cfg,
                                  observe=lambda t, stepped, Xb: fold(t, Xb))
    applicable = inside & ~(termination == "escape").reshape(S * 2, p).any(axis=0)
    worst = np.where(applicable, worst, np.nan)
    return {"max_violation": worst, "holds": applicable & (worst <= tol),
            "applicable": applicable}


# ---------------------------------------------------------------------------
# binary persistence
# ---------------------------------------------------------------------------

def save_cloud(cloud: ReachCloud, path) -> None:
    """Binary layout: magic 'RCH1', then little-endian u32 n, u32 n_points,
    u32 bundle, u32 stride, u8 mode (always 0, a full tube), u8 truncated,
    2 pad bytes, f64 horizon, f64[n] base, f64[n_points * n] points."""
    n = cloud.points.shape[1]
    header = _MAGIC + _HEADER.pack(n, len(cloud.points), cloud.bundle_size, cloud.node_stride,
                                   0, 1 if cloud.truncated else 0, cloud.horizon)
    body = cloud.base.astype("<f8").tobytes() + cloud.points.astype("<f8").tobytes()
    Path(path).write_bytes(header + body)


def load_cloud(path) -> ReachCloud:
    """Read a file of save_cloud; its length must be what its header says,
    its mode byte 0 and its truncated byte 0 or 1."""
    raw = Path(path).read_bytes()
    if raw[:4] != _MAGIC:
        raise ValueError(f"{path}: not a reach-cloud file")
    off = 4 + _HEADER.size
    if len(raw) < off:
        raise ValueError(f"{path}: truncated header: {len(raw)} bytes, a header is {off}")
    n, npts, bundle, stride, mode_flag, trunc, horizon = _HEADER.unpack_from(raw, 4)
    if mode_flag != 0:
        raise ValueError(f"{path}: mode flag must be 0, got {mode_flag}")
    if trunc not in (0, 1):
        raise ValueError(f"{path}: truncated flag must be 0 or 1, got {trunc}")
    size = off + 8 * n * (1 + npts)
    if len(raw) != size:
        raise ValueError(f"{path}: {len(raw)} bytes, but a header of {npts} points in "
                         f"dimension {n} says {size}")
    base = np.frombuffer(raw, dtype="<f8", count=n, offset=off).copy()
    off += 8 * n
    pts = np.frombuffer(raw, dtype="<f8", count=npts * n, offset=off).reshape(npts, n).copy()
    return ReachCloud(base, horizon, pts, bundle, stride, bool(trunc))


def cloud_to_csv(cloud: ReachCloud, path) -> None:
    write_csv(path, "index", np.column_stack([np.arange(len(cloud.points)), cloud.points]))
