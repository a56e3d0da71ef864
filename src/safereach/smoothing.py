"""Smoothing pipeline: time partitions, monotone cubic gluing, annulus
partitions of unity, and the smooth converse barrier construction.

The compact-set smoother turns a continuous, positive, t-nonincreasing
function h on a compact set disjoint from the zero locus into a function g
that is smooth in practice (kernel-mollified snapshots glued by a monotone
cubic in t), stays inside the sandwich  h/2 <= g <= 2h, and is nonincreasing
in t.  The sandwich and the monotonicity are validated on the construction
grid before the smoother is returned; they are hard postconditions, not
statistics.  h is given as a table function: h(times, X) returns the
(len(times), len(X)) values in one call, so a handle that reads every time
off one batch, like the converse barrier's tube table, is called as it is.

The global smoother covers the complement of a closed set K by dyadic annuli
of the squared distance to K and glues per-annulus smoothers with C^1 bump
weights in log2 |x|_K^2.  State dimension is capped at 2: the annulus
decomposition is a desk-scale realization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .barrier import BarrierError, BarrierFn
from .dynamics import FieldHandle, InclusionSpec, Selector, rescale_field
from .geometry import PAIR_BUDGET, SetSpec, distance_to_set_many
from .solver import (IntegratorConfig, SolverError, bundle_step, on_stepped, rk4_sweep,
                     tube_minimum)


class SmoothingError(RuntimeError):
    pass


# ---------------------------------------------------------------------------
# time partition (floors, oscillation-driven subdivision, slack sequence)
# ---------------------------------------------------------------------------

@dataclass
class TimePartition:
    """Per-unit subdivisions of [0, k_max] with floors and slack sequence.

    nodes[j] are the interpolation times; block_offsets[k-1] is the node index
    of time k-1; eta[k-1] is the floor of h over the grid and [0, k]; zeta is
    positive, nonincreasing, and satisfies sum_{i >= j_k} zeta_i < eta_k / 8.
    """

    nodes: np.ndarray
    u_counts: tuple
    block_offsets: tuple
    eta: np.ndarray
    zeta: np.ndarray
    table_times: np.ndarray
    table: np.ndarray               # (len(table_times), len(grid))
    grid: np.ndarray

    @property
    def k_max(self) -> int:
        return len(self.u_counts)

    def node_table_indices(self) -> np.ndarray:
        res = round((len(self.table_times) - 1) / self.k_max)
        return np.array([int(round(t * res)) for t in self.nodes])


def build_time_partition(h: Callable, grid: np.ndarray, k_max: int,
                         table_res: int = 256) -> TimePartition:
    """Floors eta_k, subdivision counts u_k (doubled until the oscillation of
    h over one subinterval drops below eta_k/4 on the grid), and the geometric
    slack sequence zeta.  h is a table function, h(times, X) -> (len(times),
    len(X)), called once on the table times; its table must be finite,
    positive and nonincreasing in t."""
    grid = np.atleast_2d(np.asarray(grid, dtype=float))
    if len(grid) == 0:
        raise SmoothingError("empty grid for time partition")
    if k_max < 1:
        raise SmoothingError("k_max must be >= 1")
    times = np.arange(0, k_max * table_res + 1) / table_res
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        table = np.asarray(h(times, grid), dtype=float)
    if table.shape != (len(times), len(grid)):
        raise SmoothingError(f"h(times, X) must return a ({len(times)}, {len(grid)}) table, "
                             f"got shape {table.shape}")
    if not np.isfinite(table).all():
        i, j = np.argwhere(~np.isfinite(table))[0]
        raise SmoothingError(f"h is not finite at t={times[i]:.6g}, x={grid[j].tolist()}: "
                             f"h={table[i, j]}")
    if np.any(table <= 0.0):
        raise SmoothingError("set intersects zero locus: h must be positive on the grid")
    if np.any(np.diff(table, axis=0) > 1e-12):
        raise SmoothingError("h must be nonincreasing in t on the grid")

    # floor eta_k: the minimum of h over the grid and [0, k]
    eta = np.minimum.accumulate([table[(k - 1) * table_res:k * table_res + 1].min()
                                 for k in range(1, k_max + 1)])

    u_counts = []
    for k in range(1, k_max + 1):
        bound = eta[k - 1] / 4.0
        u = 1
        while True:
            stride = table_res // u
            rows = table[(k - 1) * table_res: k * table_res + 1: stride]
            osc = float(np.max(rows[:-1] - rows[1:]))
            if osc < bound:
                break
            u *= 2
            if u > table_res:
                raise SmoothingError(
                    f"u_{k} exceeded {table_res} subdivisions in unit "
                    f"interval {k}; raise table_res or smooth the input")
        u_counts.append(u)

    nodes = [0.0]
    offsets = [0]
    for k, u in enumerate(u_counts, start=1):
        nodes.extend((k - 1) + np.arange(1, u + 1) / u)
        offsets.append(offsets[-1] + u)
    nodes = np.asarray(nodes)

    # slack sequence: per-block geometric heads eta_k/32 with ratio 1/2,
    # globalized by a running minimum so the sequence stays nonincreasing and
    # every tail sum_{i>=j_k} zeta_i stays below eta_k/8 (it is <= eta_k/16)
    zeta = np.empty(len(nodes))
    zeta[0] = eta[0] / 32.0
    block_start = {offsets[k - 1]: eta[k - 1] / 32.0 for k in range(1, k_max + 1)}
    for i in range(1, len(nodes)):
        cand = zeta[i - 1] / 2.0
        if i in block_start:
            cand = min(cand, block_start[i])
        zeta[i] = cand
    if np.any(zeta <= 0.0):
        raise SmoothingError("slack sequence underflowed; partition too fine")

    return TimePartition(nodes, tuple(u_counts), tuple(offsets), eta, zeta,
                         times, table, grid)


# ---------------------------------------------------------------------------
# monotone cubic segment
# ---------------------------------------------------------------------------

def hermite_segment(t, t_i, t_ip1, w_i, w_ip1):
    """Cubic blend w_i + (w_{i+1} - w_i) (3 s^2 - 2 s^3) with flat endpoints,
    elementwise over the broadcast of its arguments.

    Exact endpoint values, zero endpoint derivatives, monotone between the
    endpoint values.  t must lie inside [t_i, t_{i+1}] up to a hair of
    overhang (1e-3 of the width), where the cubic extends polynomially so
    derivative probes right at the endpoints stay well defined.
    """
    t, t_i, t_ip1 = np.broadcast_arrays(*(np.asarray(a, dtype=float) for a in (t, t_i, t_ip1)))
    width = t_ip1 - t_i
    if np.any(width < 0):
        raise SmoothingError("segment endpoints out of order")
    slack = 1e-3 * np.maximum(width, 1.0)
    outside = ~((t_i - slack <= t) & (t <= t_ip1 + slack))
    if outside.any():
        i = np.argmax(outside.ravel())
        raise SmoothingError(f"t={t.flat[i]} outside segment [{t_i.flat[i]}, {t_ip1.flat[i]}]")
    with np.errstate(divide="ignore", invalid="ignore"):
        s = (t - t_i) / width
    blend = s * s * (3.0 - 2.0 * s)
    w_i, w_ip1 = np.asarray(w_i, dtype=float), np.asarray(w_ip1, dtype=float)
    out = np.where(t == t_ip1, w_ip1, w_i + (w_ip1 - w_i) * blend)
    return np.where((t == t_i) | (width == 0.0), w_i, out)[()]


# ---------------------------------------------------------------------------
# kernel-mollified snapshots glued over the partition
# ---------------------------------------------------------------------------

class SmoothedFn:
    """Evaluator g(t, x) built from mollified snapshots of h at the partition
    nodes, with a finite-difference continuity report as its smoothness
    certificate.  A mollified value is one dot product of a snapshot row
    and the point's weight row, so a value does not depend on its batch."""

    def __init__(self, grid: np.ndarray, sigma: float, nodes: np.ndarray,
                 snapshots: np.ndarray, certificate: dict):
        self.grid = grid
        self.sigma = sigma
        self.nodes = nodes
        self.snapshots = snapshots          # (n_nodes, n_grid)
        self.certificate = certificate
        self.t_max = float(nodes[-1])

    def _locate(self, ts, Q):
        """Clipped times, their segments and the weight rows of Q."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        ts = np.clip(np.asarray(ts, dtype=float), 0.0, self.t_max)
        seg = np.clip(np.searchsorted(self.nodes, ts, side="right") - 1,
                      0, len(self.nodes) - 2)
        return ts, seg, _gauss_weights(Q, self.grid, self.sigma)

    def _chunks(self, Q: np.ndarray) -> list:
        """Row slices of Q small enough that no (rows, n_grid, dim) temporary
        of the Gaussian weights exceeds PAIR_BUDGET elements."""
        step = max(1, PAIR_BUDGET // (len(self.grid) * Q.shape[1]))
        return [slice(i, i + step) for i in range(0, max(len(Q), 1), step)]

    def sample_pairs(self, ts, Q) -> np.ndarray:
        """g(ts[i], Q[i]) for per-point times, a chunk of rows at a time."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        ts = np.broadcast_to(np.asarray(ts, dtype=float), len(Q))
        return np.concatenate([self._pairs(ts[c], Q[c]) for c in self._chunks(Q)])

    def _pairs(self, ts, Q) -> np.ndarray:
        ts, seg, W = self._locate(ts, Q)
        # one dot per value (np.vecdot), not a BLAS product, which rounds a row by its batch
        lo, hi = np.vecdot(self.snapshots[seg], W), np.vecdot(self.snapshots[seg + 1], W)
        return hermite_segment(ts, self.nodes[seg], self.nodes[seg + 1], lo, hi)

    def sample_times(self, ts, Q) -> np.ndarray:
        """g on a whole time grid, (len(ts), len(Q)): the values of sample_pairs,
        a chunk of points at a time like it."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        return np.concatenate([self._times(ts, Q[c]) for c in self._chunks(Q)], axis=1)

    def _times(self, ts, Q) -> np.ndarray:
        # the mollified row of each node a time needs is computed once
        ts, seg, W = self._locate(ts, Q)
        need, at = np.unique(np.concatenate([seg, seg + 1]), return_inverse=True)
        M = np.vecdot(self.snapshots[need][:, None, :], W)    # (len(need), len(Q))
        return hermite_segment(ts[:, None], self.nodes[seg, None], self.nodes[seg + 1, None],
                               M[at[:len(ts)]], M[at[len(ts):]])


def _grid_spacing(grid: np.ndarray) -> float:
    if len(grid) < 2:
        return 1.0
    sub = grid[:: max(1, len(grid) // 256)]
    d2 = ((sub[:, None, :] - grid[None, :, :]) ** 2).sum(axis=2)
    d2[d2 < 1e-24] = np.inf   # drop self-matches
    return float(np.median(np.sqrt(d2.min(axis=1))))


def smooth_on_compact(partition: TimePartition,
                      w_tol: Optional[float] = None) -> SmoothedFn:
    """Mollify the node snapshots of h (the partition's table) in x, glue them
    with the monotone cubic, and validate the h/2 <= g <= 2h sandwich plus
    t-monotonicity on the grid.

    Bandwidth shrinks from four grid spacings toward half a spacing until the
    snapshot error meets the slack-sequence tolerance (floored at w_tol or the
    best the grid can express); monotonicity across snapshots is inherited
    exactly because all snapshots share one kernel.
    """
    grid = partition.grid
    node_idx = partition.node_table_indices()
    snaps = partition.table[node_idx].copy()
    np.minimum.accumulate(snaps, axis=0, out=snaps)   # float-noise insurance

    tails = np.concatenate([np.cumsum(partition.zeta[::-1])[::-1], [0.0]])
    targets = 0.5 * partition.zeta + tails[:len(partition.zeta)]
    spacing = _grid_spacing(grid)
    floor = w_tol if w_tol is not None else 0.0
    probe_rows = sorted({0, len(snaps) // 2, len(snaps) - 1})
    sigma = None
    chain = [4.0 * spacing, 2.0 * spacing, spacing]
    for cand in chain:
        W = _gauss_weights(grid, grid, cand)
        ok = True
        for r in probe_rows:
            err = float(np.abs(W @ snaps[r] - snaps[r]).max())
            if err > max(targets[r], floor):
                ok = False
                break
        if ok:
            sigma = cand
            break
    if sigma is None:
        # slack targets below what the grid can express; the validated
        # sandwich below remains the binding contract
        sigma = chain[-1]

    fn = SmoothedFn(grid, sigma, partition.nodes, snaps, {})
    fn.certificate = _continuity_certificate(fn, partition)
    _validate_sandwich(fn, partition)
    return fn


def _gauss_weights(Q: np.ndarray, grid: np.ndarray, sigma: float) -> np.ndarray:
    d2 = ((Q[:, None, :] - grid[None, :, :]) ** 2).sum(axis=2)
    d2 = d2 - d2.min(axis=1, keepdims=True)
    W = np.exp(-0.5 * d2 / (sigma * sigma))
    return W / W.sum(axis=1, keepdims=True)


def _validate_sandwich(fn: SmoothedFn, partition: TimePartition) -> None:
    times = partition.table_times
    G = fn.sample_times(times, partition.grid)
    H = partition.table
    bad_low = G < 0.5 * H - 1e-12
    bad_high = G > 2.0 * H + 1e-12
    if bad_low.any() or bad_high.any():
        i, j = np.argwhere(bad_low | bad_high)[0]
        raise SmoothingError(
            f"sandwich violated at t={times[i]:.6g}, x={partition.grid[j].tolist()}: "
            f"g={G[i, j]:.6g} vs h={H[i, j]:.6g} (insufficient partition resolution)")
    if np.any(np.diff(G, axis=0) > 1e-12):
        i, j = np.argwhere(np.diff(G, axis=0) > 1e-12)[0]
        raise SmoothingError(
            f"t-monotonicity violated near t={times[i]:.6g}, x={partition.grid[j].tolist()}")


def _continuity_certificate(fn: SmoothedFn, partition: TimePartition) -> dict:
    """Finite-difference continuity report (not a formal C^1 certificate):
    central differences of steps 1e-4 and 5e-5 along each axis at five grid
    points, all in one batch."""
    grid = fn.grid
    probe = grid[:: max(1, len(grid) // 5)][:5]
    t_probe = 0.5 * (partition.nodes[0] + partition.nodes[min(1, len(partition.nodes) - 1)])
    step = 1e-4
    # rows (probe, axis, offset): x + step e, x - step e, x + step/2 e, x - step/2 e
    E = np.eye(grid.shape[1])
    offsets = np.stack([step * E, -step * E, 0.5 * step * E, -0.5 * step * E], axis=1)
    X = (probe[:, None, None, :] + offsets[None]).reshape(-1, grid.shape[1])
    v = fn.sample_pairs(np.full(len(X), t_probe), X).reshape(-1, 4)
    g1 = (v[:, 0] - v[:, 1]) / (2 * step)
    g2 = (v[:, 2] - v[:, 3]) / step
    return {"fd_gradient_discrepancy": float(np.max(np.abs(g1 - g2), initial=0.0)),
            "sigma": fn.sigma}


# ---------------------------------------------------------------------------
# global smoothing over dyadic distance annuli
# ---------------------------------------------------------------------------

def _bump(y, s):
    """C^1 weight positive exactly on (s - 2.5, s + 3.5) in y = log2 d^2."""
    step = lambda u: hermite_segment(np.clip(u, 0.0, 1.0), 0.0, 1.0, 0.0, 1.0)
    return step(y - (s - 2.5)) * (1.0 - step(y - (s + 2.5)))


def annulus_points(K: SetSpec, s: int, count: int, seed: int = 0) -> np.ndarray:
    """Grid of the annulus {2^(s-3) <= |x|_K^2 <= 2^(s+4)} (dim <= 2)."""
    d_lo = 2.0 ** ((s - 3) / 2.0)
    d_hi = 2.0 ** ((s + 4) / 2.0)
    if K.kind in ("points", "ball") and (K.kind == "ball" or len(K.pts) == 1):
        center = K.center if K.kind == "ball" else K.pts[0]
        R = K.radius if K.kind == "ball" else 0.0
        n = K.dim
        if n == 1:
            radii = np.geomspace(R + d_lo, R + d_hi, max(4, count // 2))
            pts = np.concatenate([center[0] + radii, center[0] - radii])
            return pts[:, None]
        # balance radial (3.5 octaves ~ 2.43 nats) against angular (2 pi) density
        n_r = max(4, int(np.sqrt(count / 2.6)))
        n_theta = max(8, count // n_r)
        radii = np.geomspace(R + d_lo, R + d_hi, n_r)
        ang = 2 * np.pi * np.arange(n_theta) / n_theta
        ring = np.column_stack([np.cos(ang), np.sin(ang)])
        return (center[None, None, :] + radii[:, None, None] * ring[None, :, :]).reshape(-1, 2)
    box = K.bounding_box()
    if box is None:
        raise SmoothingError("annulus sampling needs a bounded K or ball/point K")
    lo = np.asarray(box[0]) - d_hi
    hi = np.asarray(box[1]) + d_hi
    cand = sampling.box_points(lo, hi, count * 6, seed=seed)
    d2 = distance_to_set_many(cand, K) ** 2
    keep = (d2 >= 2.0 ** (s - 3)) & (d2 <= 2.0 ** (s + 4))
    pts = cand[keep]
    if len(pts) < max(8, count // 4):
        raise SmoothingError(f"annulus s={s} too thin to sample around K")
    return pts[:count]


class GlobalSmoothedFn:
    """Per-annulus smoothers glued by a normalized C^1 partition of unity in
    y = log2 |x|_K^2; zero exactly on K."""

    def __init__(self, K: SetSpec, parts: dict, s_range: tuple, t_max: float):
        self.K = K
        self.parts = parts               # s -> SmoothedFn
        self.s_range = s_range
        self.t_max = t_max
        self.coverage = (s_range[0] - 1.5, s_range[-1] + 2.5)
        self.certificate = {s: p.certificate for s, p in parts.items()}

    def sample_pairs(self, ts, Q) -> np.ndarray:
        """g(ts[i], Q[i]) for per-point times."""
        Q = np.atleast_2d(np.asarray(Q, dtype=float))
        ts = np.asarray(ts, dtype=float)
        d2 = distance_to_set_many(Q, self.K) ** 2
        out = np.zeros(len(Q))
        off = d2 > 0.0
        if not off.any():
            return out
        y = np.full(len(Q), -np.inf)
        y[off] = np.log2(d2[off])
        bad = off & ((y < self.coverage[0]) | (y > self.coverage[1]))
        if bad.any():
            i = int(np.argwhere(bad)[0][0])
            raise SmoothingError(
                f"point {Q[i].tolist()} (log2 d^2 = {y[i]:.3g}) outside annulus "
                f"coverage [{self.coverage[0]}, {self.coverage[1]}]; widen s_range")
        acc = np.zeros(len(Q))
        wsum = np.zeros(len(Q))
        for s, part in self.parts.items():
            lam = np.where(off, _bump(y, s), 0.0)
            sel = lam > 0.0
            if not sel.any():
                continue
            acc[sel] += lam[sel] * part.sample_pairs(ts[sel], Q[sel])
            wsum[sel] += lam[sel]
        out[off] = acc[off] / wsum[off]
        return out


def smooth_global(h: Callable, K: SetSpec, s_range: Sequence[int], k_max: int = 3,
                  table_res: int = 256, annulus_count: int = 512, seed: int = 0,
                  validation_points: Optional[np.ndarray] = None) -> GlobalSmoothedFn:
    """Smooth h (positive off K, zero on K, nonincreasing in t) on the union
    of dyadic annuli indexed by s_range; dim <= 2.  h is a table function,
    h(times, X) -> (len(times), len(X)), called once per annulus and once
    on the validation points, if any."""
    if K.dim > 2:
        raise SmoothingError("smooth_global supports state dimension <= 2")
    s_range = tuple(int(s) for s in s_range)
    if list(s_range) != list(range(s_range[0], s_range[-1] + 1)):
        raise SmoothingError("s_range must be consecutive integers")
    parts = {}
    for s in s_range:
        grid = annulus_points(K, s, annulus_count, seed=seed + s - s_range[0])
        partition = build_time_partition(h, grid, k_max, table_res=table_res)
        parts[s] = smooth_on_compact(partition)
    fn = GlobalSmoothedFn(K, parts, s_range, float(k_max))
    if validation_points is not None:
        _validate_global(fn, h, np.atleast_2d(validation_points), k_max)
    return fn


def _validate_global(fn: GlobalSmoothedFn, h: Callable, pts: np.ndarray,
                     k_max: int) -> None:
    d2 = distance_to_set_many(pts, fn.K) ** 2
    off = d2 > 0.0
    y = np.log2(np.where(off, d2, 1.0))
    uncovered = off & ((y < fn.coverage[0]) | (y > fn.coverage[1]))
    if uncovered.any():
        shells = sorted({int(np.floor(v)) for v in y[uncovered]})
        raise SmoothingError(f"validation grid not covered; missing shells near log2 d^2 in {shells}")
    times = np.linspace(0.0, k_max, 4 * k_max + 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        H = np.asarray(h(times, pts), dtype=float)
    # times x points, t-major, in one batch
    G = fn.sample_pairs(np.repeat(times, len(pts)),
                        np.tile(pts, (len(times), 1))).reshape(len(times), len(pts))
    for i, (t, g, hv) in enumerate(zip(times, G, H)):
        # written so that a non-finite h fails it, at that x
        if not ((g >= 0.5 * hv - 1e-12) & (g <= 2.0 * hv + 1e-12))[off].all():
            j = int(np.argmax(np.maximum(0.5 * hv - g, g - 2.0 * hv)[off]))
            raise SmoothingError(f"global sandwich violated at t={t}, x={pts[off][j].tolist()}")
        if i and np.any(g - G[i - 1] > 1e-12):
            raise SmoothingError(f"global t-monotonicity violated at t={t}")


# ---------------------------------------------------------------------------
# converse smooth barrier (rescale, marginal-of-rescaled, smooth, compose)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConverseResolution:
    s_range: tuple = tuple(range(-8, 1))
    k_max: int = 6
    table_res: int = 64
    annulus_count: int = 384
    touch_tol: float = 1e-9
    rescaled_step: float = 1.0 / 64.0


class _RescaledTubeMin:
    """The table h(times, X) of h(tau, x0), the min distance to X_o over the
    forward tube of the rescaled field on [0, tau], read off one sweep."""

    def __init__(self, f: FieldHandle, X_o: SetSpec, res: ConverseResolution):
        self.X_o = X_o
        self.res = res
        V = lambda X: distance_to_set_many(np.atleast_2d(X), X_o) ** 2
        self.F = InclusionSpec.singleton(rescale_field(f, V))
        # exact divisor of the table spacing, no coarser than rescaled_step
        spacing = 1.0 / res.table_res
        self.h = spacing / max(1, int(np.ceil(spacing / res.rescaled_step)))

    def __call__(self, times: np.ndarray, X: np.ndarray) -> np.ndarray:
        times = np.asarray(times, dtype=float)
        X = np.atleast_2d(np.asarray(X, dtype=float))
        idx = np.round(times / self.h).astype(int)
        if np.any(np.abs(times - idx * self.h) > 1e-9):
            raise SmoothingError("tube-min table expects step-aligned times")
        K = np.repeat(idx[:, None], len(X), axis=1)
        try:
            return tube_minimum(self.F, [Selector.constant()], X, K, self.h, "forward",
                                self.X_o)[0]
        except SolverError as exc:
            raise SmoothingError(f"rescaled flow diverged during tube evaluation: {exc}") from exc


def _soft_saturate(tau: np.ndarray, t_max: float) -> np.ndarray:
    """Monotone C^1 map of [0, inf) into [0, t_max): identity below t_max - 1,
    then exponential saturation.  Keeps the rescaled clock inside the
    smoothed function's time range without introducing a slope kink."""
    knee = t_max - 1.0
    tau = np.asarray(tau, dtype=float)
    over = tau > knee
    out = tau.copy()
    out[over] = knee + 1.0 - np.exp(-(tau[over] - knee))
    return out


class ConverseBarrier:
    """The smooth converse construction: backward flow composed with the
    smoothed, time-rescaled tube-distance function."""

    def __init__(self, f: FieldHandle, X_o: SetSpec, cfg: IntegratorConfig,
                 res: ConverseResolution):
        self.X_o = X_o
        self.cfg = cfg
        self.res = res
        self.F = InclusionSpec.singleton(f)
        tube = _RescaledTubeMin(f, X_o, res)
        self.g = smooth_global(tube, X_o, res.s_range, k_max=res.k_max,
                               table_res=res.table_res,
                               annulus_count=res.annulus_count)

    def values(self, ts, Xs) -> tuple:
        """The (values, cut) pair of the rows of float arrays ts (m,) and Xs
        (m, n), as BarrierFn.evaluate_many passes them; no flow is cut short."""
        m = len(ts)
        if not np.all(np.isfinite(ts)):
            raise BarrierError(f"converse barrier needs a finite t, got {ts[~np.isfinite(ts)][0]}")
        if np.any(ts < 0):
            raise BarrierError("converse barrier defined for t >= 0")
        # each row steps to its own t with the largest step up to cfg.step
        n_rows = np.ceil(ts / self.cfg.step)
        h_rows = ts / np.maximum(n_rows, 1)
        self.cfg.check_steps(ts, n_rows)
        dmin, tau_int, inv_prev = np.full(m, np.inf), np.zeros(m), np.empty(m)

        def observe(k0, stepped, Xb):
            d_block = on_stepped(lambda X: distance_to_set_many(X, self.X_o), stepped, Xb)
            np.minimum(dmin, d_block.min(axis=0), out=dmin)
            # the trapezoid sum for tau, node by node in order; node 0 only opens it
            for k, (rows, d_here) in enumerate(zip(stepped, d_block), k0):
                inv_here = 1.0 / np.maximum(d_here[rows] ** 2, self.res.touch_tol ** 2)
                if k:
                    tau_int[rows] += 0.5 * (inv_prev[rows] + inv_here) * h_rows[rows]
                inv_prev[rows] = inv_here

        # rows are not frozen on escape: an escaped row that never touched X_o
        # lies outside the annulus coverage, where self.g raises SmoothingError
        try:
            step = bundle_step(self.F, [Selector.constant()], m, h_rows, "backward")
            state = rk4_sweep(step, Xs, n_rows, observe)[0]
        except SolverError as exc:
            raise SmoothingError(f"backward flow diverged during barrier evaluation: {exc}") from exc
        touched = dmin <= self.res.touch_tol
        out = np.zeros(m)
        free = ~touched
        if free.any():
            tau = _soft_saturate(ts[free] + tau_int[free], float(self.res.k_max))
            out[free] = self.g.sample_pairs(tau, state[free])
        return out, np.zeros(m, dtype=bool)


def converse_smooth_barrier(f: FieldHandle, X_o: SetSpec,
                            cfg: IntegratorConfig = IntegratorConfig(),
                            res: ConverseResolution = ConverseResolution()) -> BarrierFn:
    """Smooth time-varying barrier for a C^1 single-valued field.

    Pipeline: rescale the field by V/(1+V) with V the squared distance to
    X_o (making X_o unreachable in finite rescaled time), take the forward
    tube-distance marginal of the rescaled system, smooth it globally off
    X_o, and compose with the backward flow and the rescaled clock
    tau(t) = t + integral ds / V.  Points whose backward path touches X_o get
    the value 0 by the second branch of the construction.
    """
    return BarrierFn(ConverseBarrier(f, X_o, cfg, res).values, "smoothed", f.dim,
                     params={"system": f.name, "X_o": X_o.name or X_o.kind,
                             "k_max": res.k_max, "s_range": list(res.s_range)})
