"""State-space sets, distances, tangent-cone probes, and nonsmooth differentials.

Sets are symbolic (:class:`SetSpec`) and support membership and distance
queries everywhere, both on (m, n) batches of rows, one row's result never
depending on the others.  Ball/box/halfspace/points distances are
closed-form; sublevel sets and boolean intersections fall back to a
projection estimate (grid seeding plus boundary bisection and a tangential
polish, run on all rows at once), and such sets report ``exactness() ==
"estimated"`` so callers can tell the two apart.

Cone membership is probed with finite difference quotients of the distance
function along a decreasing step sequence, a computable surrogate for the
liminf in the contingent / external-cone definitions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling

DEFAULT_CONE_TOL = 1e-6
DEFAULT_CONE_STEPS = tuple(10.0 ** -i for i in range(1, 7))
_MEMBER_TOL = 1e-12
_CONVEX = ("ball", "box", "halfspace")     # kinds with a closed-form projection


class EmptySetError(ValueError):
    pass


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class SetSpec:
    """Symbolic region of state space.

    kind: one of ball | box | halfspace | sublevel | points | complement |
    union | intersection.  ``halfspace`` is the closed region
    {x : <normal, x> >= offset}.  ``sublevel`` is {x : fn(x) <= level} for a
    scalar handle vectorized over points; it carries a sampling window used
    to seed projection estimates.
    """

    kind: str
    dim: int
    center: Optional[np.ndarray] = None
    radius: float = 0.0
    lo: Optional[np.ndarray] = None
    hi: Optional[np.ndarray] = None
    normal: Optional[np.ndarray] = None
    offset: float = 0.0
    fn: Optional[Callable] = None
    level: float = 0.0
    pts: Optional[np.ndarray] = None
    members: tuple = ()
    window: Optional[tuple] = None
    grid: int = 33
    name: str = ""

    # ---- constructors -------------------------------------------------

    @staticmethod
    def ball(center, radius: float, name: str = "") -> "SetSpec":
        center = np.atleast_1d(np.asarray(center, dtype=float))
        if radius < 0:
            raise GeometryError("ball radius must be nonnegative")
        return SetSpec("ball", len(center), center=center, radius=float(radius), name=name)

    @staticmethod
    def box(lo, hi, name: str = "") -> "SetSpec":
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if lo.shape != hi.shape or np.any(lo > hi):
            raise GeometryError("box requires lo <= hi componentwise")
        return SetSpec("box", len(lo), lo=lo, hi=hi, name=name)

    @staticmethod
    def halfspace(normal, offset: float, name: str = "") -> "SetSpec":
        normal = np.atleast_1d(np.asarray(normal, dtype=float))
        if np.linalg.norm(normal) == 0.0:
            raise GeometryError("halfspace normal must be nonzero")
        return SetSpec("halfspace", len(normal), normal=normal, offset=float(offset), name=name)

    @staticmethod
    def sublevel(fn, level: float, dim: int, window, grid: int = 33, name: str = "") -> "SetSpec":
        lo, hi = _as_window(window, dim)
        return SetSpec("sublevel", dim, fn=fn, level=float(level),
                       window=(lo, hi), grid=int(grid), name=name)

    @staticmethod
    def points(pts, name: str = "") -> "SetSpec":
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return SetSpec("points", pts.shape[1], pts=pts, name=name)

    @staticmethod
    def complement(inner: "SetSpec", name: str = "") -> "SetSpec":
        return SetSpec("complement", inner.dim, members=(inner,), name=name)

    @staticmethod
    def union(members: Sequence["SetSpec"], name: str = "") -> "SetSpec":
        members = tuple(members)
        if not members:
            raise GeometryError("union needs at least one member")
        return SetSpec("union", members[0].dim, members=members, name=name)

    @staticmethod
    def intersection(members: Sequence["SetSpec"], name: str = "") -> "SetSpec":
        members = tuple(members)
        if not members:
            raise GeometryError("intersection needs at least one member")
        spec = SetSpec("intersection", members[0].dim, members=members, name=name)
        _reject_provably_empty(spec)
        return spec

    # ---- queries -------------------------------------------------------

    def exactness(self) -> str:
        """'exact' when every distance query is closed-form, else 'estimated'."""
        if self.kind in ("ball", "box", "halfspace", "points"):
            return "exact"
        if self.kind in ("complement", "union"):
            return ("exact" if all(m.exactness() == "exact" for m in self.members)
                    else "estimated")
        return "estimated"

    def contains(self, X, tol: float = _MEMBER_TOL) -> np.ndarray:
        """Membership of every row of an (m, n) array, within tol."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "ball":
            return np.sqrt(_row_sq(X - self.center)) <= self.radius + tol
        if self.kind == "box":
            return ((X >= self.lo - tol) & (X <= self.hi + tol)).all(axis=1)
        if self.kind == "halfspace":
            return _row_dot(X, self.normal) >= self.offset - tol * np.linalg.norm(self.normal)
        if self.kind == "points":
            return np.sqrt(_pair_sq(X, self.pts).min(axis=1)) <= tol
        if self.kind == "sublevel":
            return np.asarray(self.fn(X)) <= self.level + tol
        if self.kind == "complement":
            # closed complement: boundary points belong to both
            return ~self.members[0].contains(X, tol=-tol)
        if self.kind == "union":
            return np.logical_or.reduce([m.contains(X, tol) for m in self.members])
        if self.kind == "intersection":
            return np.logical_and.reduce([m.contains(X, tol) for m in self.members])
        raise GeometryError(f"unknown set kind {self.kind}")

    def bounding_box(self) -> Optional[tuple]:
        """Finite bounding box when one is derivable, else None."""
        if self.kind == "ball":
            return self.center - self.radius, self.center + self.radius
        if self.kind == "box":
            return self.lo.copy(), self.hi.copy()
        if self.kind == "points":
            return self.pts.min(axis=0), self.pts.max(axis=0)
        if self.kind == "sublevel":
            return self.window
        if self.kind == "union":
            boxes = [m.bounding_box() for m in self.members]
            if any(b is None for b in boxes):
                return None
            los = np.min([b[0] for b in boxes], axis=0)
            his = np.max([b[1] for b in boxes], axis=0)
            return los, his
        if self.kind == "intersection":
            boxes = [b for b in (m.bounding_box() for m in self.members) if b is not None]
            if not boxes:
                return None
            los = np.max([b[0] for b in boxes], axis=0)
            his = np.min([b[1] for b in boxes], axis=0)
            return los, his
        return None

    # ---- samplers ------------------------------------------------------

    def sample_interior(self, count: int, seed: int = 0, window=None) -> np.ndarray:
        """Deterministic points inside the set (window needed if unbounded)."""
        if self.kind == "ball":
            return sampling.ball_points(self.center, self.radius, count, seed=seed)
        if self.kind == "box":
            return sampling.box_points(self.lo, self.hi, count, seed=seed)
        if self.kind == "points":
            reps = int(np.ceil(count / len(self.pts)))
            return np.tile(self.pts, (reps, 1))[:count]
        lo, hi = self._sampling_window(window)
        cand = sampling.box_points(lo, hi, max(count * 8, 256), seed=seed)
        picked = cand[self.contains(cand)][:count]
        if len(picked) < count:
            raise GeometryError(f"could not draw {count} interior samples of '{self.name or self.kind}'")
        return picked

    def sample_boundary(self, count: int, seed: int = 0, window=None) -> np.ndarray:
        """Deterministic points on (within ~1e-9 of) the boundary."""
        if self.kind == "ball":
            dirs = sampling.sphere_directions(self.dim, count, seed=seed)
            return self.center + self.radius * dirs
        if self.kind == "halfspace":
            lo, hi = self._sampling_window(window)
            pts = sampling.box_points(lo, hi, count, seed=seed)
            n = self.normal / np.linalg.norm(self.normal)
            b = self.offset / np.linalg.norm(self.normal)
            return pts - ((pts @ n) - b)[:, None] * n
        if self.kind == "box":
            # point i sits on the lo or hi face of axis i % dim, alternating per sweep
            pts, i = sampling.box_points(self.lo, self.hi, count, seed=seed), np.arange(count)
            axis = i % self.dim
            pts[i, axis] = np.where((i // self.dim) % 2 == 0, self.lo[axis], self.hi[axis])
            return pts
        if self.kind == "points":
            return self.sample_interior(count, seed)
        # generic: bisect between interior and exterior seeds
        lo, hi = self._sampling_window(window)
        cand = sampling.box_points(lo, hi, max(count * 16, 512), seed=seed)
        member = self.contains(cand)
        inside, outside = cand[member], cand[~member]
        if not len(inside) or not len(outside):
            raise GeometryError("boundary sampling needs interior and exterior seeds")
        i = np.arange(count)
        return _bisect_boundary(self, inside[i % len(inside)],
                                outside[(i * 7 + 3) % len(outside)])

    def _sampling_window(self, window):
        if window is not None:
            return _as_window(window, self.dim)
        box = self.bounding_box()
        if box is None:
            raise GeometryError(f"set '{self.name or self.kind}' is unbounded; pass a sampling window")
        return box


@dataclass(frozen=True)
class SamplePlan:
    """How many start points to draw from a set, at which seed and in which
    window (needed for unbounded sets)."""

    boundary: int = 32
    interior: int = 32
    seed: int = 0
    window: Optional[tuple] = None

    def draw(self, X: SetSpec) -> np.ndarray:
        """Interior samples of X drawn at seed, then boundary samples at
        seed + 1; sets without a boundary sampler fall back to interior."""
        pts = []
        if self.interior > 0:
            pts.append(X.sample_interior(self.interior, seed=self.seed, window=self.window))
        if self.boundary > 0:
            try:
                pts.append(X.sample_boundary(self.boundary, seed=self.seed + 1,
                                             window=self.window))
            except GeometryError:
                pass
        if not pts:
            raise ValueError("sample plan produced no initial points")
        return np.vstack(pts)


def _as_window(window, dim):
    if isinstance(window, tuple) and len(window) == 2 and hasattr(window[0], "__len__"):
        return (np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float))
    w = np.asarray(window, dtype=float).reshape(2, dim)
    return w[0], w[1]


def _reject_provably_empty(spec: SetSpec) -> None:
    """Cheap emptiness certificates from ball/box arithmetic."""
    prim = [m for m in spec.members if m.kind in ("ball", "box")]
    for i in range(len(prim)):
        for j in range(i + 1, len(prim)):
            a, b = prim[i], prim[j]
            if a.kind == "ball" and b.kind == "ball":
                if np.linalg.norm(a.center - b.center) > a.radius + b.radius:
                    raise EmptySetError("intersection is empty (disjoint balls)")
            elif a.kind == "box" and b.kind == "box":
                if np.any(a.lo > b.hi) or np.any(b.lo > a.hi):
                    raise EmptySetError("intersection is empty (disjoint boxes)")
            else:
                ball, box = (a, b) if a.kind == "ball" else (b, a)
                gap = np.linalg.norm(ball.center - np.clip(ball.center, box.lo, box.hi))
                if gap > ball.radius:
                    raise EmptySetError("intersection is empty (ball disjoint from box)")


# ---------------------------------------------------------------------------
# distance queries
# ---------------------------------------------------------------------------

def distance_to_set(x, S: SetSpec) -> float:
    """Euclidean distance from x to S: distance_to_set_many on one row."""
    # calls _distance, not distance_to_set_many, so that a wrapper on each
    # public name (bench/spans.py) sees one query as one call
    return float(_distance(np.atleast_2d(np.asarray(x, dtype=float)), S)[0])


def distance_to_set_many(X, S: SetSpec) -> np.ndarray:
    """Euclidean distance from every row of an (m, n) array to S (upper
    estimates for estimated variants); a non-finite row raises."""
    return _distance(np.atleast_2d(np.asarray(X, dtype=float)), S)


def _distance(X: np.ndarray, S: SetSpec) -> np.ndarray:
    if not np.isfinite(X).all():
        bad = X[np.argmin(np.isfinite(X).all(axis=1))]
        raise GeometryError(f"distance query at non-finite point {bad.tolist()}")
    if S.kind == "ball":
        return np.maximum(np.sqrt(_row_sq(X - S.center)) - S.radius, 0.0)
    if S.kind == "box":
        return np.sqrt(_row_sq(X - np.clip(X, S.lo, S.hi)))
    if S.kind == "halfspace":
        nn = np.linalg.norm(S.normal)
        return np.maximum(S.offset - _row_dot(X, S.normal), 0.0) / nn
    if S.kind == "points":
        return np.sqrt(_pair_sq(X, S.pts).min(axis=1))
    if S.kind == "union":
        return np.min([_distance(X, m) for m in S.members], axis=0)
    if S.kind == "complement" and S.members[0].kind in _CONVEX + ("points", "complement"):
        return _complement_distance(X, S.members[0])
    # sublevel, intersection and the complement of either or of a union are
    # estimated, on the rows outside S only (contains rejects unknown kinds)
    out, rows = np.zeros(len(X)), ~S.contains(X)
    if rows.any():
        out[rows] = {"sublevel": _sublevel_distance, "intersection": _intersection_distance,
                     "complement": _ring_search_distance}[S.kind](X[rows], S)
    return out


def _row_dot(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    # dot products over the last axis (V broadcasts), column by column, not a
    # BLAS product: BLAS rounds a single row unlike the same row in a batch,
    # and a distance must not depend on its batch
    return sum(X[..., j] * V[..., j] for j in range(X.shape[-1]))


def _row_sq(D: np.ndarray) -> np.ndarray:
    # squared norms over the last axis, column by column like _row_dot
    return sum(D[..., j] * D[..., j] for j in range(D.shape[-1]))


def _pair_sq(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    # (m, p) squared distances from every row of X to every row of P
    return sum((X[:, j, None] - P[None, :, j]) ** 2 for j in range(X.shape[1]))


def _complement_distance(X: np.ndarray, inner: SetSpec) -> np.ndarray:
    """Distance to cl(R^n \\ inner): interior depth of inner, 0 outside."""
    if inner.kind == "ball":
        return np.maximum(inner.radius - np.sqrt(_row_sq(X - inner.center)), 0.0)
    if inner.kind == "box":
        slack = np.minimum(X - inner.lo, inner.hi - X)
        depth = slack.min(axis=1)
        return np.maximum(depth, 0.0)
    if inner.kind == "halfspace":
        nn = np.linalg.norm(inner.normal)
        return np.maximum(_row_dot(X, inner.normal) - inner.offset, 0.0) / nn
    if inner.kind == "points":
        # complement of a finite set is dense: its closure is the whole space
        return np.zeros(len(X))
    return _distance(X, inner.members[0])


def _ring_search_distance(X: np.ndarray, comp: SetSpec) -> np.ndarray:
    """Expanding ring search around every row for members of comp, each hit
    bisected back to the boundary; a row keeps its nearest."""
    out, rows = np.full(len(X), np.inf), np.arange(len(X))
    box = comp.members[0].bounding_box()
    scale = 1.0 if box is None else float(np.max(box[1] - box[0])) or 1.0
    dirs = sampling.sphere_directions(X.shape[1], 64, seed=1)
    for radius in scale * 2.0 ** np.arange(-6.0, 6.0):
        ring = X[rows, None, :] + radius * dirs
        hit = comp.contains(ring.reshape(-1, X.shape[1])).reshape(len(rows), -1)
        owner, col = np.nonzero(hit)
        x = X[rows[owner]]
        y = _bisect_boundary(comp, ring[owner, col], x)
        np.minimum.at(out, rows[owner], np.sqrt(_row_sq(x - y)))
        rows = rows[~hit.any(axis=1)]
        if len(rows) == 0:
            return out
    raise GeometryError("could not find the complement within the search range")


def _sublevel_distance(X: np.ndarray, S: SetSpec) -> np.ndarray:
    member = lambda P: np.asarray(S.fn(P)) <= S.level
    return _polish_to_boundary(S, X, _grid_seeded_boundary(X, S, member))


def _grid_seeded_boundary(X: np.ndarray, S: SetSpec, member) -> np.ndarray:
    """Boundary points of S, bisected from every row's nearest member (the
    first of equals) on S's seeding grid towards the row."""
    box = S.bounding_box()
    if box is None:
        raise GeometryError(f"distance to '{S.name or S.kind}' needs a bounded member or window")
    grid = sampling.grid_points(*box, S.grid)
    members = grid[member(grid)]
    if len(members) == 0:
        raise EmptySetError(f"no member of '{S.name or S.kind}' found on its {S.grid}^n grid")
    return _bisect_boundary(S, members[np.argmin(_pair_sq(X, members), axis=1)], X)


def _project(Y: np.ndarray, S: SetSpec) -> np.ndarray:
    """Closed-form Euclidean projection of every row onto a convex exact set."""
    if S.kind == "box":
        return np.clip(Y, S.lo, S.hi)
    out = Y.copy()
    if S.kind == "ball":
        d = Y - S.center
        n = np.sqrt(_row_sq(d))
        far = n > S.radius
        out[far] = S.center + d[far] * (S.radius / n[far])[:, None]
    else:
        slack = _row_dot(Y, S.normal) - S.offset
        low = slack < 0
        out[low] = Y[low] - slack[low, None] * S.normal / (S.normal @ S.normal)
    return out


def _intersection_distance(X: np.ndarray, S: SetSpec) -> np.ndarray:
    y, landed = X.copy(), np.zeros(len(X), dtype=bool)
    # convex exact members: alternating projections land in the intersection,
    # giving a certified upper estimate (exact when one member binds); a row
    # stops after the first sweep that moves it by at most 1e-14
    if all(m.kind in _CONVEX for m in S.members):
        live = np.arange(len(X))
        for _ in range(256):
            z, moved = y[live], np.zeros(len(live))
            for m in S.members:
                p = _project(z, m)
                moved, z = np.maximum(moved, np.sqrt(_row_sq(p - z))), p
            y[live] = z
            live = live[moved > 1e-14]
            if len(live) == 0:
                break
        landed = S.contains(y, tol=1e-9)
    if not landed.all():
        y[~landed] = _grid_seeded_boundary(X[~landed], S, S.contains)
    return np.sqrt(_row_sq(X - y))


def _bisect_boundary(S: SetSpec, inside: np.ndarray, outside: np.ndarray,
                     iters: int = 60) -> np.ndarray:
    """Bisect every row pair (member, non-member) of S; the member ends."""
    a, b = inside, outside
    for _ in range(iters):
        mid = 0.5 * (a + b)
        member = S.contains(mid)[:, None]
        a, b = np.where(member, mid, a), np.where(member, b, mid)
    return a


def _polish_to_boundary(S: SetSpec, X: np.ndarray, Y: np.ndarray,
                        iters: int = 25) -> np.ndarray:
    """Tangential descent of |x - y| along the boundary of a sublevel set,
    for every row pair; a row stops at its first step that does not improve."""
    best = np.sqrt(_row_sq(X - Y))
    h = np.maximum(1e-7, 1e-7 * best)
    Y, n, live = Y.copy(), X.shape[1], np.arange(len(X))
    for _ in range(iters):
        # central-difference gradient of fn at every live y, one call
        y, e = Y[live], h[live, None, None] * np.eye(n)
        f = np.asarray(S.fn(np.stack([y[:, None] + e, y[:, None] - e]).reshape(-1, n)))
        f = f.reshape(2, -1, n)
        g = (f[0] - f[1]) / (2.0 * h[live, None])
        gn = np.sqrt(_row_sq(g))
        keep = gn >= 1e-14
        live, y, g, gn = live[keep], y[keep], g[keep], gn[keep]
        d = X[live] - y
        tangent = d - _row_dot(d, g)[:, None] * g / (gn ** 2)[:, None]
        tn = np.sqrt(_row_sq(tangent))
        keep = tn >= 1e-14
        live, y, g, gn, tangent, tn = (a[keep] for a in (live, y, g, gn, tangent, tn))
        step = np.minimum(0.5 * best[live], tn)
        cand = y + tangent / tn[:, None] * step[:, None]
        # pull the candidate back onto the boundary along the gradient ray
        push = g / gn[:, None] * np.maximum(2.0 * step, 1e-6)[:, None]
        inside_pt = np.where(S.contains(cand - push)[:, None], cand - push, y)
        cand = _bisect_boundary(S, inside_pt, cand + push, iters=50)
        dist = np.sqrt(_row_sq(X[live] - cand))
        better = dist < best[live] - 1e-15
        live = live[better]
        best[live], Y[live] = dist[better], cand[better]
        if len(live) == 0:
            break
    return best


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def hausdorff_distance(A, B) -> float:
    """Max of the two directed sup-inf distances between finite point clouds."""
    A = _as_cloud(A)
    B = _as_cloud(B)
    if len(A) == 0 or len(B) == 0:
        raise GeometryError("empty set")
    d = np.sqrt(_pair_sq(A, B))
    return float(max(d.min(axis=1).max(), d.min(axis=0).max()))


def _as_cloud(A) -> np.ndarray:
    pts = getattr(A, "points", A)
    return np.atleast_2d(np.asarray(pts, dtype=float))


# ---------------------------------------------------------------------------
# cone probes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ConeProbe:
    """Finite surrogate for membership of direction v in a tangent cone at x."""

    x: np.ndarray
    v: np.ndarray
    steps: tuple = DEFAULT_CONE_STEPS
    mode: str = "contingent"

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "v", np.asarray(self.v, dtype=float))
        steps = tuple(float(s) for s in self.steps)
        if len(steps) < 3 or any(s <= 0 for s in steps) or any(
                steps[i + 1] >= steps[i] for i in range(len(steps) - 1)):
            raise GeometryError("steps must be >= 3 strictly decreasing positive reals")
        object.__setattr__(self, "steps", steps)
        if self.mode not in ("contingent", "external", "clarke-tangent"):
            raise GeometryError(f"unknown cone mode {self.mode}")


def cone_residual(probe: ConeProbe, S: SetSpec, tol: float = DEFAULT_CONE_TOL) -> float:
    """Admission residual: <= tol means the direction is admitted by the cone.

    contingent: min_h |x + h v|_S / h, requiring x in S (within tol);
    external:   min_h (|x + h v|_S - |x|_S) / h.
    """
    x, v = probe.x, probe.v
    steps = np.asarray(probe.steps)
    d = distance_to_set_many(np.vstack([x, x + steps[:, None] * v]), S)
    if probe.mode == "external":
        return float(((d[1:] - d[0]) / steps).min())
    if d[0] > tol:
        raise GeometryError("base point not in set")
    quotients = d[1:] / steps
    if probe.mode == "contingent":
        return float(quotients.min())
    # clarke-tangent: also probe from perturbed base points (limsup over y -> x)
    dy = np.repeat(10.0 * steps[-3:], 2)
    ys = x + (np.tile([1.0, -1.0], 3) * dy)[:, None] * _unit_perp(v)
    probes = (ys[:, None, :] + steps[:, None] * v).reshape(-1, len(x))
    d = distance_to_set_many(np.vstack([ys, probes]), S)
    near = (d[len(ys):].reshape(len(ys), -1) / steps).min(axis=1)[d[:len(ys)] <= tol + dy]
    return float(max(quotients.min(), near.max(initial=-np.inf)))


def _unit_perp(v: np.ndarray) -> np.ndarray:
    if len(v) == 1:
        return np.zeros(1)
    p = np.zeros_like(v)
    i = int(np.argmin(np.abs(v)))
    p[i] = 1.0
    p = p - (p @ v) * v / max(v @ v, 1e-30)
    n = np.linalg.norm(p)
    return p / n if n > 0 else p


# ---------------------------------------------------------------------------
# Clarke generalized gradient sampling, proximal subgradient test
# ---------------------------------------------------------------------------

def clarke_gradient_sample(B, X, radius: float, m: int = 0, fd_step: float = 1e-7,
                           seed: int = 0) -> np.ndarray:
    """Finite-difference gradient estimates near each base point of X, (n,)
    or (k, n), generator sets for the Clarke gradient hulls: (m, n) or (k, m, n).

    B is a batch handle on R^n, mapping points P (k, n) to k values; it is
    called once, on all m * 2n probes of every base.  Gradients are taken at
    the base and m - 1 low-discrepancy points in the radius-ball around it; a
    linear test functional's max over the hull equals its max over these.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    if m <= 0:
        m = 2 * n + 1
    if m < 2 * n + 1:
        raise GeometryError("need m >= 2n+1 gradient samples")
    if radius <= 0 or fd_step <= 0:
        raise GeometryError("radius and fd_step must be positive")
    # ball_points(x, ...) is x plus offsets that do not depend on x
    offsets = sampling.ball_points(np.zeros(n), radius, m - 1, seed=seed)
    pts = np.concatenate([X[..., None, :], X[..., None, :] + offsets], axis=-2)
    step = fd_step * np.eye(n)
    probes = np.stack([pts[..., None, :] + step, pts[..., None, :] - step])
    hi, lo = np.asarray(B(probes.reshape(-1, n)), dtype=float).reshape(probes.shape[:-1])
    bad = ~(np.isfinite(hi) & np.isfinite(lo)).all(axis=-1)
    if bad.any():
        raise GeometryError(f"non-finite value near sample {pts.reshape(-1, n)[np.argmax(bad)]}")
    return (hi - lo) / (2.0 * fd_step)


@dataclass(frozen=True)
class SubgradientCandidate:
    """Candidate proximal subgradients zeta, (n,) or (z, n), of B at x with curvature bound eps."""

    x: np.ndarray
    zeta: np.ndarray
    radius: float
    eps: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "x", np.asarray(self.x, dtype=float))
        object.__setattr__(self, "zeta", np.asarray(self.zeta, dtype=float))
        if self.radius <= 0:
            raise GeometryError("radius must be positive")
        if self.eps < 0:
            raise GeometryError("eps must be nonnegative")


def proximal_subgradient_test(cand: SubgradientCandidate, B, m: int = 64,
                              tol: float = 1e-9, seed: int = 0) -> dict:
    """Check B(y) >= B(x) + <zeta, y-x> - eps |y-x|^2 on m ball samples.

    B is a batch handle, called once on x and all of its samples.  For a
    (z, n) zeta, "holds" and "worst_margin" are (z,) arrays, one per zeta."""
    if m < 10:
        raise GeometryError("need m >= 10 test points")
    x, zeta = cand.x, cand.zeta
    pts = sampling.ball_points(x, cand.radius, m, seed=seed)
    # include boundary probes along +-coordinate axes, where violations peak
    n = len(x)
    axes = np.vstack([np.eye(n), -np.eye(n)]) * cand.radius + x
    pts = np.vstack([pts, axes])
    vals = np.asarray(B(np.vstack([x, pts])), dtype=float)
    d = pts - x
    # one column per zeta; a zeta's margins do not depend on the others
    margins = ((vals[1:] - vals[0])[:, None] - _row_dot(d[:, None, :], np.atleast_2d(zeta))
               + cand.eps * np.einsum("ij,ij->i", d, d)[:, None])
    worst = margins.min(axis=0)
    if zeta.ndim == 1:
        worst = float(worst[0])
    return {"holds": worst >= -tol, "worst_margin": worst}
