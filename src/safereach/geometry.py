"""State-space sets and distances.

Sets are symbolic (:class:`SetSpec`) and support membership and distance
queries everywhere, both on (m, n) batches of rows, one row's result never
depending on the others.  Ball/box/halfspace/points distances are
closed-form; sublevel sets and boolean intersections fall back to a
projection estimate (grid seeding plus boundary bisection and a tangential
polish, run on all rows at once), and such sets report ``exactness() ==
"estimated"`` so callers can tell the two apart.  Tangent cones and
nonsmooth differentials, built on these distances, are in
:mod:`safereach.infinitesimal`.
"""

from __future__ import annotations

from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from . import Error, sampling

_MEMBER_TOL = 1e-12
_POLISH_STEPS = 25      # tangential descent steps of _polish_to_boundary
_CONVEX = ("ball", "box", "halfspace")     # kinds with a closed-form projection
PAIR_BUDGET = 2 ** 18   # elements of one (rows, points) distance matrix


class GeometryError(Error, ValueError):
    pass


class EmptySetError(GeometryError):
    pass


class SetSpec(NamedTuple):
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
        if len({len(np.atleast_1d(p)) for p in pts}) > 1:
            raise GeometryError("points differ in their number of coordinates")
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        return SetSpec("points", pts.shape[1], pts=pts, name=name)

    @staticmethod
    def complement(inner: "SetSpec", name: str = "") -> "SetSpec":
        return SetSpec("complement", inner.dim, members=(inner,), name=name)

    @staticmethod
    def union(members: Sequence["SetSpec"], name: str = "") -> "SetSpec":
        members = _members("union", members)
        return SetSpec("union", members[0].dim, members=members, name=name)

    @staticmethod
    def intersection(members: Sequence["SetSpec"], name: str = "") -> "SetSpec":
        members = _members("intersection", members)
        spec = SetSpec("intersection", members[0].dim, members=members, name=name)
        _reject_provably_empty(spec)
        return spec

    # ---- queries -------------------------------------------------------

    def exactness(self) -> str:
        """'exact' when every distance query is closed-form, else 'estimated'."""
        if self.kind in ("ball", "box", "halfspace", "points"):
            return "exact"
        if self.kind == "union":
            return ("exact" if all(m.exactness() == "exact" for m in self.members)
                    else "estimated")
        if self.kind == "complement":
            # _complement_distance answers these in closed form (the complement
            # of a complement by the inner member's own distance); the ring
            # search estimates the rest
            inner = self.members[0]
            if inner.kind in _CONVEX + ("points",) or (
                    inner.kind == "complement" and inner.members[0].exactness() == "exact"):
                return "exact"
        return "estimated"

    def contains(self, X, tol: float = _MEMBER_TOL) -> np.ndarray:
        """Membership of every row of an (m, n) array, within tol."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        if self.kind == "ball":
            return np.sqrt(_row_sq(X - self.center)) <= self.radius + tol
        if self.kind == "box":
            return ((X >= self.lo - tol) & (X <= self.hi + tol)).all(axis=1)
        if self.kind == "halfspace":
            return row_dot(X, self.normal) >= self.offset - tol * np.linalg.norm(self.normal)
        if self.kind == "points":
            return np.sqrt(_row_sq(X - self.pts[_nearest(X, self.pts)])) <= tol
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
            return pts - (row_dot(pts, n) - b)[:, None] * n
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
        return bisect_boundary(self.contains, inside[i % len(inside)],
                               outside[(i * 7 + 3) % len(outside)])

    def _sampling_window(self, window):
        if window is not None:
            return _as_window(window, self.dim)
        box = self.bounding_box()
        if box is None:
            raise GeometryError(f"set '{self.name or self.kind}' is unbounded; pass a sampling window")
        return box


class SamplePlan(NamedTuple):
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
            why = "boundary = 0" if self.boundary == 0 else f"'{X.name}' has no boundary sampler"
            raise GeometryError(f"[sampling] interior = 0 and {why}: no initial points")
        return np.vstack(pts)


def _members(kind: str, members) -> tuple:
    """The members of a union or intersection, refused unless there is at
    least one and all have one dimension."""
    members = tuple(members)
    if not members:
        raise GeometryError(f"{kind} needs at least one member")
    dims = sorted({m.dim for m in members})
    if len(dims) > 1:
        raise GeometryError(f"{kind} members differ in dimension: {dims}")
    return members


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
        return np.maximum(S.offset - row_dot(X, S.normal), 0.0) / nn
    if S.kind == "points":
        return np.sqrt(_row_sq(X - S.pts[_nearest(X, S.pts)]))
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


def row_dot(X: np.ndarray, V: np.ndarray) -> np.ndarray:
    # dot products over the last axis (V broadcasts), column by column, not a
    # BLAS product: BLAS rounds a single row unlike the same row in a batch,
    # and a distance must not depend on its batch
    return sum(X[..., j] * V[..., j] for j in range(X.shape[-1]))


def central_gradients(f: Callable, P: np.ndarray, h) -> np.ndarray:
    """The (k, d) quotients (f(P + h e_j) - f(P - h e_j)) / (2h) at the rows of
    P (k, d), h one step or one per row, from one call of the batch handle f
    on all 2kd probes (every + probe, then every - probe)."""
    k, d = P.shape
    h = np.broadcast_to(np.asarray(h, dtype=float), (k,))
    E = h[:, None, None] * np.eye(d)
    v = np.reshape(f(np.stack([P[:, None] + E, P[:, None] - E]).reshape(-1, d)), (2, k, d))
    return (v[0] - v[1]) / (2.0 * h[:, None])


def _row_sq(D: np.ndarray) -> np.ndarray:
    # squared norms over the last axis, column by column like row_dot
    return sum(D[..., j] * D[..., j] for j in range(D.shape[-1]))


def _pair_sq(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    # (m, p) squared distances from every row of X to every row of P
    return sum((X[:, j, None] - P[None, :, j]) ** 2 for j in range(X.shape[1]))


def _nearest(X: np.ndarray, P: np.ndarray) -> np.ndarray:
    """Index of every row's nearest row of P (the first of equals), from
    distance matrices of at most PAIR_BUDGET elements, a chunk of rows each."""
    step = max(1, PAIR_BUDGET // len(P))
    return np.concatenate([np.argmin(_pair_sq(X[i:i + step], P), axis=1)
                           for i in range(0, max(len(X), 1), step)])


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
        return np.maximum(row_dot(X, inner.normal) - inner.offset, 0.0) / nn
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
        y = bisect_boundary(comp.contains, ring[owner, col], x)
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
    return bisect_boundary(S.contains, members[_nearest(X, members)], X)


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
        slack = row_dot(Y, S.normal) - S.offset
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


def bisect_boundary(member: Callable, inside: np.ndarray, outside: np.ndarray,
                    iters: int = 60) -> np.ndarray:
    """Bisect every row pair (inside, outside) of a membership predicate,
    member(P) -> (k,) bools, one call per step; returns the member ends."""
    a, b = inside, outside
    for _ in range(iters):
        mid = 0.5 * (a + b)
        keep = member(mid)[:, None]
        a, b = np.where(keep, mid, a), np.where(keep, b, mid)
    return a


def _polish_to_boundary(S: SetSpec, X: np.ndarray, Y: np.ndarray) -> np.ndarray:
    """Tangential descent of |x - y| along the boundary of a sublevel set,
    for every row pair; a row stops at its first step that does not improve."""
    best = np.sqrt(_row_sq(X - Y))
    h = np.maximum(1e-7, 1e-7 * best)
    Y, live = Y.copy(), np.arange(len(X))
    for _ in range(_POLISH_STEPS):
        y = Y[live]
        g = central_gradients(S.fn, y, h[live])
        gn = np.sqrt(_row_sq(g))
        keep = gn >= 1e-14
        live, y, g, gn = live[keep], y[keep], g[keep], gn[keep]
        d = X[live] - y
        tangent = d - row_dot(d, g)[:, None] * g / (gn ** 2)[:, None]
        tn = np.sqrt(_row_sq(tangent))
        keep = tn >= 1e-14
        live, y, g, gn, tangent, tn = (a[keep] for a in (live, y, g, gn, tangent, tn))
        step = np.minimum(0.5 * best[live], tn)
        cand = y + tangent / tn[:, None] * step[:, None]
        # pull the candidate back onto the boundary along the gradient ray
        push = g / gn[:, None] * np.maximum(2.0 * step, 1e-6)[:, None]
        inside_pt = np.where(S.contains(cand - push)[:, None], cand - push, y)
        cand = bisect_boundary(S.contains, inside_pt, cand + push, iters=50)
        dist = np.sqrt(_row_sq(X[live] - cand))
        better = dist < best[live] - 1e-15
        live = live[better]
        best[live], Y[live] = dist[better], cand[better]
        if len(live) == 0:
            break
    return best
