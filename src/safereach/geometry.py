"""State-space sets, distances, tangent-cone probes, and nonsmooth differentials.

Sets are symbolic (:class:`SetSpec`) and support distance queries everywhere.
Ball/box/halfspace/points distances are closed-form; sublevel sets and boolean
intersections fall back to a projection estimate (grid seeding plus boundary
bisection and a tangential polish), and such sets report ``exactness() ==
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

    def contains(self, x, tol: float = _MEMBER_TOL) -> bool:
        x = np.asarray(x, dtype=float)
        if self.kind == "ball":
            return float(np.linalg.norm(x - self.center)) <= self.radius + tol
        if self.kind == "box":
            return bool(np.all(x >= self.lo - tol) and np.all(x <= self.hi + tol))
        if self.kind == "halfspace":
            return float(self.normal @ x) >= self.offset - tol * np.linalg.norm(self.normal)
        if self.kind == "points":
            return float(np.min(np.linalg.norm(self.pts - x, axis=1))) <= tol
        if self.kind == "sublevel":
            return float(self.fn(x[None, :])[0]) <= self.level + tol
        if self.kind == "complement":
            # closed complement: boundary points belong to both
            return not self.members[0].contains(x, tol=-tol)
        if self.kind == "union":
            return any(m.contains(x, tol) for m in self.members)
        if self.kind == "intersection":
            return all(m.contains(x, tol) for m in self.members)
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
        keep = np.array([self.contains(c) for c in cand])
        picked = cand[keep][:count]
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
            return self._box_boundary(count, seed)
        if self.kind == "points":
            return self.sample_interior(count, seed)
        # generic: bisect between interior and exterior seeds
        lo, hi = self._sampling_window(window)
        cand = sampling.box_points(lo, hi, max(count * 16, 512), seed=seed)
        inside = [c for c in cand if self.contains(c)]
        outside = [c for c in cand if not self.contains(c)]
        if not inside or not outside:
            raise GeometryError("boundary sampling needs interior and exterior seeds")
        out = []
        for i in range(count):
            a = np.asarray(inside[i % len(inside)])
            b = np.asarray(outside[(i * 7 + 3) % len(outside)])
            out.append(_bisect_boundary(self, a, b))
        return np.asarray(out)

    def _box_boundary(self, count, seed):
        faces = []
        u = sampling.box_points(self.lo, self.hi, count, seed=seed)
        for i in range(count):
            p = u[i].copy()
            axis = i % self.dim
            p[axis] = self.lo[axis] if (i // self.dim) % 2 == 0 else self.hi[axis]
            faces.append(p)
        return np.asarray(faces)

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
    """Euclidean distance from x to S (upper estimate for estimated variants)."""
    x = np.asarray(x, dtype=float)
    if not np.all(np.isfinite(x)):
        raise GeometryError("distance query at non-finite point")
    return float(_distance(x[None, :], S)[0])


def distance_to_set_many(X, S: SetSpec) -> np.ndarray:
    """Vectorized distance for an (m, n) array of query points."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    return _distance(X, S)


def _distance(X: np.ndarray, S: SetSpec) -> np.ndarray:
    if S.kind == "ball":
        return np.maximum(np.sqrt(_row_sq(X - S.center)) - S.radius, 0.0)
    if S.kind == "box":
        return np.sqrt(_row_sq(X - np.clip(X, S.lo, S.hi)))
    if S.kind == "halfspace":
        nn = np.linalg.norm(S.normal)
        return np.maximum(S.offset - _row_dot(X, S.normal), 0.0) / nn
    if S.kind == "points":
        return np.sqrt(_row_sq(X[:, None, :] - S.pts[None, :, :]).min(axis=1))
    if S.kind == "union":
        return np.min([_distance(X, m) for m in S.members], axis=0)
    if S.kind == "complement":
        return _complement_distance(X, S.members[0])
    if S.kind == "sublevel":
        return np.array([_sublevel_distance(x, S) for x in X])
    if S.kind == "intersection":
        return np.array([_intersection_distance(x, S) for x in X])
    raise GeometryError(f"unknown set kind {S.kind}")


def _row_dot(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    # column by column, not a BLAS product: BLAS rounds a single row unlike
    # the same row in a batch, and a distance must not depend on its batch
    out = X[:, 0] * v[0]
    for j in range(1, len(v)):
        out = out + X[:, j] * v[j]
    return out


def _row_sq(D: np.ndarray) -> np.ndarray:
    # squared norms over the last axis, column by column like _row_dot
    return sum(D[..., j] * D[..., j] for j in range(D.shape[-1]))


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
    if inner.kind == "complement":
        return _distance(X, inner.members[0])
    # complement of union/intersection/sublevel: per-point estimate seeded by
    # an expanding ring search for a member of the complement, refined by
    # bisecting to the boundary
    comp = SetSpec("complement", inner.dim, members=(inner,))
    return np.array([_ring_search_distance(x, comp, inner) for x in X])


def _ring_search_distance(x: np.ndarray, comp: SetSpec, inner: SetSpec) -> float:
    if comp.contains(x):
        return 0.0
    box = inner.bounding_box()
    scale = 1.0 if box is None else float(np.max(box[1] - box[0])) or 1.0
    for radius in scale * 2.0 ** np.arange(-6.0, 6.0):
        ring = x + radius * sampling.sphere_directions(len(x), 64, seed=1)
        outside = [p for p in ring if comp.contains(p)]
        if outside:
            best = min((np.linalg.norm(x - _bisect_boundary(comp, p, x)) for p in outside))
            return float(best)
    raise GeometryError("could not find the complement within the search range")


def _sublevel_distance(x: np.ndarray, S: SetSpec) -> float:
    if S.contains(x):
        return 0.0
    lo, hi = S.window
    grid = sampling.grid_points(lo, hi, S.grid)
    vals = np.asarray(S.fn(grid))
    members = grid[vals <= S.level]
    if len(members) == 0:
        raise EmptySetError(f"no member of sublevel set found on its {S.grid}^n grid")
    d2 = ((members - x) ** 2).sum(axis=1)
    best = members[int(np.argmin(d2))]
    y = _bisect_boundary(S, best, x)
    return _polish_to_boundary(S, x, y)


def _project(y: np.ndarray, S: SetSpec) -> Optional[np.ndarray]:
    """Closed-form Euclidean projection for the convex exact variants."""
    if S.kind == "ball":
        d = y - S.center
        n = np.linalg.norm(d)
        if n <= S.radius:
            return y
        return S.center + d * (S.radius / n)
    if S.kind == "box":
        return np.clip(y, S.lo, S.hi)
    if S.kind == "halfspace":
        slack = S.normal @ y - S.offset
        if slack >= 0:
            return y
        return y - slack * S.normal / (S.normal @ S.normal)
    return None


def _intersection_distance(x: np.ndarray, S: SetSpec) -> float:
    if S.contains(x):
        return 0.0
    # convex exact members: alternating projections land in the intersection,
    # giving a certified upper estimate (exact when one member binds)
    if all(_project(x, m) is not None for m in S.members):
        y = x.copy()
        for _ in range(256):
            moved = 0.0
            for m in S.members:
                z = _project(y, m)
                moved = max(moved, float(np.linalg.norm(z - y)))
                y = z
            if moved <= 1e-14:
                break
        if S.contains(y, tol=1e-9):
            return float(np.linalg.norm(x - y))
    box = S.bounding_box()
    if box is None:
        raise GeometryError("intersection distance needs a bounded member or window")
    lo, hi = box
    grid = sampling.grid_points(np.asarray(lo, dtype=float), np.asarray(hi, dtype=float), S.grid)
    keep = np.array([S.contains(g) for g in grid])
    members = grid[keep]
    if len(members) == 0:
        raise EmptySetError("no member of intersection found on its grid")
    d2 = ((members - x) ** 2).sum(axis=1)
    best = members[int(np.argmin(d2))]
    y = _bisect_boundary(S, best, x)
    return float(np.linalg.norm(x - y))


def _bisect_boundary(S: SetSpec, inside: np.ndarray, outside: np.ndarray,
                     iters: int = 60) -> np.ndarray:
    a, b = np.asarray(inside, dtype=float), np.asarray(outside, dtype=float)
    for _ in range(iters):
        mid = 0.5 * (a + b)
        if S.contains(mid):
            a = mid
        else:
            b = mid
    return a


def _polish_to_boundary(S: SetSpec, x: np.ndarray, y: np.ndarray,
                        iters: int = 25) -> float:
    """Tangential descent of |x - y| along the boundary of a sublevel set."""
    best = float(np.linalg.norm(x - y))
    h = max(1e-7, 1e-7 * best)
    for _ in range(iters):
        g = _fd_gradient(lambda p: S.fn(p[None, :])[0], y, h)
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        tangent = (x - y) - ((x - y) @ g) * g / gn**2
        tn = np.linalg.norm(tangent)
        if tn < 1e-14:
            break
        step = min(0.5 * best, tn)
        cand = y + tangent / tn * step
        # pull the candidate back onto the boundary along the gradient ray
        inside_pt = cand - g / gn * max(2.0 * step, 1e-6)
        if not S.contains(inside_pt):
            inside_pt = y
        cand = _bisect_boundary(S, inside_pt, cand + g / gn * max(2.0 * step, 1e-6), iters=50)
        d = float(np.linalg.norm(x - cand))
        if d < best - 1e-15:
            best, y = d, cand
        else:
            break
    return best


def _fd_gradient(fn, x: np.ndarray, h: float) -> np.ndarray:
    g = np.zeros_like(x, dtype=float)
    for i in range(len(x)):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (fn(x + e) - fn(x - e)) / (2.0 * h)
    return g


# ---------------------------------------------------------------------------
# Hausdorff distance
# ---------------------------------------------------------------------------

def hausdorff_distance(A, B) -> float:
    """Max of the two directed sup-inf distances between finite point clouds."""
    A = _as_cloud(A)
    B = _as_cloud(B)
    if len(A) == 0 or len(B) == 0:
        raise GeometryError("empty set")
    d2 = ((A[:, None, :] - B[None, :, :]) ** 2).sum(axis=2)
    d = np.sqrt(d2)
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
    if probe.mode in ("contingent", "clarke-tangent"):
        if distance_to_set(x, S) > tol:
            raise GeometryError("base point not in set")
        quotients = [distance_to_set(x + h * v, S) / h for h in probe.steps]
        if probe.mode == "contingent":
            return float(min(quotients))
        # clarke-tangent: also probe from perturbed base points (limsup over y -> x)
        worst = min(quotients)
        for h in probe.steps[-3:]:
            for dy in (h * 10.0,):
                for sgn in (1.0, -1.0):
                    y = x + sgn * dy * _unit_perp(v)
                    if distance_to_set(y, S) <= tol + dy:
                        worst = max(worst, min(
                            distance_to_set(y + hh * v, S) / hh for hh in probe.steps))
        return float(worst)
    base = distance_to_set(x, S)
    return float(min((distance_to_set(x + h * v, S) - base) / h for h in probe.steps))


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

def clarke_gradient_sample(B, x, radius: float, m: int = 0, fd_step: float = 1e-7,
                           seed: int = 0) -> np.ndarray:
    """Finite-difference gradient estimates near x, a generator set for the
    Clarke gradient hull.

    B is a batch handle on R^n, mapping points P (k, n) to k values; it is
    called once, on all m * 2n probes.  Gradients are taken at m
    low-discrepancy points in the radius-ball around x; a linear test
    functional's max over the hull equals its max over these generators.
    """
    x = np.asarray(x, dtype=float)
    n = len(x)
    if m <= 0:
        m = 2 * n + 1
    if m < 2 * n + 1:
        raise GeometryError("need m >= 2n+1 gradient samples")
    if radius <= 0 or fd_step <= 0:
        raise GeometryError("radius and fd_step must be positive")
    pts = np.vstack([x, sampling.ball_points(x, radius, m - 1, seed=seed)])
    step = fd_step * np.eye(n)
    probes = np.stack([pts[:, None, :] + step, pts[:, None, :] - step])
    hi, lo = np.asarray(B(probes.reshape(-1, n)), dtype=float).reshape(2, m, n)
    bad = ~(np.isfinite(hi) & np.isfinite(lo)).all(axis=1)
    if bad.any():
        raise GeometryError(f"non-finite value near sample {pts[np.argmax(bad)]}")
    return (hi - lo) / (2.0 * fd_step)


@dataclass(frozen=True)
class SubgradientCandidate:
    """Candidate proximal subgradient zeta of B at x with curvature bound eps."""

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

    B is a batch handle, called once on x and all of its samples."""
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
    margins = vals[1:] - vals[0] - d @ zeta + cand.eps * np.einsum("ij,ij->i", d, d)
    worst = float(margins.min())
    return {"holds": worst >= -tol, "worst_margin": worst}
