"""Set-valued right-hand sides, selections, and the built-in example systems.

An :class:`InclusionSpec` is a singleton field, a ball-perturbed field
f(x) + eps*B, or the convex hull of finitely many fields.  Solutions of the
inclusion are generated through :class:`Selector` objects picking a concrete
velocity out of F(x) at every time (``solver.bundle_field``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import sampling
from .expr import compile_expression
from .geometry import SetSpec


# boundary points of a ball in the vertex cloud of inclusion_extreme_points
EXTREME_DIRECTIONS = 16


class DynamicsError(ValueError):
    pass


@dataclass(frozen=True)
class FieldHandle:
    """Evaluable vector field, vectorized over leading axes of x.  fn maps a
    float array to a float array of its shape: a new one, its input or a view
    of it.  Sweeps call fn (``solver.bundle_field``); calling the handle is
    the guarded entry, coercing x and checking every value's shape and
    finiteness.  A linear field may declare its finite (dim, dim) matrix A,
    with fn(x) == x @ A.T up to rounding: a sweep then takes RK4's affine
    step in place of calling fn (``solver.bundle_step``).  The declaration
    is checked once, on the unit vectors: fn(I) must equal A.T exactly, as
    it does for :func:`linear_field`, whose fn is its matrix's."""

    fn: Callable
    dim: int
    name: str = "field"
    matrix: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        if self.matrix is not None:
            A = np.asarray(self.matrix, dtype=float)
            if A.shape != (self.dim, self.dim) or not np.isfinite(A).all():
                raise DynamicsError(f"field '{self.name}' needs a finite ({self.dim}, "
                                    f"{self.dim}) matrix, got shape {A.shape}")
            if not np.array_equal(self.fn(np.eye(self.dim)), A.T):
                raise DynamicsError(f"field '{self.name}' does not equal its declared "
                                    f"matrix: fn(e_j) must be column j of the matrix")

    def __call__(self, x):
        x = np.asarray(x, dtype=float)
        out = np.asarray(self.fn(x), dtype=float)
        self.check_shape(out, x)
        if not np.isfinite(out).all():
            raise DynamicsError(f"field '{self.name}' returned non-finite values")
        return out

    def check_shape(self, out, x: np.ndarray) -> None:
        """Refuse a value out of fn whose shape is not its input's, naming both."""
        if np.shape(out) != x.shape:
            raise DynamicsError(f"field '{self.name}' returned shape {np.shape(out)} "
                                f"for input {x.shape}")


def field_from_expressions(exprs: Sequence[str], name: str = "user") -> FieldHandle:
    """Build a field from one arithmetic expression per component over x1..xn."""
    n = len(exprs)
    variables = tuple(f"x{i + 1}" for i in range(n))
    comps = [compile_expression(e, variables) for e in exprs]

    def fn(x):
        return np.stack([c(x) for c in comps], axis=-1)

    return FieldHandle(fn, n, name=name)


def rows_times(P: list, X: np.ndarray, out: np.ndarray) -> np.ndarray:
    """P x into out for every row x of X (..., n), P given as nested lists:
    component i is P[i][0] x_0 + P[i][1] x_1 + ..., summed in that order
    from elementwise products, not a BLAS product, which rounds a row alone
    unlike the same row in a batch."""
    for i, row in enumerate(P):
        o = out[..., i]
        np.multiply(X[..., 0], row[0], out=o)
        for j in range(1, len(row)):
            np.add(o, X[..., j] * row[j], out=o)
    return out


def linear_field(A, name: str) -> FieldHandle:
    """The field x -> A x, declaring its matrix A (n, n), which
    ``FieldHandle`` checks: fn is :func:`rows_times` of A, so a value does
    not depend on its batch."""
    A = np.asarray(A, dtype=float)
    P = A.tolist()
    return FieldHandle(lambda x: rows_times(P, x, np.empty(x.shape)), len(A) if A.ndim else 0,
                       name, A)


# ---------------------------------------------------------------------------
# built-in systems
# ---------------------------------------------------------------------------

LINEAR_SAFE_A = np.array([[-1.0, -10.0], [1.0, 0.0]])
_ORIGIN_GUARD = 1e-12


def _counterexample2d(x):
    # planar system with limit cycles at every radius 1/(k*pi); the radial
    # rate is (r^2/2) sin^2(1/r) and the angular rate is 1.  Column by
    # column, each written straight into out: ((0.5 r) x1) s - x2 is
    # -x2 + ((0.5 r) x1) s by the IEEE definition of subtraction, while a
    # reordered 0.5 * r * s * x1 would round differently.  The origin mask
    # is built only when some radius is below the guard (or NaN); the rows
    # it zeroes are the only ones where max(r, guard) is not r
    x1, x2 = x[..., 0], x[..., 1]
    r = np.sqrt(x1 * x1 + x2 * x2)
    origin = None if r.min(initial=np.inf) >= _ORIGIN_GUARD else r < _ORIGIN_GUARD
    s = np.sin(1.0 / (r if origin is None else np.maximum(r, _ORIGIN_GUARD))) ** 2
    hr = 0.5 * r
    out = np.empty(x.shape)
    np.subtract(hr * x1 * s, x2, out=out[..., 0])
    np.add(x1, hr * x2 * s, out=out[..., 1])
    if origin is not None:
        out[origin] = 0.0
    return out


def _counterexample_radial(x):
    r = x[..., 0:1]
    safe_r = np.where(np.abs(r) < _ORIGIN_GUARD, 1.0, r)
    out = 0.5 * r**2 * np.sin(1.0 / safe_r) ** 2
    return np.where(np.abs(r) < _ORIGIN_GUARD, 0.0, out)


_BUILTINS = {
    "counterexample2d": lambda: FieldHandle(_counterexample2d, 2, "counterexample2d"),
    "counterexample_radial": lambda: FieldHandle(_counterexample_radial, 1,
                                                 "counterexample_radial"),
    "linear_safe": lambda: linear_field(LINEAR_SAFE_A, "linear_safe"),
}


def builtin_field(name: str) -> FieldHandle:
    try:
        return _BUILTINS[name]()
    except KeyError:
        raise DynamicsError(f"unknown builtin field '{name}'") from None


# ---------------------------------------------------------------------------
# inclusions and selections
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InclusionSpec:
    """Right-hand side F of the inclusion dx/dt in F(x)."""

    kind: str                       # singleton | ball | hull
    fields: tuple
    dim: int
    epsilon: float = 0.0
    name: str = ""

    @staticmethod
    def singleton(f: FieldHandle, name: str = "") -> "InclusionSpec":
        return InclusionSpec("singleton", (f,), f.dim, name=name or f.name)

    @staticmethod
    def ball_perturbed(f: FieldHandle, epsilon: float, name: str = "") -> "InclusionSpec":
        if epsilon < 0:
            raise DynamicsError("epsilon must be nonnegative")
        return InclusionSpec("ball", (f,), f.dim, epsilon=float(epsilon),
                             name=name or f"{f.name}+{epsilon}B")

    @staticmethod
    def hull(fields: Sequence[FieldHandle], name: str = "") -> "InclusionSpec":
        fields = tuple(fields)
        if not fields:
            raise DynamicsError("hull needs at least one field")
        if len({f.dim for f in fields}) != 1:
            raise DynamicsError("hull fields must share the state dimension")
        return InclusionSpec("hull", fields, fields[0].dim, name=name or "hull")

    @property
    def base_field(self) -> FieldHandle:
        return self.fields[0]


def eval_inclusion(F: InclusionSpec, X) -> np.ndarray:
    """The (k, p, n) vertices of F at every row of X (k, n), one call per
    field: one per field of a singleton or hull; for a ball, its center f at
    [..., 0, :] (the radius is F.epsilon)."""
    X = np.asarray(X, dtype=float)
    if not np.all(np.isfinite(X)):
        raise DynamicsError("eval_inclusion at non-finite point")
    return np.stack([f(X) for f in F.fields], axis=-2)


def inclusion_extreme_points(F: InclusionSpec, X, seed: int = 0) -> np.ndarray:
    """Finite vertex cloud (k, p, n) approximating F at every row of X (k, n)
    (exact for singleton/hull; a ball's EXTREME_DIRECTIONS boundary points)."""
    V = eval_inclusion(F, X)
    if F.kind != "ball" or F.epsilon == 0.0:
        return V
    dirs = sampling.sphere_directions(F.dim, EXTREME_DIRECTIONS, seed=seed)
    return V[..., 0, None, :] + F.epsilon * dirs


def max_rate(F: InclusionSpec, X, Z):
    """Max over eta in F(x) of <zeta, (1, eta)>, and an eta attaining it.

    X is (k, n), Z (k, z, n + 1) with zeta_t first; returns (k, z) maxima and
    (k, z, n) etas.  A ball adds eps |zeta_x|, attained at f + eps zeta_x /
    |zeta_x| (at f if zeta_x = 0); a hull takes its first largest vertex.  One
    call per field; np.vecdot rounds each row like a 1-D `@`, whatever the batch.
    """
    Z = np.asarray(Z, dtype=float)
    zt, zx = Z[..., 0], Z[..., 1:]
    V = eval_inclusion(F, X)                                   # (k, p, n)
    rates = zt[..., None] + np.vecdot(zx[:, :, None, :], V[:, None, :, :])
    if F.kind == "ball":
        norm = np.sqrt(np.vecdot(zx, zx))[..., None]
        f = V[:, None, 0, :]
        eta = np.where(norm > 0.0, f + F.epsilon * (zx / np.where(norm > 0.0, norm, 1.0)), f)
        return rates[..., 0] + F.epsilon * norm[..., 0], eta
    best = rates.argmax(axis=-1)
    return rates.max(axis=-1), V[np.arange(len(V))[:, None], best]


@dataclass(frozen=True)
class Selector:
    """Selection rule picking an element of F(x) at each time.

    constant: a fixed unit direction (ball variant) or hull weight vector;
    piecewise: increasing switch times with one direction per segment.
    """

    kind: str                         # constant | piecewise
    direction: Optional[np.ndarray] = None
    switch_times: Optional[np.ndarray] = None
    directions: Optional[np.ndarray] = None
    index: int = 0

    @staticmethod
    def constant(direction=None, index: int = 0) -> "Selector":
        d = None if direction is None else np.asarray(direction, dtype=float)
        return Selector("constant", direction=d, index=index)

    @staticmethod
    def piecewise(switch_times, directions, index: int = 0) -> "Selector":
        st = np.asarray(switch_times, dtype=float)
        ds = np.asarray(directions, dtype=float)
        if np.any(np.diff(st) <= 0):
            raise DynamicsError("switch times must be strictly increasing")
        if len(ds) != len(st) + 1:
            raise DynamicsError("need one direction per segment (switches + 1)")
        return Selector("piecewise", switch_times=st, directions=ds, index=index)


def _validate_direction(F: InclusionSpec, d: Optional[np.ndarray]) -> None:
    if F.kind == "singleton":
        return
    if d is None:
        raise DynamicsError(f"{F.kind} inclusion needs a selector direction")
    if F.kind == "ball":
        if abs(np.linalg.norm(d) - 1.0) > 1e-9:
            raise DynamicsError("ball selector direction must be a unit vector")
    else:
        if np.any(d < -1e-12) or abs(d.sum() - 1.0) > 1e-9 or len(d) != len(F.fields):
            raise DynamicsError("hull selector weights must be nonnegative and sum to 1")


def selector_table(F: InclusionSpec, sels: Sequence[Selector]):
    """Validated directions of sels on their shared switch grid.

    Returns (switch_times, D) with D[q, j] the direction selector j uses on
    segment q of the grid; constant selectors repeat theirs on every
    segment.  D is None for a singleton inclusion, which ignores selectors.
    """
    grids = {tuple(s.switch_times) for s in sels if s.kind == "piecewise"}
    if len(grids) > 1:
        raise DynamicsError("piecewise selectors of one table must share their switch times")
    switch_times = np.array(grids.pop() if grids else (), dtype=float)
    if F.kind == "singleton":
        return switch_times, None
    for s in sels:
        for d in ([s.direction] if s.kind == "constant" else s.directions):
            _validate_direction(F, d)
    segs = len(switch_times) + 1
    D = np.stack([np.tile(s.direction, (segs, 1)) if s.kind == "constant"
                  else s.directions for s in sels], axis=1)
    return switch_times, D


def rescale_field(f: FieldHandle, V: Callable) -> FieldHandle:
    """x -> f(x) * V(x)/(1+V(x)); vanishes exactly where V vanishes.

    V must be nonnegative and locally Lipschitz; the factor is < 1 everywhere
    so the rescaled field never exceeds f in norm.
    """

    def fn(x):
        v = np.asarray(V(x), dtype=float).reshape(x.shape[:-1])
        if np.any(v < 0):
            raise DynamicsError("rescale_field requires V >= 0")
        return f.fn(x) * (v / (1.0 + v))[..., None]

    return FieldHandle(fn, f.dim, name=f"{f.name}*V/(1+V)")


def lipschitz_estimate(F: InclusionSpec, box: SetSpec, grid: int = 9) -> float:
    """Max over grid pairs of d_H(F(x), F(y)) / |x - y| on the given box."""
    if box.kind != "box":
        raise DynamicsError("lipschitz_estimate expects a box set")
    if grid < 2:
        raise DynamicsError("need at least 2 grid points per axis")
    pts = sampling.grid_points(box.lo, box.hi, grid)
    # F(x) as its vertex set (P, p, n); the ball radius cancels in d_H
    V = eval_inclusion(F, pts)
    d = np.linalg.norm(V[:, None, :, None, :] - V[None, :, None, :, :], axis=-1)
    d_H = np.maximum(d.min(axis=3).max(axis=2), d.min(axis=2).max(axis=2))
    sep = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
    mask = sep > 1e-12
    return float((d_H[mask] / sep[mask]).max(initial=0.0))
