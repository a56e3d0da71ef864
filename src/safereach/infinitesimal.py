"""Infinitesimal conditions: tangent-cone probes, nonsmooth differentials,
and the checks that rest on them.

Cone membership is probed with finite difference quotients of the distance
function along a decreasing step sequence, a computable surrogate for the
liminf in the contingent / external-cone definitions.  Clarke gradients are
sampled by finite differences around each base point, and a proximal
subgradient candidate is tested on ball samples.  The checks:
:func:`infinitesimal_check`, the decrease condition <zeta, (1, eta)> <= g(B)
over sampled (t, x) points of a region; :func:`nagumo_check`, Nagumo's
tangent-cone test of invariance; and :func:`prop1_check`, Proposition 1's
sign and Clarke decrease conditions of conditional invariance.

Only the ``infinitesimal``, ``nagumo`` and ``prop1`` checks of the command
line load this module.  Checks are one-sided numerical evidence.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from . import sampling
from .barrier import BarrierError, BarrierFn, CheckReport
from .dynamics import InclusionSpec, inclusion_extreme_points, max_rate
from .expr import RelaxFn
from .geometry import (GeometryError, SetSpec, bisect_boundary, central_gradients,
                       distance_to_set_many, row_dot)

DEFAULT_CONE_TOL = 1e-6
CONE_STEPS = np.array([10.0 ** -i for i in range(1, 7)])  # the steps h of the quotients
_PROX_TOL = 1e-9        # a proximal margin >= -_PROX_TOL holds
CLARKE_RADIUS = 1e-4    # radius of the Clarke gradient samples around (t, x)
FD_STEP = 1e-6          # step of the infinitesimal check's finite differences
BOUNDARY_WIDTH = 1e-3   # |B| <= this is the boundary region when no width is given
NAGUMO_DEFAULT_TOL = 1e-5   # absorbs curvature x min-step plus distance noise
NAGUMO_SHELL_WIDTH = 1e-3   # width of nagumo_check's exterior shell
PROP1_CLARKE_RADIUS = 1e-6  # radius of prop1_check's Clarke gradient samples
PROP1_FD_STEP = 1e-7        # step of their finite differences
PROP1_TOL = 1e-7            # prop1_check passes when its worst margin is at most this


# ---------------------------------------------------------------------------
# cone probes
# ---------------------------------------------------------------------------

def cone_residual(X, V, S: SetSpec, mode: str = "contingent",
                  tol: float = DEFAULT_CONE_TOL) -> np.ndarray:
    """Admission residuals (k,) of directions V at points X, both (k, n) or
    (n,) for one probe, in the tangent cone of S: <= tol means the direction
    is admitted by the cone.

    contingent: min_h |x + h v|_S / h, requiring x in S (within tol);
    external:   min_h (|x + h v|_S - |x|_S) / h,
    h over CONE_STEPS.  Every base point and step point of the batch goes
    into one distance call.
    """
    if mode not in ("contingent", "external"):
        raise GeometryError(f"unknown cone mode {mode}")
    X = np.atleast_2d(np.asarray(X, dtype=float))
    V = np.atleast_2d(np.asarray(V, dtype=float))
    k, n = X.shape
    d = distance_to_set_many(np.concatenate(
        [X, (X[:, None, :] + CONE_STEPS[:, None] * V[:, None, :]).reshape(-1, n)]), S)
    d0, ds = d[:k], d[k:].reshape(k, len(CONE_STEPS))
    if mode == "external":
        return ((ds - d0[:, None]) / CONE_STEPS).min(axis=1)
    if (d0 > tol).any():
        raise GeometryError(f"base point {X[np.argmax(d0 > tol)].tolist()} not in set")
    return (ds / CONE_STEPS).min(axis=1)


# ---------------------------------------------------------------------------
# Clarke generalized gradient sampling, proximal subgradient test
# ---------------------------------------------------------------------------

def clarke_gradient_sample(B, X, radius: float, fd_step: float = 1e-7,
                           seed: int = 0) -> np.ndarray:
    """Finite-difference gradient estimates near each base point of X, (n,)
    or (k, n), generator sets for the Clarke gradient hulls: (m, n) or
    (k, m, n) with m = 2n + 1.

    B is a batch handle on R^n, mapping points P (k, n) to k values; it is
    called once, on all m * 2n probes of every base.  Gradients are taken at
    the base and 2n low-discrepancy points in the radius-ball around it; a
    linear test functional's max over the hull equals its max over these.
    """
    X = np.asarray(X, dtype=float)
    n = X.shape[-1]
    if radius <= 0 or fd_step <= 0:
        raise GeometryError("radius and fd_step must be positive")
    # ball_points(x, ...) is x plus offsets that do not depend on x
    offsets = sampling.ball_points(np.zeros(n), radius, 2 * n, seed=seed)
    pts = np.concatenate([X[..., None, :], X[..., None, :] + offsets], axis=-2).reshape(-1, n)
    grads = central_gradients(B, pts, fd_step)
    bad = ~np.isfinite(grads).all(axis=1)
    if bad.any():
        raise GeometryError(f"non-finite value near sample {pts[np.argmax(bad)]}")
    return grads.reshape(X.shape[:-1] + (2 * n + 1, n))


def proximal_subgradient_test(X, zeta, B, radius: float, eps: float = 0.0, m: int = 64,
                              seed: int = 0) -> dict:
    """Check B(y) >= B(x) + <zeta, y-x> - eps |y-x|^2 on m samples of the
    radius-ball around each base, for candidate proximal subgradients zeta
    (k, z, n) of B at bases X (k, n) with curvature bound eps.

    B is a batch handle, called once on every base and all of its samples.
    "holds" and "worst_margin" are (k, z) arrays; a zeta's margins do not
    depend on the others."""
    if radius <= 0:
        raise GeometryError("radius must be positive")
    if eps < 0:
        raise GeometryError("eps must be nonnegative")
    if m < 10:
        raise GeometryError("need m >= 10 test points")
    X, zeta = np.asarray(X, dtype=float), np.asarray(zeta, dtype=float)
    k, n = X.shape
    # ball_points(x, ...) is x plus offsets that do not depend on x; the
    # boundary probes along +-coordinate axes are where violations peak
    offsets = np.vstack([sampling.ball_points(np.zeros(n), radius, m, seed=seed),
                         np.vstack([np.eye(n), -np.eye(n)]) * radius])
    pts = X[:, None, :] + offsets
    vals = np.asarray(B(np.concatenate([X[:, None, :], pts], axis=1).reshape(-1, n)),
                      dtype=float).reshape(k, -1)
    d = pts - X[:, None, :]
    margins = ((vals[:, 1:] - vals[:, :1])[:, :, None]
               - row_dot(d[:, :, None, :], zeta[:, None, :, :])
               + eps * np.einsum("kij,kij->ki", d, d)[:, :, None])
    worst = margins.min(axis=1)
    return {"holds": worst >= -_PROX_TOL, "worst_margin": worst}


# ---------------------------------------------------------------------------
# infinitesimal decrease checks
# ---------------------------------------------------------------------------

def _region_samples(B: BarrierFn, kind: str, width, t_grid, window, count, seed):
    """Sample (t, x) pairs in the region kind of the (t, x) space: everywhere,
    the margin 0 < B <= width, or the boundary |B| <= width; a margin
    without a width holds the per_t smallest positive values at its t, so
    it keeps a sample whenever some value is positive."""
    t_grid = np.asarray(t_grid, dtype=float)
    if len(t_grid) == 0:
        return []
    lo, hi = window
    per_t = max(count // len(t_grid), 8)
    pool_x = sampling.box_points(lo, hi, per_t * 4, seed=seed)
    # one t-major batch over t-grid x pool
    vals_t = B.evaluate_many(np.repeat(t_grid, len(pool_x)),
                             np.tile(pool_x, (len(t_grid), 1))).value.reshape(len(t_grid), -1)
    picked = []
    for t, vals in zip(t_grid, vals_t):
        if kind == "everywhere":
            keep = np.ones(len(pool_x), dtype=bool)
        elif kind == "margin_band":
            keep = vals > 0.0
            if keep.any():      # with no value positive, no width keeps one
                keep &= vals <= (width if width is not None
                                 else np.sort(vals[keep])[:per_t][-1])
        elif kind == "boundary":
            keep = np.abs(vals) <= width
            if not keep.any():
                picked.extend(_bisect_zero_level(B, float(t), pool_x, vals, per_t))
                continue
        else:
            raise BarrierError(f"unknown region '{kind}'")
        pts = pool_x[keep][:per_t]
        picked.extend((float(t), p) for p in pts)
    return picked[:count] if count else picked


def _bisect_zero_level(B: BarrierFn, t: float, pool: np.ndarray,
                       vals: np.ndarray, count: int):
    """Bisect count pool pairs straddling the zero level at t, all together;
    returns the ends where B > 0."""
    neg, pos = pool[vals <= 0.0], pool[vals > 0.0]
    if len(neg) == 0 or len(pos) == 0:
        return []
    i = np.arange(count)
    ends = bisect_boundary(lambda P: B.evaluate_many(np.full(count, t), P).value > 0.0,
                           pos[(3 * i + 1) % len(pos)], neg[i % len(neg)])
    return [(t, p) for p in ends]


def infinitesimal_check(B: BarrierFn, F: InclusionSpec, mode: str = "smooth",
                        region="everywhere", g: RelaxFn = None,
                        t_grid=(0.0,), window=None, count: int = 200,
                        seed: int = 0, tol: float = 1e-7) -> CheckReport:
    """Decrease condition <zeta, (1, eta)> <= g(B) over sampled region points.

    mode smooth: zeta is the finite-difference gradient of B;
    mode clarke: zeta ranges over Clarke gradient samples around (t, x);
    mode proximal: zeta ranges over candidates that pass the proximal
    subgradient inequality (an empty candidate set passes vacuously).
    Each zeta is tested against its exact maximum over eta in F(x)
    (:func:`~safereach.dynamics.max_rate`); samples counts the zetas.
    """
    if g is None:
        g = RelaxFn.zero()
    if window is None:
        raise BarrierError("infinitesimal_check needs a sampling window")
    lo, hi = np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float)
    kind, width = (region, None) if isinstance(region, str) else region
    if kind == "boundary" and width is None:
        width = BOUNDARY_WIDTH
    pairs = _region_samples(B, kind, width, t_grid, (lo, hi), count, seed)
    if not pairs:
        return CheckReport(f"infinitesimal_{mode}", 0, 0.0, {}, "inconclusive",
                           details={"reason": "region empty after sampling"})
    ts, X = np.array([t for t, _ in pairs]), np.array([x for _, x in pairs])
    Z, keep = _zeta_candidates(B, mode, ts, X, seed)
    gbs = np.asarray(g(B.evaluate_many(ts, X).value), dtype=float)
    if not keep.any():
        return CheckReport(f"infinitesimal_{mode}", 0, 0.0, {}, "inconclusive",
                           details={"reason": "no subgradient candidates"})
    rates, etas = max_rate(F, X, Z)
    margins = np.where(keep, rates - gbs[:, None], -np.inf)
    i, j = np.unravel_index(np.argmax(margins), margins.shape)
    worst = float(margins[i, j])
    witness = {"t": float(ts[i]), "x": X[i].tolist(), "eta": etas[i, j].tolist(),
               "zeta": Z[i, j].tolist()}
    # a (kind, width) region is reported with the width it used
    text = str(region if isinstance(region, str) else (kind, width))
    return CheckReport(f"infinitesimal_{mode}", int(keep.sum()), worst, witness,
                       "pass" if worst <= tol else "fail",
                       details={"relaxation": g.kind, "region": text})


def _zeta_candidates(B: BarrierFn, mode: str, ts: np.ndarray, X: np.ndarray, seed: int):
    """Candidate zetas (k, z, n + 1) of the k pairs, and a (k, z) mask of those to test."""
    prox_radius = 1e-3
    handle = lambda U: B.evaluate_many(U[:, 0], U[:, 1:]).value
    if mode == "smooth":
        # every quotient at one point (max(t, FD_STEP), x): no probe at t < 0
        TX = np.column_stack([np.maximum(ts, FD_STEP), X])
        return central_gradients(handle, TX, FD_STEP)[:, None], np.ones((len(ts), 1), dtype=bool)
    if mode not in ("clarke", "proximal"):
        raise BarrierError(f"unknown mode '{mode}'")
    # base times keep every probe of the Clarke (and proximal) ball at t >= 0
    floor = (max(CLARKE_RADIUS, prox_radius) if mode == "proximal" else CLARKE_RADIUS) + FD_STEP
    TX = np.column_stack([np.maximum(ts, floor), X])
    grads = clarke_gradient_sample(handle, TX, radius=CLARKE_RADIUS, fd_step=FD_STEP, seed=seed)
    if mode == "clarke":
        return grads, np.ones(grads.shape[:2], dtype=bool)
    # each margin is nondecreasing in eps, so the curvature bound 100 accepts
    # every zeta that a smaller one would; one test on every pair and its zetas
    keep = proximal_subgradient_test(TX, grads, handle, prox_radius, 100.0, m=24, seed=seed)
    return grads, keep["holds"]


# ---------------------------------------------------------------------------
# Nagumo: invariance by tangent cones
# ---------------------------------------------------------------------------

def nagumo_check(F: InclusionSpec, K: SetSpec, mode: str = "boundary",
                 n_samples: int = 64, tol: Optional[float] = None, seed: int = 0,
                 window=None) -> CheckReport:
    """Tangent-cone test for forward pre-invariance of K.

    boundary mode: every inclusion vertex at boundary samples must be admitted
    by the contingent cone; exterior mode: external-cone residual on a shell
    just outside K must be nonpositive up to tol.  Directions are normalized
    before probing (cones are positively homogeneous) so the residual is an
    outward rate per unit speed; the default tolerances absorb the curvature
    x step floor of the finite quotients (1e-5 on the boundary, 1e-3 on the
    exterior shell, NAGUMO_SHELL_WIDTH wide, where distances are themselves
    estimates).
    """
    if mode not in ("boundary", "exterior"):
        raise BarrierError(f"unknown mode {mode}")
    if tol is None:
        tol = NAGUMO_DEFAULT_TOL if mode == "boundary" else 1e-3
    pts = (K.sample_boundary(n_samples, seed=seed, window=window) if mode == "boundary"
           else _exterior_shell(K, n_samples, NAGUMO_SHELL_WIDTH, seed, window))
    if len(pts) == 0:
        reason = "no boundary samples" if mode == "boundary" else "empty shell after sampling"
        return CheckReport(f"nagumo_{mode}", 0, 0.0, {}, "inconclusive",
                           details={"reason": reason})
    E = inclusion_extreme_points(F, pts, seed=seed)
    X, E = np.repeat(pts, E.shape[1], axis=0), E.reshape(-1, pts.shape[1])
    speed = np.sqrt(np.vecdot(E, E))
    moving = speed >= 1e-15
    res = np.zeros(len(E))    # zero velocity is in every cone
    res[moving] = cone_residual(X[moving], E[moving] / speed[moving, None], K,
                                "contingent" if mode == "boundary" else "external",
                                max(tol, NAGUMO_SHELL_WIDTH))
    i = int(np.argmax(res))     # the first largest, in (sample, vertex) order
    return CheckReport(f"nagumo_{mode}", len(res), float(res[i]),
                       {"x": X[i].tolist(), "eta": E[i].tolist()},
                       "pass" if res[i] <= tol else "fail",
                       details={"set": K.name or K.kind, "tol": tol})


def _exterior_shell(K: SetSpec, count: int, width: float, seed: int, window):
    box = K.bounding_box()
    if box is None and window is None:
        raise GeometryError("exterior shell sampling needs a bounded K or window")
    if window is not None:
        lo, hi = np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float)
    else:
        lo, hi = box
        lo, hi = lo - 2 * width - 0.1 * (hi - lo) - 1e-6, hi + 2 * width + 0.1 * (hi - lo) + 1e-6
    cand = sampling.box_points(lo, hi, count * 32, seed=seed)
    d = distance_to_set_many(cand, K)
    keep = (d > 0.0) & (d <= width)
    return cand[keep][:count]


# ---------------------------------------------------------------------------
# conditional invariance via a time-independent barrier
# ---------------------------------------------------------------------------

def prop1_check(F: InclusionSpec, X_o: SetSpec, X_s: SetSpec, B: BarrierFn,
                g: RelaxFn = None, mode: str = "conditional",
                n_samples: int = 64, shell_width: float = 1e-3, window=None,
                seed: int = 0) -> CheckReport:
    """Sign conditions plus the Clarke decrease inequality for conditional
    (or strict conditional) invariance of X_s with respect to X_o.

    conditional mode: B > 0 just outside X_s, B <= 0 on the boundary of X_o,
    and <zeta, eta> <= g(B) between the boundary of X_o and the outside shell
    of X_s.  strict mode uses the boundary of X_s and the region X_s \\ X_o.
    Each Clarke gradient sample zeta is tested against its exact maximum over
    eta in F(x) (:func:`~safereach.dynamics.max_rate`).
    """
    if g is None:
        g = RelaxFn.zero()
    if g.kind not in ("minimal", "zero", "linear"):
        raise BarrierError("prop1_check expects a minimal-type relaxation")
    if mode not in ("conditional", "strict"):
        raise BarrierError(f"unknown mode {mode}")
    handle = lambda P: B.evaluate_many(np.zeros(len(P)), P).value
    sign_margins = []
    if mode == "conditional":
        outside = _exterior_shell(X_s, n_samples, shell_width, seed, window)
        if len(outside) == 0:
            return CheckReport("prop1_conditional", 0, 0.0, {}, "inconclusive",
                               details={"reason": "empty shell outside X_s"})
        pos_vals = handle(outside)
        sign_margins.append(("positivity_outside_X_s", float(-pos_vals.min()),
                             outside[int(np.argmin(pos_vals))]))
    else:
        bd_s = X_s.sample_boundary(n_samples, seed=seed, window=window)
        pos_vals = handle(bd_s)
        sign_margins.append(("positivity_on_boundary_X_s", float(-pos_vals.min()),
                             bd_s[int(np.argmin(pos_vals))]))
    bd_o = X_o.sample_boundary(n_samples, seed=seed + 1, window=window)
    neg_vals = handle(bd_o)
    sign_margins.append(("nonpositivity_on_boundary_X_o", float(neg_vals.max()),
                         bd_o[int(np.argmax(neg_vals))]))

    region = _between_region(X_o, X_s, mode, n_samples, shell_width, seed + 2, window)
    name, worst, x = max(sign_margins, key=lambda c: c[1])      # the first largest
    witness, checked = {"condition": name, "x": np.asarray(x).tolist()}, len(sign_margins)
    if len(region) == 0:
        return CheckReport(f"prop1_{mode}", checked, worst, witness, "inconclusive",
                           details={"reason": "empty decrease region"})
    grads = clarke_gradient_sample(handle, region, radius=PROP1_CLARKE_RADIUS,
                                   fd_step=PROP1_FD_STEP, seed=seed)
    # time-independent B: zeta_t = 0
    rates, etas = max_rate(F, region, np.concatenate(
        [np.zeros(grads.shape[:-1] + (1,)), grads], axis=-1))
    margins = rates - np.asarray(g(handle(region)), dtype=float)[:, None]
    i, j = np.unravel_index(np.argmax(margins), margins.shape)
    checked += margins.size
    if margins[i, j] > worst:
        worst, witness = margins[i, j], {"condition": "decrease", "x": region[i].tolist(),
                                         "eta": etas[i, j].tolist(), "zeta": grads[i, j].tolist()}
    return CheckReport(f"prop1_{mode}", checked, float(worst), witness,
                       "pass" if worst <= PROP1_TOL else "fail",
                       details={"relaxation": g.kind})


def _between_region(X_o: SetSpec, X_s: SetSpec, mode: str, count: int,
                    width: float, seed: int, window):
    if window is not None:
        lo, hi = np.asarray(window[0], dtype=float), np.asarray(window[1], dtype=float)
    else:
        box = X_s.bounding_box() or X_o.bounding_box()
        if box is None:
            raise GeometryError("prop1_check needs a window for unbounded sets")
        lo, hi = box
    cand = sampling.box_points(lo, hi, count * 16, seed=seed)
    d_o = distance_to_set_many(cand, X_o)
    d_s = distance_to_set_many(cand, X_s)
    if mode == "conditional":
        keep = (d_o > 0.0) & (d_s <= width)      # U(X_s) \ X_o
    else:
        keep = (d_o > 0.0) & (d_s <= 0.0)        # X_s \ X_o
    return cand[keep][:count]
