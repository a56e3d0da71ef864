"""Trajectory generation for selected fields, forward and backward.

Every fixed-step integration runs through one kernel, :func:`rk4_sweep`:
RK4 on a flat batch of rows, one row per (selector, start) pair, so a step
costs the same few numpy calls whatever the number of rows.  Selector data
travel with the rows as per-row tables of eps*d rows (ball) or weight rows
(hull), see :func:`dynamics.selector_table`; the piecewise selectors of one
bundle share a switch grid and step as one batch, segment by segment.  The
kernel records nothing: an observer sees the rows that stepped, enough for a
running minimum or a first hit, and (n_steps + 1, m, n) paths are kept only
for callers asking for trajectories.

Escape through the configured radius freezes the row and is reported as a
termination reason, never silently truncated: finite-escape behavior is part
of the "pre" invariance semantics.  A non-finite state aborts the sweep.  An
adaptive RKF45 serves stiff spots such as the fast angular oscillation of
the built-in counterexample near the origin.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from . import sampling
from .dynamics import InclusionSpec, Selector, negate, select, selector_table
from .geometry import SetSpec, distance_to_set_many


class SolverError(RuntimeError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    method: str = "rk4"            # rk4 | rk45
    step: float = 1.0 / 512.0
    rel_tol: float = 1e-8
    abs_tol: float = 1e-10
    escape_radius: float = 1e6
    max_steps: int = 5_000_000

    def __post_init__(self):
        if self.step <= 0 or self.rel_tol <= 0 or self.abs_tol <= 0:
            raise SolverError("step and tolerances must be positive")
        if self.escape_radius <= 0:
            raise SolverError("escape radius must be positive")
        if self.method not in ("rk4", "rk45"):
            raise SolverError(f"unknown method {self.method}")

    @property
    def accuracy(self) -> float:
        """Coarse global-error scale: one order below the local truncation
        order, to absorb growth constants."""
        if self.method == "rk4":
            return self.step ** 3
        return max(self.rel_tol, 10.0 * self.abs_tol)


@dataclass
class Trajectory:
    """Time-stamped states; backward runs store psi(t) = phi(-t) with t >= 0."""

    times: np.ndarray
    states: np.ndarray
    termination: str = "horizon"    # horizon | escape | set_hit:<name> | step_limit
    direction: str = "forward"
    selector_index: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if len(self.times) != len(self.states):
            raise SolverError("times and states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise SolverError("times must be strictly increasing")

    @property
    def endpoint(self) -> np.ndarray:
        return self.states[-1]

    def to_csv(self, path) -> None:
        n = self.states.shape[1]
        header = "t," + ",".join(f"x{i + 1}" for i in range(n))
        data = np.column_stack([self.times, self.states])
        np.savetxt(path, data, delimiter=",", header=header, comments="", fmt="%.17g")


@dataclass(frozen=True)
class BundlePlan:
    """The finite selector family that under-approximates the solution set:
    ``directions`` constant selections, drawn at ``seed``, plus as many
    piecewise-constant ones with ``switches`` switches when that is positive.
    Frozen, so a plan is itself a cache key."""

    directions: int = 8
    switches: int = 0
    seed: int = 0

    def selectors(self, F: InclusionSpec, T: float = 1.0) -> list[Selector]:
        """Deterministic selectors over [0, T]; piecewise ones switch on a
        uniform grid."""
        m = self.directions
        if m < 1:
            raise SolverError("need at least one selector")
        if F.kind == "singleton":
            return [Selector.constant(index=0)]
        if F.kind == "ball":
            dirs = sampling.sphere_directions(F.dim, m, seed=self.seed)
        else:
            dirs = sampling.simplex_weights(len(F.fields), m, seed=self.seed)
        sels = [Selector.constant(dirs[i], index=i) for i in range(m)]
        if self.switches > 0:
            st = np.linspace(0.0, T, self.switches + 2)[1:-1]
            for j in range(m):
                picks = [(j + 2 * k + 1) % m for k in range(self.switches + 1)]
                sels.append(Selector.piecewise(st, dirs[picks], index=m + j))
        return sels


def rk4_sweep(fn: Callable, X0: np.ndarray, h, n_steps: int,
              observe: Optional[Callable] = None, escape_radius: float = np.inf,
              live: Optional[np.ndarray] = None):
    """Fixed-step RK4 on the rows of X0 (m, n); rows run independently.

    h is one step for every row or an (m,) array of per-row steps.  Only
    live rows step: fn(k, rows, X) is the right-hand side of step k (from 1)
    at the states X of ``rows``, a slice or an index array into X0.  A row
    whose new state leaves escape_radius is frozen there; ``live`` marks rows
    frozen from the start.  After step k, observe(k, rows, X) sees the rows
    that stepped and the whole state array.  Returns the final states, the
    steps each row took (its escape step, else n_steps) and the escaped rows.
    """
    X = np.array(X0, dtype=float)
    m, n = X.shape
    live = np.ones(m, dtype=bool) if live is None else np.asarray(live, dtype=bool)
    alive = live.copy()
    n_live = int(np.count_nonzero(alive))
    steps = np.where(alive, n_steps, 0)
    h_rows = np.asarray(h, dtype=float)[:, None] if np.ndim(h) else None
    # no row norm exceeds the radius while every coordinate stays below this
    coord_bound = escape_radius / (np.sqrt(n) * (1.0 + 1e-9))
    for k in range(1, n_steps + 1):
        if n_live == 0:
            break
        # frozen states may sit where the field overflows: step live rows only
        rows = slice(None) if n_live == m else np.flatnonzero(alive)
        Xs = X[rows]
        hs = h if h_rows is None else h_rows[rows]
        k1 = fn(k, rows, Xs)
        k2 = fn(k, rows, Xs + 0.5 * hs * k1)
        k3 = fn(k, rows, Xs + 0.5 * hs * k2)
        k4 = fn(k, rows, Xs + hs * k3)
        Xn = Xs + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        if not np.isfinite(Xn).all():
            bad = Xs[~np.isfinite(Xn).all(axis=1)][0]
            raise SolverError(f"non-finite state at step {k}; last valid state {bad.tolist()}")
        X[rows] = Xn
        if max(Xn.max(), -Xn.min()) > coord_bound:
            idx = np.arange(m)[rows][np.linalg.norm(Xn, axis=1) > escape_radius]
            steps[idx] = k
            alive[idx] = False
            n_live -= len(idx)
        if observe is not None:
            observe(k, rows, X)
    return X, steps, live & ~alive


def _rkf45_path(fn: Callable, x0: np.ndarray, T: float, cfg: IntegratorConfig,
                step_ceiling: Optional[Callable] = None):
    """Adaptive Runge-Kutta-Fehlberg 4(5), scalar initial condition."""
    A = [
        [],
        [1 / 4],
        [3 / 32, 9 / 32],
        [1932 / 2197, -7200 / 2197, 7296 / 2197],
        [439 / 216, -8, 3680 / 513, -845 / 4104],
        [-8 / 27, 2, -3544 / 2565, 1859 / 4104, -11 / 40],
    ]
    B5 = [16 / 135, 0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55]
    B4 = [25 / 216, 0, 1408 / 2565, 2197 / 4104, -1 / 5, 0]
    t, x = 0.0, np.array(x0, dtype=float)
    times, states = [0.0], [x.copy()]
    h = min(cfg.step, T)
    termination = "horizon"
    for _ in range(cfg.max_steps):
        if t >= T - 1e-15:
            break
        h = min(h, T - t)
        if step_ceiling is not None:
            h = min(h, float(step_ceiling(x)))
        ks = []
        for stage in range(6):
            xp = x.copy()
            for j, a in enumerate(A[stage]):
                xp = xp + h * a * ks[j]
            ks.append(fn(xp[None, :])[0])
        x5 = x + h * sum(b * k for b, k in zip(B5, ks))
        x4 = x + h * sum(b * k for b, k in zip(B4, ks))
        err = float(np.linalg.norm(x5 - x4))
        scale = cfg.abs_tol + cfg.rel_tol * float(np.linalg.norm(x5))
        if err <= scale or h <= 1e-13:
            t += h
            x = x5
            times.append(t)
            states.append(x.copy())
            if float(np.linalg.norm(x)) > cfg.escape_radius:
                termination = "escape"
                break
        ratio = (scale / err) ** 0.2 if err > 0 else 2.0
        h = max(min(h * min(max(0.2, 0.9 * ratio), 4.0), T), 1e-13)
    else:
        termination = "step_limit"
    return np.asarray(times), np.asarray(states), termination


def _check_start(X0, T: float) -> np.ndarray:
    X0 = np.asarray(X0, dtype=float)
    if T <= 0 or not np.all(np.isfinite(X0)):
        raise SolverError("horizon must be positive" if T <= 0 else "non-finite initial state")
    return X0


def bundle_sweep(F: InclusionSpec, sels, X0, T: float,
                 cfg: IntegratorConfig = IntegratorConfig(), direction: str = "forward",
                 observe: Optional[Callable] = None, record: bool = False):
    """Fixed-step RK4 of every selector in sels from every start in X0 (m, n).

    Row j * m + i runs sels[j] from X0[i].  Selectors sharing a switch grid
    (the constants; the piecewise selectors of one bundle) run as one batch,
    segment by segment, each segment with h = length / ceil(length / step).
    After every step, observe(t, rows, X) sees the node time, the indices of
    the rows that stepped and their new states.  Returns the termination of
    every row (horizon | escape | step_limit) and, if record, its Trajectory.
    """
    X0 = np.atleast_2d(_check_start(X0, T))
    Feff = negate(F) if direction == "backward" else F
    m = len(X0)
    termination = np.full(len(sels) * m, "horizon", dtype=object)
    trajs = [None] * len(termination) if record else None
    groups: dict = {}
    for j, s in enumerate(sels):
        groups.setdefault(() if s.kind == "constant" else tuple(s.switch_times), []).append(j)
    for J in groups.values():
        rows = (np.asarray(J)[:, None] * m + np.arange(m)).ravel()
        switch_times, D = selector_table(F, [sels[j] for j in J])
        X = np.tile(X0, (len(J), 1))
        live = np.ones(len(rows), dtype=bool)
        steps = np.zeros(len(rows), dtype=int)
        times, path = [0.0], [X]
        cuts = [0.0] + [float(c) for c in switch_times if 0.0 < c < T] + [T]
        total = 0
        for t_a, t_b in zip(cuts[:-1], cuts[1:]):
            n = max(1, int(np.ceil((t_b - t_a) / cfg.step - 1e-9)))
            h = (t_b - t_a) / n
            total += n
            if total > cfg.max_steps:
                termination[rows[live]] = "step_limit"
                break
            q = int(np.searchsorted(switch_times, 0.5 * (t_a + t_b), side="right"))
            d = None if D is None else np.repeat(D[q], m, axis=0)

            def obs(k, r, Y):
                if record:
                    times.append(t_a + h * k)
                    path.append(Y.copy())
                if observe is not None:
                    observe(t_a + h * k, rows[r], Y[r])

            X, seg_steps, escaped = rk4_sweep(
                lambda k, r, Y: select(Feff, Y, None if d is None else d[r]),
                X, h, n, obs, cfg.escape_radius, live)
            steps += seg_steps
            termination[rows[escaped]] = "escape"
            live &= ~escaped
        if record:
            times, path = np.array(times), np.array(path)
            for r, (row, k) in enumerate(zip(rows, steps)):
                trajs[row] = Trajectory(times[:k + 1], path[:k + 1, r], termination[row],
                                        direction, sels[row // m].index)
    return termination, trajs


def integrate(F: InclusionSpec, s: Selector, x0, T: float,
              direction: str = "forward", cfg: IntegratorConfig = IntegratorConfig(),
              stop_set: Optional[SetSpec] = None, stop_tol: float = 1e-9) -> Trajectory:
    """Integrate dx/dt = select(F, x, s, t) (negated for backward) over [0, T]."""
    x0 = _check_start(x0, T)
    if cfg.method == "rk4":
        traj = bundle_sweep(F, [s], x0[None, :], T, cfg, direction, record=True)[1][0]
        return _truncate_at_set(traj, stop_set, stop_tol)
    if s.kind != "constant":
        raise SolverError("rk45 supports constant selectors only")
    Feff = negate(F) if direction == "backward" else F
    _, D = selector_table(F, [s])
    d = None if D is None else D[0, 0]
    times, states, term = _rkf45_path(lambda X: select(Feff, X, d), x0, T, cfg,
                                      step_ceiling=Feff.base_field.step_ceiling)
    return _truncate_at_set(Trajectory(times, states, term, direction, s.index),
                            stop_set, stop_tol)


def _truncate_at_set(traj: Trajectory, stop_set: Optional[SetSpec], tol: float) -> Trajectory:
    if stop_set is None:
        return traj
    d = distance_to_set_many(traj.states, stop_set)
    hits = np.nonzero(d <= tol)[0]
    if len(hits) == 0:
        return traj
    k = int(hits[0])
    return Trajectory(traj.times[:k + 1], traj.states[:k + 1],
                      f"set_hit:{stop_set.name or stop_set.kind}",
                      traj.direction, traj.selector_index)


def solution_bundle(F: InclusionSpec, x0, T: float, direction: str = "forward",
                    cfg: IntegratorConfig = IntegratorConfig(),
                    plan: BundlePlan = BundlePlan(),
                    stop_set: Optional[SetSpec] = None) -> list:
    """One trajectory per selector of plan from x0 (n,); a singleton F yields
    exactly one.  For a batch of starts (k, n), one such list per start, all
    integrated in one sweep."""
    X0 = np.asarray(x0, dtype=float)
    starts = np.atleast_2d(X0)
    sels = plan.selectors(F, T)
    if cfg.method == "rk4":
        flat = bundle_sweep(F, sels, starts, T, cfg, direction, record=True)[1]
        out = [[_truncate_at_set(flat[j * len(starts) + i], stop_set, 1e-9)
                for j in range(len(sels))] for i in range(len(starts))]
    else:
        out = [[integrate(F, s, x, T, direction, cfg, stop_set) for s in sels]
               for x in starts]
    return out[0] if X0.ndim == 1 else out


def time_rescale_tau(traj: Trajectory, V: Callable) -> np.ndarray:
    """tau(t_i) = t_i + integral_0^{t_i} ds / V(phi(s)) by trapezoid rule.

    Fails if V is nonpositive anywhere along the stored path.
    """
    vals = np.asarray(V(traj.states), dtype=float)
    if np.any(vals <= 0.0):
        raise SolverError("rescale through zero set")
    inv = 1.0 / vals
    dt = np.diff(traj.times)
    inc = 0.5 * (inv[1:] + inv[:-1]) * dt
    return traj.times + np.concatenate([[0.0], np.cumsum(inc)])
