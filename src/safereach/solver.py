"""Trajectory generation for selected fields, forward and backward.

Every fixed-step integration runs through one kernel, :func:`rk4_sweep`:
RK4 on a flat batch of rows, one row per (selection, start) pair, so a step
costs the same few numpy calls whatever the number of rows.  The kernel
takes one step function: four stage calls of a right-hand side
(:func:`rk4_stages`), or, for a field declaring its matrix, RK4's exact
affine map of one step; :func:`bundle_step` alone chooses between them for
a bundle.  A bundle's selections are the columns of one table,
(switch_times, D), which :meth:`BundlePlan.table` builds and every sweep
reads.  One function, :func:`bundle_field`, decides which direction a row
uses at a step: the segment holding the step's midpoint, on the absolute
switch grid of the table, so a bundle is one sweep and its family on
[0, t] does not depend on the horizon.  The kernel records
nothing: it hands its observer blocks of nodes, start included, with the
states at each node and which rows are there, so an observer pays one
batch per block, not per step (see :func:`on_stepped`), and no caller
handles node 0 apart.  That is enough for a running minimum or a first
hit, both exact over a block, and (n_steps + 1, m, n) paths are kept only
for callers asking for trajectories.  An observer may end rows whose answer
is settled: they leave at the block's last node and step no further.  The
marginal minimum of the distance to a set over a tube of bundle paths, read
off at several steps per start, is :func:`tube_minimum`; a start whose
minimum reaches 0 is settled, so its later reads are 0 exact and may lose
the escape flag that every read above 0 keeps.

Escape through the configured radius freezes the row and is reported as a
termination reason, never silently truncated: finite-escape behavior is part
of the "pre" invariance semantics.  The kernel is the only finiteness guard
in a sweep: a non-finite stage value makes the state non-finite (h != 0),
which aborts the sweep.  A non-finite horizon, or one needing more steps
than the budget, is refused before any step.
Each row steps to its own horizon: the step count is one for the batch or
one per row.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import Error, sampling
from .dynamics import InclusionSpec, rows_times
from .geometry import SetSpec, distance_to_set_many


# rows x nodes per observed block of rk4_sweep: bounds the observer's batch
BLOCK_ROWS = 8192


class SolverError(Error, RuntimeError):
    pass


@dataclass(frozen=True)
class IntegratorConfig:
    """Fixed-step RK4: the step, the escape radius and the step budget."""

    step: float = 1.0 / 512.0
    escape_radius: float = 1e6
    max_steps: int = 5_000_000

    def __post_init__(self):
        if self.step <= 0:
            raise SolverError("step must be positive")
        if self.escape_radius <= 0:
            raise SolverError("escape radius must be positive")

    def check_steps(self, horizon, n_steps) -> None:
        """Refuse a horizon (one, or one per row) needing over max_steps steps,
        counted as floats: a count cast to int first may already have wrapped."""
        n = np.atleast_1d(np.asarray(n_steps, dtype=float))
        if n.max(initial=0) > self.max_steps:
            i = int(np.argmax(n))
            raise SolverError(f"horizon {float(np.broadcast_to(horizon, n.shape)[i]):g} needs "
                              f"{n[i]:.0f} steps, more than max_steps = {self.max_steps}")

    @property
    def accuracy(self) -> float:
        """Coarse global-error scale: one order below the local truncation
        order, to absorb growth constants."""
        return self.step ** 3


@dataclass
class Trajectory:
    """Time-stamped states; backward runs store psi(t) = phi(-t) with t >= 0."""

    times: np.ndarray
    states: np.ndarray
    termination: str = "horizon"    # horizon | escape
    direction: str = "forward"
    selector_index: int = 0

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float)
        self.states = np.atleast_2d(np.asarray(self.states, dtype=float))
        if len(self.times) != len(self.states):
            raise SolverError("times and states length mismatch")
        if np.any(np.diff(self.times) <= 0):
            raise SolverError("times must be strictly increasing")

    def to_csv(self, path) -> None:
        write_csv(path, "t", np.column_stack([self.times, self.states]))


def write_csv(path, first: str, data: np.ndarray, last: str = "") -> None:
    """data (k, c) as %.17g CSV under the header first,x1,...[,last]: the bytes
    of np.savetxt(..., delimiter=",", comments="", fmt="%.17g") in one % call."""
    n = data.shape[1] - 1 - bool(last)
    header = ",".join([first] + [f"x{i + 1}" for i in range(n)] + ([last] if last else []))
    row = ",".join(["%.17g"] * data.shape[1]) + "\n"
    with open(path, "w") as fh:
        fh.write(header + "\n" + (row * len(data)) % tuple(data.ravel().tolist()))


class BundlePlan(NamedTuple):
    """The finite family of selections that under-approximates the solution
    set: ``directions`` constant selections, drawn at ``seed``, plus as many
    piecewise-constant ones with ``switches`` switches per unit time when
    that is positive.  A tuple, so a plan is itself a cache key."""

    directions: int = 8
    switches: int = 0
    seed: int = 0

    def table(self, F: InclusionSpec, T: float = 1.0):
        """The family over [0, T] as the table (switch_times, D) every sweep
        reads, D[q, j] the direction (a ball's unit vector, a hull's
        weights) of selection j on segment q: column j < m = directions is
        the plan's direction j, and column m + j takes direction
        (j + 2q + 1) % m, the grid switching at the times k / (switches + 1)
        below T, so any prefix of the family is the same whatever T.  A
        singleton's one selection is its field: D is None, the grid empty."""
        m = self.directions
        if m < 1:
            raise SolverError("need at least one selector")
        if F.kind == "singleton":
            return [], None
        if F.kind == "ball":
            dirs = sampling.sphere_directions(F.dim, m, seed=self.seed)
        else:
            dirs = sampling.simplex_weights(len(F.fields), m, seed=self.seed)
        switch_times, picks = [], np.arange(m)[None, :]
        if self.switches > 0:
            if not np.isfinite(T):
                raise SolverError(f"horizon must be finite, got {T:g}")
            per = self.switches + 1
            switch_times = [k / per for k in range(1, int(np.ceil(T * per)) + 1) if k / per < T]
            q = np.arange(len(switch_times) + 1)[:, None]
            picks = np.hstack([np.repeat(picks, len(q), axis=0), (picks + 2 * q + 1) % m])
        return switch_times, dirs[picks]


def selections(table) -> int:
    """The selections of a plan table: D's columns, or 1 for a singleton's None."""
    return 1 if table[1] is None else table[1].shape[1]


def rk4_sweep(step: Callable, X0: np.ndarray, n_steps, observe: Optional[Callable] = None,
              escape_radius: float = np.inf):
    """Fixed-step RK4 on the rows of X0 (m, n); rows run independently.

    n_steps is one step count for every row or an (m,) array of per-row
    counts.  A row steps until it has taken its count: step(k, rows, X, W)
    takes step k (from 1) from the states X of ``rows``, the live rows as a
    slice when they are one run, else an index array into X0, rebuilt only
    when they change, and returns the new states, in one of the kernel's
    three (r, n) buffers W or an array of its own, r the live rows.  The
    step is :func:`rk4_stages` of a right-hand side, or the affine map of
    :func:`bundle_step`.  A row whose new state leaves escape_radius is
    frozen there.  The observer sees the sweep's nodes in blocks of j <= K
    consecutive nodes, K = BLOCK_ROWS // m counted in nodes (at least 1, at
    most n_max + 1), so a sweep of rows x (steps + 1) <= BLOCK_ROWS is one
    block: observe(k0, stepped, Xb) gets the first node k0 of the block, the
    (j, m) mask of the rows at each node and the (j, m, n) whole state
    arrays at each node, a fresh array the observer may keep.  Node 0 opens
    the first block (k0 = 0, Xb[0] the rows of X0, every row marked), and is
    observed even when no row steps; node k >= 1 marks the rows that took
    step k (an escaping row counts at its escape step).  The observer may
    return the indices of rows whose answer is settled (None for none):
    such a row, if still live, leaves at the block's last node as if it had
    reached its count there, takes no further step and is not escaped.
    What it returns for the sweep's last block is ignored, and a block with
    no node is not observed.
    A non-finite new state raises :class:`SolverError` naming the step; the
    step runs with numpy's warnings off, the observer under the caller's.
    Returns the final states, the steps each row took (its escape step,
    the node it left at when settled, else its count) and the escaped rows.
    """
    X = np.array(X0, dtype=float)
    m, n = X.shape
    steps = np.broadcast_to(np.asarray(n_steps, dtype=int), (m,)).copy()
    alive = steps > 0
    escaped = np.zeros(m, dtype=bool)
    rows, n_live = _live_rows(alive)
    n_max = int(steps.max(initial=0))
    # the steps after which some row has taken its count
    stops = set(steps.tolist())
    r = -1      # live rows the buffers W are sized for
    # no row norm exceeds the radius while every coordinate stays below this
    coord_bound = escape_radius / (np.sqrt(n) * (1.0 + 1e-9))
    K = max(1, min(BLOCK_ROWS // max(m, 1), n_max + 1))   # nodes per observed block
    caller_err = np.geterr()    # restored around observe; the steps run with warnings off
    if observe is not None:
        # node 0 opens the first block: every row is observed at its start
        k0, Xb, stepped = 0, np.empty((K, m, n)), np.empty((K, m), dtype=bool)
        Xb[0], stepped[0], j = X, True, 1
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        for k in range(1, n_max + 1):
            if observe is not None and j == K:
                with np.errstate(**caller_err):
                    settled = observe(k0, stepped, Xb)
                if settled is not None:
                    # settled live rows leave at the block's last node, k - 1
                    done = np.asarray(settled, dtype=int)
                    done = done[alive[done]]
                    if len(done):
                        steps[done] = k - 1
                        alive[done] = False
                        rows, n_live = _live_rows(alive)
                k0, Xb, stepped = k, np.empty((K, m, n)), np.empty((K, m), dtype=bool)
                j = 0
            if n_live == 0:
                break
            if observe is not None:
                stepped[j] = alive
            # frozen and finished states may sit where the field overflows: step live rows only
            Xs = X[rows]
            if n_live != r:
                r = n_live
                W = (np.empty((r, n)), np.empty((r, n)), np.empty((r, n)))
            Xn = step(k, rows, Xs, W)
            # one pass answers both tests: NaN or inf fails top < inf
            top = max(Xn.max(), -Xn.min())
            if not top < np.inf:
                bad = Xs[~np.isfinite(Xn).all(axis=1)][0]
                raise SolverError(f"non-finite state at step {k}; last valid state {bad.tolist()}")
            X[rows] = Xn
            if top > coord_bound:
                out = np.linalg.norm(Xn, axis=1) > escape_radius
                if out.any():
                    idx = np.arange(m)[rows][out]
                    steps[idx] = k
                    escaped[idx] = True
                    alive[idx] = False
                    rows, n_live = _live_rows(alive)
            if observe is not None:
                Xb[j] = X
                j += 1
            if k in stops:
                alive &= steps != k
                rows, n_live = _live_rows(alive)
    if observe is not None and j:
        observe(k0, stepped[:j], Xb[:j])
    return X, steps, escaped


def _live_rows(alive: np.ndarray):
    """The rows of the mask alive as an index into X, a slice when they are
    one run (a view, no gather), and their number."""
    idx = np.flatnonzero(alive)
    if len(idx) and idx[-1] - idx[0] == len(idx) - 1:
        return slice(int(idx[0]), int(idx[-1]) + 1), len(idx)
    return idx, len(idx)


def rk4_stages(fn: Callable, h) -> Callable:
    """The step of :func:`rk4_sweep` making four stage calls of the
    right-hand side fn(k, rows, X) of step k; fn may return X itself.
    h is one step for every row or an (m,) array of per-row steps.  The
    stage inputs and the RK4 combination go into the kernel's buffers, with
    the textbook formula's operations in its order, so a state is bit for
    bit the allocating formula's."""
    h_rows = np.asarray(h, dtype=float)[:, None] if np.ndim(h) else None

    def step(k, rows, Xs, W):
        S, A, T = W
        hs = h if h_rows is None else h_rows[rows]
        hh, h6 = 0.5 * hs, hs / 6.0
        # Xs + (0.5 h) k1, ..., then Xs + (h / 6) (((k1 + 2 k2) + 2 k3) + k4),
        # the operations of the textbook formula in its order, into S, A
        # and T; a stage value may be its input S, so each k is folded
        # into A before S is overwritten
        k1 = fn(k, rows, Xs)
        np.add(Xs, np.multiply(k1, hh, out=S), out=S)
        k2 = fn(k, rows, S)
        np.add(k1, np.multiply(k2, 2.0, out=A), out=A)
        np.add(Xs, np.multiply(k2, hh, out=S), out=S)
        k3 = fn(k, rows, S)
        np.add(A, np.multiply(k3, 2.0, out=T), out=A)
        np.add(Xs, np.multiply(k3, hs, out=S), out=S)
        k4 = fn(k, rows, S)
        return np.add(Xs, np.multiply(np.add(A, k4, out=A), h6, out=A), out=A)
    return step


def on_stepped(fn: Callable, stepped: np.ndarray, Xb: np.ndarray):
    """fn, points (k, n) -> values (k,), on the rows of an observed block
    marked in stepped (every row at node 0), in one call: a (j, m) array
    reading +inf where a row did not step, so such a row adds no new
    minimum and no hit.  The rows are gathered with np.compress: on a block
    of 5 x 1536 rows a boolean index into the block costs about 8x more."""
    j, m, n = Xb.shape
    if stepped.all():
        return np.asarray(fn(Xb.reshape(-1, n))).reshape(j, m)
    flat = stepped.ravel()
    out = np.full(j * m, np.inf)
    out[flat] = fn(np.compress(flat, Xb.reshape(-1, n), axis=0))
    return out.reshape(j, m)


def bundle_field(F: InclusionSpec, table, m: int, h: float, direction: str) -> Callable:
    """Right-hand side fn(k, rows, X) of a bundle for :func:`rk4_stages`.

    Row j * m + i runs selection j of the plan table (switch_times, D) of
    :meth:`BundlePlan.table`; step k (from 1) of length h uses its direction
    D[q, j] on the segment q of the switch grid holding the step's midpoint
    (k - 1/2) h; a singleton reads no grid, and a bundle without switches
    may take one h per row.  The field is the forward one, a ball's offsets
    eps * d negated backward, where the sweep steps by -h: rounding to
    nearest is symmetric under a change of sign, so that gives the negated
    field's bits but for the sign of an exact zero.
    The stage calls each field's ``FieldHandle.fn`` itself and checks the
    shape of every value; a ball then adds its offset, a hull sums weight by
    weight.  No finiteness test.  A ball's value is written over unless it
    shares memory with the stage input X, as X or a view of it does."""
    st, D = table
    if st and np.ndim(h):
        raise SolverError("per-row steps need a bundle without switches: a switch grid "
                          "is read at one step for every row")
    if D is not None:    # E[q, r]: the direction of row r on segment q, +-eps * d for a ball
        eps = F.epsilon if direction == "forward" else -F.epsilon
        E = np.repeat(eps * D if F.kind == "ball" else D, m, axis=1)
    if F.kind != "hull":
        f = F.fields[0]
        fn = f.fn

        def stage(k, rows, X):
            v = fn(X)
            if v.shape != X.shape:
                f.check_shape(v, X)
            if D is None:
                return v
            return np.add(v, E[bisect_right(st, (k - 0.5) * h)][rows],
                          out=None if np.may_share_memory(v, X) else v)
        return stage

    def hull(k, rows, X):
        w, out = E[bisect_right(st, (k - 0.5) * h)][rows], None
        for i, f in enumerate(F.fields):
            v = f.fn(X)
            if v.shape != X.shape:
                f.check_shape(v, X)
            # weight by weight, not a BLAS product, which rounds rows by batch size
            out = v * w[..., i, None] if out is None else np.add(out, v * w[..., i, None], out=out)
        return out
    return hull


def bundle_step(F: InclusionSpec, table, m: int, h, direction: str) -> Callable:
    """The step of :func:`rk4_sweep` for the bundle of :func:`bundle_field`,
    row j * m + i running column j of the plan table (switch_times, D):
    :func:`rk4_stages` of it with step h forward and -h backward, or, for a
    singleton or ball whose field declares its matrix A
    (``FieldHandle.matrix``) and one scalar h, RK4's affine map.  One RK4
    step of signed length s of dx/dt = A x + c, c the row's offset, is
    exactly the affine map x+ = R(M) x + s T(M) c with M = s A,
    T(M) = I + M/2 + M^2/6 + M^3/24 and R(M) = I + M T(M).  The offsets
    s T(M) c are premultiplied from D per segment of the switch grid, and
    R(M) x is taken by ``dynamics.rows_times`` into W[0], so a row gets the
    same bits alone and in a batch.  The states differ from the four stages' by
    rounding only: a few ulps of the state's scale per step."""
    s = h if direction == "forward" else np.negative(h)
    A = F.fields[0].matrix
    if F.kind == "hull" or A is None or np.ndim(h):
        return rk4_stages(bundle_field(F, table, m, h, direction), s)
    st, D = table
    M = s * np.asarray(A, dtype=float)
    M2 = M @ M
    T = np.eye(len(M)) + M / 2.0 + M2 / 6.0 + M2 @ M / 24.0
    R = (np.eye(len(M)) + M @ T).tolist()
    if D is not None:    # O[q, r]: the offset s T(M) (+-eps d) of row r on segment q
        eps = F.epsilon if direction == "forward" else -F.epsilon
        O = np.repeat(rows_times((s * T).tolist(), eps * D, np.empty(D.shape)), m, axis=1)

    def step(k, rows, X, W):
        out = rows_times(R, X, W[0])
        return out if D is None else np.add(out, O[bisect_right(st, (k - 0.5) * h)][rows], out=out)
    return step


def start_states(F: InclusionSpec, X) -> np.ndarray:
    """X as a float batch (m, n) of start states, refused unless n is F.dim."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != F.dim:
        raise SolverError(f"start states have {X.shape[1]} coordinates, "
                          f"the inclusion has dimension {F.dim}")
    return X


def tube_minimum(F: InclusionSpec, table, X, K, h: float, direction: str, X_o: SetSpec,
                 escape_radius: float = np.inf):
    """Running minimum of the distance to X_o along bundle paths, read off.

    Entry (i, q) of the (r, m) result is the minimum of d(., X_o) over nodes
    0..K[i, q] (steps of length h) of the paths of every selection of the
    plan table from X[q].  Points equal bit for bit share one row per
    selection, which steps to the largest K asked at its point, so the
    result does not depend on the batch.  A point whose minimum over
    selections has reached 0 keeps it: the observer returns its rows,
    which leave the sweep at the end of that block, and every later read of
    the point is 0.  A row that ended, by escape, settling or its count,
    gives its final minimum to every later read.  Returns the minima and
    the (r, m) entries cut short by escape: some path of the entry's point
    escaped at or before its node.  An entry of value 0 may lose that flag,
    as its point's rows may leave before they would escape; an entry of
    value > 0 keeps it bit for bit.
    """
    X = start_states(F, X)
    K = np.asarray(K, dtype=int)
    # row j * p + u runs selection j from U[u]; the uint64 view keeps 0.0 and -0.0 apart
    _, first, at = np.unique(np.ascontiguousarray(X).view(np.uint64), axis=0,
                             return_index=True, return_inverse=True)
    k_end = np.zeros(len(first), dtype=int)
    np.maximum.at(k_end, at.reshape(-1), K.max(axis=0, initial=0))
    # points by largest asked step, descending: rows finishing early form a
    # suffix of each selection's rows, so with one selection the live rows
    # stay one run, which the kernel steps through a slice
    by_end = np.argsort(-k_end, kind="stable")
    U, k_end, at = X[first[by_end]], k_end[by_end], np.argsort(by_end)[at.reshape(-1)]
    S, p = selections(table), len(U)
    dmin = np.full(S * p, np.inf)
    D = dmin.reshape(S, p)
    # slot i * m + q reads entry (i, q); the block holding node K[i, q] writes it
    k_slot, u_slot = K.reshape(-1), np.tile(at, len(K))
    seen = np.empty((S, len(k_slot)))
    order = np.argsort(k_slot, kind="stable")
    ks, starts = np.unique(k_slot[order], return_index=True)
    slots = np.split(order, starts[1:])

    def observe(k0, stepped, Yb):
        # running minimum through the block: row i of acc is dmin at node k0 + i
        acc = on_stepped(lambda Y: distance_to_set_many(Y, X_o), stepped, Yb)
        np.minimum(acc[0], dmin, out=acc[0])
        np.minimum.accumulate(acc, axis=0, out=acc)
        dmin[:] = acc[-1]
        for i in range(np.searchsorted(ks, k0), np.searchsorted(ks, k0 + len(acc))):
            q = slots[i]
            seen[:, q] = acc[ks[i] - k0].reshape(S, p)[:, u_slot[q]]
        # every row of a point at minimum 0 is settled
        zero = D.min(axis=0) == 0.0
        return np.flatnonzero(np.tile(zero, S)) if zero.any() else None

    _, steps, escaped = rk4_sweep(bundle_step(F, table, p, h, direction), np.tile(U, (S, 1)),
                                  np.tile(k_end, S), observe, escape_radius)
    # a row that ended at or before a slot's node holds its final minimum
    # there; blocks after the last live row's end are never observed
    ended = steps.reshape(S, p)[:, u_slot] <= k_slot
    frozen = escaped.reshape(S, p)[:, u_slot] & ended
    return (np.where(ended, D[:, u_slot], seen).min(axis=0).reshape(K.shape),
            frozen.any(axis=0).reshape(K.shape))


def bundle_sweep(F: InclusionSpec, table, X0, T: float,
                 cfg: IntegratorConfig = IntegratorConfig(), direction: str = "forward",
                 observe: Optional[Callable] = None, record: bool = False):
    """Fixed-step RK4 of every selection of table from every start in X0 (m, n).

    Row j * m + i runs selection j from X0[i]; all rows take
    n = ceil(T / step) steps of h = T / n in one sweep, see
    :func:`bundle_step`.  The observer sees the sweep's blocks of nodes,
    node 0 at t = 0 first: observe(times, stepped, Xb) gets the block's node
    times and the block of :func:`rk4_sweep`.  Returns the termination of
    every row (horizon | escape) and, if record, its Trajectory, whose
    selector_index is j.
    """
    X0 = start_states(F, X0)
    if not np.isfinite(T):
        raise SolverError(f"horizon must be finite, got {T:g}")
    if T <= 0 or not np.all(np.isfinite(X0)):
        raise SolverError("horizon must be positive" if T <= 0 else "non-finite initial state")
    m = len(X0)
    n = max(1.0, np.ceil(T / cfg.step - 1e-9))
    cfg.check_steps(T, n)
    h = T / n
    times, path = [], []

    def obs(k0, stepped, Xb):
        t = h * (k0 + np.arange(len(Xb)))
        if record:
            times.append(t)
            path.append(Xb)
        if observe is not None:
            observe(t, stepped, Xb)

    _, steps, escaped = rk4_sweep(bundle_step(F, table, m, h, direction),
                                  np.tile(X0, (selections(table), 1)), n,
                                  obs if record or observe is not None else None,
                                  cfg.escape_radius)
    termination = np.full(len(escaped), "horizon", dtype=object)
    termination[escaped] = "escape"
    if not record:
        return termination, None
    times, path = np.concatenate(times), np.concatenate(path)
    return termination, [Trajectory(times[:k + 1], path[:k + 1, r], termination[r], direction,
                                    r // m) for r, k in enumerate(steps)]


def integrate(F: InclusionSpec, x0, T: float, direction: str = "forward",
              cfg: IntegratorConfig = IntegratorConfig()) -> Trajectory:
    """The path from x0 of BundlePlan(directions=1)'s one selection (a singleton's field)."""
    return solution_bundle(F, x0, T, direction, cfg, BundlePlan(directions=1))[0][0]


def solution_bundle(F: InclusionSpec, X0, T: float, direction: str = "forward",
                    cfg: IntegratorConfig = IntegratorConfig(),
                    plan: BundlePlan = BundlePlan()) -> list:
    """For every start of X0 (k, n), one trajectory per selection of plan (a
    singleton F has exactly one), all integrated in one sweep."""
    table = plan.table(F, T)
    flat = bundle_sweep(F, table, X0, T, cfg, direction, record=True)[1]
    m = len(flat) // selections(table)
    return [flat[i::m] for i in range(m)]

