"""Acceptance suite: each test pins one primary criterion at its stated
tolerance and prints a single PASS/FAIL line (run with -s to see them)."""

import json
import time

import numpy as np

from safereach.barrier import (counterexample_barrier, marginal_barrier,
                               monotonicity_check, user_barrier)
from safereach.dynamics import (InclusionSpec, builtin_field,
                                lipschitz_estimate)
from safereach.geometry import SetSpec
from safereach.infinitesimal import (NAGUMO_DEFAULT_TOL, NAGUMO_SHELL_WIDTH, RelaxFn,
                                     cone_residual, infinitesimal_check, nagumo_check)
from safereach.reachability import filippov_check
from safereach.sampling import halton
from safereach.smoothing import (ConverseResolution, build_time_partition,
                                 converse_smooth_barrier, hermite_segment,
                                 smooth_on_compact)
from safereach.solver import BundlePlan, IntegratorConfig, integrate, solution_bundle
from safereach.verify import (SafetyProblem, SamplePlan, UNDER_APPROX_DISCLAIMER,
                              simulate_safety_check)

CFG = IntegratorConfig(step=1.0 / 512.0)
ORIGIN2 = SetSpec.points([[0.0, 0.0]], name="origin")
COUNTER = InclusionSpec.singleton(builtin_field("counterexample2d"))
LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
DISK = SetSpec.ball([0, 0], 1.0, name="disk")
WALL = SetSpec.halfspace([0, 1], 2.0, name="wall")

CIRCLES = np.array([1.0 / (k * np.pi) for k in range(1, 12)])


def _verdict(name: str, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}"
          + (f"  [{detail}]" if detail else ""))
    assert ok, f"{name}: {detail}"


def off_circle_radii(count: int, lo=0.05, hi=1.0, gap=1e-3, seed=0) -> np.ndarray:
    pool = lo + (hi - lo) * halton(4 * count, 1, seed=seed)[:, 0]
    keep = pool[np.min(np.abs(pool[:, None] - CIRCLES[None, :]), axis=1) > gap]
    return keep[:count]


def test_counterexample_barrier_equivalence():
    """Marginal barrier vs closed form, rel err <= 5e-3 on the t x radius grid."""
    t0 = time.time()
    B = marginal_barrier(COUNTER, ORIGIN2, CFG, directions=1)
    ts = np.arange(0.0, 5.0 + 1e-9, 0.25)
    radii = off_circle_radii(40)
    assert len(radii) == 40
    T, R = np.meshgrid(ts, radii, indexing="ij")
    pts = np.column_stack([R.ravel(), np.zeros(R.size)])
    got = B.evaluate_many(T.ravel(), pts).value
    want = counterexample_barrier(T.ravel(), pts)
    rel = np.max(np.abs(got - want) / np.abs(want))
    elapsed = time.time() - t0
    _verdict("counterexample-barrier-equivalence",
             rel <= 5e-3 and elapsed <= 120.0,
             f"max rel err {rel:.2e}, {elapsed:.1f}s over {len(pts)} grid points")


def test_limit_cycle_drift():
    """One full period from each cycle radius drifts by <= 1e-6."""
    worst = 0.0
    for k in (1, 2, 3, 4):
        r0 = 1.0 / (k * np.pi)
        tr = integrate(COUNTER, np.array([r0, 0.0]),
                       2.0 * np.pi, cfg=CFG)
        worst = max(worst, abs(float(np.linalg.norm(tr.states[-1])) - r0))
    _verdict("limit-cycle-drift", worst <= 1e-6, f"max drift {worst:.2e}")


def test_time_zero_identity():
    """Closed-form barrier at t = 0 returns |x| to 1e-12 off the cycles."""
    radii = off_circle_radii(1000, seed=3)
    assert len(radii) == 1000
    angles = 2.0 * np.pi * halton(len(radii), 1, seed=4)[:, 0]
    worst = 0.0
    for r, a in zip(radii, angles):
        x = r * np.array([np.cos(a), np.sin(a)])
        worst = max(worst, abs(counterexample_barrier([0.0], [x])[0] - r))
    _verdict("time-zero-identity", worst <= 1e-12, f"max |B(0,x) - |x|| = {worst:.2e}")


def test_linear_example_suite():
    """Ellipse barrier decrease, 96-sample safety run, and the disk's
    failing tangent-cone certificate."""
    t0 = time.time()
    B = user_barrier("x1^2/10 + x2^2 - 1", 2)
    dec = infinitesimal_check(B, LINEAR, "smooth", "everywhere", RelaxFn.zero(),
                              t_grid=[0.0], window=([-2, -2], [2, 2]),
                              count=200, tol=1e-6)
    x1 = dec.witness["x"][0]
    fd_matches = abs(dec.worst_margin - (-x1 ** 2 / 5.0)) <= 1e-6

    p = SafetyProblem(LINEAR, DISK, WALL, 50.0, CFG, SamplePlan(64, 32))
    assert len(p.initial_samples()) == 96
    sim = simulate_safety_check(p)

    w = np.array([-np.sqrt(2.0) / 2.0, np.sqrt(2.0) / 2.0])
    A = np.array([[-1.0, -10.0], [1.0, 0.0]])
    nag = nagumo_check(LINEAR, DISK, "boundary", n_samples=64)
    # the witness alone: the contingent cone of the disk probed in the unit direction of A w
    v = A @ w
    solo = cone_residual([w], v / np.linalg.norm(v), DISK,
                         tol=max(NAGUMO_DEFAULT_TOL, NAGUMO_SHELL_WIDTH))[0]
    outward_rate = float(w @ (A @ w))
    elapsed = time.time() - t0
    ok = (dec.verdict == "pass" and fd_matches
          and sim.verdict == "no_violation_found"
          and nag.verdict == "fail" and solo > NAGUMO_DEFAULT_TOL
          and abs(outward_rate - 4.0) < 1e-12
          and elapsed <= 60.0)
    _verdict("linear-example", ok,
             f"decrease {dec.verdict} (worst {dec.worst_margin:.2e}), "
             f"safety {sim.verdict}, disk cone {nag.verdict} "
             f"with <x,Ax>={outward_rate} at witness, {elapsed:.1f}s")


def test_filippov_bound():
    """Empirical Filippov bound with the estimated Lipschitz constant."""
    lam = lipschitz_estimate(LINEAR, SetSpec.box([-3, -3], [3, 3]), grid=9)
    rng = np.random.default_rng(17)
    worst = -np.inf
    for _ in range(20):
        x = rng.uniform(-1.0, 1.0, size=2)
        y = x + rng.uniform(-1.0, 1.0, size=2) * 0.5 / np.sqrt(2.0)
        res = filippov_check(LINEAR, x[None], y[None], 1.0, lam, CFG, BundlePlan(1))
        worst = max(worst, res["max_violation"][0])
    _verdict("filippov-bound", worst <= 1e-6,
             f"lambda {lam:.4f}, max violation {worst:.2e} over 20 pairs")


def test_marginal_monotonicity_all_systems():
    """Marginal barrier nonincrease along 50 forward trajectories of each
    shipped system, increments <= 10x integrator accuracy."""
    tol = 10.0 * CFG.accuracy
    t0 = time.time()
    cases = [
        ("counterexample2d", COUNTER, ORIGIN2,
         lambda u: np.column_stack([0.2 + 0.75 * u, np.zeros(len(u))])),
        ("counterexample_radial",
         InclusionSpec.singleton(builtin_field("counterexample_radial")),
         SetSpec.points([[0.0]], name="origin1"),
         lambda u: (0.2 + 0.75 * u)[:, None]),
        ("linear_safe", LINEAR, DISK,
         lambda u: np.column_stack([1.5 * np.cos(2 * np.pi * u),
                                    1.5 * np.sin(2 * np.pi * u)])),
    ]
    detail = []
    ok = True
    for name, F, X_o, make_starts in cases:
        B = marginal_barrier(F, X_o, CFG, directions=1)
        starts = make_starts(halton(50, 1, seed=21)[:, 0])
        trajs = [tr for bundle in solution_bundle(F, starts, 2.5, cfg=CFG, plan=BundlePlan(1))
                 for tr in bundle]
        worst = monotonicity_check(B, trajs, tol=tol, stride=80).worst_margin
        detail.append(f"{name} worst increment {worst:.2e}")
        ok = ok and worst <= tol
    _verdict("marginal-monotonicity", ok,
             "; ".join(detail) + f"; tol {tol:.1e}; {time.time() - t0:.1f}s")


def test_smoothing_sandwich_grid():
    """Compact smoother of exp(-t)|x| sandwiched and monotone on 50^3 grid."""
    t0 = time.time()

    def h(t, X):
        # a table, one row per time in t; a scalar t gives the one row
        r = np.linalg.norm(np.atleast_2d(X), axis=1)
        return np.exp(-np.asarray(t, dtype=float))[..., None] * r

    ax = np.linspace(-1.0, 1.0, 65)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    r = np.linalg.norm(pts, axis=1)
    grid = pts[(r >= 0.5) & (r <= 1.0)]
    part = build_time_partition(h, grid, k_max=3, table_res=256)
    g = smooth_on_compact(part)

    ax50 = np.linspace(-1.0, 1.0, 50)
    qx, qy = np.meshgrid(ax50, ax50, indexing="ij")
    q = np.column_stack([qx.ravel(), qy.ravel()])
    rq = np.linalg.norm(q, axis=1)
    q = q[(rq >= 0.5) & (rq <= 1.0)]
    ts = np.linspace(0.0, 3.0, 50)
    vals = g.sample_times(ts, q)
    ok_sandwich = True
    for i, t in enumerate(ts):
        hv = h(float(t), q)
        if np.any(vals[i] < 0.5 * hv) or np.any(vals[i] > 2.0 * hv):
            ok_sandwich = False
            break
    ok_monotone = bool(np.all(np.diff(vals, axis=0) <= 1e-12))
    elapsed = time.time() - t0
    _verdict("smoothing-sandwich",
             ok_sandwich and ok_monotone and elapsed <= 60.0,
             f"{len(q)} points x 50 times, u={part.u_counts}, {elapsed:.1f}s")


def test_hermite_contract():
    """Endpoint/midpoint/derivative contract over 1000 random segments, on
    the array cubic that glues the smoother's snapshots."""
    rng = np.random.default_rng(33)
    t0 = rng.uniform(-5.0, 5.0, 1000)
    width = rng.uniform(0.05, 4.0, 1000)
    t1 = t0 + width
    w0, w1 = rng.uniform(-10.0, 10.0, size=(2, 1000))
    cubic = lambda t: hermite_segment(t, t0, t1, w0, w1)
    worst_end = max(np.abs(cubic(t0) - w0).max(), np.abs(cubic(t1) - w1).max())
    worst_mid = np.abs(cubic(t0 + 0.5 * width) - 0.5 * (w0 + w1)).max()
    h = 1e-6
    d0 = (cubic(t0 + h) - cubic(t0 - h)) / (2 * h)
    d1 = (cubic(t1 + h) - cubic(t1 - h)) / (2 * h)
    worst_der = max(np.abs(d0).max(), np.abs(d1).max())

    # the smoother's values are this cubic between its values at the nodes
    r = np.linspace(0.5, 1.0, 6)
    grid = np.column_stack([np.repeat(r, 8), np.tile(np.linspace(-1.0, 1.0, 8), 6)])
    part = build_time_partition(lambda ts, X: np.exp(-ts)[:, None] * np.linalg.norm(X, axis=1),
                                grid, k_max=2, table_res=64)
    g = smooth_on_compact(part)
    at_nodes = g.sample_times(g.nodes, grid)
    ts = np.sort(rng.uniform(0.0, g.t_max, 40))
    seg = np.searchsorted(g.nodes, ts, side="right") - 1
    glued = hermite_segment(ts[:, None], g.nodes[seg, None], g.nodes[seg + 1, None],
                            at_nodes[seg], at_nodes[seg + 1])
    runs_it = np.array_equal(g.sample_times(ts, grid), glued)

    ok = worst_end <= 1e-12 and worst_mid <= 1e-12 and worst_der <= 1e-6 and runs_it
    _verdict("hermite-contract", ok,
             f"endpoints {worst_end:.1e}, midpoint {worst_mid:.1e}, "
             f"derivative {worst_der:.1e}, smoother runs it {runs_it}")


def test_smooth_converse_pipeline():
    """Sign pattern and finite-difference decrease of the smooth converse
    barrier on the limit-cycle system."""
    t0 = time.time()
    f = builtin_field("counterexample2d")
    res = ConverseResolution(s_range=tuple(range(-10, 1)), k_max=6,
                             table_res=64, annulus_count=512)
    B = converse_smooth_barrier(f, ORIGIN2, CFG, res)

    zero_ok = all(B.evaluate_many([t], [np.zeros(2)]).value[0] == 0.0 for t in (0.0, 1.0, 3.0))

    ax = np.linspace(-1.0, 1.0, 30)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    grid = np.column_stack([gx.ravel(), gy.ravel()])
    grid = grid[np.linalg.norm(grid, axis=1) >= 0.15]
    pos_vals = B.evaluate_many(np.full(len(grid), 0.5), grid).value
    pos_ok = bool(np.all(pos_vals > 0.0))

    # 200 margin-band samples: positive barrier values below half the median
    rng = np.random.default_rng(5)
    band_pts, band_ts = [], []
    while len(band_pts) < 200:
        cand = rng.uniform(-1.0, 1.0, size=(400, 2))
        cand = cand[np.linalg.norm(cand, axis=1) >= 0.15]
        t_cand = rng.uniform(0.2, 1.0, size=len(cand))
        v = B.evaluate_many(t_cand, cand).value
        keep = (v > 0.0) & (v <= 0.5)
        band_pts.extend(cand[keep])
        band_ts.extend(t_cand[keep])
    band_pts = np.asarray(band_pts[:200])
    band_ts = np.asarray(band_ts[:200])

    fd = 1e-4
    tq, xq = [], []
    e1, e2 = np.array([1.0, 0.0]), np.array([0.0, 1.0])
    for t, x in zip(band_ts, band_pts):
        tq += [t + fd, t - fd, t, t, t, t]
        xq += [x, x, x + fd * e1, x - fd * e1, x + fd * e2, x - fd * e2]
    V = B.evaluate_many(np.asarray(tq), np.asarray(xq)).value.reshape(-1, 6)
    worst = -np.inf
    for i, x in enumerate(band_pts):
        fx = f(x)
        margin = ((V[i, 0] - V[i, 1]) / (2 * fd)
                  + fx[0] * (V[i, 2] - V[i, 3]) / (2 * fd)
                  + fx[1] * (V[i, 4] - V[i, 5]) / (2 * fd))
        worst = max(worst, margin)
    elapsed = time.time() - t0
    ok = zero_ok and pos_ok and worst <= 1e-4 and elapsed <= 300.0
    _verdict("smooth-converse-pipeline", ok,
             f"zero on target {zero_ok}, min grid value {pos_vals.min():.3f}, "
             f"worst directional FD {worst:.2e}, {elapsed:.1f}s")


def test_perturbed_safety():
    """Ball-perturbed spiral with eps = 0.1: no selection from the disk
    reaches the wall; the report keeps the under-approximation disclaimer."""
    t0 = time.time()
    F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
    cfg = IntegratorConfig(step=1.0 / 256.0)
    p = SafetyProblem(F, DISK, WALL, 50.0, cfg, SamplePlan(64, 32),
                      BundlePlan(directions=16))
    rep = simulate_safety_check(p)
    elapsed = time.time() - t0
    ok = (rep.verdict == "no_violation_found"
          and json.loads(rep.to_json())["disclaimers"] == [UNDER_APPROX_DISCLAIMER]
          and rep.coverage["trajectories"] == 96 * 16)
    _verdict("perturbed-safety", ok,
             f"{rep.verdict}, margin {rep.margin:.3f}, "
             f"{rep.coverage['trajectories']} trajectories, {elapsed:.1f}s")
