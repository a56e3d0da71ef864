import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.linalg import expm

from safereach.dynamics import (DynamicsError, FieldHandle, InclusionSpec, LINEAR_SAFE_A,
                                builtin_field, field_from_expressions, linear_field,
                                lipschitz_estimate)
from safereach.barrier import marginal_barrier
from safereach.geometry import SamplePlan, SetSpec, distance_to_set_many
import safereach
from safereach import reachability, smoothing, solver, verify
from safereach.solver import (BundlePlan, IntegratorConfig, SolverError, Trajectory,
                              bundle_field, bundle_step, bundle_sweep, integrate, rk4_stages,
                              rk4_sweep, selections, solution_bundle, tube_minimum, write_csv)

from helpers import negated, selection_path

LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
CFG = IntegratorConfig(step=1.0 / 512.0)
ORIGIN = SetSpec.points([[0.0, 0.0]], name="origin")


class TestIntegrate:
    def test_linear_against_matrix_exponential(self):
        x0 = np.array([1.0, 0.0])
        T = 2 * np.pi
        tr = integrate(LINEAR, x0, T, cfg=CFG)
        oracle = expm(LINEAR_SAFE_A * T) @ x0
        assert tr.termination == "horizon"
        assert np.linalg.norm(tr.states[-1] - oracle) < 1e-8
        assert np.max(np.linalg.norm(tr.states, axis=1)) < 4.0

    def test_rk4_order_via_step_halving(self):
        x0 = np.array([1.0, 0.0])
        T = 1.0
        oracle = expm(LINEAR_SAFE_A * T) @ x0
        errs = []
        for step in (1 / 64, 1 / 128):
            tr = integrate(LINEAR, x0, T,
                           cfg=IntegratorConfig(step=step))
            errs.append(np.linalg.norm(tr.states[-1] - oracle))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_limit_cycle_radius_preserved(self):
        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        for k in (1, 2, 3, 4):
            r0 = 1.0 / (k * np.pi)
            tr = integrate(F, np.array([r0, 0.0]),
                           2 * np.pi, cfg=CFG)
            assert abs(np.linalg.norm(tr.states[-1]) - r0) < 1e-6

    def test_equilibrium_constant(self):
        F = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
        tr = integrate(F, np.array([0.3, 0.4]), 1.0, cfg=CFG)
        assert np.allclose(tr.states, [0.3, 0.4])

    def test_forward_backward_roundtrip(self):
        x0 = np.array([0.8, -0.3])
        fwd = integrate(LINEAR, x0, 1.0, cfg=CFG)
        back = integrate(LINEAR, fwd.states[-1], 1.0,
                         direction="backward", cfg=CFG)
        assert np.linalg.norm(back.states[-1] - x0) < 10 * CFG.accuracy

    def test_escape_termination(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        cfg = IntegratorConfig(step=1 / 64, escape_radius=10.0)
        tr = integrate(F, np.array([1.0, 0.0]), 10.0, cfg=cfg)
        assert tr.termination == "escape"
        assert tr.times[-1] < 10.0
        assert np.linalg.norm(tr.states[-2]) <= 10.0

    def test_horizon_must_be_positive(self):
        with pytest.raises(SolverError):
            integrate(LINEAR, np.zeros(2), 0.0, cfg=CFG)

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_horizon_must_be_finite(self, T):
        # an infinite horizon overflowed the int step count, a NaN one failed its cast
        with pytest.raises(SolverError, match=f"horizon must be finite, got {T}"):
            bundle_sweep(LINEAR, BundlePlan().table(LINEAR), np.ones((2, 2)), T, CFG)
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        with pytest.raises(SolverError, match=f"horizon must be finite, got {T}"):
            BundlePlan(directions=2, switches=1).table(F, T)

    def test_rk4_holds_counterexample_limit_cycle(self):
        # the radial rate (r^2/2) sin^2(1/r) has a derivative bounded by r + 1/2,
        # so fixed-step RK4 needs no step control near the origin
        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        r0 = 1.0 / (2 * np.pi)
        tr = integrate(F, np.array([r0, 0.0]), 2 * np.pi, cfg=CFG)
        assert abs(np.linalg.norm(tr.states[-1]) - r0) < 1e-6

    def test_backward_stores_nonnegative_times(self):
        tr = integrate(LINEAR, np.array([1.0, 0.0]), 0.5,
                       direction="backward", cfg=CFG)
        assert tr.direction == "backward"
        assert tr.times[0] == 0.0 and np.all(np.diff(tr.times) > 0)
        oracle = expm(-LINEAR_SAFE_A * 0.5) @ np.array([1.0, 0.0])
        assert np.linalg.norm(tr.states[-1] - oracle) < 1e-7


class TestBundle:
    def test_singleton_bundle_size_one(self):
        trs = solution_bundle(LINEAR, [[1.0, 0.0]], 0.5, cfg=CFG, plan=BundlePlan(8))[0]
        assert len(trs) == 1

    def test_degenerate_ball_identical(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.0)
        trs = solution_bundle(F, [[1.0, 0.0]], 0.5, cfg=CFG, plan=BundlePlan(8))[0]
        assert len(trs) == 8
        ends = np.array([tr.states[-1] for tr in trs])
        assert np.allclose(ends, ends[0])

    def test_gronwall_endpoint_spread(self):
        eps, T = 0.1, 1.0
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), eps)
        lam = lipschitz_estimate(InclusionSpec.singleton(builtin_field("linear_safe")),
                                 SetSpec.box([-3, -3], [3, 3]), grid=7)
        trs = solution_bundle(F, [[1.0, 0.0]], T, cfg=CFG, plan=BundlePlan(8))[0]
        ends = np.array([tr.states[-1] for tr in trs])
        spread = max(np.linalg.norm(a - b) for a in ends for b in ends)
        bound = 2 * eps * (np.exp(lam * T) - 1.0) / lam
        assert spread <= bound

    def test_every_trajectory_satisfies_inclusion(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.05)
        trs = solution_bundle(F, [[0.5, 0.5]], 0.5, cfg=CFG,
                              plan=BundlePlan(4, switches=1))[0]
        for tr in trs:
            mid = tr.states[:-1]
            fd = np.diff(tr.states, axis=0) / np.diff(tr.times)[:, None]
            ev_r = F.epsilon
            centers = F.fields[0](mid)
            # distance of the finite-difference slope to the velocity set
            gap = np.linalg.norm(fd - centers, axis=1) - ev_r
            speed = np.linalg.norm(centers, axis=1).max()
            assert np.max(gap) <= 12.0 * speed * CFG.step

    def test_a_hull_with_more_directions_than_fields_adds_interior_weights(self):
        # closed form: under the constant fields e1 and e2 a selection of
        # weights w moves x0 to x0 + T w; the first two are the vertices, the
        # other three weight both fields and differ from one another
        F = InclusionSpec.hull([field_from_expressions(["1 + 0 * x1", "0 * x2"]),
                                field_from_expressions(["0 * x1", "1 + 0 * x2"])])
        trs = solution_bundle(F, [[0.5, -1.0]], 2.0, cfg=CFG, plan=BundlePlan(5, seed=4))[0]
        w = np.array([tr.states[-1] - [0.5, -1.0] for tr in trs]) / 2.0
        assert np.allclose(w[:2], np.eye(2), rtol=0.0, atol=1e-12)
        assert np.allclose(w.sum(axis=1), 1.0, rtol=0.0, atol=1e-12)
        assert (w[2:] > 0.0).all() and len(np.unique(w[2:, 0].round(12))) == 3

    def test_deterministic_selector_order(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        a = solution_bundle(F, [[1.0, 0.0]], 0.25, cfg=CFG, plan=BundlePlan(4))[0]
        b = solution_bundle(F, [[1.0, 0.0]], 0.25, cfg=CFG, plan=BundlePlan(4))[0]
        for ta, tb in zip(a, b):
            assert ta.selector_index == tb.selector_index
            assert np.array_equal(ta.states, tb.states)

    def test_one_plan_type(self):
        assert reachability.BundlePlan is BundlePlan
        assert verify.BundlePlanV is BundlePlan
        assert safereach.BundlePlan is BundlePlan


class TestTimeRescale:
    """The rescaled clock tau(t) = t + integral_0^t ds / d(y(s), X_o)^2 along
    the backward path y from x, read off what the converse barrier passes to
    its smoothed function, below the soft-saturation knee."""

    @staticmethod
    def clock(monkeypatch, f, X_o, ts, X):
        seen = []

        class Recorder:
            def sample_pairs(self, tau, Y):
                seen.append((np.array(tau), np.array(Y)))
                return np.zeros(len(Y))

        monkeypatch.setattr(smoothing, "smooth_global", lambda *args, **kw: Recorder())
        B = smoothing.ConverseBarrier(f, X_o, CFG, smoothing.ConverseResolution())
        values, cut = B.values(np.asarray(ts, dtype=float), np.asarray(X, dtype=float))
        assert not cut.any() and len(cut) == len(values)    # no backward tube is cut short
        return values, seen

    def test_constant_trajectory_at_unit_radius(self, monkeypatch):
        ts = np.array([0.25, 0.5, 1.0])
        _, [(tau, Y)] = self.clock(monkeypatch, field_from_expressions(["0", "0"], "zero"),
                                   ORIGIN, ts, np.tile([1.0, 0.0], (3, 1)))
        assert np.allclose(tau, 2.0 * ts)
        assert np.array_equal(Y, np.tile([1.0, 0.0], (3, 1)))

    def test_against_quadrature_oracle(self, monkeypatch):
        x0 = np.array([1.0, 0.0])
        ts = np.array([0.25, 0.5, 1.0])
        _, [(tau, Y)] = self.clock(monkeypatch, builtin_field("linear_safe"), ORIGIN, ts,
                                   np.tile(x0, (3, 1)))
        oracle = [t + quad(lambda s: 1.0 / float(np.sum((expm(-LINEAR_SAFE_A * s) @ x0) ** 2)),
                           0.0, t, epsabs=1e-12, epsrel=1e-12)[0] for t in ts]
        assert tau == pytest.approx(oracle, abs=1e-4)
        assert np.all(np.diff(tau) > 0) and tau[-1] < smoothing.ConverseResolution().k_max - 1
        for t, y in zip(ts, Y):
            assert np.linalg.norm(y - expm(-LINEAR_SAFE_A * t) @ x0) < 1e-8

    def test_zero_set_rejected(self, monkeypatch):
        # a backward path that touches X_o is worth 0 and passes no clock on
        X = np.array([[0.01, 0.0], [1.0, 0.0]])
        values, [(tau, Y)] = self.clock(monkeypatch, builtin_field("linear_safe"),
                                        SetSpec.ball([0.0, 0.0], 0.05), [1.0, 1.0], X)
        assert values.tolist() == [0.0, 0.0]
        assert len(tau) == 1 and np.linalg.norm(Y[0] - expm(-LINEAR_SAFE_A) @ X[1]) < 1e-8


class TestTrajectory:
    def test_times_must_increase(self):
        with pytest.raises(SolverError):
            Trajectory([0.0, 0.0], [[0.0], [1.0]])

    def test_csv_roundtrip(self, tmp_path):
        tr = integrate(LINEAR, np.array([1.0, 0.0]), 0.1, cfg=CFG)
        path = tmp_path / "tr.csv"
        tr.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], tr.times)
        assert np.array_equal(data[:, 1:], tr.states)

    @pytest.mark.parametrize("rows", [1, 2, 257])
    @pytest.mark.parametrize("last, header", [("", "t,x1,x2"), ("B", "t,x1,B")])
    def test_csv_writer_matches_savetxt(self, tmp_path, rows, last, header):
        data = np.random.default_rng(rows).normal(scale=1e3, size=(rows, 3))
        specials = [-0.0, np.nan, np.inf, -np.inf, 1e-300, 0.1, 3.0, -2.5e17, 5e-324]
        data.ravel()[:len(specials)] = specials[:data.size]
        write_csv(tmp_path / "ours.csv", "t", data, last)
        np.savetxt(tmp_path / "ref.csv", data, delimiter=",", header=header, comments="",
                   fmt="%.17g")
        assert (tmp_path / "ours.csv").read_bytes() == (tmp_path / "ref.csv").read_bytes()


def _assert_bundle_matches_integrate(plan, T):
    # one sweep against one rerun per selection, its column of the table alone
    F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
    x0 = np.array([1.0, 0.0])
    batched = solution_bundle(F, x0[None], T, cfg=CFG, plan=plan)[0]
    table = plan.table(F, T)
    assert len(batched) == selections(table)
    for j, tr in enumerate(batched):
        ref = selection_path(F, table, j, x0, T, "forward", CFG)
        assert tr.selector_index == j
        assert np.array_equal(tr.times, ref.times)
        assert np.array_equal(tr.states, ref.states)
    return table


class TestBatchedBundles:
    def test_batched_bundle_matches_per_selector_integrate(self):
        assert selections(_assert_bundle_matches_integrate(BundlePlan(6), 0.5)) == 6

    def test_switched_bundle_matches_per_selector_integrate(self):
        switch_times, D = _assert_bundle_matches_integrate(BundlePlan(6, switches=2), 1.0)
        assert D.shape[1] == 12
        assert np.array_equal(switch_times, [1 / 3, 2 / 3])

    def test_switch_grid_is_absolute(self):
        # the family restricted to [0, 1] is the same whatever the horizon
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        (st_a, D_a), (st_b, D_b) = BundlePlan(4, 2).table(F, 1.0), BundlePlan(4, 2).table(F, 3.0)
        assert D_a.shape[1] == D_b.shape[1] == 8
        k = len(st_a)
        assert np.array_equal(st_a, [1 / 3, 2 / 3])
        assert np.array_equal(st_b[:k], st_a) and st_b[k] >= 1.0
        # constant columns on every segment, piecewise ones on the segments of [0, 1]
        assert (D_b[:, :4] == D_a[0, :4]).all()
        assert np.array_equal(D_b[:k + 1], D_a)

    def test_batch_of_starts_matches_one_start_at_a_time(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        starts = np.array([[1.0, 0.0], [0.2, -0.4], [-0.5, 0.5]])
        batched = solution_bundle(F, starts, 0.5, cfg=CFG, plan=BundlePlan(3, switches=2))
        assert len(batched) == len(starts)
        for x0, trajs in zip(starts, batched):
            single = solution_bundle(F, x0[None], 0.5, cfg=CFG,
                                     plan=BundlePlan(3, switches=2))[0]
            assert [t.selector_index for t in trajs] == [t.selector_index for t in single]
            for a, b in zip(trajs, single):
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.states, b.states)


COUNTER = InclusionSpec.singleton(builtin_field("counterexample2d"))
START3 = [[0.3, 0.1, 0.0]]


def _converse_values(X):
    res = smoothing.ConverseResolution(s_range=tuple(range(-8, 1)), k_max=4, table_res=32,
                                       annulus_count=256)
    B = smoothing.converse_smooth_barrier(COUNTER.base_field, ORIGIN, CFG, res)
    return B.evaluate_many([0.5], X)


class TestStartWidth:
    # each entry point, given 3-wide starts for a 2-D inclusion, which it
    # would otherwise step with an uninitialised x3, or fail on with an
    # IndexError or a broadcast ValueError
    @pytest.mark.parametrize("run", [
        lambda: solution_bundle(COUNTER, START3, 0.1),
        lambda: integrate(COUNTER, START3[0], 0.1),
        lambda: reachability.reach(COUNTER, np.array(START3[0]), -0.5, CFG, BundlePlan()),
        lambda: reachability.reach(COUNTER, np.array(START3[0]), 0.0, CFG, BundlePlan()),
        lambda: verify.simulate_safety_check(verify.SafetyProblem(
            LINEAR, SetSpec.ball([0.0, 0.0, 0.0], 0.5), SetSpec.halfspace([0.0, 1.0, 0.0], 2.0),
            1.0, CFG, SamplePlan(4, 4))),
        lambda: solution_bundle(InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1),
                                START3, 0.1, plan=BundlePlan(4)),
        lambda: marginal_barrier(COUNTER, ORIGIN, CFG, 1).evaluate_many([0.5], START3),
        lambda: tube_minimum(COUNTER, BundlePlan().table(COUNTER), START3, [[4]], 0.125,
                             "backward", ORIGIN),
        lambda: _converse_values(START3),
    ], ids=["solution_bundle", "integrate", "reach", "reach_at_t0", "simulate_check", "ball",
            "marginal", "tube_minimum", "converse"])
    def test_a_start_of_another_width_is_refused_naming_both(self, run):
        with pytest.raises(SolverError, match="^start states have 3 coordinates, "
                                              "the inclusion has dimension 2$"):
            run()


class _CountingField:
    """Linear right-hand side x -> A x that records the rows of every call."""

    def __init__(self, A=LINEAR_SAFE_A):
        self.A = np.asarray(A, dtype=float)
        self.rows = []

    def __call__(self, k, rows, X):
        self.rows.append(len(X))
        return X @ self.A.T


class TestSweepKernel:
    def test_four_rhs_calls_per_step_each_of_all_rows(self):
        fn = _CountingField()
        m, n = 7, 13
        X0 = np.random.default_rng(0).normal(size=(m, 2))
        _, steps, escaped = rk4_sweep(rk4_stages(fn, 1 / 64), X0, n)
        assert fn.rows == [m] * (4 * n)
        assert np.array_equal(steps, np.full(m, n))
        assert not escaped.any()

    def test_observer_sees_the_rows_that_stepped(self, monkeypatch):
        # blocks of 7 nodes of 2 rows: 0-6, 7-13 (row 0 escapes inside), 14-20
        monkeypatch.setattr(solver, "BLOCK_ROWS", 14)
        X0 = np.array([[1.0, 0.0], [1e-3, 0.0]])
        blocks = []
        X, steps, _ = rk4_sweep(rk4_stages(_CountingField(np.eye(2)), 0.25), X0, 20,
                                escape_radius=10.0, observe=lambda k0, stepped, Xb: blocks.append(
                                    (k0, stepped.copy(), Xb.copy())))
        e = int(steps[0])
        assert [(k0, len(Xb)) for k0, _, Xb in blocks] == [(0, 7), (7, 7), (14, 7)]
        assert 7 < e < 13
        stepped = np.concatenate([s for _, s, _ in blocks])
        states = np.concatenate([Xb for _, _, Xb in blocks])
        assert ([np.flatnonzero(s).tolist() for s in stepped]
                == [[0, 1]] * (e + 1) + [[1]] * (20 - e))
        assert np.array_equal(states[0], X0)
        assert (states[e:, 0] == X[0]).all()   # frozen at the escape node
        assert np.array_equal(states[-1], X)

    def test_escaped_rows_freeze_and_stop_stepping(self):
        fn = _CountingField(np.eye(2))
        X0 = np.array([[1.0, 0.0], [1e-3, 0.0]])
        X, steps, escaped = rk4_sweep(rk4_stages(fn, 0.25), X0, 20, escape_radius=10.0)
        assert escaped.tolist() == [True, False]
        assert steps[0] < 20 and steps[1] == 20
        assert 10.0 < np.linalg.norm(X[0]) < 20.0
        assert fn.rows == [2] * (4 * steps[0]) + [1] * (4 * (20 - steps[0]))

    def test_non_finite_state_raises(self):
        blow = lambda k, rows, X: np.where(k > 2, np.inf, 1.0) * X
        with pytest.raises(SolverError, match="non-finite state at step 3"):
            rk4_sweep(rk4_stages(blow, 0.1), np.ones((3, 2)), 5)

    def test_per_row_step_counts(self, monkeypatch):
        # blocks of 2 nodes of 3 rows: row 1 finishes inside the second block
        monkeypatch.setattr(solver, "BLOCK_ROWS", 6)
        fn = _CountingField()
        X0 = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        seen = []
        X, steps, escaped = rk4_sweep(rk4_stages(fn, 1 / 64), X0, np.array([0, 3, 5]),
                                      observe=lambda k0, stepped, Xb: seen.append(
                                          (k0, [np.flatnonzero(s).tolist() for s in stepped])))
        assert fn.rows == [2] * 12 + [1] * 8
        assert seen == [(0, [[0, 1, 2], [1, 2]]), (2, [[1, 2], [1, 2]]), (4, [[2], [2]])]
        assert steps.tolist() == [0, 3, 5] and not escaped.any()
        assert np.array_equal(X[0], X0[0])
        three, _, _ = rk4_sweep(rk4_stages(_CountingField(), 1 / 64), X0[1:2], 3)
        assert np.array_equal(X[1], three[0])

    def test_rows_an_observer_settles_leave_at_the_blocks_last_node(self, monkeypatch):
        # blocks of 4 nodes of 3 rows: nodes 0-3, 4-7, 8-10; row 1 is settled
        # by the first block and leaves at node 3, row 2 by the second and
        # leaves at node 7; returning row 1 again, no longer live, is a no-op
        monkeypatch.setattr(solver, "BLOCK_ROWS", 12)
        fn = _CountingField(np.eye(2))
        X0 = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        settle, blocks = {0: [1], 4: np.array([2, 1])}, []

        def observe(k0, stepped, Xb):
            blocks.append((k0, [np.flatnonzero(s).tolist() for s in stepped], Xb))
            return settle.get(k0)

        X, steps, escaped = rk4_sweep(rk4_stages(fn, 1 / 64), X0, 10, observe)
        assert steps.tolist() == [10, 3, 7] and not escaped.any()
        assert fn.rows == [3] * 12 + [2] * 16 + [1] * 12
        assert [(k0, stepped) for k0, stepped, _ in blocks] == [
            (0, [[0, 1, 2]] * 4), (4, [[0, 2]] * 4), (8, [[0]] * 3)]
        # a settled row keeps its state at the node it left: a sweep to that node alone
        for i, k in enumerate(steps):
            alone, _, _ = rk4_sweep(rk4_stages(_CountingField(np.eye(2)), 1 / 64),
                                    X0[i:i + 1], k)
            assert np.array_equal(X[i], alone[0])
        assert np.array_equal(blocks[0][2][3, 1], X[1])
        assert np.array_equal(blocks[1][2][3, 2], X[2])

    def test_settling_every_row_ends_the_sweep(self, monkeypatch):
        # the second block, nodes 4-7, settles both rows: no step 8, and no
        # empty block is observed after it
        monkeypatch.setattr(solver, "BLOCK_ROWS", 8)
        fn = _CountingField()
        blocks = []
        X, steps, _ = rk4_sweep(rk4_stages(fn, 1 / 64), np.eye(2), 20,
                                lambda k0, stepped, Xb: blocks.append(k0) or
                                ([0, 1] if k0 == 4 else None))
        assert blocks == [0, 4] and steps.tolist() == [7, 7]
        assert fn.rows == [2] * (4 * 7)

    def test_an_observer_returning_none_changes_nothing(self, monkeypatch):
        monkeypatch.setattr(solver, "BLOCK_ROWS", 6)
        X0 = np.random.default_rng(1).normal(size=(3, 2))
        runs = []
        for observe in (None, lambda k0, stepped, Xb: None):
            fn = _CountingField(np.eye(2))
            runs.append((rk4_sweep(rk4_stages(fn, 0.25), X0, np.array([4, 9, 20]), observe,
                                   escape_radius=10.0), fn.rows))
        (X, steps, escaped), rows = runs[0]
        assert escaped.any() and not escaped.all()
        assert np.array_equal(runs[1][0][0], X) and runs[1][1] == rows
        assert np.array_equal(runs[1][0][1], steps) and np.array_equal(runs[1][0][2], escaped)

    def test_the_live_row_index_is_rebuilt_only_when_the_live_rows_change(self):
        # rows 0 and 3 finish after step 2, then row 1 after step 4: the
        # live rows are 0-3, then 1-2, then 2 alone, each one run, so a
        # slice; a hole in them makes an index array
        indices = []

        def step(k, rows, X, W):
            indices.append(rows)
            return X + 1.0

        rk4_sweep(step, np.zeros((4, 1)), np.array([2, 4, 6, 2]))
        assert [(r.start, r.stop) for r in indices] == [(0, 4)] * 2 + [(1, 3)] * 2 + [(2, 3)] * 2
        assert indices[0] is indices[1] and indices[2] is indices[3]
        indices.clear()
        X, _, _ = rk4_sweep(step, np.zeros((4, 1)), np.array([3, 1, 3, 2]))
        assert isinstance(indices[1], np.ndarray) and indices[1].tolist() == [0, 2, 3]
        assert indices[2].tolist() == [0, 2] and X[:, 0].tolist() == [3, 1, 3, 2]

    def test_per_row_steps(self):
        f = builtin_field("linear_safe")
        X0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        X, _, _ = rk4_sweep(rk4_stages(lambda k, rows, X: f(X), np.array([1 / 64, 1 / 128])),
                            X0, 64)
        one, _, _ = rk4_sweep(rk4_stages(lambda k, rows, X: f(X), 1 / 128), X0[:1], 64)
        assert np.array_equal(X[1], one[0])
        assert np.linalg.norm(X[0] - expm(LINEAR_SAFE_A) @ X0[0]) < 1e-7

    @pytest.mark.parametrize("n_steps", [4, np.array([0, 2, 4])])
    def test_the_first_block_opens_with_node_zero(self, n_steps):
        X0 = np.array([[1.0, 0.0], [0.5, 0.5], [-0.0, 1.0]])
        blocks = []
        rk4_sweep(rk4_stages(_CountingField(), 1 / 64), X0, n_steps,
                  observe=lambda k0, stepped, Xb: blocks.append((k0, stepped, Xb)))
        # 3 rows x 5 nodes fit one block
        [(k0, stepped, Xb)] = blocks
        assert k0 == 0 and len(Xb) == 5
        assert np.array_equal(Xb[0].view(np.uint64), X0.view(np.uint64))
        assert stepped[0].all()

    @pytest.mark.parametrize("n_steps", [0, np.zeros(3, dtype=int)])
    def test_a_sweep_of_no_step_observes_node_zero_once(self, n_steps):
        fn = _CountingField()
        X0 = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        blocks = []
        X, steps, _ = rk4_sweep(rk4_stages(fn, 1 / 64), X0, n_steps,
                                observe=lambda k0, stepped, Xb: blocks.append((k0, stepped, Xb)))
        assert fn.rows == [] and steps.tolist() == [0, 0, 0]
        [(k0, stepped, Xb)] = blocks
        assert k0 == 0 and stepped.tolist() == [[True] * 3]
        assert np.array_equal(Xb, X0[None]) and np.array_equal(X, X0)


def _old_stage(F, table, m, h, direction, k, rows, X):
    """The velocity of the rows at step k, computed as before the stage
    builder, stepped by +h both ways: the negated inclusion's FieldHandle
    calls, selected per row."""
    fields = [f if direction == "forward" else negated(f) for f in F.fields]
    if F.kind == "singleton":
        return fields[0](X)
    switch_times, D = table
    s = D[np.searchsorted(switch_times, (k - 0.5) * h, side="right")][
        np.repeat(np.arange(selections(table)), m)[rows]]
    if F.kind == "ball":
        return fields[0](X) + F.epsilon * s
    out = fields[0](X) * s[..., 0, None]
    for i, f in enumerate(fields[1:], start=1):
        out = out + f(X) * s[..., i, None]
    return out


def _stage(F, table, m, h, direction, k, rows, X):
    """The stage value of bundle_field, which the sweep steps by -h
    backward: _old_stage forward, of the forward inclusion with a ball's
    offsets negated."""
    if direction == "backward" and F.kind == "ball":
        F = F._replace(epsilon=-F.epsilon)
    return _old_stage(F, table, m, h, "forward", k, rows, X)


def _signed(h, direction):
    """The step of a sweep's stages: -h backward."""
    return h if direction == "forward" else np.negative(h)


class TestStageFunction:
    f = builtin_field("counterexample2d")
    QUAD = field_from_expressions(["x2 - x1", "x1*x2/2 - x2"], "quad")
    INCLUSIONS = {"singleton": InclusionSpec.singleton(f),
                  "ball": InclusionSpec.ball_perturbed(f, 0.3),
                  "hull": InclusionSpec.hull([f, QUAD, negated(f)])}

    @pytest.mark.parametrize("kind", ["singleton", "ball", "hull"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("switches", [0, 2])
    @pytest.mark.parametrize("rows", [slice(None), np.array([0, 3, 4, 9, 11])])
    def test_equals_the_selected_velocity_bit_for_bit(self, kind, direction, switches, rows):
        F, m, h = self.INCLUSIONS[kind], 4, 1 / 64
        table = BundlePlan(3, switches=switches).table(F, 2.0)
        fn = bundle_field(F, table, m, h, direction)
        if isinstance(rows, np.ndarray):
            rows = rows[rows < selections(table) * m]   # a singleton has one selection
        X = np.random.default_rng(3).normal(size=(selections(table) * m, 2))[rows]
        X[0] = 0.0   # signed zeros: a negated field gives -0.0
        for k in (1, 21, 22, 64, 100, 128):
            new, old = fn(k, rows, X), _stage(F, table, m, h, direction, k, rows, X)
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_a_sweep_calls_only_the_field_fn(self, monkeypatch, direction):
        fn_rows, guarded = [], []
        g = FieldHandle(lambda X: (fn_rows.append(len(X)), self.f.fn(X))[1], 2, "counted")
        guard = FieldHandle.__call__
        monkeypatch.setattr(FieldHandle, "__call__",
                            lambda fh, x: (guarded.append(len(x)), guard(fh, x))[1])
        table = BundlePlan(3).table(InclusionSpec.ball_perturbed(g, 0.1))
        X0 = np.random.default_rng(1).uniform(-0.5, 0.5, size=(5, 2))
        bundle_sweep(InclusionSpec.ball_perturbed(g, 0.1), table, X0, 11 / 512, CFG, direction)
        assert fn_rows == [15] * (4 * 11) and guarded == []

    @staticmethod
    def _inclusion(kind, g):
        """An inclusion of the given kind holding field g; a hull puts g
        after a well-formed field, so each field's value is checked."""
        if kind == "singleton":
            return InclusionSpec.singleton(g)
        if kind == "ball":
            return InclusionSpec.ball_perturbed(g, 0.1)
        return InclusionSpec.hull([builtin_field("linear_safe"), g])

    @pytest.mark.parametrize("kind", ["singleton", "ball", "hull"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_one_frame_lies_between_the_kernel_and_the_field(self, kind, direction):
        callers = []

        def fn(X):
            # field <- stage closure <- the step of rk4_stages <- rk4_sweep
            frames = [sys._getframe(1), sys._getframe(2), sys._getframe(3)]
            callers.append(tuple((f.f_code.co_filename, f.f_code.co_qualname) for f in frames))
            return self.f.fn(X)

        F = self._inclusion(kind, FieldHandle(fn, 2, "framed"))
        X0 = np.random.default_rng(2).uniform(-0.5, 0.5, size=(3, 2))
        bundle_sweep(F, BundlePlan(2).table(F), X0, 3 / 512, CFG, direction)
        stage = "bundle_field.<locals>." + ("hull" if kind == "hull" else "stage")
        assert len(callers) == 4 * 3
        assert set(callers) == {((solver.__file__, stage),
                                 (solver.__file__, "rk4_stages.<locals>.step"),
                                 (solver.__file__, "rk4_sweep"))}

    @pytest.mark.parametrize("kind", ["singleton", "ball", "hull"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("good_calls, bad, shape", [
        (0, lambda X: X[:, :1].copy(), r"\(6, 1\)"),
        (0, lambda X: X[0].copy(), r"\(2,\)"),
        # a well-shaped first value, then a value the kernel would broadcast
        (1, lambda X: -X[:, :1], r"\(6, 1\)")])
    def test_a_value_of_the_wrong_shape_is_refused_naming_both(self, kind, direction,
                                                               good_calls, bad, shape):
        calls = []

        def fn(X):
            calls.append(len(X))
            return -X if len(calls) <= good_calls else bad(X)

        F = self._inclusion(kind, FieldHandle(fn, 2, "bad"))
        table = BundlePlan(2).table(F)
        X0 = np.random.default_rng(4).uniform(-0.5, 0.5, size=(6 // selections(table), 2))
        with pytest.raises(DynamicsError,
                           match=rf"^field 'bad' returned shape {shape} for input \(6, 2\)$"):
            bundle_sweep(F, table, X0, 3 / 512, CFG, direction)

    def test_a_field_going_nan_in_one_row_ends_the_sweep_quietly(self):
        # x1 moves at unit speed; log(1.2 - x1) is NaN past 1.2, reached in step 2
        g = FieldHandle(lambda X: np.stack([1.0 + 0.0 * np.log(1.2 - X[:, 0]),
                                            0.0 * X[:, 1]], axis=-1), 2, "wall")
        X0 = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"non-finite state at step 2; last valid "
                                                  r"state \[1\.1\d*, 0\.0\]"):
                F = InclusionSpec.singleton(g)
                bundle_sweep(F, BundlePlan().table(F), X0, 1.0, IntegratorConfig(step=0.1))


class TestNodeZeroInTheSweep:
    """Node 0 is folded by the sweep's observer like any other node; the
    results equal those of folding it apart, from the recorded paths."""

    ELLIPSE = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10.0 + X[:, 1] ** 2 - 1.0, 0.0, 2,
                               [-4.0, -2.0, 4.0, 2.0], grid=41)

    def test_a_one_block_tube_makes_one_distance_batch(self, monkeypatch):
        calls = []
        monkeypatch.setattr(solver, "distance_to_set_many",
                            lambda X, S: calls.append(len(X)) or distance_to_set_many(X, S))
        X = np.random.default_rng(5).uniform([-3.6, -1.8], [3.6, 1.8], size=(28, 2))
        K = np.array([[0] * 14 + [4] * 14, [8] * 28])
        # 28 rows x 9 nodes fit one block of BLOCK_ROWS
        assert 28 * 9 <= solver.BLOCK_ROWS
        best, _ = tube_minimum(LINEAR, BundlePlan().table(LINEAR), X, K, 1 / 32, "backward",
                               self.ELLIPSE)
        assert calls == [28 * 9]
        paths = solution_bundle(LINEAR, X, 8 / 32, "backward", IntegratorConfig(step=1 / 32),
                                BundlePlan(1))
        ref = [[distance_to_set_many(trs[0].states[:k + 1], self.ELLIPSE).min()
                for k, trs in zip(row, paths)] for row in K]
        assert np.array_equal(best, ref)
        # one more node than a block holds splits it in two; the rows that
        # reached the ellipse by node 7 are settled and leave after the first
        monkeypatch.setattr(solver, "BLOCK_ROWS", 28 * 9 - 1)
        calls.clear()
        again, _ = tube_minimum(LINEAR, BundlePlan().table(LINEAR), X, K, 1 / 32, "backward",
                                self.ELLIPSE)
        inside = sum(distance_to_set_many(trs[0].states[:8], self.ELLIPSE).min() == 0.0
                     for trs in paths)
        assert inside == 9
        assert calls == [28 * 8, 28 - inside] and np.array_equal(again, best)

    def test_simulate_check_equals_the_fold_of_recorded_paths(self):
        F = InclusionSpec.ball_perturbed(field_from_expressions(["x1", "0 - x2"]), 0.1)
        p = verify.SafetyProblem(F, SetSpec.ball([0.0, 0.0], 0.5),
                                 SetSpec.halfspace([1.0, 0.0], 1.5), 2.0,
                                 IntegratorConfig(step=1 / 32), verify.SamplePlan(4, 4, seed=2),
                                 BundlePlan(3, switches=1))
        rep = verify.simulate_safety_check(p)
        starts = p.initial_samples()
        paths = solution_bundle(F, starts, p.horizon, cfg=p.cfg, plan=p.bundle)
        # the starts' margins first, then every path's, as they were folded apart
        margin = float(p.unsafe_margins(starts).min())
        hits = []
        for q, trs in enumerate(paths):
            for tr in trs:
                margins = p.unsafe_margins(tr.states[1:])
                margin = min(margin, float(margins.min()))
                k = np.flatnonzero(p.margin_hits(margins))
                if len(k):
                    hits.append((tr.times[k[0] + 1], tr.selector_index, q, tr.states[k[0] + 1]))
        t, sel, q, state = min(hits, key=lambda hit: hit[:3])
        assert rep.verdict == "violation" and rep.margin == margin
        assert rep.witness == {"x0": starts[q].tolist(), "selector": sel,
                               "hit_time": t, "hit_state": state.tolist()}

    def test_filippov_check_equals_the_fold_of_recorded_paths(self):
        F = InclusionSpec.ball_perturbed(builtin_field("counterexample2d"), 0.2)
        plan, lam, T = BundlePlan(3, switches=1, seed=1), 0.5, 0.5
        X = np.random.default_rng(4).uniform(-0.6, 0.6, size=(5, 2))
        Y = X + np.random.default_rng(5).uniform(-0.1, 0.1, size=(5, 2))
        box = SetSpec.box([-0.7, -0.7], [0.7, 0.7])
        res = reachability.filippov_check(F, X, Y, T, lam, CFG, plan, box=box)
        paths = solution_bundle(F, np.concatenate([X, Y]), T, cfg=CFG, plan=plan)
        for i in range(len(X)):
            tx, ty = paths[i], paths[len(X) + i]
            cloud = np.stack([tr.states for tr in ty])
            base = float(np.linalg.norm(X[i] - Y[i]))
            worst = max(float((np.linalg.norm(tr.states[None] - cloud, axis=2).min(axis=0)
                               - np.exp(lam * tr.times) * base).max()) for tr in tx)
            inside = all((distance_to_set_many(tr.states, box) == 0.0).all() for tr in tx + ty)
            assert res["applicable"][i] == inside
            assert (res["max_violation"][i] == worst if inside
                    else np.isnan(res["max_violation"][i]))
        assert 0 < res["applicable"].sum() < len(X)

    def test_converse_clock_equals_the_trapezoid_sum_along_each_path(self, monkeypatch):
        f = builtin_field("counterexample2d")
        X_o = SetSpec.ball([0.0, 0.0], 0.05)
        ts = np.array([0.0, 0.3, 1.0, 0.75, 1.0])
        X = np.array([[0.4, 0.1], [0.2, -0.3], [0.01, 0.0], [0.0, 0.6], [0.5, 0.5]])
        values, [(tau, Y)] = TestTimeRescale.clock(monkeypatch, f, X_o, ts, X)
        tol = smoothing.TOUCH_TOL
        free = []
        for t, x in zip(ts, X):
            states = (integrate(InclusionSpec.singleton(f), x, t,
                                "backward", CFG).states if t > 0 else x[None])
            d = distance_to_set_many(states, X_o)
            inv = 1.0 / np.maximum(d ** 2, tol ** 2)
            h, clock = t / max(len(d) - 1, 1), 0.0
            for k in range(1, len(d)):
                clock += 0.5 * (inv[k - 1] + inv[k]) * h
            if d.min() > tol:
                free.append((t + clock, states[-1]))
        assert values[2] == 0.0 and len(free) == 4
        assert np.array_equal(tau, smoothing._soft_saturate(np.array([c for c, _ in free]),
                                                            smoothing.ConverseResolution().k_max))
        assert np.array_equal(Y, [y for _, y in free])


class TestObservedBlocks:
    """Every observer folds blocks of nodes; its results must not depend on
    the block size, down to one node per block."""

    SADDLE = InclusionSpec.ball_perturbed(field_from_expressions(["x1", "0 - x2"]), 0.1)

    def _each_block_size(self, monkeypatch, m, run):
        out = []
        for c in (1, 3, 7):
            monkeypatch.setattr(solver, "BLOCK_ROWS", c * m)
            out.append(run())
        return out

    def test_tube_minimum_does_not_depend_on_the_block(self, monkeypatch):
        # backward, x2 grows: rows escape the radius at different steps, and
        # points asked to different horizons finish at different steps
        table = BundlePlan(3).table(self.SADDLE)
        X = np.array([[0.3, 0.9], [-0.4, 0.2], [0.1, -0.05], [0.5, 1.5], [0.3, 0.9]])
        K = np.array([[0, 5, 13, 40, 2], [11, 17, 29, 40, 23]])
        X_o = SetSpec.ball([0.2, 1.2], 0.1)
        run = lambda: tube_minimum(self.SADDLE, table, X, K, 1 / 16, "backward", X_o,
                                   escape_radius=3.0)
        runs = self._each_block_size(monkeypatch, selections(table) * 4, run)
        (one, cut), pos = runs[0], runs[0][0] > 0
        assert cut[pos].any() and not cut.all() and len(np.unique(one)) > 5
        assert (one == 0).any()
        for other, other_cut in runs[1:]:
            assert np.array_equal(other, one) and np.array_equal(other_cut[pos], cut[pos])
        # against the minimum over the first K + 1 nodes of every recorded path
        paths = solution_bundle(self.SADDLE, X, 40 / 16, "backward",
                                IntegratorConfig(step=1 / 16, escape_radius=3.0), BundlePlan(3))
        assert 0 < sum(tr.termination == "escape" for trs in paths for tr in trs) < 15
        ref = [[min(distance_to_set_many(tr.states[:k + 1], X_o).min() for tr in trs)
                for k, trs in zip(row, paths)] for row in K]
        assert np.array_equal(one, ref)
        # an entry is cut short when some path of its point escaped at or
        # before its node; an entry of value 0 may drop that flag, as its
        # point's rows leave the sweep, but never gains it
        want = np.array([[any(tr.termination == "escape" and len(tr.times) - 1 <= k
                              for tr in trs) for k, trs in zip(row, paths)] for row in K])
        for _, other_cut in runs:
            assert np.array_equal(other_cut[pos], want[pos]) and not (other_cut & ~want).any()

    def test_safety_report_does_not_depend_on_the_block(self, monkeypatch):
        # forward, x1 grows: rows hit x1 >= 1.5 and later escape the radius,
        # both at steps that fall inside blocks
        p = verify.SafetyProblem(self.SADDLE, SetSpec.ball([0.0, 0.0], 0.5),
                                 SetSpec.halfspace([1.0, 0.0], 1.5), 3.0,
                                 IntegratorConfig(step=1 / 16, escape_radius=2.5),
                                 verify.SamplePlan(4, 4, seed=2), BundlePlan(3, switches=2))
        m = 8 * selections(p.bundle.table(p.F, p.horizon))
        reports = self._each_block_size(monkeypatch, m, lambda: verify.simulate_safety_check(p))
        assert reports[0].verdict == "violation" and reports[0].escapes > 0
        assert reports[0].witness["hit_time"] not in (0.0, 3.0)
        for rep in reports[1:]:
            assert rep.to_json() == reports[0].to_json()


class TestSettledRows:
    """A point whose running minimum over selectors reaches 0 keeps it, so
    tube_minimum's observer settles its rows: they leave the sweep at the end
    of that block, and the minima stay those of the recorded paths."""

    # x -> -x plus a ball of radius 0.1: paths contract towards X_o
    SHRINK = InclusionSpec.ball_perturbed(FieldHandle(lambda X: -X, 2, "shrink"), 0.1)
    X_o = SetSpec.ball([0.0, 0.0], 0.5)

    def test_minima_equal_the_fold_of_recorded_paths_at_every_block_size(self, monkeypatch):
        # (0, 0) starts in X_o, (0.6, 0) and (0.55, -0.3) enter it mid-sweep,
        # (3, 0) never does; the origin is asked twice
        table = BundlePlan(3).table(self.SHRINK)
        X = np.array([[0.6, 0.0], [0.0, 0.0], [3.0, 0.0], [0.0, 0.0], [0.55, -0.3]])
        K = np.array([[0, 2, 5, 9, 1], [16, 11, 16, 1, 9]])
        paths = solution_bundle(self.SHRINK, X, 1.0, "forward", IntegratorConfig(step=1 / 16),
                                BundlePlan(3))
        ref = np.array([[min(distance_to_set_many(tr.states[:k + 1], self.X_o).min()
                             for tr in trs) for k, trs in zip(row, paths)] for row in K])
        assert (ref[:, [1, 3]] == 0.0).all() and (ref[:, 2] > 0.0).all()
        assert ref[0, 0] > 0.0 and ref[1, 0] == 0.0 and ref[0, 4] > 0.0 and ref[1, 4] == 0.0
        m = selections(table) * 4       # rows: the selections x the distinct points
        for nodes in (17, 9, 1):       # one block, two blocks, one node per block
            monkeypatch.setattr(solver, "BLOCK_ROWS", nodes * m)
            best, cut = tube_minimum(self.SHRINK, table, X, K, 1 / 16, "forward", self.X_o)
            assert np.array_equal(best, ref) and not cut.any()

    def test_a_settled_points_rows_leave_after_their_block(self, monkeypatch):
        # blocks of 4 nodes of 2 selectors x 2 points: the origin, in X_o at
        # node 0, leaves at node 3; (3, 0) steps to 12
        rows = []
        g = FieldHandle(lambda X: rows.append(len(X)) or -X, 2, "shrink")
        F = InclusionSpec.ball_perturbed(g, 0.1)
        table = BundlePlan(2).table(F)
        monkeypatch.setattr(solver, "BLOCK_ROWS", 4 * 4)
        best, _ = tube_minimum(F, table, np.array([[3.0, 0.0], [0.0, 0.0]]),
                               np.array([[12, 12], [12, 2]]), 1 / 16, "forward", self.X_o)
        assert rows == [4] * (4 * 3) + [2] * (4 * 9)
        assert best[:, 1].tolist() == [0.0, 0.0] and (best[:, 0] > 0.5).all()


def _textbook_sweep(fn, X0, h, n_steps):
    """rk4_sweep without escape or observer, by the allocating formula:
    Xs + (h / 6) (k1 + 2 k2 + 2 k3 + k4) on the rows still stepping."""
    X = np.array(X0, dtype=float)
    m = len(X)
    steps = np.broadcast_to(np.asarray(n_steps, dtype=int), (m,))
    h_rows = np.asarray(h, dtype=float)[:, None] if np.ndim(h) else None
    for k in range(1, int(steps.max(initial=0)) + 1):
        rows = np.flatnonzero(steps >= k)
        rows = slice(None) if len(rows) == m else rows
        Xs = X[rows]
        hs = h if h_rows is None else h_rows[rows]
        k1 = fn(k, rows, Xs)
        k2 = fn(k, rows, Xs + 0.5 * hs * k1)
        k3 = fn(k, rows, Xs + 0.5 * hs * k2)
        k4 = fn(k, rows, Xs + hs * k3)
        X[rows] = Xs + (hs / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return X


# coordinates with both signed zeros among them
_COORD = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-2.0, 2.0))


class TestInPlaceStep:
    """The kernel's buffered step equals the allocating textbook formula bit
    for bit, signed zeros included, whatever the field returns."""

    IDENTITY = FieldHandle(lambda x: x, 2, "identity")      # returns its input
    # returns a view of its input: another array object on the same memory
    VIEW = FieldHandle(lambda x: x.reshape(x.shape), 2, "view")
    INCLUSIONS = {
        "linear-ball": InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1),
        "counterexample": InclusionSpec.singleton(builtin_field("counterexample2d")),
        "identity": InclusionSpec.singleton(IDENTITY),
        "identity-ball": InclusionSpec.ball_perturbed(IDENTITY, 0.25),
        "hull": InclusionSpec.hull([builtin_field("linear_safe"), IDENTITY]),
        "view": InclusionSpec.singleton(VIEW),
        "view-ball": InclusionSpec.ball_perturbed(VIEW, 0.25),
        "view-hull": InclusionSpec.hull([VIEW, builtin_field("linear_safe")]),
    }

    def test_the_view_field_returns_another_array_on_its_input(self):
        X = np.ones((3, 2))
        v = self.VIEW.fn(X)
        assert v is not X and np.shares_memory(v, X)

    @settings(max_examples=96, deadline=None)
    @given(kind=st.sampled_from(sorted(INCLUSIONS)),
           direction=st.sampled_from(["forward", "backward"]),
           data=st.data())
    def test_equals_the_textbook_formula(self, kind, direction, data):
        F = self.INCLUSIONS[kind]
        table = BundlePlan(2).table(F)
        m = data.draw(st.integers(1, 6))
        X0 = np.array(data.draw(st.lists(st.tuples(_COORD, _COORD), min_size=m * selections(table),
                                         max_size=m * selections(table))), dtype=float)
        # one step for all rows or one per row; one count for all rows or one
        # per row, so that the live rows thin out
        h = data.draw(st.one_of(st.sampled_from([1 / 8, 1 / 64]),
                                st.lists(st.sampled_from([1 / 8, 1 / 16, 1 / 64]),
                                         min_size=len(X0), max_size=len(X0)).map(np.array)))
        n_steps = data.draw(st.one_of(st.integers(0, 5),
                                      st.lists(st.integers(0, 5), min_size=len(X0),
                                               max_size=len(X0)).map(np.array)))
        s = _signed(h, direction)
        ref = _textbook_sweep(lambda k, rows, X: _stage(F, table, m, 1 / 8, direction,
                                                        k, rows, X), X0, s, n_steps)
        X, _, _ = rk4_sweep(rk4_stages(bundle_field(F, table, m, 1 / 8, direction), s), X0,
                            n_steps)
        assert np.array_equal(X.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("rows_live", [slice(None), np.array([0, 2, 3])])
    def test_a_field_returning_its_input_is_not_overwritten_early(self, rows_live):
        # x -> x from -0.0: every stage and state stays -0.0 exactly
        X0 = np.array([[-0.0, 1.0], [0.5, -0.0], [-0.0, -0.0], [2.0, -1.0]])
        n_steps = np.where(np.isin(np.arange(4), np.arange(4)[rows_live]), 3, 1)
        fn = lambda k, rows, X: X
        X, _, _ = rk4_sweep(rk4_stages(fn, 1 / 4), X0, n_steps)
        ref = _textbook_sweep(fn, X0, 1 / 4, n_steps)
        assert np.array_equal(X.view(np.uint64), ref.view(np.uint64))
        assert np.signbit(X[X0 == 0.0]).all()


class TestAffineStep:
    """A field declaring its matrix steps by RK4's affine map: the stage
    path's states up to rounding, the same bits for a row alone and in a
    batch, and the kernel's escape and finiteness handling unchanged."""

    BASE = builtin_field("linear_safe")
    INCLUSIONS = {"singleton": InclusionSpec.singleton(BASE),
                  "ball": InclusionSpec.ball_perturbed(BASE, 0.3)}

    @settings(max_examples=80, deadline=None)
    @given(kind=st.sampled_from(["singleton", "ball"]),
           direction=st.sampled_from(["forward", "backward"]),
           switches=st.sampled_from([0, 2]), h=st.sampled_from([1 / 8, 1 / 64]),
           data=st.data())
    def test_equals_the_stage_path_up_to_rounding(self, kind, direction, switches, h, data):
        F = self.INCLUSIONS[kind]
        table = BundlePlan(2, switches=switches).table(F, 40 * h)
        m = data.draw(st.integers(1, 4))
        X0 = np.array(data.draw(st.lists(st.tuples(_COORD, _COORD), min_size=m * selections(table),
                                         max_size=m * selections(table))), dtype=float)
        n_steps = data.draw(st.one_of(st.integers(0, 40),
                                      st.lists(st.integers(0, 40), min_size=len(X0),
                                               max_size=len(X0)).map(np.array)))
        X, _, _ = rk4_sweep(bundle_step(F, table, m, h, direction), X0, n_steps)
        ref = _textbook_sweep(lambda k, rows, X: _old_stage(F, table, m, h, direction,
                                                            k, rows, X), X0, h, n_steps)
        # a relative bound, floored at the smallest normal float: subnormals
        # round at an absolute 5e-324
        assert np.abs(X - ref).max() <= 1e-12 * max(np.abs(ref).max(), np.finfo(float).tiny)

    A3 = np.array([[-0.5, 2.0, 0.0], [-2.0, -0.5, 1.0], [0.25, -1.0, -0.2]])

    @pytest.mark.parametrize("kind", ["singleton", "ball"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("switches", [0, 2])
    def test_a_3d_linear_field_equals_the_stage_path_up_to_rounding(self, kind, direction,
                                                                   switches):
        f = linear_field(self.A3, "rot3")
        F = InclusionSpec.singleton(f) if kind == "singleton" else \
            InclusionSpec.ball_perturbed(f, 0.3)
        h, m = 1 / 16, 3
        table = BundlePlan(2, switches=switches).table(F, 40 * h)
        X0 = np.random.default_rng(8).uniform(-2.0, 2.0, size=(m * selections(table), 3))
        n_steps = 40 - 5 * (np.arange(len(X0)) % 3)
        step = bundle_step(F, table, m, h, direction)
        X, _, _ = rk4_sweep(step, X0, n_steps)
        ref = _textbook_sweep(lambda k, rows, X: _old_stage(F, table, m, h, direction,
                                                            k, rows, X), X0, h, n_steps)
        assert step.__qualname__ == "bundle_step.<locals>.step"
        assert np.abs(X - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_per_row_steps_take_the_four_stages(self, direction):
        # the smooth converse's flow: a singleton, one row per (t, x), each
        # with its own step; its field declares a matrix
        rows = []
        g = FieldHandle(lambda X: rows.append(len(X)) or self.BASE.fn(X), 2, "linear_safe",
                        LINEAR_SAFE_A)
        rows.clear()    # FieldHandle calls fn once to check the matrix
        F = InclusionSpec.singleton(g)
        table = BundlePlan().table(F)
        X0 = np.random.default_rng(9).uniform(-1.0, 1.0, size=(4, 2))
        h, n = np.array([1 / 64, 1 / 100, 1 / 128, 3 / 256]), np.array([64, 50, 0, 30])
        X, _, _ = rk4_sweep(bundle_step(F, table, 4, h, direction), X0, n)
        assert rows == [3] * (4 * 30) + [2] * (4 * 20) + [1] * (4 * 14)
        ref, _, _ = rk4_sweep(rk4_stages(bundle_field(F, table, 4, h, direction),
                                         _signed(h, direction)), X0, n)
        assert np.array_equal(X.view(np.uint64), ref.view(np.uint64))

    @pytest.mark.parametrize("kind", ["singleton", "ball"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_a_row_alone_equals_the_row_in_a_batch(self, kind, direction):
        # a singleton start alone is one row; a ball's, one row per selector
        F = self.INCLUSIONS[kind]
        X0 = np.random.default_rng(6).uniform(-2.0, 2.0, size=(7, 2))
        plan = BundlePlan(1, switches=2)
        batch = solution_bundle(F, X0, 1.5, direction, CFG, plan)
        for i in (0, 4, 6):
            [alone] = solution_bundle(F, X0[i:i + 1], 1.5, direction, CFG, plan)
            for a, b in zip(alone, batch[i]):
                assert np.array_equal(a.states.view(np.uint64), b.states.view(np.uint64))

    @pytest.mark.parametrize("direction, sign", [("forward", 1.0), ("backward", -1.0)])
    def test_rows_escape_at_the_stage_paths_step(self, direction, sign):
        # x -> x forward, x -> -x backward: rows grow out of escape_radius = 10
        F = InclusionSpec.ball_perturbed(FieldHandle(lambda X: sign * X, 2, "grow",
                                                     sign * np.eye(2)), 0.5)
        table = BundlePlan(4).table(F)
        X0 = np.tile([[1.0, 0.0], [0.3, -0.2], [2.0, 2.0], [0.0, 0.0]], (selections(table), 1))
        h, n = 1 / 16, 200
        stage = rk4_sweep(rk4_stages(bundle_field(F, table, 4, h, direction),
                                     _signed(h, direction)), X0, n, escape_radius=10.0)
        affine = rk4_sweep(bundle_step(F, table, 4, h, direction), X0, n, escape_radius=10.0)
        assert stage[2].all() and len(np.unique(stage[1])) > 4
        assert np.array_equal(affine[1], stage[1]) and np.array_equal(affine[2], stage[2])
        assert np.abs(affine[0] - stage[0]).max() <= 1e-12 * np.abs(stage[0]).max()

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_a_non_finite_start_raises(self, bad):
        F = self.INCLUSIONS["ball"]
        X = np.array([[1.0, 0.0], [bad, 0.5]])
        with pytest.raises(SolverError, match="non-finite state at step 1"):
            tube_minimum(F, BundlePlan(2).table(F), X, np.array([[4, 4]]), 1 / 16,
                         "backward", ORIGIN)

    @pytest.mark.parametrize("kind", ["singleton", "ball"])
    @pytest.mark.parametrize("matrix, calls", [(None, 4 * 11), (LINEAR_SAFE_A, 0)])
    def test_only_a_field_without_matrix_is_called(self, kind, matrix, calls):
        rows = []
        g = FieldHandle(lambda X: rows.append(len(X)) or self.BASE.fn(X), 2, "linear_safe",
                        matrix)
        rows.clear()    # FieldHandle calls fn once to check a matrix
        F = InclusionSpec.singleton(g) if kind == "singleton" else \
            InclusionSpec.ball_perturbed(g, 0.3)
        table = BundlePlan(3).table(F)
        X0 = np.random.default_rng(7).uniform(-1.0, 1.0, size=(5, 2))
        bundle_sweep(F, table, X0, 11 / 512, CFG)
        assert rows == [5 * selections(table)] * calls
        step = bundle_step(F, table, 5, 1 / 512, "forward")
        assert (step.__qualname__ == "rk4_stages.<locals>.step") == (matrix is None)


class TestBackwardByNegatedStep:
    """A backward sweep runs the forward stages with step -h, a ball's
    offsets negated; rounding to nearest is symmetric under a change of
    sign, so the states are the old negating stages' bits."""

    f = builtin_field("counterexample2d")       # declares no matrix: four stages
    QUAD = field_from_expressions(["x2 - x1", "x1*x2/2 - x2"], "quad")

    @pytest.mark.parametrize("kind", ["singleton", "ball", "hull", "per-row h"])
    def test_equals_the_negating_stages_bit_for_bit(self, kind):
        F = {"singleton": InclusionSpec.singleton(self.f),
             "ball": InclusionSpec.ball_perturbed(self.f, 0.3),
             "hull": InclusionSpec.hull([self.f, self.QUAD, negated(self.f)]),
             "per-row h": InclusionSpec.singleton(self.f)}[kind]
        table = BundlePlan(3, switches=2).table(F, 2.0)
        m = 5
        X0 = np.random.default_rng(11).normal(scale=0.4, size=(m * selections(table), 2))
        h = np.linspace(1 / 128, 1 / 32, len(X0)) if kind == "per-row h" else 1 / 64
        n_steps = 64 - 7 * (np.arange(len(X0)) % 4)
        X, _, _ = rk4_sweep(bundle_step(F, table, m, h, "backward"), X0, n_steps)
        ref = _textbook_sweep(lambda k, rows, X: _old_stage(F, table, m, h, "backward",
                                                            k, rows, X), X0, h, n_steps)
        assert np.array_equal(X.view(np.uint64), ref.view(np.uint64))

    def test_per_row_steps_on_a_switch_grid_are_refused(self):
        F = InclusionSpec.ball_perturbed(self.f, 0.1)
        table = BundlePlan(2, switches=2).table(F, 2.0)
        with pytest.raises(SolverError, match="per-row steps need a bundle without switches"):
            rk4_sweep(bundle_step(F, table, 2, np.full(8, 1 / 64), "forward"),
                      np.full((8, 2), 0.1), 100)
