import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from safereach.dynamics import (InclusionSpec, LINEAR_SAFE_A, Selector,
                                builtin_field, field_from_expressions,
                                lipschitz_estimate)
from safereach.geometry import SetSpec
import safereach
from safereach import reachability, verify
from safereach.solver import (BundlePlan, IntegratorConfig, SolverError,
                              Trajectory, integrate, rk4_sweep,
                              solution_bundle, time_rescale_tau)

LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
CFG = IntegratorConfig(step=1.0 / 512.0)


class TestIntegrate:
    def test_linear_against_matrix_exponential(self):
        x0 = np.array([1.0, 0.0])
        T = 2 * np.pi
        tr = integrate(LINEAR, Selector.constant(), x0, T, cfg=CFG)
        oracle = expm(LINEAR_SAFE_A * T) @ x0
        assert tr.termination == "horizon"
        assert np.linalg.norm(tr.endpoint - oracle) < 1e-8
        assert np.max(np.linalg.norm(tr.states, axis=1)) < 4.0

    def test_rk4_order_via_step_halving(self):
        x0 = np.array([1.0, 0.0])
        T = 1.0
        oracle = expm(LINEAR_SAFE_A * T) @ x0
        errs = []
        for step in (1 / 64, 1 / 128):
            tr = integrate(LINEAR, Selector.constant(), x0, T,
                           cfg=IntegratorConfig(step=step))
            errs.append(np.linalg.norm(tr.endpoint - oracle))
        ratio = errs[0] / errs[1]
        assert 12.0 < ratio < 20.0

    def test_limit_cycle_radius_preserved(self):
        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        for k in (1, 2, 3, 4):
            r0 = 1.0 / (k * np.pi)
            tr = integrate(F, Selector.constant(), np.array([r0, 0.0]),
                           2 * np.pi, cfg=CFG)
            assert abs(np.linalg.norm(tr.endpoint) - r0) < 1e-6

    def test_equilibrium_constant(self):
        F = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
        tr = integrate(F, Selector.constant(), np.array([0.3, 0.4]), 1.0, cfg=CFG)
        assert np.allclose(tr.states, [0.3, 0.4])

    def test_forward_backward_roundtrip(self):
        x0 = np.array([0.8, -0.3])
        fwd = integrate(LINEAR, Selector.constant(), x0, 1.0, cfg=CFG)
        back = integrate(LINEAR, Selector.constant(), fwd.endpoint, 1.0,
                         direction="backward", cfg=CFG)
        assert np.linalg.norm(back.endpoint - x0) < 10 * CFG.accuracy

    def test_escape_termination(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        cfg = IntegratorConfig(step=1 / 64, escape_radius=10.0)
        tr = integrate(F, Selector.constant(), np.array([1.0, 0.0]), 10.0, cfg=cfg)
        assert tr.termination == "escape"
        assert tr.times[-1] < 10.0
        assert np.linalg.norm(tr.states[-2]) <= 10.0

    def test_set_hit_termination(self):
        F = InclusionSpec.singleton(field_from_expressions(["0", "1"], "up"))
        wall = SetSpec.halfspace([0, 1], 2.0, name="wall")
        tr = integrate(F, Selector.constant(), np.array([0.0, 0.0]), 5.0,
                       cfg=CFG, stop_set=wall, stop_tol=1e-9)
        assert tr.termination == "set_hit:wall"
        assert tr.times[-1] == pytest.approx(2.0, abs=CFG.step)

    def test_horizon_must_be_positive(self):
        with pytest.raises(SolverError):
            integrate(LINEAR, Selector.constant(), np.zeros(2), 0.0, cfg=CFG)

    def test_rk45_adaptive_counterexample(self):
        # the step ceiling keeps the adaptive path stable near the origin
        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        r0 = 1.0 / (2 * np.pi)
        cfg = IntegratorConfig(method="rk45", rel_tol=1e-10, abs_tol=1e-12)
        tr = integrate(F, Selector.constant(), np.array([r0, 0.0]), 2 * np.pi, cfg=cfg)
        assert abs(np.linalg.norm(tr.endpoint) - r0) < 1e-6

    def test_backward_stores_nonnegative_times(self):
        tr = integrate(LINEAR, Selector.constant(), np.array([1.0, 0.0]), 0.5,
                       direction="backward", cfg=CFG)
        assert tr.direction == "backward"
        assert tr.times[0] == 0.0 and np.all(np.diff(tr.times) > 0)
        oracle = expm(-LINEAR_SAFE_A * 0.5) @ np.array([1.0, 0.0])
        assert np.linalg.norm(tr.endpoint - oracle) < 1e-7


class TestBundle:
    def test_singleton_bundle_size_one(self):
        trs = solution_bundle(LINEAR, np.array([1.0, 0.0]), 0.5, cfg=CFG, plan=BundlePlan(8))
        assert len(trs) == 1

    def test_degenerate_ball_identical(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.0)
        trs = solution_bundle(F, np.array([1.0, 0.0]), 0.5, cfg=CFG, plan=BundlePlan(8))
        assert len(trs) == 8
        ends = np.array([tr.endpoint for tr in trs])
        assert np.allclose(ends, ends[0])

    def test_gronwall_endpoint_spread(self):
        eps, T = 0.1, 1.0
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), eps)
        lam = lipschitz_estimate(InclusionSpec.singleton(builtin_field("linear_safe")),
                                 SetSpec.box([-3, -3], [3, 3]), grid=7)
        trs = solution_bundle(F, np.array([1.0, 0.0]), T, cfg=CFG, plan=BundlePlan(8))
        ends = np.array([tr.endpoint for tr in trs])
        spread = max(np.linalg.norm(a - b) for a in ends for b in ends)
        bound = 2 * eps * (np.exp(lam * T) - 1.0) / lam
        assert spread <= bound

    def test_every_trajectory_satisfies_inclusion(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.05)
        trs = solution_bundle(F, np.array([0.5, 0.5]), 0.5, cfg=CFG,
                              plan=BundlePlan(4, switches=1))
        for tr in trs:
            mid = tr.states[:-1]
            fd = np.diff(tr.states, axis=0) / np.diff(tr.times)[:, None]
            ev_r = F.epsilon
            centers = F.fields[0](mid)
            # distance of the finite-difference slope to the velocity set
            gap = np.linalg.norm(fd - centers, axis=1) - ev_r
            speed = np.linalg.norm(centers, axis=1).max()
            assert np.max(gap) <= 12.0 * speed * CFG.step

    def test_deterministic_selector_order(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        a = solution_bundle(F, np.array([1.0, 0.0]), 0.25, cfg=CFG, plan=BundlePlan(4))
        b = solution_bundle(F, np.array([1.0, 0.0]), 0.25, cfg=CFG, plan=BundlePlan(4))
        for ta, tb in zip(a, b):
            assert ta.selector_index == tb.selector_index
            assert np.array_equal(ta.states, tb.states)

    def test_one_plan_type(self):
        assert reachability.BundlePlan is BundlePlan
        assert verify.BundlePlanV is BundlePlan
        assert safereach.BundlePlan is BundlePlan


class TestTimeRescale:
    def test_constant_v_doubles_time(self):
        tr = integrate(LINEAR, Selector.constant(), np.array([1.0, 0.0]), 1.0, cfg=CFG)
        tau = time_rescale_tau(tr, lambda X: np.ones(len(np.atleast_2d(X))))
        assert np.allclose(tau, 2.0 * tr.times)

    def test_constant_trajectory_at_unit_radius(self):
        F = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
        tr = integrate(F, Selector.constant(), np.array([1.0, 0.0]), 1.0, cfg=CFG)
        tau = time_rescale_tau(tr, lambda X: (np.atleast_2d(X) ** 2).sum(axis=1))
        assert np.allclose(tau, 2.0 * tr.times)

    def test_against_quadrature_oracle(self):
        x0 = np.array([1.0, 0.0])
        tr = integrate(LINEAR, Selector.constant(), x0, 1.0, cfg=CFG)
        tau = time_rescale_tau(tr, lambda X: (np.atleast_2d(X) ** 2).sum(axis=1))
        oracle_int, _ = quad(
            lambda s: 1.0 / float(np.sum((expm(LINEAR_SAFE_A * s) @ x0) ** 2)),
            0.0, 1.0, epsabs=1e-12, epsrel=1e-12)
        assert tau[-1] == pytest.approx(1.0 + oracle_int, abs=1e-4)
        assert np.all(np.diff(tau) > 0)

    def test_zero_set_rejected(self):
        F = InclusionSpec.singleton(builtin_field("linear_safe"))
        tr = integrate(F, Selector.constant(), np.array([1.0, 0.0]), 1.0, cfg=CFG)
        with pytest.raises(SolverError, match="zero set"):
            time_rescale_tau(tr, lambda X: np.zeros(len(np.atleast_2d(X))))


class TestTrajectory:
    def test_times_must_increase(self):
        with pytest.raises(SolverError):
            Trajectory([0.0, 0.0], [[0.0], [1.0]])

    def test_csv_roundtrip(self, tmp_path):
        tr = integrate(LINEAR, Selector.constant(), np.array([1.0, 0.0]), 0.1, cfg=CFG)
        path = tmp_path / "tr.csv"
        tr.to_csv(path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 0], tr.times)
        assert np.array_equal(data[:, 1:], tr.states)


class TestBatchedBundles:
    def test_batched_bundle_matches_per_selector_integrate(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        x0 = np.array([1.0, 0.0])
        batched = solution_bundle(F, x0, 0.5, cfg=CFG, plan=BundlePlan(6))
        sels = BundlePlan(6).selectors(F, 0.5)
        assert len(batched) == len(sels) == 6
        for tr, sel in zip(batched, sels):
            ref = integrate(F, sel, x0, 0.5, cfg=CFG)
            assert tr.selector_index == sel.index
            assert np.array_equal(tr.times, ref.times)
            assert np.array_equal(tr.states, ref.states)

    def test_batch_of_starts_matches_one_start_at_a_time(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        starts = np.array([[1.0, 0.0], [0.2, -0.4], [-0.5, 0.5]])
        batched = solution_bundle(F, starts, 0.5, cfg=CFG, plan=BundlePlan(3, switches=2))
        assert len(batched) == len(starts)
        for x0, trajs in zip(starts, batched):
            single = solution_bundle(F, x0, 0.5, cfg=CFG, plan=BundlePlan(3, switches=2))
            assert [t.selector_index for t in trajs] == [t.selector_index for t in single]
            for a, b in zip(trajs, single):
                assert np.array_equal(a.times, b.times)
                assert np.array_equal(a.states, b.states)


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
        _, steps, escaped = rk4_sweep(fn, X0, 1 / 64, n)
        assert fn.rows == [m] * (4 * n)
        assert np.array_equal(steps, np.full(m, n))
        assert not escaped.any()

    def test_observer_sees_the_rows_that_stepped(self):
        X0 = np.array([[1.0, 0.0], [1e-3, 0.0]])
        seen = []
        X, steps, _ = rk4_sweep(_CountingField(np.eye(2)), X0, 0.25, 20, escape_radius=10.0,
                                observe=lambda k, rows, X: seen.append(
                                    (k, np.arange(2)[rows].tolist(), X.copy())))
        e = int(steps[0])
        assert [k for k, _, _ in seen] == list(range(1, 21))
        assert [rows for _, rows, _ in seen] == [[0, 1]] * e + [[1]] * (20 - e)
        assert np.array_equal(seen[e - 1][2][0], X[0])   # frozen at the escape node
        assert np.array_equal(seen[-1][2], X)

    def test_escaped_rows_freeze_and_stop_stepping(self):
        fn = _CountingField(np.eye(2))
        X0 = np.array([[1.0, 0.0], [1e-3, 0.0]])
        X, steps, escaped = rk4_sweep(fn, X0, 0.25, 20, escape_radius=10.0)
        assert escaped.tolist() == [True, False]
        assert steps[0] < 20 and steps[1] == 20
        assert 10.0 < np.linalg.norm(X[0]) < 20.0
        assert fn.rows == [2] * (4 * steps[0]) + [1] * (4 * (20 - steps[0]))

    def test_non_finite_state_raises(self):
        blow = lambda k, rows, X: np.where(k > 2, np.inf, 1.0) * X
        with pytest.raises(SolverError, match="non-finite state at step 3"):
            rk4_sweep(blow, np.ones((3, 2)), 0.1, 5)

    def test_per_row_steps(self):
        f = builtin_field("linear_safe")
        X0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        X, _, _ = rk4_sweep(lambda k, rows, X: f(X), X0, np.array([1 / 64, 1 / 128]), 64)
        one, _, _ = rk4_sweep(lambda k, rows, X: f(X), X0[:1], 1 / 128, 64)
        assert np.array_equal(X[1], one[0])
        assert np.linalg.norm(X[0] - expm(LINEAR_SAFE_A) @ X0[0]) < 1e-7
