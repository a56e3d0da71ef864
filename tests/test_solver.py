import warnings

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.linalg import expm

from safereach.dynamics import (FieldHandle, InclusionSpec, LINEAR_SAFE_A, Selector,
                                builtin_field, field_from_expressions,
                                lipschitz_estimate, selector_table)
from safereach.geometry import SetSpec, distance_to_set_many
import safereach
from safereach import reachability, solver, verify
from safereach.solver import (BundlePlan, IntegratorConfig, SolverError,
                              Trajectory, bundle_field, bundle_sweep, integrate,
                              rk4_sweep, solution_bundle, time_rescale_tau,
                              tube_minimum, write_csv)

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

    @pytest.mark.parametrize("T", [np.inf, np.nan])
    def test_horizon_must_be_finite(self, T):
        # an infinite horizon overflowed the int step count, a NaN one failed its cast
        with pytest.raises(SolverError, match=f"horizon must be finite, got {T}"):
            bundle_sweep(LINEAR, [Selector.constant()], np.ones((2, 2)), T, CFG)
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        with pytest.raises(SolverError, match=f"horizon must be finite, got {T}"):
            BundlePlan(directions=2, switches=1).selectors(F, T)

    def test_rk4_holds_counterexample_limit_cycle(self):
        # the radial rate (r^2/2) sin^2(1/r) has a derivative bounded by r + 1/2,
        # so fixed-step RK4 needs no step control near the origin
        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        r0 = 1.0 / (2 * np.pi)
        tr = integrate(F, Selector.constant(), np.array([r0, 0.0]), 2 * np.pi, cfg=CFG)
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
    # one sweep against one rerun per selector, as resimulate_witness makes
    F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
    x0 = np.array([1.0, 0.0])
    batched = solution_bundle(F, x0, T, cfg=CFG, plan=plan)
    sels = plan.selectors(F, T)
    assert len(batched) == len(sels)
    for tr, sel in zip(batched, sels):
        ref = integrate(F, sel, x0, T, cfg=CFG)
        assert tr.selector_index == sel.index
        assert np.array_equal(tr.times, ref.times)
        assert np.array_equal(tr.states, ref.states)
    return sels


class TestBatchedBundles:
    def test_batched_bundle_matches_per_selector_integrate(self):
        assert len(_assert_bundle_matches_integrate(BundlePlan(6), 0.5)) == 6

    def test_switched_bundle_matches_per_selector_integrate(self):
        sels = _assert_bundle_matches_integrate(BundlePlan(6, switches=2), 1.0)
        assert len(sels) == 12
        assert np.array_equal(sels[6].switch_times, [1 / 3, 2 / 3])

    def test_switch_grid_is_absolute(self):
        # the family restricted to [0, 1] is the same whatever the horizon
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        short, long = BundlePlan(4, 2).selectors(F, 1.0), BundlePlan(4, 2).selectors(F, 3.0)
        assert [s.index for s in short] == [s.index for s in long] == list(range(8))
        for a, b in zip(short[:4], long[:4]):
            assert a.kind == b.kind == "constant" and np.array_equal(a.direction, b.direction)
        for a, b in zip(short[4:], long[4:]):
            k = len(a.switch_times)
            assert np.array_equal(a.switch_times, [1 / 3, 2 / 3])
            assert np.array_equal(b.switch_times[:k], a.switch_times) and b.switch_times[k] >= 1.0
            assert np.array_equal(b.directions[:k + 1], a.directions)

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

    def test_observer_sees_the_rows_that_stepped(self, monkeypatch):
        # blocks of 7 steps of 2 rows: 1-7, 8-14 (row 0 escapes inside), 15-20
        monkeypatch.setattr(solver, "BLOCK_ROWS", 14)
        X0 = np.array([[1.0, 0.0], [1e-3, 0.0]])
        blocks = []
        X, steps, _ = rk4_sweep(_CountingField(np.eye(2)), X0, 0.25, 20, escape_radius=10.0,
                                observe=lambda k0, stepped, Xb: blocks.append(
                                    (k0, stepped.copy(), Xb.copy())))
        e = int(steps[0])
        assert [(k0, len(Xb)) for k0, _, Xb in blocks] == [(1, 7), (8, 7), (15, 6)]
        assert 8 < e < 14
        stepped = np.concatenate([s for _, s, _ in blocks])
        states = np.concatenate([Xb for _, _, Xb in blocks])
        assert [np.flatnonzero(s).tolist() for s in stepped] == [[0, 1]] * e + [[1]] * (20 - e)
        assert (states[e - 1:, 0] == X[0]).all()   # frozen at the escape node
        assert np.array_equal(states[-1], X)

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

    def test_per_row_step_counts(self, monkeypatch):
        # blocks of 2 steps of 3 rows: row 1 finishes inside the second block
        monkeypatch.setattr(solver, "BLOCK_ROWS", 6)
        fn = _CountingField()
        X0 = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
        seen = []
        X, steps, escaped = rk4_sweep(fn, X0, 1 / 64, np.array([0, 3, 5]),
                                      observe=lambda k0, stepped, Xb: seen.append(
                                          (k0, [np.flatnonzero(s).tolist() for s in stepped])))
        assert fn.rows == [2] * 12 + [1] * 8
        assert seen == [(1, [[1, 2]] * 2), (3, [[1, 2], [2]]), (5, [[2]])]
        assert steps.tolist() == [0, 3, 5] and not escaped.any()
        assert np.array_equal(X[0], X0[0])
        three, _, _ = rk4_sweep(_CountingField(), X0[1:2], 1 / 64, 3)
        assert np.array_equal(X[1], three[0])

    def test_per_row_steps(self):
        f = builtin_field("linear_safe")
        X0 = np.array([[1.0, 0.0], [1.0, 0.0]])
        X, _, _ = rk4_sweep(lambda k, rows, X: f(X), X0, np.array([1 / 64, 1 / 128]), 64)
        one, _, _ = rk4_sweep(lambda k, rows, X: f(X), X0[:1], 1 / 128, 64)
        assert np.array_equal(X[1], one[0])
        assert np.linalg.norm(X[0] - expm(LINEAR_SAFE_A) @ X0[0]) < 1e-7


def _old_stage(F, sels, m, h, direction, k, rows, X):
    """The velocity of the rows at step k, computed as before the stage
    builder: the negated inclusion's FieldHandle calls, selected per row."""
    fields = [f if direction == "forward" else f.negated() for f in F.fields]
    if F.kind == "singleton":
        return fields[0](X)
    switch_times, D = selector_table(F, sels)
    s = D[np.searchsorted(switch_times, (k - 0.5) * h, side="right")][
        np.repeat(np.arange(len(sels)), m)[rows]]
    if F.kind == "ball":
        return fields[0](X) + F.epsilon * s
    out = fields[0](X) * s[..., 0, None]
    for i, f in enumerate(fields[1:], start=1):
        out = out + f(X) * s[..., i, None]
    return out


class TestStageFunction:
    f = builtin_field("counterexample2d")
    QUAD = field_from_expressions(["x2 - x1", "x1*x2/2 - x2"], "quad")
    INCLUSIONS = {"singleton": InclusionSpec.singleton(f),
                  "ball": InclusionSpec.ball_perturbed(f, 0.3),
                  "hull": InclusionSpec.hull([f, QUAD, f.negated()])}

    @pytest.mark.parametrize("kind", ["singleton", "ball", "hull"])
    @pytest.mark.parametrize("direction", ["forward", "backward"])
    @pytest.mark.parametrize("switches", [0, 2])
    @pytest.mark.parametrize("rows", [slice(None), np.array([0, 3, 4, 9, 11])])
    def test_equals_the_selected_velocity_bit_for_bit(self, kind, direction, switches, rows):
        F, m, h = self.INCLUSIONS[kind], 4, 1 / 64
        sels = BundlePlan(3, switches=switches).selectors(F, 2.0)
        fn = bundle_field(F, sels, m, h, direction)
        if isinstance(rows, np.ndarray):
            rows = rows[rows < len(sels) * m]   # a singleton has one selector
        X = np.random.default_rng(3).normal(size=(len(sels) * m, 2))[rows]
        X[0] = 0.0   # signed zeros: a negated field gives -0.0
        for k in (1, 21, 22, 64, 100, 128):
            new, old = fn(k, rows, X), _old_stage(F, sels, m, h, direction, k, rows, X)
            assert np.array_equal(new.view(np.uint64), old.view(np.uint64))

    @pytest.mark.parametrize("direction", ["forward", "backward"])
    def test_a_sweep_calls_only_the_raw_field(self, monkeypatch, direction):
        raw_rows, guarded = [], []
        g = FieldHandle(lambda X: (raw_rows.append(len(X)), self.f.fn(X))[1], 2, "counted")
        guard = FieldHandle.__call__
        monkeypatch.setattr(FieldHandle, "__call__",
                            lambda fh, x: (guarded.append(len(x)), guard(fh, x))[1])
        sels = BundlePlan(3).selectors(InclusionSpec.ball_perturbed(g, 0.1))
        X0 = np.random.default_rng(1).uniform(-0.5, 0.5, size=(5, 2))
        bundle_sweep(InclusionSpec.ball_perturbed(g, 0.1), sels, X0, 11 / 512, CFG, direction)
        assert raw_rows == [15] * (4 * 11) and guarded == []

    def test_a_field_going_nan_in_one_row_ends_the_sweep_quietly(self):
        # x1 moves at unit speed; log(1.2 - x1) is NaN past 1.2, reached in step 2
        g = FieldHandle(lambda X: np.stack([1.0 + 0.0 * np.log(1.2 - X[:, 0]),
                                            0.0 * X[:, 1]], axis=-1), 2, "wall")
        X0 = np.array([[0.0, 0.0], [1.0, 0.0], [-1.0, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SolverError, match=r"non-finite state at step 2; last valid "
                                                  r"state \[1\.1\d*, 0\.0\]"):
                bundle_sweep(InclusionSpec.singleton(g), [Selector.constant()], X0, 1.0,
                             IntegratorConfig(step=0.1))


class TestObservedBlocks:
    """Every observer folds blocks of steps; its results must not depend on
    the block size, down to one step per block."""

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
        sels = BundlePlan(3).selectors(self.SADDLE)
        X = np.array([[0.3, 0.9], [-0.4, 0.2], [0.1, -0.05], [0.5, 1.5], [0.3, 0.9]])
        K = np.array([[0, 5, 13, 40, 2], [11, 17, 29, 40, 23]])
        X_o = SetSpec.ball([0.2, 1.2], 0.1)
        run = lambda: tube_minimum(self.SADDLE, sels, X, K, 1 / 16, "backward", X_o,
                                   escape_radius=3.0)
        (one, esc), *rest = self._each_block_size(monkeypatch, len(sels) * 4, run)
        assert esc and len(np.unique(one)) > 5
        for other, other_esc in rest:
            assert np.array_equal(other, one) and other_esc
        # against the minimum over the first K + 1 nodes of every recorded path
        paths = solution_bundle(self.SADDLE, X, 40 / 16, "backward",
                                IntegratorConfig(step=1 / 16, escape_radius=3.0), BundlePlan(3))
        assert 0 < sum(tr.termination == "escape" for trs in paths for tr in trs) < 15
        ref = [[min(distance_to_set_many(tr.states[:k + 1], X_o).min() for tr in trs)
                for k, trs in zip(row, paths)] for row in K]
        assert np.array_equal(one, ref)

    def test_safety_report_does_not_depend_on_the_block(self, monkeypatch):
        # forward, x1 grows: rows hit x1 >= 1.5 and later escape the radius,
        # both at steps that fall inside blocks
        p = verify.SafetyProblem(self.SADDLE, SetSpec.ball([0.0, 0.0], 0.5),
                                 SetSpec.halfspace([1.0, 0.0], 1.5), 3.0,
                                 IntegratorConfig(step=1 / 16, escape_radius=2.5),
                                 verify.SamplePlan(4, 4, seed=2), BundlePlan(3, switches=2))
        m = 8 * len(p.bundle.selectors(p.F, p.horizon))
        reports = self._each_block_size(monkeypatch, m, lambda: verify.simulate_safety_check(p))
        assert reports[0].verdict == "violation" and reports[0].escapes > 0
        assert reports[0].witness["hit_time"] not in (0.0, 3.0)
        for rep in reports[1:]:
            assert rep.to_json() == reports[0].to_json()
