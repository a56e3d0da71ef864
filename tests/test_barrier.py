import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import safereach.barrier as barrier
import safereach.infinitesimal as infinitesimal
import safereach.solver as solver
from safereach import sampling
from safereach.barrier import (BarrierError, candidate_sign_check, counterexample_barrier,
                               counterexample_barrier_fn, marginal_barrier,
                               monotonicity_check, user_barrier)
from safereach.dynamics import (FieldHandle, InclusionSpec, builtin_field,
                                field_from_expressions, lipschitz_estimate)
from safereach.geometry import SamplePlan, SetSpec, distance_to_set_many
from safereach.infinitesimal import RelaxFn, infinitesimal_check
from safereach.solver import BundlePlan, IntegratorConfig, SolverError, integrate

from helpers import selection_path

ORIGIN = SetSpec.points([[0.0, 0.0]], name="origin")
COUNTER = InclusionSpec.singleton(builtin_field("counterexample2d"))
LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
CFG = IntegratorConfig(step=1.0 / 512.0)
WINDOW = ([-2.0, -2.0], [2.0, 2.0])
PERTURBED = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.3)
PERTURBED_B = marginal_barrier(PERTURBED, SetSpec.ball([0, 0], 0.5),
                               IntegratorConfig(step=1.0 / 64.0), directions=4)
# a time-dependent barrier and a hull whose larger vertex changes across the window
HULL = InclusionSpec.hull([builtin_field("linear_safe"),
                           field_from_expressions(["x2 - x1", "x1*x2/2 - x2"], "quad")])
HULL_B = user_barrier("x1^2/10 + x2^2 - 1 + t*x1*x2/4", 2)
SWITCHED_B = marginal_barrier(InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.3),
                              SetSpec.ball([0, 0], 0.5), IntegratorConfig(step=1.0 / 64.0),
                              directions=4, switches=2)


def _assert_batch_independent(B, data, t_max):
    # permuted and partitioned batches reproduce per-point evaluation bitwise;
    # the points come from a pool, so a batch may ask one x at several t's
    n = data.draw(st.integers(1, 6))
    ts = np.array(data.draw(st.lists(st.floats(0.0, t_max), min_size=n, max_size=n)))
    pool = data.draw(st.lists(st.tuples(st.floats(-2.0, 2.0), st.floats(-2.0, 2.0)),
                              min_size=1, max_size=n))
    xs = np.array([pool[i] for i in data.draw(
        st.lists(st.integers(0, len(pool) - 1), min_size=n, max_size=n))])
    order = np.array(data.draw(st.permutations(range(n))))
    cuts = sorted(data.draw(st.sets(st.integers(1, max(1, n - 1)), max_size=3)))
    singles = np.array([B.evaluate_many([t], [x]).value[0] for t, x in zip(ts, xs)])
    permuted = B.evaluate_many(ts[order], xs[order]).value
    assert np.array_equal(permuted, singles[order])
    parts = [B.evaluate_many(ts[p], xs[p]).value
             for p in np.split(order, [c for c in cuts if c < n])]
    assert np.array_equal(np.concatenate(parts), singles[order])


class TestClosedFormBarrier:
    def test_zero_at_origin(self):
        for t in (0.0, 1.0, 17.3):
            assert counterexample_barrier([t], [np.zeros(2)])[0] == 0.0

    def test_constant_on_limit_cycles(self):
        for k in (1, 2, 3, 7):
            x = np.array([1.0 / (k * np.pi), 0.0])
            for t in (0.0, 2.0, 100.0):
                assert counterexample_barrier([t], [x])[0] == pytest.approx(
                    1.0 / (k * np.pi), abs=1e-15)

    def test_time_zero_identity(self):
        rng = np.random.default_rng(7)
        circles = np.array([1.0 / (k * np.pi) for k in range(1, 10)])
        count = 0
        while count < 1000:
            r = rng.uniform(0.05, 1.0)
            if np.min(np.abs(r - circles)) < 1e-3:
                continue
            ang = rng.uniform(0, 2 * np.pi)
            x = r * np.array([np.cos(ang), np.sin(ang)])
            assert abs(counterexample_barrier([0.0], [x])[0] - r) < 1e-12
            count += 1

    def test_matches_radial_flow_branch(self):
        # cot(pi/2) = 0, so at r = 2/pi and t = 2 the value is 1/(3 pi/4)
        x = np.array([2.0 / np.pi, 0.0])
        assert counterexample_barrier([2.0], [x])[0] == pytest.approx(4.0 / (3.0 * np.pi))

    def test_nonincreasing_in_time(self):
        x = np.array([0.4, 0.1])
        vals = [counterexample_barrier([t], [x])[0] for t in np.linspace(0, 10, 101)]
        assert np.all(np.diff(vals) <= 1e-15)

    def test_limits_to_inner_cycle(self):
        x = np.array([0.4, 0.0])          # 1/0.4 = 2.5 in (0, pi), k = 0
        assert counterexample_barrier([1e9], [x])[0] == pytest.approx(1.0 / np.pi, rel=1e-6)

    @staticmethod
    def _scalar_reference(t, x):
        # the per-point formula with Python branches, as the batch replaced it
        r = float(np.linalg.norm(x))
        if r == 0.0:
            return 0.0
        u = 1.0 / r
        frac = u / np.pi
        k_round = int(round(frac))
        if k_round >= 1 and abs(frac - k_round) <= 1e-12:
            return 1.0 / (k_round * np.pi)
        c = np.cos(u) / np.sin(u)
        return float(1.0 / (np.pi / 2.0 - np.arctan(c - 0.5 * t) + int(np.floor(frac)) * np.pi))

    def test_batch_equals_one_row_calls(self):
        rng = np.random.default_rng(3)
        k = np.arange(1, 12)
        ang = rng.uniform(0, 2 * np.pi, len(k))
        X = np.vstack([rng.normal(size=(400, 2)) * rng.choice([1e-3, 0.1, 1.0], (400, 1)),
                       np.zeros((2, 2)),
                       np.column_stack([np.cos(ang), np.sin(ang)]) / (k * np.pi)[:, None]])
        ts = rng.uniform(0.0, 10.0, len(X))
        with np.errstate(all="raise"):
            batch = counterexample_barrier(ts, X)
        singles = np.array([counterexample_barrier([t], [x])[0] for t, x in zip(ts, X)])
        reference = np.array([self._scalar_reference(t, x) for t, x in zip(ts, X)])
        assert np.array_equal(batch, singles) and np.array_equal(batch, reference)
        assert np.array_equal(batch[-len(k):], 1.0 / (k * np.pi)) and not batch[400:402].any()
        assert np.array_equal(counterexample_barrier_fn().evaluate_many(ts, X).value, batch)


class TestMarginalBarrier:
    def test_time_zero_is_distance(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        for x in ([0.3, 0.4], [0.05, 0.0], [1.0, -1.0]):
            assert B.evaluate_many([0.0], [np.array(x)]).value[0] == pytest.approx(
                np.linalg.norm(x), abs=1e-12)

    def test_negative_time_raises_barrier_error(self):
        with pytest.raises(BarrierError, match="t >= 0"):
            PERTURBED_B.evaluate_many([0.5, -1e-6], [[1.0, 0.0], [1.0, 0.0]])

    @pytest.mark.parametrize("t, error, message", [
        (1e18, SolverError, "horizon 1e[+]18 needs 64000000000000000000 steps"),
        (1e20, SolverError, "needs 6400000000000000000000 steps, more than max_steps"),
        (np.inf, BarrierError, "finite t, got inf"),
        (np.nan, BarrierError, "finite t, got nan")])
    def test_huge_or_infinite_time_is_refused(self, t, error, message):
        # a step count cast to int before the budget check wrapped negative,
        # and B(t, x) came back as d(x, X_o), the largest value B can take
        with pytest.raises(error, match=message):
            PERTURBED_B.evaluate_many([1.0, t], [[3.0, 2.0], [3.0, 2.0]])

    def test_zero_on_initial_set(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        for t in (0.0, 1.0, 3.0):
            assert B.evaluate_many([t], [np.zeros(2)]).value[0] == 0.0

    def test_matches_closed_form_at_spec_point(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        x = np.array([2.0 / np.pi, 0.0])
        assert B.evaluate_many([2.0], [x]).value[0] == pytest.approx(4.0 / (3.0 * np.pi), rel=1e-6)

    def test_nonincreasing_in_t_on_stored_grid(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        x = np.array([0.5, 0.2])
        ts = np.arange(0.0, 3.0 + 1e-12, 0.25)
        vals = B.evaluate_many(ts, np.tile(x, (len(ts), 1))).value
        assert np.all(np.diff(vals) <= 1e-12)

    def test_rejects_open_complement_target(self):
        comp = SetSpec.complement(SetSpec.ball([0, 0], 1.0))
        with pytest.raises(ValueError, match="closed"):
            marginal_barrier(COUNTER, comp, CFG)

    def test_lipschitz_in_x_with_filippov_factor(self):
        X_o = SetSpec.ball([0, 0], 1.0, name="disk")
        B = marginal_barrier(LINEAR, X_o, CFG, directions=1)
        lam = lipschitz_estimate(LINEAR, SetSpec.box([-3, -3], [3, 3]), grid=7)
        rng = np.random.default_rng(3)
        t = 0.5
        for _ in range(20):
            x = rng.uniform(-1.5, 1.5, size=2)
            y = x + rng.uniform(-0.1, 0.1, size=2)
            bx, by = (B.evaluate_many([t], [x]).value[0], B.evaluate_many([t], [y]).value[0])
            assert abs(bx - by) <= np.exp(lam * t) * np.linalg.norm(x - y) + 1e-9

    def test_perturbed_bundle_lowers_values(self):
        # adding selections can only enlarge the backward tube, so the
        # marginal barrier of the perturbed inclusion sits below the nominal
        F0 = InclusionSpec.singleton(builtin_field("linear_safe"))
        Fe = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        X_o = SetSpec.ball([0, 0], 0.5, name="core")
        B0 = marginal_barrier(F0, X_o, CFG, directions=1)
        Be = marginal_barrier(Fe, X_o, CFG, directions=8)
        for x in ([1.2, 0.0], [0.9, 0.7]):
            v0 = B0.evaluate_many([0.75], [np.array(x)]).value[0]
            ve = Be.evaluate_many([0.75], [np.array(x)]).value[0]
            assert ve <= v0 + 1e-9

    def test_batch_matches_scalar(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        ts = np.array([0.0, 0.5, 1.25])
        xs = np.array([[0.3, 0.0], [0.4, 0.2], [0.6, -0.1]])
        batch = B.evaluate_many(ts, xs).value
        singles = [B.evaluate_many([t], [x]).value[0] for t, x in zip(ts, xs)]
        assert np.array_equal(batch, singles)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_values_independent_of_batch_composition(self, data):
        # switches = 0: a value depends on its own (t, x) only
        _assert_batch_independent(PERTURBED_B, data, 0.5)

    @settings(max_examples=20, deadline=None)
    @given(st.data())
    def test_switched_values_independent_of_batch_composition(self, data):
        # switches = 2: the switch times sit on an absolute grid, so a value
        # still depends on its own (t, x) only, across several switches
        _assert_batch_independent(SWITCHED_B, data, 1.5)

    def test_switched_value_alone_equals_value_beside_a_later_time(self):
        # switch times spread over the batch's largest t gave this point
        # 0.9196 alone and 0.9745 beside a t = 6 point
        x = np.array([1.923, 0.742])
        alone = SWITCHED_B.evaluate_many([1.081], [x]).value[0]
        assert SWITCHED_B.evaluate_many([1.081, 6.0], [x, [0.3, -1.4]]).value[0] == alone

    def test_mixed_times_query_no_more_points_than_per_t_batches(self, monkeypatch):
        # neither distance points nor right-hand-side rows: each row stops at its own t
        counted, rhs_rows = [], []
        real = solver.distance_to_set_many
        monkeypatch.setattr(solver, "distance_to_set_many",
                            lambda X, S: counted.append(len(X)) or real(X, S))
        f = builtin_field("linear_safe")
        counting = FieldHandle(lambda X: rhs_rows.append(len(X)) or f(X), 2, "linear_safe")
        B = marginal_barrier(InclusionSpec.singleton(counting), SetSpec.ball([0, 0], 0.5),
                             IntegratorConfig(step=1 / 64), directions=1)
        ts = np.array([0.0, 0.25, 1.0, 0.5 + 1 / 128])
        xs = np.array([[1.2, 0.0], [0.9, 0.7], [-1.0, 0.4]])
        mixed = B.evaluate_many(np.repeat(ts, len(xs)), np.tile(xs, (len(ts), 1))).value
        n_mixed, rows_mixed = sum(counted), sum(rhs_rows)
        counted.clear()
        rhs_rows.clear()
        per_t = np.concatenate([B.evaluate_many(np.full(len(xs), t), xs).value for t in ts])
        assert np.array_equal(mixed, per_t)
        assert 0 < n_mixed <= sum(counted)
        assert rows_mixed <= sum(rhs_rows)


    @pytest.mark.parametrize("B", [PERTURBED_B, SWITCHED_B], ids=["switches0", "switches2"])
    def test_repeated_points_read_off_one_sweep(self, B):
        # every x asked at several t's, some (t, x) twice: the batch, its
        # permutation and one evaluation per distinct (t, x) agree bitwise
        ts = np.array([0.0, 0.25, 0.5 + 1 / 128, 1.0, 1.5, 0.25])
        xs = np.array([[1.2, 0.0], [0.9, 0.7], [-1.0, 0.4]])
        T, X = np.repeat(ts, len(xs)), np.tile(xs, (len(ts), 1))
        singles = {(t, tuple(x)): B.evaluate_many([t], [x]).value[0] for t, x in zip(T, X)}
        expected = np.array([singles[t, tuple(x)] for t, x in zip(T, X)])
        assert np.array_equal(B.evaluate_many(T, X).value, expected)
        order = np.random.default_rng(4).permutation(len(T))
        assert np.array_equal(B.evaluate_many(T[order], X[order]).value, expected[order])

    @pytest.mark.parametrize("switches", [0, 2])
    def test_read_off_across_an_escape(self, switches):
        # backward rows from the first two points leave radius 4 between two
        # of their queried t's: a later t takes the frozen rows' final
        # minimum, whether rows from the third point still step (the batch)
        # or none does (per point)
        B = marginal_barrier(PERTURBED, SetSpec.ball([0, 0], 0.5),
                             IntegratorConfig(step=1 / 64, escape_radius=4.0),
                             directions=4, switches=switches)
        ts = np.array([0.25, 0.5 + 1 / 128, 1.0 + 1 / 256, 1.5, 3.0])
        xs = np.array([[2.5, 0.5], [0.9, 0.7], [0.2, 0.1]])
        assert B.evaluate_many([0.5 + 1 / 128], [xs[0]]).cut.tolist() == [False]
        assert B.evaluate_many([1.0 + 1 / 256], [xs[0]]).cut.tolist() == [True]
        T, X = np.repeat(ts, len(xs)), np.tile(xs, (len(ts), 1))
        singles = [np.concatenate(f) for f in zip(*(B.evaluate_many([t], [x])
                                                     for t, x in zip(T, X)))]
        got = B.evaluate_many(T, X)
        assert np.array_equal(got.value, singles[0]) and np.array_equal(got.cut, singles[1])
        # per row: the first point's tube is cut short from t = 1 + 1/256 on
        assert got.cut.any() and not got.cut.all()
        assert got.cut[(X == xs[0]).all(axis=1)].tolist() == [False] * 2 + [True] * 3
        order = np.random.default_rng(6).permutation(len(T))
        permuted = B.evaluate_many(T[order], X[order])
        assert np.array_equal(permuted.value, singles[0][order])
        assert np.array_equal(permuted.cut, singles[1][order])

    def test_each_batch_keeps_its_own_cut(self):
        # batch A's record is its own: evaluating batch B after it changes
        # neither A's values nor A's cut, and both equal A evaluated afresh
        make = lambda: marginal_barrier(TestOneBatch.SADDLE, SetSpec.ball([0.0, 0.0], 0.1),
                                        IntegratorConfig(step=1 / 64, escape_radius=3.0))
        B = make()
        a = B.evaluate_many([1.0], [[0.2, 0.2]])
        value = a.value.copy()
        assert B.evaluate_many([1.0, 1.0], [[0.1, 2.9], [0.2, 0.2]]).cut.tolist() == [True, False]
        fresh = make().evaluate_many([1.0], [[0.2, 0.2]])
        for got in (a, fresh):
            assert np.array_equal(got.value, value) and got.cut.tolist() == [False]

    def test_one_sweep_per_distinct_point(self):
        # 7 t's x 3 copies of one x step S rows, not 7 * 3 * S
        rhs_rows = []
        f = builtin_field("linear_safe")
        counting = FieldHandle(lambda X: rhs_rows.append(len(X)) or f(X), 2, "linear_safe")
        B = marginal_barrier(InclusionSpec.ball_perturbed(counting, 0.3),
                             SetSpec.ball([0, 0], 0.5), IntegratorConfig(step=1 / 64),
                             directions=4)
        ts = np.repeat(np.linspace(0.0, 1.5, 7), 3)
        vals = B.evaluate_many(ts, np.tile([0.9, 0.7], (len(ts), 1))).value
        assert set(rhs_rows) == {4} and len(rhs_rows) == 4 * 96
        assert np.all(np.diff(vals[::3]) <= 0.0)
        rhs_rows.clear()
        B.evaluate_many(np.zeros(5), np.random.default_rng(0).normal(size=(5, 2)))
        assert rhs_rows == []

    def test_ball_bundle_matches_per_selector_loop(self):
        # one sweep over selectors x points against a running minimum along
        # each selector's own backward integration, point by point
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.3)
        X_o = SetSpec.ball([0, 0], 0.5, name="core")
        cfg = IntegratorConfig(step=1.0 / 64.0)
        ts = np.array([0.0, 0.3, 0.5, 7.5 / 64.0, 1.0])
        xs = np.array([[1.2, 0.0], [0.9, 0.7], [-1.0, 0.4], [0.3, -1.4], [2.0, 1.0]])
        B = marginal_barrier(F, X_o, cfg, directions=4)
        h = cfg.step
        k_lo = np.floor(ts / h + 1e-12).astype(int)
        frac = np.clip(ts / h - k_lo, 0.0, 1.0)
        k_hi = np.where(frac > 1e-12, k_lo + 1, k_lo)
        T = int(k_hi.max()) * h
        best_lo, best_hi = np.full(len(ts), np.inf), np.full(len(ts), np.inf)
        table = BundlePlan(4).table(F, T)
        for j in range(4):
            for i, x in enumerate(xs):
                tr = selection_path(F, table, j, x, T, "backward", cfg)
                run = np.minimum.accumulate(distance_to_set_many(tr.states, X_o))
                best_lo[i] = min(best_lo[i], run[k_lo[i]])
                best_hi[i] = min(best_hi[i], run[k_hi[i]])
        expected = best_lo * (1.0 - frac) + best_hi * frac
        assert np.array_equal(B.evaluate_many(ts, xs).value, expected)


class TestSignCheck:
    def test_marginal_zero_on_initial_set(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        X_u = SetSpec.complement(ORIGIN, name="off_origin")
        rep = candidate_sign_check(B, ORIGIN, X_u, [0.0, 1.0, 2.0],
                                   SamplePlan(4, 4, 0, WINDOW), n_unsafe=40)
        assert rep.verdict == "pass"
        assert rep.details["max_on_X_o"] == 0.0
        assert rep.details["min_on_X_u"] > 0.0

    def test_distinct_samples_count_repeated_points_once(self):
        # the one-point X_o is drawn 4 + 4 times; samples counts every copy
        B = user_barrier("x1^2 + x2^2", 2)
        X_u = SetSpec.complement(ORIGIN, name="off_origin")
        rep = candidate_sign_check(B, ORIGIN, X_u, [0.0, 1.0, 1.0, 2.0],
                                   SamplePlan(4, 4, 0, WINDOW), n_unsafe=40)
        assert rep.samples == 4 * (8 + 40)
        assert rep.details["distinct_samples"] == 3 * (1 + 40)

    def test_closed_form_positive_off_origin(self):
        B = counterexample_barrier_fn()
        X_u = SetSpec.complement(ORIGIN, name="off_origin")
        rep = candidate_sign_check(B, ORIGIN, X_u, np.linspace(0, 5, 6),
                                   SamplePlan(2, 2, 0, ([-1.0, -1.0], [1.0, 1.0])),
                                   n_unsafe=64)
        assert rep.verdict == "pass"
        # the backward flow floors at a limit-cycle radius
        assert rep.details["min_on_X_u"] > 1e-3

    def test_ellipse_barrier_on_disk(self):
        # oracle: parametric max of B over the unit circle is 0 at (0, +-1)
        theta = np.linspace(0, 2 * np.pi, 721)    # includes pi/2 and 3 pi/2
        vals = np.cos(theta) ** 2 / 10 + np.sin(theta) ** 2 - 1.0
        assert vals.max() == pytest.approx(0.0, abs=1e-15)
        assert vals.min() == pytest.approx(-0.9)
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        disk = SetSpec.ball([0, 0], 1.0)
        X_u = SetSpec.halfspace([0, 1], 2.0)
        rep = candidate_sign_check(B, disk, X_u, [0.0], SamplePlan(32, 32, 0, ([-4, -4], [4, 4])),
                                   n_unsafe=32)
        assert rep.verdict == "pass"
        assert rep.details["max_on_X_o"] <= 1e-9
        assert rep.details["min_on_X_u"] >= 3.0

    def test_non_finite_barrier_raises(self):
        # NaN on the left half-plane; B is about -9 on X_u, so no pass either way
        B = user_barrier("sqrt(x1) - 10", 2)
        with pytest.raises(BarrierError, match=r"non-finite value at t=0\.0, x=\[-1\.0, 0\.0\]"):
            B.evaluate_many([0.0, 0.0], [[1.0, 0.0], [-1.0, 0.0]])
        with pytest.raises(BarrierError, match="non-finite"):
            candidate_sign_check(B, SetSpec.ball([0, 0], 1.0), SetSpec.halfspace([0, 1], 2.0),
                                 [0.0], SamplePlan(4, 4, 0, ([-4, -4], [4, 4])), n_unsafe=8)

    def test_empty_t_grid_inconclusive(self):
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        rep = candidate_sign_check(B, SetSpec.ball([0, 0], 1.0), SetSpec.halfspace([0, 1], 2.0),
                                   [], SamplePlan(32, 32, 0, ([-4, -4], [4, 4])))
        assert (rep.verdict, rep.samples) == ("inconclusive", 0)

    def test_witness_is_first_maximum_in_t_major_order(self):
        # B = 1 - t: the maximum on X_o is 1 at t = 0, reached at the second
        # and third grid times on every sample; the witness is the first of them
        B = user_barrier("1 - t + 0 * x1", 2)
        disk = SetSpec.ball([0, 0], 1.0)
        rep = candidate_sign_check(B, disk, SetSpec.halfspace([0, 1], 2.0), [0.5, 0.0, 0.0],
                                   SamplePlan(4, 4, 3, ([-4, -4], [4, 4])), n_unsafe=8)
        first = disk.sample_interior(4, seed=3)[0]
        assert rep.witness == {"t": 0.0, "x": first.tolist()}
        assert rep.details["max_on_X_o"] == 1.0


class TestMonotonicity:
    def test_constant_barrier(self):
        B = user_barrier("1", 2)
        tr = integrate(LINEAR, np.array([1.0, 0.0]), 1.0, cfg=CFG)
        rep = monotonicity_check(B, [tr], tol=1e-12)
        assert rep.verdict == "pass" and rep.worst_margin == 0.0

    def test_marginal_along_forward_spiral(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        tr = integrate(COUNTER, np.array([0.5, 0.0]), 2.0, cfg=CFG)
        rep = monotonicity_check(B, [tr], tol=10 * CFG.accuracy, stride=64)
        assert rep.verdict == "pass"

    def test_closed_form_along_forward_spiral(self):
        B = counterexample_barrier_fn()
        tr = integrate(COUNTER, np.array([0.5, 0.0]), 3.0, cfg=CFG)
        rep = monotonicity_check(B, [tr], tol=1e-9, stride=16)
        assert rep.verdict == "pass"

    def test_increasing_barrier_fails(self):
        B = user_barrier("0 - x1^2 - x2^2", 2)     # grows along expanding field
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        tr = integrate(F, np.array([0.1, 0.0]), 0.5, cfg=CFG)
        # B decreases along expansion; flip to make it increase
        B2 = user_barrier("x1^2 + x2^2", 2)
        rep = monotonicity_check(B2, [tr], tol=1e-9)
        assert rep.verdict == "fail"
        assert rep.witness["value"] > rep.witness["previous_value"]

    def test_reports_the_worst_trajectory(self):
        # one batch over several trajectories reports the one with the
        # largest increment, as a loop over them picks it
        B = user_barrier("x1^2 + x2^2", 2)
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        trajs = [integrate(F, np.array([r, 0.0]), 0.25, cfg=CFG)
                 for r in (0.1, 0.4, 0.2)]
        reps = [monotonicity_check(B, [tr], tol=1e-9, stride=8) for tr in trajs]
        rep = monotonicity_check(B, trajs, tol=1e-9, stride=8)
        assert rep.to_json() == reps[1].to_json()

    def test_one_node_trajectory_adds_nothing(self):
        # a trajectory of one node has no increment: it neither makes a
        # passing check inconclusive nor is picked as the worst
        B = user_barrier("x1^2/10 + x2^2 - t", 2)
        long = integrate(LINEAR, np.array([1.0, 0.5]), 1.0, cfg=CFG)
        one = solver.Trajectory(np.zeros(1), np.array([[0.3, 0.2]]))
        alone = monotonicity_check(B, [long], tol=1e-9, stride=16)
        assert alone.verdict == "pass" and alone.samples > 1
        for trajs in ([one, long], [long, one]):
            assert monotonicity_check(B, trajs, tol=1e-9, stride=16).to_json() == alone.to_json()
        rep = monotonicity_check(B, [one, one])
        assert (rep.verdict, rep.samples) == ("inconclusive", 1)

    def test_requires_forward_trajectory(self):
        tr = integrate(LINEAR, np.array([1.0, 0.0]), 0.5,
                       direction="backward", cfg=CFG)
        with pytest.raises(ValueError):
            monotonicity_check(user_barrier("1", 2), [tr])


class TestOneBatch:
    """batch_values answers the queries of several checks from one batch
    of B, and each check's entry makes its report from its answer; each
    report is the one its queries alone give."""

    SADDLE = InclusionSpec.singleton(field_from_expressions(["x1", "0 - x2"], "saddle"))

    @staticmethod
    def reports(B, asked):
        return [q.check(got, q) for q, got in zip(asked, barrier.batch_values(B, asked))]

    def test_only_the_escaping_check_reads_a_truncated_tube(self):
        # backward, x1 shrinks and x2 grows: the sign check's tubes, from
        # |x| < 0.75 up to t = 1, stay inside radius 3; the monotonicity
        # check's trajectory runs out along x1 past it, so its later nodes'
        # backward tubes escape at their first step
        B = marginal_barrier(self.SADDLE, SetSpec.ball([0.0, 0.0], 0.1),
                             IntegratorConfig(step=1 / 64, escape_radius=3.0))
        window = ([-0.5, -0.5], [0.5, 0.5])
        sign = lambda: barrier.sign_queries(SetSpec.ball([0.0, 0.0], 0.1),
                                         SetSpec.ball([0.3, 0.3], 0.1), [0.0, 0.5, 1.0],
                                         SamplePlan(4, 4, 3, window), n_unsafe=8)
        tr = integrate(self.SADDLE, np.array([1.0, 0.2]), 1.5,
                       cfg=IntegratorConfig(step=1 / 64))
        mono = lambda: barrier.monotonicity_queries([tr], tol=1e-9, stride=8)
        queries = [sign(), mono()]
        got = [B.evaluate_many(q.ts, q.Xs) for q in queries]
        assert not got[0].cut.any() and got[1].cut.any()
        alone = [q.answer(B) for q in queries]
        asked = [sign(), mono()]
        both = barrier.batch_values(B, asked)
        assert not both[0].cut.any() and both[1].cut.any() and not both[1].cut.all()
        for one, many in zip(got, both):
            assert np.array_equal(one.value, many.value) and np.array_equal(one.cut, many.cut)
        out = self.reports(B, asked)
        assert [rep.to_json() for rep in out] == [rep.to_json() for rep in alone]
        assert "lower_bound_only" not in out[0].details

    def test_a_sign_check_reading_an_escaped_tube_is_a_lower_bound(self):
        # backward, x2 grows from the X_u disk around (0.3, 2.5) past radius
        # 3 before t = 0.5; the monotonicity check's tubes stay inside it.
        # The sign report is the same alone and in one batch with it
        B = marginal_barrier(self.SADDLE, SetSpec.ball([0.0, 0.0], 0.1),
                             IntegratorConfig(step=1 / 64, escape_radius=3.0))
        sign = lambda: barrier.sign_queries(SetSpec.ball([0.0, 0.0], 0.1),
                                         SetSpec.ball([0.3, 2.5], 0.1), [0.0, 0.5, 1.0],
                                         SamplePlan(4, 4, 3), n_unsafe=8)
        tr = integrate(self.SADDLE, np.array([0.05, 0.3]), 1.0,
                       cfg=IntegratorConfig(step=1 / 64))
        mono = barrier.monotonicity_queries([tr], tol=1e-9, stride=8)
        assert not B.evaluate_many(mono.ts, mono.Xs).cut.any()
        alone = sign().answer(B)
        assert alone.details["lower_bound_only"] == "backward tube cut short by escape"
        out = self.reports(B, [sign(), mono])
        assert out[0].to_json() == alone.to_json()
        assert out[1].to_json() == mono.answer(B).to_json()

    def test_each_check_runs_through_its_entry(self, monkeypatch):
        # the module's candidate_sign_check and monotonicity_check, whose
        # spans bench/spans.py records, make the reports of one batch
        B = user_barrier("x1^2 + x2^2", 2)
        called = []
        for name in ("candidate_sign_check", "monotonicity_check"):
            entry = getattr(barrier, name)
            monkeypatch.setattr(barrier, name, lambda *a, entry=entry, **k:
                                called.append(entry.__name__) or entry(*a, **k))
        tr = integrate(InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp")),
                       np.array([0.1, 0.0]), 0.25, cfg=CFG)
        asked = [barrier.sign_queries(SetSpec.ball([0.0, 0.0], 0.1),
                                      SetSpec.ball([0.3, 0.3], 0.1), [0.0, 0.5],
                                      SamplePlan(2, 2, 1), n_unsafe=4),
                 barrier.monotonicity_queries([tr], tol=1e-9, stride=16)]
        assert len(self.reports(B, asked)) == 2
        assert called == ["candidate_sign_check", "monotonicity_check"]

    def test_a_failing_batch_answers_each_check_alone_in_turn(self, monkeypatch):
        B = user_barrier("x1^2 + x2^2", 2)
        calls = []
        evaluate = barrier.BarrierFn.evaluate_many

        def fail_big(self, ts, Xs):
            calls.append(len(ts))
            if len(ts) > 9:
                raise BarrierError("batch refused")
            return evaluate(self, ts, Xs)

        monkeypatch.setattr(barrier.BarrierFn, "evaluate_many", fail_big)
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        trajs = [integrate(F, np.array([r, 0.0]), 0.25, cfg=CFG)
                 for r in (0.1, 0.4)]
        asked = [barrier.monotonicity_queries([tr], tol=1e-9, stride=16) for tr in trajs]
        answers = barrier.batch_values(B, asked)
        assert calls == [18] and answers == [B, B]
        assert asked[0].check(answers[0], asked[0]).verdict == "fail" and calls == [18, 9]
        assert asked[1].check(answers[1], asked[1]).verdict == "fail" and calls == [18, 9, 9]


class TestInfinitesimal:
    def test_linear_example_everywhere(self):
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        rep = infinitesimal_check(B, LINEAR, "smooth", "everywhere",
                                  RelaxFn.zero(), t_grid=[0.0], window=WINDOW,
                                  count=150, tol=1e-6)
        assert rep.verdict == "pass"
        # the finite-difference margin matches -x1^2/5 at the witness
        x1 = rep.witness["x"][0]
        assert rep.worst_margin == pytest.approx(-x1 ** 2 / 5.0, abs=1e-6)

    def test_constant_barrier_all_zero(self):
        B = user_barrier("1", 2)
        rep = infinitesimal_check(B, LINEAR, "smooth", "everywhere",
                                  RelaxFn.zero(), t_grid=[0.0], window=WINDOW,
                                  count=50, tol=1e-9)
        assert rep.verdict == "pass"
        assert abs(rep.worst_margin) < 1e-9

    def test_sign_flipped_fails_with_witness(self):
        B = user_barrier("1 - x1^2/10 - x2^2", 2)
        rep = infinitesimal_check(B, LINEAR, "smooth", "everywhere",
                                  RelaxFn.zero(), t_grid=[0.0], window=WINDOW,
                                  count=150, tol=1e-6)
        assert rep.verdict == "fail"
        x1 = rep.witness["x"][0]
        assert rep.worst_margin == pytest.approx(x1 ** 2 / 5.0, abs=1e-6)
        # at x = (1, 0) the violation is exactly 0.2
        probe = infinitesimal_check(B, LINEAR, "smooth", "everywhere",
                                    RelaxFn.zero(), t_grid=[0.0],
                                    window=([0.999, -0.001], [1.001, 0.001]),
                                    count=20, tol=1e-6)
        assert probe.worst_margin == pytest.approx(0.2, abs=1e-3)

    def test_clarke_mode_on_smooth_barrier(self):
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        rep = infinitesimal_check(B, LINEAR, "clarke", "everywhere",
                                  RelaxFn.zero(), t_grid=[0.0], window=WINDOW,
                                  count=25, tol=1e-5)
        assert rep.verdict == "pass"

    def test_proximal_mode_on_smooth_barrier(self):
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        rep = infinitesimal_check(B, LINEAR, "proximal", "everywhere",
                                  RelaxFn.zero(), t_grid=[0.0], window=WINDOW,
                                  count=15, tol=1e-5)
        assert rep.verdict == "pass"

    def test_ball_inclusion_exact_extreme(self):
        eps = 0.25
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), eps)
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        rep = infinitesimal_check(B, F, "smooth", "everywhere", RelaxFn.zero(),
                                  t_grid=[0.0], window=WINDOW, count=100, tol=np.inf)
        # margin = <grad, Ax> + eps |grad|; check against the analytic value
        x = np.array(rep.witness["x"])
        grad = np.array([x[0] / 5.0, 2.0 * x[1]])
        expected = -x[0] ** 2 / 5.0 + eps * np.linalg.norm(grad)
        assert rep.worst_margin == pytest.approx(expected, abs=1e-5)

    def test_linear_relaxation_dominates_zero(self):
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        band = ("margin_band", 0.5)
        strict = infinitesimal_check(B, LINEAR, "smooth", band, RelaxFn.zero(),
                                     t_grid=[0.0], window=WINDOW, count=60, tol=1e-6)
        relaxed = infinitesimal_check(B, LINEAR, "smooth", band, RelaxFn.linear(1.0),
                                      t_grid=[0.0], window=WINDOW, count=60, tol=1e-6)
        # on the band B > 0, so g = B > 0 only loosens the test
        assert relaxed.worst_margin <= strict.worst_margin + 1e-12
        assert strict.verdict == "pass" and relaxed.verdict == "pass"

    def test_margin_band_region_filters(self):
        B = counterexample_barrier_fn()
        rep = infinitesimal_check(B, COUNTER, "smooth", ("margin_band", 0.2),
                                  RelaxFn.zero(), t_grid=[0.5, 1.0],
                                  window=([-1, -1], [1, 1]), count=40, tol=1e-5)
        assert rep.verdict == "pass"
        assert rep.samples > 0

    def test_empty_region_inconclusive(self):
        B = user_barrier("x1^2 + x2^2 + 10", 2)   # never in (0, 0.01]
        rep = infinitesimal_check(B, LINEAR, "smooth", ("margin_band", 0.01),
                                  RelaxFn.zero(), t_grid=[0.0], window=WINDOW,
                                  count=40)
        assert rep.verdict == "inconclusive"


def _scalar_decrease_reference(B, F, mode, t_grid, count, fd=1e-6, radius=1e-4, seed=0):
    """Per-pair scalar loops of the decrease check with g = 0, region
    everywhere: one B value per probe, memoized on (t, x) since a value
    depends on its own row only.  Proximal base times sit at least the
    proximal radius + fd above 0.  A ball inclusion takes the exact ball
    maximum, any other kind a loop over its vertices; samples count zetas."""
    value = functools.cache(lambda t, *x: B.evaluate_many([t], [np.array(x)]).value[0])
    H = lambda u: value(*map(float, u))
    per_t = max(count // len(t_grid), 8)
    pool = sampling.box_points(np.array(WINDOW[0]), np.array(WINDOW[1]), per_t * 4, seed=seed)
    pairs = [(t, p) for t in t_grid for p in pool[:per_t]][:count]

    def fd_gradient(u, i):
        e = np.zeros(len(u))
        e[i] = fd
        return (H(u + e) - H(u - e)) / (2 * fd)

    def proximal_holds(tx, zeta, eps, r=1e-3, m=24):
        n = len(tx)
        ys = np.vstack([sampling.ball_points(tx, r, m, seed=seed),
                        np.vstack([np.eye(n), -np.eye(n)]) * r + tx])
        return min(H(y) - H(tx) - float(zeta @ (y - tx)) + eps * float((y - tx) @ (y - tx))
                   for y in ys) >= -1e-9

    worst, witness, checked = -np.inf, {}, 0
    for t, x in pairs:
        if mode == "smooth":
            # every quotient at t' = max(t, fd), the x ones too
            zetas = [np.array([fd_gradient(np.array([max(t, fd), *x]), i) for i in range(3)])]
        else:
            tx = np.concatenate([[max(t, (1e-3 if mode == "proximal" else radius) + fd)], x])
            pts = np.vstack([tx, sampling.ball_points(tx, radius, 6, seed=seed)])
            zetas = [np.array([fd_gradient(p, i) for i in range(3)]) for p in pts]
            if mode == "proximal":
                zetas = [z for z in zetas
                         if any(proximal_holds(tx, z, eps) for eps in (0.0, 1.0, 10.0, 100.0))]
        for zeta in zetas:
            if F.kind == "ball":
                f0 = F.fields[0](x)
                norm = float(np.linalg.norm(zeta[1:]))
                # the maximizer over the ball, f0 + eps zeta_x / |zeta_x|
                eta = f0 + F.epsilon * (zeta[1:] / norm) if norm > 0.0 else f0
                cands = [(eta, zeta[0] + float(zeta[1:] @ f0) + F.epsilon * norm)]
            else:
                cands = [(v, zeta[0] + float(zeta[1:] @ v)) for v in (f(x) for f in F.fields)]
            checked += 1
            for eta, margin in cands:
                if margin > worst:
                    worst, witness = margin, {"t": t, "x": x.tolist(), "eta": eta.tolist(),
                                              "zeta": zeta.tolist()}
    return worst, witness, checked


class TestZeroLevelBisection:
    def test_ends_equal_a_bisection_kept_by_the_nonpositive_side(self):
        # no pool point lies within 1e-12 of the zero level, so every t bisects
        t_grid, count, seed = [0.0, 0.5], 16, 3
        picked = infinitesimal._region_samples(HULL_B, "boundary", 1e-12, t_grid, WINDOW,
                                               count, seed)
        per_t = max(count // len(t_grid), 8)
        pool = sampling.box_points(*WINDOW, per_t * 4, seed=seed)
        expect = []
        for t in t_grid:
            vals = HULL_B.evaluate_many(np.full(len(pool), t), pool).value
            neg, pos = pool[vals <= 0.0], pool[vals > 0.0]
            i = np.arange(per_t)
            a, b = neg[i % len(neg)], pos[(3 * i + 1) % len(pos)]
            for _ in range(60):
                mid = 0.5 * (a + b)
                inside = (HULL_B.evaluate_many(np.full(per_t, t), mid).value <= 0.0)[:, None]
                a, b = np.where(inside, mid, a), np.where(inside, b, mid)
            expect.extend((t, p) for p in b)
        assert len(picked) == len(expect) == count
        for (t, p), (te, pe) in zip(picked, expect):
            assert t == te and np.array_equal(p, pe)
            assert 0.0 < HULL_B.evaluate_many([t], [p]).value[0] < 1e-12


class TestBatchedDecrease:
    @pytest.mark.parametrize("mode,t_grid,count", [("smooth", (0.0, 0.75, 1.5), 24),
                                                   ("clarke", (0.0, 1.5), 12),
                                                   ("proximal", (0.0, 1.5), 12)])
    def test_batched_equals_scalar(self, mode, t_grid, count):
        # the t = 0 pairs put the proximal ball next to t = 0, where a marginal
        # barrier raises for any probe at t < 0
        rep = infinitesimal_check(PERTURBED_B, PERTURBED, mode, "everywhere", RelaxFn.zero(),
                                  t_grid=t_grid, window=WINDOW, count=count, tol=np.inf)
        worst, witness, checked = _scalar_decrease_reference(PERTURBED_B, PERTURBED, mode,
                                                             t_grid, count)
        assert checked > 0
        assert rep.worst_margin == worst
        assert rep.witness == witness
        assert rep.samples == checked

    def test_hull_clarke_equals_vertex_loop(self):
        rep = infinitesimal_check(HULL_B, HULL, "clarke", "everywhere", RelaxFn.zero(),
                                  t_grid=(0.0, 1.5), window=WINDOW, count=12, tol=np.inf)
        worst, witness, checked = _scalar_decrease_reference(HULL_B, HULL, "clarke",
                                                             (0.0, 1.5), 12)
        assert rep.worst_margin == worst
        assert rep.witness == witness
        assert rep.samples == checked == 12 * 7     # 2(n + 1) + 1 zetas per pair

    @pytest.mark.parametrize("mode", ["smooth", "clarke", "proximal"])
    def test_one_rhs_call_per_field(self, monkeypatch, mode):
        calls = []
        real = FieldHandle.__call__
        monkeypatch.setattr(FieldHandle, "__call__",
                            lambda self, x: calls.append(self.name) or real(self, x))
        for count in (4, 16):
            calls.clear()
            infinitesimal_check(HULL_B, HULL, mode, "everywhere", t_grid=[0.5],
                                window=WINDOW, count=count, tol=np.inf)
            assert sorted(calls) == ["linear_safe", "quad"]

    def test_smooth_calls_do_not_grow_with_count(self, monkeypatch):
        calls = []
        real = barrier.BarrierFn.evaluate_many
        monkeypatch.setattr(barrier.BarrierFn, "evaluate_many",
                            lambda self, ts, Xs: calls.append(len(ts)) or real(self, ts, Xs))
        made = []
        for count in (16, 64):
            calls.clear()
            rep = infinitesimal_check(PERTURBED_B, PERTURBED, "smooth", "everywhere",
                                      t_grid=[0.0, 1.5], window=WINDOW, count=count,
                                      tol=np.inf)
            assert rep.samples == count
            made.append(len(calls))
        assert made[0] == made[1]


class TestRelaxFns:
    def test_zero_and_linear(self):
        assert RelaxFn.zero()(3.0) == 0.0
        assert RelaxFn.linear(2.0)(1.5) == 3.0

    def test_extended_classk_validation(self):
        g = RelaxFn.extended_classK("2*b + b^3")
        assert g(0.0) == 0.0
        with pytest.raises(ValueError, match="strictly increasing"):
            RelaxFn.extended_classK("0 - b")
        with pytest.raises(ValueError, match="g\\(0\\)"):
            RelaxFn.extended_classK("b + 1")

    def test_minimal_expression(self):
        g = RelaxFn.minimal("b * abs(b)")
        assert g(2.0) == 4.0 and g(-2.0) == -4.0


class TestMembershipAndProbes:
    def test_marginal_membership_on_initial_set(self):
        # X_o lies in the zero sublevel set of B(1, .), a point off it does not
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        assert B.evaluate_many([1.0], [np.zeros(2)]).value[0] <= 0.0
        assert B.evaluate_many([1.0], [[0.3, 0.0]]).value[0] > 0.0

    def test_lsc_probe_on_continuous_barrier(self):
        # lower semicontinuity, one-sided: on shrinking rings around x the
        # minimum of B drops at most a little below B(t, x)
        B = counterexample_barrier_fn()
        t, x = 1.0, np.array([0.4, 0.0])
        rings = np.concatenate([x + r * sampling.sphere_directions(2, 16, seed=0)
                                for r in (1e-2, 1e-3, 1e-4)])
        drop = (B.evaluate_many([t], [x]).value[0]
                - B.evaluate_many(np.full(len(rings), t), rings).value.min())
        assert drop <= 0.05
