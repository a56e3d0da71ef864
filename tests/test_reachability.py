import numpy as np
import pytest
from scipy.linalg import expm

from safereach.dynamics import (FieldHandle, InclusionSpec, LINEAR_SAFE_A, builtin_field,
                                field_from_expressions, lipschitz_estimate)
from safereach.geometry import SetSpec
from safereach.reachability import filippov_check, reach
from safereach.solver import BundlePlan, IntegratorConfig, selections, solution_bundle

from helpers import hausdorff_distance

LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
CFG = IntegratorConfig(step=1.0 / 256.0)
PLAN = BundlePlan(directions=1)
BALL = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)


def backward_radial_oracle(r0: float, T: float, steps: int = 20000) -> float:
    """Independent fine-step RK4 on dr/ds = -(r^2/2) sin^2(1/r)."""
    rate = lambda r: -0.5 * r * r * np.sin(1.0 / r) ** 2
    h = T / steps
    r = r0
    for _ in range(steps):
        k1 = rate(r)
        k2 = rate(r + 0.5 * h * k1)
        k3 = rate(r + 0.5 * h * k2)
        k4 = rate(r + h * k3)
        r += (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
    return r


class TestReach:
    def test_zero_horizon_is_base_point(self):
        x = np.array([0.4, -0.2])
        points, truncated = reach(LINEAR, x, 0.0, CFG, PLAN)
        assert np.array_equal(points, x[None, :]) and not truncated

    def test_equilibrium_cloud_is_constant(self):
        F = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
        points, _ = reach(F, np.array([1.0, 2.0]), 3.0, CFG, PLAN)
        assert np.allclose(points, [1.0, 2.0])

    def test_backward_radial_min_radius(self):
        # from r = 2/pi with horizon -2 the innermost radius is
        # 4/(3 pi); cross-checked against the closed-form barrier branch
        F1 = InclusionSpec.singleton(builtin_field("counterexample_radial"))
        r0 = 2.0 / np.pi
        got = reach(F1, np.array([r0]), -2.0, CFG, PLAN)[0].min()
        oracle = backward_radial_oracle(r0, 2.0)
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(4.0 / (3.0 * np.pi), abs=1e-9)

    def test_nesting_of_stored_points(self):
        small = reach(LINEAR, np.array([1.0, 0.0]), 0.5, CFG, PLAN)[0]
        large = reach(LINEAR, np.array([1.0, 0.0]), 1.0, CFG, PLAN)[0]
        large_set = {tuple(p) for p in large}
        assert all(tuple(p) in large_set for p in small)

    def test_endpoint_subset_of_tube(self):
        # a stride that skips the last node still keeps every path's endpoint
        x = np.array([1.0, 0.0])
        tube = reach(LINEAR, x, 1.0, CFG, PLAN, stride=7)[0]
        end = solution_bundle(LINEAR, x[None], 1.0, cfg=CFG, plan=PLAN)[0][0].states[-1]
        assert (1.0 / CFG.step) % 7 != 0
        assert any(np.array_equal(p, end) for p in tube)

    def test_endpoint_matches_matrix_exponential(self):
        x = np.array([1.0, 0.0])
        end = reach(LINEAR, x, 1.0, CFG, PLAN)[0][-1]
        assert np.linalg.norm(end - expm(LINEAR_SAFE_A) @ x) < 1e-8

    def test_backward_forward_duality(self):
        x = np.array([0.7, 0.1])
        z = reach(LINEAR, x, -0.75, CFG, PLAN)[0][-1]
        fwd = reach(LINEAR, z, 0.75, CFG, PLAN)[0][-1]
        assert np.linalg.norm(fwd - x) <= 10 * CFG.accuracy

    def test_escape_flags_truncated(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        x = np.array([1.0, 0.0])
        assert reach(F, x, 5.0, IntegratorConfig(step=1 / 64, escape_radius=5.0), PLAN)[1]
        assert not reach(F, x, 1.0, IntegratorConfig(step=1 / 64, escape_radius=5.0), PLAN)[1]


class TestFilippov:
    def test_identical_points_zero_bound(self):
        x = np.array([[1.0, 0.0]])
        res = filippov_check(LINEAR, x, x, 1.0, 10.0, CFG, PLAN)
        assert res["holds"][0]
        assert abs(res["max_violation"][0]) < 1e-10

    def test_linear_pair_with_estimated_constant(self):
        lam = lipschitz_estimate(LINEAR, SetSpec.box([-3, -3], [3, 3]), grid=9)
        res = filippov_check(LINEAR, [[1.0, 0.0]], [[0.95, 0.05]], 1.0, lam, CFG, PLAN)
        assert res["holds"][0]
        assert res["max_violation"][0] <= 1e-6

    def test_zero_lambda_fails_on_expanding_field(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        res = filippov_check(F, [[1.0, 0.0]], [[1.2, 0.0]], 1.0, 0.0, CFG, PLAN)
        assert not res["holds"][0]
        # spread grows like (e^s - 1)|x - y|
        assert res["max_violation"][0] == pytest.approx((np.e - 1.0) * 0.2, rel=1e-3)

    def test_box_exit_reported(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        box = SetSpec.box([-0.5, -0.5], [0.5, 0.5])
        res = filippov_check(F, [[0.4, 0.0]], [[0.45, 0.0]], 2.0, 1.0, CFG, PLAN, box=box)
        assert res["applicable"].tolist() == [False]


class TestFilippovBatch:
    F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.3)
    PLAN = BundlePlan(directions=3, switches=1, seed=4)

    @staticmethod
    def pairs(p, seed=0):
        U = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(p, 2, 2))
        return U[:, 0], U[:, 0] + 0.3 * U[:, 1]

    def test_batch_equals_per_pair_calls_and_recorded_paths(self):
        X, Y = self.pairs(6)
        lam = 1.5
        res = filippov_check(self.F, X, Y, 1.0, lam, CFG, self.PLAN)
        assert res["max_violation"].shape == res["holds"].shape == (6,)
        for i in range(6):
            one = filippov_check(self.F, X[i:i + 1], Y[i:i + 1], 1.0, lam, CFG, self.PLAN)
            assert one["max_violation"][0] == res["max_violation"][i]
            assert one["holds"][0] == res["holds"][i] and one["applicable"][0]
            # the bound along recorded paths: every x-path against the y-cloud, node by node
            tx, ty = solution_bundle(self.F, np.stack([X[i], Y[i]]), 1.0, cfg=CFG,
                                     plan=self.PLAN)
            cloud = np.stack([tr.states for tr in ty])
            base = float(np.linalg.norm(X[i] - Y[i]))
            worst = max(float((np.linalg.norm(tr.states[None] - cloud, axis=2).min(axis=0)
                               - np.exp(lam * tr.times) * base).max()) for tr in tx)
            assert one["max_violation"][0] == worst
        assert res["applicable"].all()
        assert res["holds"].tolist() == (res["max_violation"] <= 1e-6).tolist()

    def test_one_sweep_whatever_the_pair_count(self):
        base = builtin_field("linear_safe")
        calls = []
        counted = FieldHandle(lambda x: calls.append(len(x)) or base.fn(x), 2, "counted")
        F = InclusionSpec.ball_perturbed(counted, 0.3)
        for p in (1, 5, 12):
            calls.clear()
            X, Y = self.pairs(p, seed=p)
            filippov_check(F, X, Y, 0.5, 1.0, CFG, self.PLAN)
            assert len(calls) == 4 * int(np.ceil(0.5 / CFG.step))
            assert set(calls) == {selections(self.PLAN.table(F, 0.5)) * 2 * p}

    def test_box_exit_and_escape_are_per_pair(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        X = np.array([[0.1, 0.0], [0.4, 0.0], [0.0, 0.1], [0.2, 0.2]])
        Y = X + np.array([[0.02, 0.0], [0.05, 0.0], [0.0, 0.02], [0.03, 0.0]])
        box = SetSpec.box([-1.0, -1.0], [1.0, 1.0])
        res = filippov_check(F, X, Y, 1.0, 1.0, CFG, PLAN, box=box)
        # e^1 * 0.45 leaves the box; e^1 * 0.25 (the 0.2 + 0.03 row) stays inside
        assert res["applicable"].tolist() == [True, False, True, True]
        assert np.isnan(res["max_violation"][1]) and not res["holds"][1]
        for i in (0, 2, 3):
            one = filippov_check(F, X[i:i + 1], Y[i:i + 1], 1.0, 1.0, CFG, PLAN, box=box)
            assert one["max_violation"][0] == res["max_violation"][i] and one["holds"][0]
        # an escaping row is frozen early; its pair alone is not applicable
        esc = IntegratorConfig(step=CFG.step, escape_radius=1.0)
        res = filippov_check(F, X, Y, 1.0, 1.0, esc, PLAN)
        assert res["applicable"].tolist() == [True, False, True, True]
        assert res["holds"].tolist() == [True, False, True, True]
        # no pairs, no verdicts
        res = filippov_check(F, X[:0], Y[:0], 1.0, 1.0, CFG, PLAN, box=box)
        assert [res[k].shape for k in ("max_violation", "holds", "applicable")] == [(0,)] * 3


class TestRegularityProbe:
    """Moduli of the reach map from Hausdorff distances between clouds."""

    def test_zero_field_trivial_moduli(self):
        # the zero field's reach map is constant in t and a translation in x
        F = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
        x, delta = np.array([1.0, 1.0]), np.array([1e-3, 0.0])
        clouds = [reach(F, x, t, CFG, PLAN)[0] for t in (0.2, 0.4, 0.6)]
        assert hausdorff_distance(clouds[0], clouds[1]) == 0.0
        assert hausdorff_distance(clouds[1], clouds[2]) == 0.0
        moved = reach(F, x + delta, 0.6, CFG, PLAN)[0]
        assert hausdorff_distance(clouds[2], moved) / np.linalg.norm(delta) == pytest.approx(1.0)

    def test_linear_spatial_moduli_within_gronwall(self):
        lam = lipschitz_estimate(LINEAR, SetSpec.box([-2, -2], [2, 2]), grid=7)
        x, t = np.array([1.0, 0.0]), 1.0
        ref = reach(LINEAR, x, t, CFG, PLAN)[0]
        for delta in ([1e-3, 0.0], [0.0, 1e-3]):
            other = reach(LINEAR, x + np.array(delta), t, CFG, PLAN)[0]
            assert hausdorff_distance(ref, other) / np.linalg.norm(delta) <= np.exp(lam * t) + 0.1
