import numpy as np
import pytest
from scipy.linalg import expm

from safereach.dynamics import (InclusionSpec, LINEAR_SAFE_A, builtin_field,
                                field_from_expressions, lipschitz_estimate)
from safereach.geometry import SetSpec
from safereach.reachability import (ReachCache, ReachCloud, cloud_to_csv,
                                    filippov_check, load_cloud, reach,
                                    reach_endpoint, reach_regularity_probe,
                                    save_cloud)
from safereach.solver import BundlePlan, IntegratorConfig

LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
CFG = IntegratorConfig(step=1.0 / 256.0)
PLAN = BundlePlan(directions=1)


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
        cloud = reach(LINEAR, x, 0.0, CFG, PLAN)
        assert np.array_equal(cloud.points, x[None, :])

    def test_equilibrium_cloud_is_constant(self):
        F = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
        cloud = reach(F, np.array([1.0, 2.0]), 3.0, CFG, PLAN)
        assert np.allclose(cloud.points, [1.0, 2.0])

    def test_backward_radial_min_radius(self):
        # from r = 2/pi with horizon -2 the innermost radius is
        # 4/(3 pi); cross-checked against the closed-form barrier branch
        F1 = InclusionSpec.singleton(builtin_field("counterexample_radial"))
        r0 = 2.0 / np.pi
        cloud = reach(F1, np.array([r0]), -2.0, CFG, PLAN)
        got = cloud.points.min()
        oracle = backward_radial_oracle(r0, 2.0)
        assert got == pytest.approx(oracle, abs=1e-8)
        assert got == pytest.approx(4.0 / (3.0 * np.pi), abs=1e-9)

    def test_nesting_of_stored_points(self):
        small = reach(LINEAR, np.array([1.0, 0.0]), 0.5, CFG, PLAN)
        large = reach(LINEAR, np.array([1.0, 0.0]), 1.0, CFG, PLAN)
        large_set = {tuple(p) for p in large.points}
        assert all(tuple(p) in large_set for p in small.points)

    def test_endpoint_subset_of_tube(self):
        tube = reach(LINEAR, np.array([1.0, 0.0]), 1.0, CFG, PLAN)
        ends = reach_endpoint(LINEAR, np.array([1.0, 0.0]), 1.0, CFG, PLAN)
        tube_set = {tuple(p) for p in tube.points}
        assert all(tuple(p) in tube_set for p in ends.points)

    def test_endpoint_matches_matrix_exponential(self):
        x = np.array([1.0, 0.0])
        ends = reach_endpoint(LINEAR, x, 1.0, CFG, PLAN)
        assert np.linalg.norm(ends.points[0] - expm(LINEAR_SAFE_A) @ x) < 1e-8

    def test_backward_forward_duality(self):
        x = np.array([0.7, 0.1])
        back = reach_endpoint(LINEAR, x, -0.75, CFG, PLAN)
        z = back.points[0]
        fwd = reach_endpoint(LINEAR, z, 0.75, CFG, PLAN)
        assert np.linalg.norm(fwd.points[0] - x) <= 10 * CFG.accuracy

    def test_escape_flags_truncated(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        cfg = IntegratorConfig(step=1 / 64, escape_radius=5.0)
        cloud = reach(F, np.array([1.0, 0.0]), 5.0, cfg, PLAN)
        assert cloud.truncated

    def test_cloud_must_be_nonempty(self):
        with pytest.raises(ValueError):
            ReachCloud(np.zeros(2), 0.0, np.empty((0, 2)))


class TestCache:
    def test_hit_is_identical_object(self):
        cache = ReachCache()
        x = np.array([0.6, 0.0])
        c1 = reach(LINEAR, x, -1.0, CFG, PLAN, cache=cache)
        c2 = reach(LINEAR, x, -1.0, CFG, PLAN, cache=cache)
        assert c1 is c2

    def test_quantized_keys_tolerate_tiny_jitter(self):
        cache = ReachCache()
        c1 = reach(LINEAR, np.array([0.6, 0.0]), -1.0, CFG, PLAN, cache=cache)
        c2 = reach(LINEAR, np.array([0.6 + 1e-13, 0.0]), -1.0, CFG, PLAN, cache=cache)
        assert c1 is c2

    def test_binary_roundtrip_bit_identical(self, tmp_path):
        cloud = reach(LINEAR, np.array([1.0, 0.0]), -0.5, CFG,
                      BundlePlan(directions=2), stride=4)
        path = tmp_path / "cloud.rch"
        save_cloud(cloud, path)
        back = load_cloud(path)
        assert np.array_equal(back.points, cloud.points)
        assert np.array_equal(back.base, cloud.base)
        assert back.horizon == cloud.horizon
        assert back.mode == cloud.mode
        assert back.bundle_size == cloud.bundle_size
        assert back.node_stride == cloud.node_stride
        assert back.truncated == cloud.truncated

    def test_magic_guard(self, tmp_path):
        p = tmp_path / "bad.rch"
        p.write_bytes(b"NOPE" + b"\x00" * 64)
        with pytest.raises(ValueError, match="not a reach-cloud"):
            load_cloud(p)

    def test_csv_export(self, tmp_path):
        cloud = reach(LINEAR, np.array([1.0, 0.0]), 0.25, CFG, PLAN)
        path = tmp_path / "cloud.csv"
        cloud_to_csv(cloud, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert np.array_equal(data[:, 1:], cloud.points)


class TestFilippov:
    def test_identical_points_zero_bound(self):
        x = np.array([1.0, 0.0])
        res = filippov_check(LINEAR, x, x, 1.0, 10.0, CFG, PLAN)
        assert res["holds"]
        assert abs(res["max_violation"]) < 1e-10

    def test_linear_pair_with_estimated_constant(self):
        lam = lipschitz_estimate(LINEAR, SetSpec.box([-3, -3], [3, 3]), grid=9)
        res = filippov_check(LINEAR, np.array([1.0, 0.0]), np.array([0.95, 0.05]),
                             1.0, lam, CFG, PLAN)
        assert res["holds"]
        assert res["max_violation"] <= 1e-6

    def test_zero_lambda_fails_on_expanding_field(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        res = filippov_check(F, np.array([1.0, 0.0]), np.array([1.2, 0.0]),
                             1.0, 0.0, CFG, PLAN)
        assert not res["holds"]
        # spread grows like (e^s - 1)|x - y|
        assert res["max_violation"] == pytest.approx((np.e - 1.0) * 0.2, rel=1e-3)

    def test_box_exit_reported(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        box = SetSpec.box([-0.5, -0.5], [0.5, 0.5])
        with pytest.raises(ValueError, match="enlarge box"):
            filippov_check(F, np.array([0.4, 0.0]), np.array([0.45, 0.0]),
                           2.0, 1.0, CFG, PLAN, box=box)


class TestRegularityProbe:
    def test_zero_field_trivial_moduli(self):
        # zero field: the reach map is constant in t and the identity in x,
        # so the temporal modulus vanishes and the spatial one is exactly 1
        F = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
        rep = reach_regularity_probe(F, np.array([1.0, 1.0]), [0.2, 0.4, 0.6],
                                     [[1e-3, 0.0]], CFG, PLAN)
        assert rep["max_temporal"] == 0.0
        assert rep["max_spatial"] == pytest.approx(1.0)

    def test_linear_spatial_moduli_within_gronwall(self):
        lam = lipschitz_estimate(LINEAR, SetSpec.box([-2, -2], [2, 2]), grid=7)
        t_max = 1.0
        rep = reach_regularity_probe(LINEAR, np.array([1.0, 0.0]),
                                     [0.25, 0.5, 0.75, 1.0],
                                     [[1e-3, 0.0], [0.0, 1e-3]], CFG, PLAN)
        assert rep["max_spatial"] <= np.exp(lam * t_max) + 0.1

    def test_counterexample_moduli_finite(self):
        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        rep = reach_regularity_probe(F, np.array([0.5, 0.0]), [0.5, 1.0],
                                     [[1e-4, 0.0]], CFG, PLAN)
        assert np.isfinite(rep["max_temporal"])
        assert np.isfinite(rep["max_spatial"])
