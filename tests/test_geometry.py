import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safereach.geometry import (ConeProbe, EmptySetError, GeometryError, SetSpec,
                                SubgradientCandidate, clarke_gradient_sample,
                                cone_residual, distance_to_set,
                                distance_to_set_many, hausdorff_distance,
                                proximal_subgradient_test)


def brute_hausdorff(A, B):
    """Independent oracle: pure-python double loop over all sample pairs."""
    def directed(P, Q):
        worst = 0.0
        for p in P:
            best = min(sum((pi - qi) ** 2 for pi, qi in zip(p, q)) ** 0.5 for q in Q)
            worst = max(worst, best)
        return worst
    return max(directed(A, B), directed(B, A))


class TestDistance:
    def test_point_outside_unit_ball(self):
        assert distance_to_set([2.0, 0.0], SetSpec.ball([0, 0], 1.0)) == pytest.approx(1.0)

    def test_membership_gives_zero(self):
        S = SetSpec.ball([0, 0], 1.0)
        assert distance_to_set([0.3, -0.4], S) == 0.0

    def test_halfspace_distances(self):
        S = SetSpec.halfspace([0, 1], 2.0)        # {x2 >= 2}
        assert distance_to_set([0.0, 3.0], S) == 0.0
        assert distance_to_set([0.0, 1.0], S) == pytest.approx(1.0)

    def test_box_distance(self):
        S = SetSpec.box([-1, -1], [1, 1])
        assert distance_to_set([2.0, 2.0], S) == pytest.approx(np.sqrt(2.0))
        assert distance_to_set([0.5, 0.0], S) == 0.0

    def test_points_and_union(self):
        P = SetSpec.points([[0, 0], [2, 0]])
        assert distance_to_set([1.0, 0.0], P) == pytest.approx(1.0)
        U = SetSpec.union([SetSpec.ball([0, 0], 0.5), SetSpec.ball([3, 0], 0.5)])
        assert distance_to_set([1.5, 0.0], U) == pytest.approx(1.0)

    def test_complement_distances(self):
        C = SetSpec.complement(SetSpec.ball([0, 0], 1.0))
        assert distance_to_set([0.0, 0.0], C) == pytest.approx(1.0)
        assert distance_to_set([2.0, 0.0], C) == 0.0
        # complement of a finite point set is dense
        D = SetSpec.complement(SetSpec.points([[0, 0]]))
        assert distance_to_set([5.0, 5.0], D) == 0.0

    def test_complement_of_union(self):
        # depth inside the left lobe of a two-ball union
        U = SetSpec.union([SetSpec.ball([0, 0], 1.0), SetSpec.ball([3, 0], 1.0)])
        C = SetSpec.complement(U)
        assert distance_to_set([5.0, 0.0], C) == 0.0
        d = distance_to_set([0.0, 0.0], C)
        assert d == pytest.approx(1.0, abs=1e-6)

    def test_sublevel_distance_estimated(self):
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41)
        assert ell.exactness() == "estimated"
        # along the minor axis the nearest boundary point is (0, 1)
        d = distance_to_set([0.0, 2.0], ell)
        assert d == pytest.approx(1.0, abs=2e-6)
        assert distance_to_set([0.0, 0.5], ell) == 0.0

    def test_intersection_empty_rejected(self):
        with pytest.raises(EmptySetError):
            SetSpec.intersection([SetSpec.ball([0, 0], 1.0), SetSpec.ball([5, 0], 1.0)])

    def test_intersection_distance_quadrant(self):
        quad = SetSpec.intersection([SetSpec.halfspace([-1, 0], 0.0),
                                     SetSpec.halfspace([0, -1], 0.0)])
        assert distance_to_set([-1.0, -2.0], quad) == 0.0

    def test_non_finite_rejected(self):
        with pytest.raises(GeometryError):
            distance_to_set([np.nan, 0.0], SetSpec.ball([0, 0], 1.0))

    @given(st.lists(st.floats(-5, 5), min_size=2, max_size=2),
           st.lists(st.floats(-5, 5), min_size=2, max_size=2))
    @settings(max_examples=60, deadline=None)
    def test_one_lipschitz(self, xs, ys):
        S = SetSpec.ball([0.5, -0.25], 1.5)
        x, y = np.array(xs), np.array(ys)
        lhs = abs(distance_to_set(x, S) - distance_to_set(y, S))
        assert lhs <= np.linalg.norm(x - y) + 1e-12


class TestHausdorff:
    def test_singletons(self):
        assert hausdorff_distance([[0, 0]], [[1, 0]]) == pytest.approx(1.0)

    def test_identity(self):
        A = np.random.default_rng(1).normal(size=(7, 2))
        assert hausdorff_distance(A, A) == 0.0

    def test_concentric_circles_against_bruteforce(self):
        ang = 2 * np.pi * np.arange(360) / 360
        A = np.column_stack([np.cos(ang), np.sin(ang)])
        B = 2.0 * A
        d = hausdorff_distance(A, B)
        assert d == pytest.approx(1.0, abs=1e-3)
        assert d == pytest.approx(brute_hausdorff(A[::20], B[::20]), abs=2e-2)

    def test_empty_rejected(self):
        with pytest.raises(GeometryError, match="empty"):
            hausdorff_distance(np.empty((0, 2)), [[0, 0]])

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_pseudometric_triangle(self, seed):
        rng = np.random.default_rng(seed)
        A, B, C = (rng.normal(size=(4, 2)) for _ in range(3))
        dab = hausdorff_distance(A, B)
        dba = hausdorff_distance(B, A)
        assert dab == pytest.approx(dba)
        assert dab <= hausdorff_distance(A, C) + hausdorff_distance(C, B) + 1e-12


class TestConeResidual:
    disk = SetSpec.ball([0, 0], 1.0)

    def test_inward_admitted(self):
        probe = ConeProbe([1.0, 0.0], [-1.0, 0.0])
        assert cone_residual(probe, self.disk) <= 1e-9

    def test_outward_rejected(self):
        # |x + h v| = 1 + h so every quotient is exactly 1
        probe = ConeProbe([1.0, 0.0], [1.0, 0.0])
        assert cone_residual(probe, self.disk) == pytest.approx(1.0, rel=1e-9)

    def test_corner_quadrant(self):
        quad = SetSpec.intersection([SetSpec.halfspace([-1, 0], 0.0),
                                     SetSpec.halfspace([0, -1], 0.0)])
        admitted = ConeProbe([0.0, 0.0], [-1.0, -1.0])
        assert cone_residual(admitted, quad) <= 1e-9
        rejected = ConeProbe([0.0, 0.0], [1.0, 0.0])
        # |x + h v|_quad = h, so the quotient is ~1 for every step
        assert cone_residual(rejected, quad) > 0.5

    def test_base_point_must_lie_in_set(self):
        with pytest.raises(GeometryError, match="base point"):
            cone_residual(ConeProbe([2.0, 0.0], [1.0, 0.0]), self.disk)

    def test_external_mode(self):
        probe = ConeProbe([2.0, 0.0], [-1.0, 0.0], mode="external")
        assert cone_residual(probe, self.disk) == pytest.approx(-1.0, rel=1e-9)
        probe_out = ConeProbe([2.0, 0.0], [1.0, 0.0], mode="external")
        assert cone_residual(probe_out, self.disk) == pytest.approx(1.0, rel=1e-9)

    def test_step_refinement_monotone(self):
        # adding finer steps can only lower the min-quotient surrogate
        coarse = ConeProbe([1.0, 0.0], [-0.6, 0.8], steps=(1e-1, 1e-2, 1e-3))
        fine = ConeProbe([1.0, 0.0], [-0.6, 0.8],
                         steps=(1e-1, 1e-2, 1e-3, 1e-4, 1e-5))
        assert (cone_residual(fine, self.disk)
                <= cone_residual(coarse, self.disk) + 1e-15)

    def test_probe_validation(self):
        with pytest.raises(GeometryError):
            ConeProbe([0, 0], [1, 0], steps=(1e-1, 1e-2))      # too few
        with pytest.raises(GeometryError):
            ConeProbe([0, 0], [1, 0], steps=(1e-3, 1e-2, 1e-1))  # increasing

    def test_clarke_tangent_mode(self):
        # on the smooth disk the Clarke tangent cone matches the contingent
        # cone: inward admitted, outward rejected, also from perturbed bases
        inward = ConeProbe([1.0, 0.0], [-1.0, 0.0], mode="clarke-tangent")
        assert cone_residual(inward, self.disk) <= 1e-6
        outward = ConeProbe([1.0, 0.0], [1.0, 0.0], mode="clarke-tangent")
        assert cone_residual(outward, self.disk) > 0.5


class TestClarkeGradient:
    def test_smooth_point_of_norm(self):
        grads = clarke_gradient_sample(lambda X: np.linalg.norm(X, axis=1),
                                       [1.0, 0.0], radius=1e-3, m=8)
        assert np.allclose(grads, [1.0, 0.0], atol=1e-3)

    def test_kink_splits_by_sign(self):
        grads = clarke_gradient_sample(lambda X: np.abs(X[:, 0]), [0.0, 0.0],
                                       radius=1e-3, m=16, fd_step=1e-8)
        first = grads[:, 1]
        assert np.allclose(first, 0.0, atol=1e-6)
        signs = grads[:, 0]
        interior = signs[np.abs(np.abs(signs) - 1.0) < 1e-6]
        assert len(interior) >= 12
        assert (interior > 0).any() and (interior < 0).any()

    def test_quadratic_gradient(self):
        B = lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2 - 1.0
        grads = clarke_gradient_sample(B, [1.0, 1.0], radius=1e-5, m=8)
        assert np.allclose(grads, [0.2, 2.0], atol=1e-4)

    def test_c2_accuracy_order(self):
        B = lambda X: np.sin(X[:, 0]) + np.cos(2 * X[:, 1])
        x = np.array([0.4, -0.3])
        exact = np.array([np.cos(0.4), -2 * np.sin(-0.6)])
        grads = clarke_gradient_sample(B, x, radius=1e-4, m=8, fd_step=1e-6)
        assert np.max(np.linalg.norm(grads - exact, axis=1)) < 5e-4

    def test_sample_count_contract(self):
        with pytest.raises(GeometryError):
            clarke_gradient_sample(lambda X: X[:, 0], [0.0, 0.0], radius=1e-3, m=3)

    def test_non_finite_reported(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(GeometryError, match="non-finite"):
                clarke_gradient_sample(lambda X: np.log(X[:, 0]), [0.0, 0.0],
                                       radius=1e-3, m=8)

    def test_one_call_on_all_probes(self):
        calls = []
        B = lambda X: calls.append(X.shape) or X[:, 0] - 2 * X[:, 2]
        grads = clarke_gradient_sample(B, [0.5, -1.0, 2.0], radius=1e-3, m=9)
        assert calls == [(9 * 2 * 3, 3)]
        assert np.allclose(grads, [1.0, 0.0, -2.0], atol=1e-6)


class TestProximalSubgradient:
    def test_squared_norm_at_origin(self):
        cand = SubgradientCandidate([0.0, 0.0], [0.0, 0.0], radius=0.1)
        res = proximal_subgradient_test(cand, lambda X: (X * X).sum(axis=1))
        assert res["holds"] and res["worst_margin"] >= 0.0

    def test_concave_kink_has_empty_subdifferential(self):
        # 1-D enumeration: at y = +-r the margin is -r -+ zeta*r + eps r^2 < 0
        B = lambda X: -np.abs(X[:, 0])
        for zeta in ([0.0], [0.5], [-0.7]):
            cand = SubgradientCandidate([0.0], zeta, radius=1e-3, eps=10.0)
            assert not proximal_subgradient_test(cand, B)["holds"]

    def test_norm_kink_accepts_interior_slope(self):
        B = lambda X: np.linalg.norm(X, axis=1)
        cand = SubgradientCandidate([0.0, 0.0], [0.5, 0.0], radius=0.1)
        assert proximal_subgradient_test(cand, B)["holds"]

    def test_minimum_sample_count(self):
        cand = SubgradientCandidate([0.0], [0.0], radius=0.1)
        with pytest.raises(GeometryError):
            proximal_subgradient_test(cand, lambda X: (X * X).sum(axis=1), m=4)


class TestSamplers:
    def test_ball_samples_inside(self):
        S = SetSpec.ball([1, 2], 0.7)
        pts = S.sample_interior(64, seed=3)
        assert np.all(np.linalg.norm(pts - [1, 2], axis=1) <= 0.7 + 1e-12)

    def test_boundary_samples_on_sphere(self):
        S = SetSpec.ball([0, 0], 2.0)
        pts = S.sample_boundary(16)
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)

    def test_unbounded_needs_window(self):
        H = SetSpec.halfspace([0, 1], 2.0)
        with pytest.raises(GeometryError, match="window"):
            H.sample_interior(8)
        pts = H.sample_interior(8, window=([-3, 2], [3, 5]))
        assert np.all(pts[:, 1] >= 2.0)

    def test_exactness_labels(self):
        assert SetSpec.ball([0, 0], 1).exactness() == "exact"
        assert SetSpec.union([SetSpec.ball([0, 0], 1), SetSpec.box([0, 0], [1, 1])]
                             ).exactness() == "exact"
        est = SetSpec.intersection([SetSpec.ball([0, 0], 1), SetSpec.ball([0.5, 0], 1)])
        assert est.exactness() == "estimated"

    def test_vectorized_matches_scalar(self):
        S = SetSpec.ball([0.2, -0.1], 0.9)
        pts = np.random.default_rng(0).normal(size=(20, 2))
        many = distance_to_set_many(pts, S)
        each = [distance_to_set(p, S) for p in pts]
        assert np.allclose(many, each)
