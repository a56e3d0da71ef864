import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from safereach.expr import compile_expression
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

    @pytest.mark.parametrize("mode", ["contingent", "external"])
    @pytest.mark.parametrize("S", [disk, SetSpec.sublevel(
        lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2, window=([-4, -2], [4, 2]))])
    def test_batch_equals_one_row_calls(self, mode, S):
        rng = np.random.default_rng(5)
        ang = rng.uniform(0, 2 * np.pi, 12)
        X = np.column_stack([np.cos(ang), np.sin(ang)]) * rng.uniform(0.2, 1.0, (12, 1))
        if mode == "external":
            X = X * 2.5
        X[:4] = S.sample_boundary(4, seed=2)    # bases on the boundary too
        V = rng.normal(size=(12, 2))
        V[5, 0] = 0.0                           # an axis-aligned direction
        batch = cone_residual(ConeProbe(X, V, mode=mode), S)
        singles = [cone_residual(ConeProbe([x], [v], mode=mode), S)[0] for x, v in zip(X, V)]
        assert batch.shape == (12,) and np.array_equal(batch, singles)

    def test_batch_names_the_first_base_outside(self):
        X = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 3.0], [2.0, 0.0]])
        with pytest.raises(GeometryError, match=r"base point \[0\.0, 3\.0\] not in set"):
            cone_residual(ConeProbe(X, np.ones((4, 2))), self.disk)


class TestClarkeGradient:
    def test_smooth_point_of_norm(self):
        grads = clarke_gradient_sample(lambda X: np.linalg.norm(X, axis=1),
                                       [1.0, 0.0], radius=1e-3)
        assert np.allclose(grads, [1.0, 0.0], atol=1e-3)

    def test_kink_splits_by_sign(self):
        grads = clarke_gradient_sample(lambda X: np.abs(X[:, 0]), [0.0, 0.0],
                                       radius=1e-3, fd_step=1e-8)
        first = grads[:, 1]
        assert np.allclose(first, 0.0, atol=1e-6)
        # the base, on the kink, reads 0; the 4 ball points read +-1
        signs = grads[:, 0]
        interior = signs[np.abs(np.abs(signs) - 1.0) < 1e-6]
        assert signs[0] == 0.0 and len(interior) == 4
        assert (interior > 0).any() and (interior < 0).any()

    def test_quadratic_gradient(self):
        B = lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2 - 1.0
        grads = clarke_gradient_sample(B, [1.0, 1.0], radius=1e-5)
        assert np.allclose(grads, [0.2, 2.0], atol=1e-4)

    def test_c2_accuracy_order(self):
        B = lambda X: np.sin(X[:, 0]) + np.cos(2 * X[:, 1])
        x = np.array([0.4, -0.3])
        exact = np.array([np.cos(0.4), -2 * np.sin(-0.6)])
        grads = clarke_gradient_sample(B, x, radius=1e-4, fd_step=1e-6)
        assert np.max(np.linalg.norm(grads - exact, axis=1)) < 5e-4

    def test_sample_count_contract(self):
        # 2n + 1 gradients per base: the base and 2n ball points
        for n in (1, 2, 3):
            grads = clarke_gradient_sample(lambda X: X[:, 0], np.zeros(n), radius=1e-3)
            assert grads.shape == (2 * n + 1, n)
        with pytest.raises(GeometryError, match="must be positive"):
            clarke_gradient_sample(lambda X: X[:, 0], [0.0, 0.0], radius=0.0)

    def test_non_finite_reported(self):
        with np.errstate(invalid="ignore", divide="ignore"):
            with pytest.raises(GeometryError, match="non-finite"):
                clarke_gradient_sample(lambda X: np.log(X[:, 0]), [0.0, 0.0],
                                       radius=1e-3)

    def test_one_call_on_all_probes(self):
        calls = []
        B = lambda X: calls.append(X.shape) or X[:, 0] - 2 * X[:, 2]
        grads = clarke_gradient_sample(B, [0.5, -1.0, 2.0], radius=1e-3)
        assert calls == [(7 * 2 * 3, 3)]
        assert np.allclose(grads, [1.0, 0.0, -2.0], atol=1e-6)

    def test_batch_of_bases_in_one_call(self):
        # every base keeps the offsets a lone call would use
        calls = []
        B = lambda X: calls.append(X.shape) or np.sin(X[:, 0]) * X[:, 1] ** 2
        X = np.array([[0.4, -0.3], [1.0, 2.0], [-0.5, 0.1]])
        grads = clarke_gradient_sample(B, X, radius=1e-4, seed=2)
        assert grads.shape == (3, 5, 2) and calls == [(3 * 5 * 2 * 2, 2)]
        for x, g in zip(X, grads):
            assert np.array_equal(clarke_gradient_sample(B, x, radius=1e-4, seed=2), g)


class TestProximalSubgradient:
    def test_squared_norm_at_origin(self):
        cand = SubgradientCandidate([[0.0, 0.0]], [[[0.0, 0.0]]], radius=0.1)
        res = proximal_subgradient_test(cand, lambda X: (X * X).sum(axis=1))
        assert res["holds"][0, 0] and res["worst_margin"][0, 0] >= 0.0

    def test_concave_kink_has_empty_subdifferential(self):
        # 1-D enumeration: at y = +-r the margin is -r -+ zeta*r + eps r^2 < 0
        B = lambda X: -np.abs(X[:, 0])
        for zeta in ([0.0], [0.5], [-0.7]):
            cand = SubgradientCandidate([[0.0]], [[zeta]], radius=1e-3, eps=10.0)
            assert not proximal_subgradient_test(cand, B)["holds"][0, 0]

    def test_norm_kink_accepts_interior_slope(self):
        B = lambda X: np.linalg.norm(X, axis=1)
        cand = SubgradientCandidate([[0.0, 0.0]], [[[0.5, 0.0]]], radius=0.1)
        assert proximal_subgradient_test(cand, B)["holds"][0, 0]

    def test_all_candidates_in_one_call(self):
        calls = []
        B = lambda X: calls.append(len(X)) or np.abs(X[:, 0]) + X[:, 1] ** 2
        zetas = np.array([[0.0, 0.0], [0.9, 0.0], [1.5, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        res = proximal_subgradient_test(SubgradientCandidate([[0.0, 0.0]], [zetas], radius=0.1),
                                        B)
        assert calls == [1 + 64 + 4]
        assert res["holds"].tolist() == [[True, True, False, True, False]]
        for zeta, holds, worst in zip(zetas, res["holds"][0], res["worst_margin"][0]):
            one = proximal_subgradient_test(SubgradientCandidate([[0.0, 0.0]], [[zeta]],
                                                                 radius=0.1), B)
            assert np.array_equal(one["holds"], [[holds]])
            assert np.array_equal(one["worst_margin"], [[worst]])

    def test_all_bases_in_one_call(self):
        calls = []
        B = lambda X: calls.append(len(X)) or np.abs(X).sum(axis=1) + X[:, 0] ** 2
        X = np.array([[0.0, 0.0], [0.3, -0.2], [1.0, 0.5]])
        zetas = np.random.default_rng(1).uniform(-1.5, 1.5, size=(3, 4, 2))
        res = proximal_subgradient_test(SubgradientCandidate(X, zetas, radius=0.1, eps=2.0),
                                        B, m=16)
        assert calls == [3 * (1 + 16 + 4)]
        assert res["holds"].shape == res["worst_margin"].shape == (3, 4)
        assert 0 < res["holds"].sum() < 12
        for x, zs, holds, worst in zip(X, zetas, res["holds"], res["worst_margin"]):
            one = proximal_subgradient_test(SubgradientCandidate([x], [zs], radius=0.1, eps=2.0),
                                            B, m=16)
            assert np.array_equal(one["holds"], [holds])
            assert np.array_equal(one["worst_margin"], [worst])

    def test_minimum_sample_count(self):
        cand = SubgradientCandidate([[0.0]], [[[0.0]]], radius=0.1)
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
        # the complement of a union is answered by the ring search, an estimate
        union = SetSpec.union([SetSpec.ball([0, 0], 1), SetSpec.ball([3, 0], 1)])
        assert SetSpec.complement(union).exactness() == "estimated"
        assert SetSpec.complement(SetSpec.ball([0, 0], 1)).exactness() == "exact"
        assert SetSpec.complement(SetSpec.complement(union)).exactness() == "exact"

    def test_vectorized_matches_scalar(self):
        S = SetSpec.ball([0.2, -0.1], 0.9)
        pts = np.random.default_rng(0).normal(size=(20, 2))
        many = distance_to_set_many(pts, S)
        each = [distance_to_set(p, S) for p in pts]
        assert np.allclose(many, each)


def _ellipse():
    # the ELLIPSE of scenarios/linear.scenario
    fn = compile_expression("x1^2/10 + x2^2 - 1", ("x1", "x2"))
    return SetSpec.sublevel(fn, 0.0, 2, ([-4.0, -2.0], [4.0, 2.0]), grid=41)


def _ellipse_distance(p, axes=(np.sqrt(10.0), 1.0)):
    """Closed-form distance to {x1^2/a^2 + x2^2/b^2 <= 1}: the nearest point is
    y_i = p_i a_i^2 / (a_i^2 + s), s the root of the Lagrange condition
    sum (a_i p_i / (a_i^2 + s))^2 = 1, unique on s > 0 for an outside p."""
    a, p = np.asarray(axes), np.asarray(p, dtype=float)
    if ((p / a) ** 2).sum() <= 1.0:
        return 0.0
    cond = lambda s: ((a * p / (a * a + s)) ** 2).sum() - 1.0
    s = brentq(cond, 0.0, a.max() * np.abs(p).sum() + 1.0, xtol=1e-15, rtol=1e-15)
    return float(np.linalg.norm(p - p * a * a / (a * a + s)))


class TestBatchGeometry:
    """Membership and distances run on all rows at once; a row's result must
    not depend on the other rows of its batch."""

    ball = SetSpec.ball([0.0, 0.0], 1.0)

    def _sets(self):
        box = SetSpec.box([-0.5, -0.5], [0.5, 0.5])
        half = SetSpec.halfspace([1.0, 1.0], 0.5)
        comp = SetSpec.complement(self.ball)
        return [self.ball, box, half, SetSpec.points([[0.0, 0.0], [1.0, 0.0]]), _ellipse(),
                comp, SetSpec.complement(comp), SetSpec.union([comp, box]),
                SetSpec.intersection([comp, SetSpec.box([-2, -2], [2, 2])]),
                SetSpec.intersection([self.ball, half]),
                SetSpec.complement(SetSpec.union([self.ball, SetSpec.ball([1.5, 0.0], 1.0)]))]

    def _rows(self):
        # interior, exterior and exact boundary points of the unit ball and
        # of the box, plus the points of the points set
        ang = 2 * np.pi * np.arange(8) / 8
        circle = np.column_stack([np.cos(ang), np.sin(ang)])
        extra = [[0.5, 0.5], [0.5, 0.0], [0.0, 0.0], [1.0, 0.0], [3.5, 0.3]]
        return np.vstack([circle, 0.5 * circle, 2.0 * circle, extra])

    def test_contains_batch_equals_rows(self):
        X = self._rows()
        for S in self._sets():
            for tol in (1e-12, 1e-9, 0.0):
                batch = S.contains(X, tol)
                assert batch.shape == (len(X),) and batch.dtype == bool
                assert batch.tolist() == [bool(S.contains(X[i:i + 1], tol)[0])
                                          for i in range(len(X))], S.kind

    def test_closed_complement_inside_union_and_intersection(self):
        # a boundary point of the ball lies in its closed complement, also
        # as a member of a union or an intersection; a point just inside
        # does not
        comp = SetSpec.complement(self.ball)
        U = SetSpec.union([comp, SetSpec.ball([5.0, 5.0], 0.1)])
        I = SetSpec.intersection([comp, SetSpec.box([-2, -2], [2, 2])])
        X = np.array([[1.0, 0.0], [0.0, -1.0], [1.0 - 1e-6, 0.0]])
        for S in (comp, U, I):
            assert S.contains(X).tolist() == [True, True, False]

    @pytest.mark.parametrize("which", ["sublevel", "intersection-projection",
                                       "intersection-grid", "complement-of-union"])
    def test_estimated_distances_are_batch_independent(self, which):
        S = {"sublevel": _ellipse(),
             "intersection-projection": SetSpec.intersection(
                 [self.ball, SetSpec.halfspace([1.0, 1.0], 0.5)]),
             "intersection-grid": SetSpec.intersection(
                 [SetSpec.ball([0.0, 0.0], 2.0), SetSpec.complement(self.ball)]),
             "complement-of-union": SetSpec.complement(
                 SetSpec.union([self.ball, SetSpec.ball([1.5, 0.0], 1.0)]))}[which]
        X = np.vstack([np.random.default_rng(3).uniform(-3.0, 3.0, size=(24, 2)),
                       [[0.5, 0.5], [0.0, 0.0], [1.0, 0.0], [0.3, 0.6]]])
        single = np.array([distance_to_set_many(x[None, :], S)[0] for x in X])
        assert (single > 0).any() and (single == 0).any()
        perm = np.random.default_rng(4).permutation(len(X))
        assert np.array_equal(distance_to_set_many(X[perm], S), single[perm])
        parts = [distance_to_set_many(X[i:i + 5], S) for i in range(0, len(X), 5)]
        assert np.array_equal(np.concatenate(parts), single)
        assert np.array_equal(distance_to_set_many(X, S), single)

    def test_distance_matrices_are_built_in_bounded_chunks(self):
        # 8192 rows, one observed block of a sweep: the (rows, members)
        # seeding matrix of the 491-member ELLIPSE grid alone takes 32 MB
        X = np.random.default_rng(5).uniform([-4.0, -2.0], [4.0, 2.0], size=(8192, 2))
        P = np.random.default_rng(6).uniform(-4.0, 4.0, size=(600, 2))
        for S in (_ellipse(), SetSpec.points(P)):
            tracemalloc.start()
            try:
                whole = distance_to_set_many(X, S)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2 ** 20, (S.kind, peak)
            parts = [distance_to_set_many(X[i:i + 1000], S) for i in range(0, len(X), 1000)]
            assert np.array_equal(np.concatenate(parts), whole)
        near = np.sqrt((((X[:500, None, :] - P[None]) ** 2).sum(axis=2)).min(axis=1))
        assert np.array_equal(whole[:500], near)

    def test_non_finite_row_raises_in_a_batch(self):
        for bad in (np.nan, np.inf):
            with pytest.raises(GeometryError, match="non-finite"):
                distance_to_set_many([[0.0, 0.0], [bad, 0.0]], self.ball)
            with pytest.raises(GeometryError, match="non-finite"):
                distance_to_set_many([[bad, 0.0]], _ellipse())

    def test_ellipse_estimates_are_upper_estimates(self):
        # the estimated sublevel distance may exceed the true distance but
        # must never fall below it (beyond rounding)
        X = np.random.default_rng(101).uniform([-4.0, -2.0], [4.0, 2.0], size=(200, 2))
        est = distance_to_set_many(X, _ellipse())
        exact = np.array([_ellipse_distance(x) for x in X])
        assert (exact > 0).sum() > 100
        assert np.all(est >= exact - 1e-9), float((est - exact).min())
        assert np.all(est[exact == 0.0] == 0.0)
