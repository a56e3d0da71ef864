import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq

from safereach import sampling
from safereach.barrier import counterexample_barrier_fn, user_barrier
from safereach.dynamics import InclusionSpec, field_from_expressions
from safereach.expr import compile_expression
from safereach.geometry import (EmptySetError, GeometryError, SetSpec, central_gradients,
                                distance_to_set, distance_to_set_many)
from safereach.infinitesimal import (FD_STEP, _zeta_candidates, clarke_gradient_sample,
                                     cone_residual, proximal_subgradient_test)
from safereach.smoothing import build_time_partition, smooth_on_compact
from safereach.solver import BundlePlan

from helpers import hausdorff_distance


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

    def test_complement_of_a_box_is_the_depth_inside_it(self):
        # brute force: inside the box, the distance to the closed complement
        # is the distance to the nearest of 4 x 4001 points on its edges
        lo, hi = np.array([-1.0, 0.0]), np.array([2.0, 1.0])
        C = SetSpec.complement(SetSpec.box(lo, hi))
        X = np.array([[0.5, 0.3], [1.9, 0.5], [-0.4, 0.8], [0.0, 0.0], [3.0, 0.5], [0.5, -2.0]])
        s = np.linspace(0.0, 1.0, 4001)[:, None]
        edges = np.vstack([lo + s * [hi[0] - lo[0], 0.0], lo + s * [0.0, hi[1] - lo[1]],
                           hi - s * [hi[0] - lo[0], 0.0], hi - s * [0.0, hi[1] - lo[1]]])
        inside = np.all((X > lo) & (X < hi), axis=1)
        brute = np.where(inside, np.sqrt(((X[:, None] - edges) ** 2).sum(-1)).min(axis=1), 0.0)
        assert np.array_equal(distance_to_set_many(X, C), brute)

    def test_complement_of_a_complement_is_the_distance_to_the_set(self):
        ball = SetSpec.ball([0.5, -1.0], 0.75)
        X = np.array([[0.5, -1.0], [2.0, 1.0], [-3.0, 0.5], [1.25, -1.0]])
        closed_form = np.maximum(np.hypot(X[:, 0] - 0.5, X[:, 1] + 1.0) - 0.75, 0.0)
        got = distance_to_set_many(X, SetSpec.complement(SetSpec.complement(ball)))
        assert np.allclose(got, closed_form, rtol=0.0, atol=1e-15)

    def test_intersection_with_a_box_projects_onto_the_box(self):
        # only the box binds at these points: the projection onto the box is
        # inside the ball, so the distance is the distance to the box
        cap = SetSpec.intersection([SetSpec.box([-1, -1], [1, 1]), SetSpec.ball([0, 0], 1.3)])
        X = np.array([[3.0, 0.0], [0.0, -2.5], [0.2, 1.75], [0.5, 0.5]])
        assert np.allclose(distance_to_set_many(X, cap), [2.0, 1.5, 0.75, 0.0],
                           rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("members, message", [
        ([SetSpec.box([0, 0], [1, 1]), SetSpec.box([1.5, 0], [3, 1])], "disjoint boxes"),
        ([SetSpec.box([0, 0], [1, 1]), SetSpec.box([0.5, 1.25], [3, 2])], "disjoint boxes"),
        ([SetSpec.ball([3, 3], 1.0), SetSpec.box([0, 0], [1, 1])], "ball disjoint from box"),
        ([SetSpec.box([0, 0], [1, 1]), SetSpec.ball([1.5, -0.5], 0.7)], "ball disjoint from box"),
        ([SetSpec.box([0, 0], [1, 1]), SetSpec.box([0.9, 0.5], [3, 2])], None),
        ([SetSpec.box([0, 0], [1, 1]), SetSpec.ball([1.5, 0.5], 0.6)], None),
        ([SetSpec.ball([1.5, -0.5], 0.75), SetSpec.box([0, 0], [1, 1])], None),
    ])
    def test_emptiness_certificates_of_boxes_and_balls(self, members, message):
        # brute force: a 401 x 401 grid over [-1, 4]^2 has a point in both
        # members exactly when the certificate lets the intersection stand
        g = np.linspace(-1.0, 4.0, 401)
        grid = np.column_stack([a.ravel() for a in np.meshgrid(g, g)])
        both = (members[0].contains(grid) & members[1].contains(grid)).any()
        assert both == (message is None)
        if message is None:
            SetSpec.intersection(members)
        else:
            with pytest.raises(EmptySetError, match=message):
                SetSpec.intersection(members)

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
        assert cone_residual([1.0, 0.0], [-1.0, 0.0], self.disk) <= 1e-9

    def test_outward_rejected(self):
        # |x + h v| = 1 + h so every quotient is exactly 1
        assert cone_residual([1.0, 0.0], [1.0, 0.0], self.disk) == pytest.approx(1.0, rel=1e-9)

    def test_corner_quadrant(self):
        quad = SetSpec.intersection([SetSpec.halfspace([-1, 0], 0.0),
                                     SetSpec.halfspace([0, -1], 0.0)])
        assert cone_residual([0.0, 0.0], [-1.0, -1.0], quad) <= 1e-9
        # |x + h v|_quad = h, so the quotient is ~1 for every step
        assert cone_residual([0.0, 0.0], [1.0, 0.0], quad) > 0.5

    def test_base_point_must_lie_in_set(self):
        with pytest.raises(GeometryError, match="base point"):
            cone_residual([2.0, 0.0], [1.0, 0.0], self.disk)

    def test_external_mode(self):
        inward = cone_residual([2.0, 0.0], [-1.0, 0.0], self.disk, "external")
        assert inward == pytest.approx(-1.0, rel=1e-9)
        outward = cone_residual([2.0, 0.0], [1.0, 0.0], self.disk, "external")
        assert outward == pytest.approx(1.0, rel=1e-9)

    def test_unknown_mode_is_refused(self):
        with pytest.raises(GeometryError, match="unknown cone mode clarke"):
            cone_residual([1.0, 0.0], [1.0, 0.0], self.disk, "clarke")

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
        batch = cone_residual(X, V, S, mode)
        singles = [cone_residual([x], [v], S, mode)[0] for x, v in zip(X, V)]
        assert batch.shape == (12,) and np.array_equal(batch, singles)

    def test_batch_names_the_first_base_outside(self):
        X = np.array([[1.0, 0.0], [0.0, 0.5], [0.0, 3.0], [2.0, 0.0]])
        with pytest.raises(GeometryError, match=r"base point \[0\.0, 3\.0\] not in set"):
            cone_residual(X, np.ones((4, 2)), self.disk)


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


class TestCentralGradients:
    """central_gradients against each stencil it replaced, kept here as the
    reference, bit for bit on random inputs."""

    rng = np.random.default_rng(37)
    bits = staticmethod(lambda a: np.ascontiguousarray(a, dtype=float).view(np.uint64))

    def test_per_row_steps_of_the_boundary_polish(self):
        fn = compile_expression("x1^2/10 + x2^2 - 1 + sin(x1*x2)", ("x1", "x2"))
        y = self.rng.uniform(-3.0, 3.0, (40, 2))
        h = np.maximum(1e-7, 1e-7 * self.rng.uniform(0.0, 5.0, 40))
        e = h[:, None, None] * np.eye(2)
        f = np.asarray(fn(np.stack([y[:, None] + e, y[:, None] - e]).reshape(-1, 2)))
        f = f.reshape(2, -1, 2)
        ref = (f[0] - f[1]) / (2.0 * h[:, None])
        assert np.array_equal(self.bits(central_gradients(fn, y, h)), self.bits(ref))

    @pytest.mark.parametrize("n,fd_step", [(2, 1e-7), (3, 1e-6)])
    def test_clarke_gradient_samples(self, n, fd_step):
        B = lambda P: np.sin(P[:, 0]) * P[:, -1] ** 2 + P[:, 0] * P[:, 1] / 3.0
        X = self.rng.uniform(-2.0, 2.0, (6, n))
        offsets = sampling.ball_points(np.zeros(n), 1e-4, 2 * n, seed=5)
        pts = np.concatenate([X[..., None, :], X[..., None, :] + offsets], axis=-2)
        step = fd_step * np.eye(n)
        probes = np.stack([pts[..., None, :] + step, pts[..., None, :] - step])
        hi, lo = np.asarray(B(probes.reshape(-1, n)), dtype=float).reshape(probes.shape[:-1])
        ref = (hi - lo) / (2.0 * fd_step)
        got = clarke_gradient_sample(B, X, radius=1e-4, fd_step=fd_step, seed=5)
        assert np.array_equal(self.bits(got), self.bits(ref))

    def test_smooth_decrease_zetas_from_t_fd_step_on(self):
        # the (t, x) quotients about (t, x) for t >= FD_STEP, where t' = t
        B = counterexample_barrier_fn()
        ts = np.concatenate([[FD_STEP], self.rng.uniform(FD_STEP, 3.0, 29)])
        X = self.rng.uniform(-1.0, 1.0, (30, 2))
        k, n, fd = len(ts), 2, FD_STEP
        pt = np.column_stack([ts + fd, ts - fd, np.repeat(ts[:, None], 2 * n, axis=1)])
        px = np.concatenate([np.repeat(X[:, None], 2, axis=1), X[:, None] + fd * np.eye(n),
                             X[:, None] - fd * np.eye(n)], axis=1)
        v = B.evaluate_many(pt.ravel(), px.reshape(-1, n)).value.reshape(k, 2 * n + 2)
        ref = np.column_stack([v[:, 0] - v[:, 1], v[:, 2:n + 2] - v[:, n + 2:]]) / (2 * fd)
        Z, keep = _zeta_candidates(B, "smooth", ts, X, seed=0)
        assert Z.shape == (k, 1, n + 1) and keep.all()
        assert np.array_equal(self.bits(Z[:, 0]), self.bits(ref))

    def test_continuity_certificate_of_a_smoothed_table(self):
        grid = np.array([[x, y] for x in np.linspace(0.5, 1.0, 6) for y in (-0.3, 0.4)])
        h = lambda t, X: np.exp(-np.asarray(t, dtype=float))[..., None] * (1.0 + X[:, 0] ** 2)
        partition = build_time_partition(h, grid, k_max=1, table_res=32)
        g = smooth_on_compact(partition)
        probe = grid[:: max(1, len(grid) // 5)][:5]
        t_probe = 0.5 * (partition.nodes[0] + partition.nodes[1])
        step, E = 1e-4, np.eye(2)
        offsets = np.stack([step * E, -step * E, 0.5 * step * E, -0.5 * step * E], axis=1)
        P = (probe[:, None, None, :] + offsets[None]).reshape(-1, 2)
        v = g.sample_pairs(np.full(len(P), t_probe), P).reshape(-1, 4)
        ref = np.max(np.abs((v[:, 0] - v[:, 1]) / (2 * step) - (v[:, 2] - v[:, 3]) / step))
        assert g.certificate["fd_gradient_discrepancy"] == float(ref) > 0.0

    def test_one_call_on_all_probes(self):
        calls = []
        f = lambda P: calls.append(P.shape) or P[:, 0] - 2.0 * P[:, 2]
        g = central_gradients(f, self.rng.uniform(-1.0, 1.0, (5, 3)), 1e-3)
        assert calls == [(2 * 5 * 3, 3)] and g.shape == (5, 3)
        assert np.allclose(g, [1.0, 0.0, -2.0], atol=1e-9)


class TestProximalSubgradient:
    def test_squared_norm_at_origin(self):
        res = proximal_subgradient_test([[0.0, 0.0]], [[[0.0, 0.0]]],
                                        lambda X: (X * X).sum(axis=1), 0.1)
        assert res["holds"][0, 0] and res["worst_margin"][0, 0] >= 0.0

    def test_concave_kink_has_empty_subdifferential(self):
        # 1-D enumeration: at y = +-r the margin is -r -+ zeta*r + eps r^2 < 0
        B = lambda X: -np.abs(X[:, 0])
        for zeta in ([0.0], [0.5], [-0.7]):
            assert not proximal_subgradient_test([[0.0]], [[zeta]], B, 1e-3, 10.0)["holds"][0, 0]

    def test_norm_kink_accepts_interior_slope(self):
        B = lambda X: np.linalg.norm(X, axis=1)
        assert proximal_subgradient_test([[0.0, 0.0]], [[[0.5, 0.0]]], B, 0.1)["holds"][0, 0]

    def test_all_candidates_in_one_call(self):
        calls = []
        B = lambda X: calls.append(len(X)) or np.abs(X[:, 0]) + X[:, 1] ** 2
        zetas = np.array([[0.0, 0.0], [0.9, 0.0], [1.5, 0.0], [-1.0, 0.0], [0.0, 1.0]])
        res = proximal_subgradient_test([[0.0, 0.0]], [zetas], B, 0.1)
        assert calls == [1 + 64 + 4]
        assert res["holds"].tolist() == [[True, True, False, True, False]]
        for zeta, holds, worst in zip(zetas, res["holds"][0], res["worst_margin"][0]):
            one = proximal_subgradient_test([[0.0, 0.0]], [[zeta]], B, 0.1)
            assert np.array_equal(one["holds"], [[holds]])
            assert np.array_equal(one["worst_margin"], [[worst]])

    def test_all_bases_in_one_call(self):
        calls = []
        B = lambda X: calls.append(len(X)) or np.abs(X).sum(axis=1) + X[:, 0] ** 2
        X = np.array([[0.0, 0.0], [0.3, -0.2], [1.0, 0.5]])
        zetas = np.random.default_rng(1).uniform(-1.5, 1.5, size=(3, 4, 2))
        res = proximal_subgradient_test(X, zetas, B, 0.1, 2.0, m=16)
        assert calls == [3 * (1 + 16 + 4)]
        assert res["holds"].shape == res["worst_margin"].shape == (3, 4)
        assert 0 < res["holds"].sum() < 12
        for x, zs, holds, worst in zip(X, zetas, res["holds"], res["worst_margin"]):
            one = proximal_subgradient_test([x], [zs], B, 0.1, 2.0, m=16)
            assert np.array_equal(one["holds"], [holds])
            assert np.array_equal(one["worst_margin"], [worst])

    def test_minimum_sample_count(self):
        with pytest.raises(GeometryError):
            proximal_subgradient_test([[0.0]], [[[0.0]]], lambda X: (X * X).sum(axis=1), 0.1,
                                      m=4)

    @pytest.mark.parametrize("radius, eps, message", [
        (0.0, 0.0, "radius must be positive"), (0.1, -1.0, "eps must be nonnegative")])
    def test_radius_and_curvature_bound_are_checked(self, radius, eps, message):
        with pytest.raises(GeometryError, match=message):
            proximal_subgradient_test([[0.0]], [[[0.0]]], lambda X: (X * X).sum(axis=1),
                                      radius, eps)


class TestSamplers:
    def test_ball_samples_inside(self):
        S = SetSpec.ball([1, 2], 0.7)
        pts = S.sample_interior(64, seed=3)
        assert np.all(np.linalg.norm(pts - [1, 2], axis=1) <= 0.7 + 1e-12)

    def test_boundary_samples_on_sphere(self):
        S = SetSpec.ball([0, 0], 2.0)
        pts = S.sample_boundary(16)
        assert np.allclose(np.linalg.norm(pts, axis=1), 2.0)

    def test_halfspace_boundary_samples_do_not_depend_on_the_count(self):
        # the projection onto the plane is taken row by row, not by a BLAS
        # product, which rounds a row by its batch
        H = SetSpec.halfspace([0.3, -1.7], 0.4)
        window = ([-4.0, -4.0], [4.0, 4.0])
        full = H.sample_boundary(64, seed=3, window=window).view(np.uint64)
        for count in range(1, 65):
            head = H.sample_boundary(count, seed=3, window=window).view(np.uint64)
            assert np.array_equal(head, full[:count]), count

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
        # a union is exact only when every member is
        assert SetSpec.union([SetSpec.ball([0, 0], 1), _ellipse()]).exactness() == "estimated"

    def test_a_halfspace_leaves_no_bounding_box(self):
        # a union is bounded only by all its members' boxes, and an
        # intersection by some member's: halfspaces alone give none
        lower, upper = SetSpec.halfspace([0, 1], 2.0), SetSpec.halfspace([0, -1], 1.0)
        assert SetSpec.union([SetSpec.ball([0, 0], 1), lower]).bounding_box() is None
        assert SetSpec.intersection([lower, upper]).bounding_box() is None

    def test_the_one_dimensional_sphere_is_plus_and_minus_one(self):
        # the unit vectors of R^1 in turn: a 1-D ball's boundary samples and
        # the directions of a 1-D ball inclusion's plan table
        assert sampling.sphere_directions(1, 5).tolist() == [[1.0], [-1.0], [1.0], [-1.0], [1.0]]
        assert SetSpec.ball([0.5], 2.0).sample_boundary(3).tolist() == [[2.5], [-1.5], [2.5]]
        F = InclusionSpec.ball_perturbed(field_from_expressions(["0 - x1"], "decay"), 0.1)
        switch_times, D = BundlePlan(directions=4).table(F)
        assert switch_times == [] and D.tolist() == [[[1.0], [-1.0], [1.0], [-1.0]]]

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
