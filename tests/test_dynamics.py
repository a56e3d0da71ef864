import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safereach.dynamics import (EXTREME_DIRECTIONS, DynamicsError, FieldHandle,
                                InclusionSpec, LINEAR_SAFE_A, Selector, builtin_field, eval_inclusion,
                                field_from_expressions, inclusion_extreme_points,
                                linear_field, lipschitz_estimate, max_rate, rescale_field,
                                selector_table)
from safereach.geometry import SetSpec, hausdorff_distance
from safereach.sampling import grid_points
from safereach.solver import bundle_field

from helpers import negated

QUAD = field_from_expressions(["x2 - x1", "x1*x2/2 - x2"], "quad")


def stage(F, d=None, direction="forward"):
    """The velocity of the sweep's stages for one constant selector, at one
    point x: the stage value, negated backward, where the stages step by -h."""
    fn = bundle_field(F, [Selector.constant(d)], 1, 1.0, direction)
    sign = 1.0 if direction == "forward" else -1.0
    return lambda x: sign * fn(1, slice(None), np.atleast_2d(np.asarray(x, dtype=float)))[0]


class TestBuiltins:
    def test_counterexample_vanishes_at_origin(self):
        f = builtin_field("counterexample2d")
        assert np.array_equal(f(np.zeros(2)), np.zeros(2))

    def test_radial_zero_on_limit_cycles(self):
        f = builtin_field("counterexample_radial")
        for k in (1, 2, 5):
            assert abs(f(np.array([1.0 / (k * np.pi)]))[0]) < 1e-30

    def test_linear_safe_matrix_product(self):
        f = builtin_field("linear_safe")
        assert np.allclose(f(np.array([1.0, 0.0])), [-1.0, 1.0])
        x = np.array([0.3, -0.7])
        assert np.allclose(f(x), LINEAR_SAFE_A @ x)
        assert f.matrix is LINEAR_SAFE_A   # sweeps step it by the affine RK4 map

    def test_unknown_name(self):
        with pytest.raises(DynamicsError):
            builtin_field("nope")

    def test_polar_consistency(self):
        # radial rate (r^2/2) sin^2(1/r) and angular rate 1, on random points
        f = builtin_field("counterexample2d")
        rng = np.random.default_rng(42)
        X = rng.uniform(-1.0, 1.0, size=(1000, 2))
        X = X[np.linalg.norm(X, axis=1) > 1e-3]
        V = f(X)
        r = np.linalg.norm(X, axis=1)
        radial = (X * V).sum(axis=1) / r
        expected = 0.5 * r ** 2 * np.sin(1.0 / r) ** 2
        assert np.max(np.abs(radial - expected)) < 1e-10
        angular = (X[:, 0] * V[:, 1] - X[:, 1] * V[:, 0]) / r ** 2
        assert np.max(np.abs(angular - 1.0)) < 1e-10

    @pytest.mark.parametrize("shape", [(1, 2), (17, 2), (112, 2), (1536, 2), (2,), (3, 4, 2)])
    def test_counterexample_bitwise_equals_norm_form(self, shape):
        # column by column, rounding like the norm-and-concatenate form
        x = np.random.default_rng(5).uniform(-1.0, 1.0, size=shape)
        x.reshape(-1, 2)[0] = 0.0
        r = np.linalg.norm(x, axis=-1, keepdims=True)
        s = np.sin(1.0 / np.where(r < 1e-12, 1.0, r)) ** 2
        x1, x2 = x[..., 0:1], x[..., 1:2]
        ref = np.concatenate([-x2 + 0.5 * r * x1 * s, x1 + 0.5 * r * x2 * s], axis=-1)
        ref = np.where(r < 1e-12, 0.0, ref)
        assert np.array_equal(builtin_field("counterexample2d")(x), ref)

    @staticmethod
    def _rows(count):
        """count rows with both signed zeros, the origin, and rows inside and
        just outside the origin guard among random ones."""
        x = np.random.default_rng(count).uniform(-1.0, 1.0, size=(count, 2))
        special = np.array([[0.0, 0.0], [-0.0, 0.0], [-0.0, -0.0], [3e-13, -4e-13],
                            [-1e-13, 0.0], [0.0, 9.9e-13], [1e-12, 0.0], [0.0, -2e-12],
                            [-0.0, 0.7], [0.3, -0.0], [5.0, -3.0]])
        x[:min(count, len(special))] = special[:count]
        return x

    @staticmethod
    def _column_forms(x):
        """The allocating column-by-column forms the builtins had before
        writing into their output: (linear_safe, counterexample2d)."""
        (a, b), (c, d) = LINEAR_SAFE_A.tolist()
        lin = np.empty(x.shape)
        lin[..., 0] = a * x[..., 0] + b * x[..., 1]
        lin[..., 1] = c * x[..., 0] + d * x[..., 1]
        x1, x2 = x[..., 0], x[..., 1]
        r = np.sqrt(x1 * x1 + x2 * x2)
        origin = r < 1e-12
        s = np.sin(1.0 / np.where(origin, 1.0, r)) ** 2
        hr = 0.5 * r
        ce = np.empty(x.shape)
        ce[..., 0] = -x2 + hr * x1 * s
        ce[..., 1] = x1 + hr * x2 * s
        ce[origin] = 0.0
        return lin, ce

    @pytest.mark.parametrize("shape", [(1, 2), (17, 2), (1536, 2), (2,), (3, 4, 2), (0, 2)])
    def test_builtins_equal_their_column_by_column_form(self, shape):
        x = self._rows(max(1, int(np.prod(shape[:-1]))))[:int(np.prod(shape[:-1]))]
        x = x.reshape(shape)
        lin, ce = self._column_forms(x)
        assert np.array_equal(builtin_field("linear_safe")(x).view(np.uint64), lin.view(np.uint64))
        assert np.array_equal(builtin_field("counterexample2d")(x).view(np.uint64),
                              ce.view(np.uint64))

    def test_counterexample_without_origin_rows_equals_the_masked_form(self):
        # no radius below the guard: the mask is skipped, the values are the same
        x = self._rows(1536)[11:]
        assert np.sqrt((x * x).sum(axis=1)).min() > 1e-3
        lin, ce = self._column_forms(x)
        assert np.array_equal(builtin_field("counterexample2d")(x).view(np.uint64),
                              ce.view(np.uint64))

    def test_radial_matches_planar_radial_rate(self):
        f2 = builtin_field("counterexample2d")
        f1 = builtin_field("counterexample_radial")
        for r in (0.07, 0.2, 0.9):
            x = np.array([r, 0.0])
            radial = x @ f2(x) / r
            assert radial == pytest.approx(f1(np.array([r]))[0], abs=1e-14)


class TestLinearField:
    A3 = np.array([[0.3, -1.7, 2.0], [1.1, -0.0, -0.4], [-2.5, 0.9, 1e-3]])

    @staticmethod
    def _column_sum(A, x):
        """(A x)_i as A[i, 0] x_0 + A[i, 1] x_1 + ..., summed in that order."""
        out = np.empty(x.shape)
        for i, row in enumerate(A):
            acc = row[0] * x[..., 0]
            for j in range(1, len(row)):
                acc = acc + row[j] * x[..., j]
            out[..., i] = acc
        return out

    @pytest.mark.parametrize("A", [LINEAR_SAFE_A, A3], ids=["2x2", "3x3"])
    @pytest.mark.parametrize("lead", [(), (1,), (17,), (3, 4)])
    def test_values_equal_the_column_sum_bit_for_bit(self, A, lead):
        n = len(A)
        x = np.random.default_rng(n).uniform(-3.0, 3.0, size=lead + (n,))
        x.reshape(-1, n)[0] = [-0.0] * n      # signed zeros in, signed zeros out
        f = linear_field(A, "lin")
        assert f.dim == n and f.matrix is A
        assert np.array_equal(f(x).view(np.uint64), self._column_sum(A, x).view(np.uint64))

    @pytest.mark.parametrize("matrix", [np.eye(3), np.ones((2, 3)), np.ones(2),
                                        np.array([[1.0, np.nan], [0.0, 1.0]]),
                                        np.array([[1.0, 0.0], [-np.inf, 1.0]])])
    def test_a_bad_matrix_is_refused_at_construction(self, matrix):
        with pytest.raises(DynamicsError, match="field 'bad' needs a finite"):
            FieldHandle(lambda x: x, 2, "bad", matrix)
        if matrix.shape != (3, 3):      # linear_field(np.eye(3)) is a 3-D field
            with pytest.raises(DynamicsError, match="field 'bad' needs a finite"):
                linear_field(matrix, "bad")

    def test_a_matrix_that_disagrees_with_its_field_is_refused(self):
        # integrating the matrix would step x' = x where fn says x' = -x
        with pytest.raises(DynamicsError, match="field 'neg' does not equal its declared matrix"):
            FieldHandle(lambda x: -x, 2, "neg", np.eye(2))
        # the transpose of a non-symmetric matrix is refused too
        with pytest.raises(DynamicsError, match="field 'lin' does not equal"):
            FieldHandle(linear_field(self.A3, "lin").fn, 3, "lin", self.A3.T)
        assert FieldHandle(lambda x: -x, 2, "neg", -np.eye(2)).matrix is not None


class TestInclusion:
    def test_singleton_eval(self):
        F = InclusionSpec.singleton(builtin_field("linear_safe"))
        assert np.allclose(eval_inclusion(F, [[1.0, 0.0]]), [[[-1.0, 1.0]]])

    def test_ball_degenerates_to_singleton(self):
        f = builtin_field("linear_safe")
        X = np.array([[0.0, 0.0], [1.0, -0.5]])
        assert np.array_equal(inclusion_extreme_points(InclusionSpec.ball_perturbed(f, 0.0), X),
                              eval_inclusion(InclusionSpec.singleton(f), X))

    def test_hull_of_f_and_minus_f(self):
        f = builtin_field("linear_safe")
        F = InclusionSpec.hull([f, negated(f)])
        V = eval_inclusion(F, [[0.5, 0.5]])[0]
        assert np.allclose(V[0], -V[1])

    def test_selection_is_member(self):
        f = builtin_field("linear_safe")
        x = np.array([0.7, -0.2])
        F = InclusionSpec.ball_perturbed(f, 0.1)
        u = np.array([0.6, 0.8])
        v = stage(F, u)(x)
        assert np.allclose(v, f(x) + 0.1 * u)
        assert np.linalg.norm(v - f(x)) <= 0.1 + 1e-12
        H = InclusionSpec.hull([f, negated(f)])
        w = stage(H, np.array([0.5, 0.5]))(x)
        assert np.allclose(w, 0.0)

    def test_singleton_ignores_selector(self):
        F = InclusionSpec.singleton(builtin_field("linear_safe"))
        x = np.array([1.0, 1.0])
        assert np.allclose(stage(F)(x), F.fields[0](x))

    def test_selector_validation(self):
        f = builtin_field("linear_safe")
        F = InclusionSpec.ball_perturbed(f, 0.1)
        with pytest.raises(DynamicsError):
            selector_table(F, [Selector.constant([1.0, 1.0])])  # not unit
        H = InclusionSpec.hull([f, negated(f)])
        with pytest.raises(DynamicsError):
            selector_table(H, [Selector.constant([0.7, 0.7])])  # sum != 1

    def test_extreme_points_on_ball(self):
        f = builtin_field("linear_safe")
        F = InclusionSpec.ball_perturbed(f, 0.25)
        x = np.array([1.0, 0.0])
        pts = inclusion_extreme_points(F, x[None])[0]
        assert len(pts) == EXTREME_DIRECTIONS
        assert np.allclose(np.linalg.norm(pts - f(x), axis=1), 0.25)

    def test_batched_vertices_equal_per_point(self):
        f = builtin_field("linear_safe")
        X = np.random.default_rng(2).normal(size=(5, 2))
        for F in (InclusionSpec.singleton(f), InclusionSpec.hull([f, QUAD]),
                  InclusionSpec.ball_perturbed(f, 0.25)):
            V = eval_inclusion(F, X)
            assert V.shape == (5, len(F.fields), 2)
            assert np.array_equal(V, np.concatenate([eval_inclusion(F, x[None]) for x in X]))
            pts = inclusion_extreme_points(F, X)
            assert np.array_equal(pts, np.concatenate([inclusion_extreme_points(F, x[None])
                                                       for x in X]))

    @given(st.floats(0, 2 * np.pi), st.floats(0, 1),
           st.lists(st.floats(-3, 3), min_size=2, max_size=2))
    @settings(max_examples=40, deadline=None)
    def test_selection_always_member_of_inclusion(self, angle, w0, xs):
        # selected velocities sit inside F(x) to round-off for every variant
        f = builtin_field("linear_safe")
        x = np.array(xs)
        u = np.array([np.cos(angle), np.sin(angle)])
        ball = InclusionSpec.ball_perturbed(f, 0.3)
        v = stage(ball, u)(x)
        assert np.linalg.norm(v - f(x)) <= 0.3 + 1e-12
        hull = InclusionSpec.hull([f, negated(f)])
        w = np.array([w0, 1.0 - w0])
        v2 = stage(hull, w)(x)
        # distance to the segment [f(x), -f(x)]
        a, b = f(x), -f(x)
        seg = b - a
        tt = 0.0 if seg @ seg == 0 else np.clip((v2 - a) @ seg / (seg @ seg), 0, 1)
        assert np.linalg.norm(v2 - (a + tt * seg)) <= 1e-12

    def test_piecewise_selector(self):
        s = Selector.piecewise([1.0, 2.0], [[1, 0], [0, 1], [-1, 0]])
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        switch_times, D = selector_table(F, [s])
        assert np.array_equal(switch_times, [1.0, 2.0])
        for t, d in [(0.5, [1, 0]), (1.5, [0, 1]), (2.5, [-1, 0])]:
            assert np.array_equal(D[np.searchsorted(switch_times, t, side="right"), 0], d)
        with pytest.raises(DynamicsError):
            Selector.piecewise([2.0, 1.0], [[1, 0]] * 3)


class TestNegate:
    # the backward stage function selects from -F(x)
    def test_pointwise(self):
        f = builtin_field("linear_safe")
        F = InclusionSpec.singleton(f)
        x = np.array([0.4, 0.9])
        assert np.allclose(stage(F, direction="backward")(x), -f(x))

    def test_involution(self):
        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        back = stage(F, direction="backward")
        pts = np.random.default_rng(5).normal(size=(20, 2))
        assert np.allclose([-back(x) for x in pts], F.fields[0](pts))

    def test_ball_radius_preserved(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.3)
        x, u = np.array([1.0, 2.0]), np.array([0.6, 0.8])
        v = stage(F, u, "backward")(x)
        assert np.linalg.norm(v + F.fields[0](x)) == pytest.approx(0.3)
        assert np.allclose(v, -F.fields[0](x) + 0.3 * u)


def _sqnorm(X):
    return (np.atleast_2d(X) ** 2).sum(axis=1)


class TestRescale:
    def test_zero_on_zero_set(self):
        f = rescale_field(builtin_field("linear_safe"), _sqnorm)
        assert np.allclose(f(np.zeros(2)), 0.0)

    def test_large_v_limit(self):
        base = builtin_field("linear_safe")
        f = rescale_field(base, _sqnorm)
        x = np.array([50.0, 0.0])
        assert np.allclose(f(x), base(x), rtol=1e-3)

    def test_constant_v_is_half(self):
        base = builtin_field("linear_safe")
        f = rescale_field(base, lambda X: np.ones(len(np.atleast_2d(X))))
        x = np.array([1.0, -1.0])
        assert np.allclose(f(x), 0.5 * base(x))

    def test_norm_never_exceeds_base(self):
        base = builtin_field("counterexample2d")
        f = rescale_field(base, _sqnorm)
        pts = np.random.default_rng(0).normal(size=(100, 2))
        assert np.all(np.linalg.norm(f(pts), axis=1)
                      <= np.linalg.norm(base(pts), axis=1) + 1e-15)

    def test_negative_v_rejected(self):
        f = rescale_field(builtin_field("linear_safe"),
                          lambda X: -np.ones(len(np.atleast_2d(X))))
        with pytest.raises(DynamicsError):
            f(np.ones(2))


class TestLipschitzEstimate:
    box = SetSpec.box([-3, -3], [3, 3])

    def test_linear_matches_operator_norm(self):
        F = InclusionSpec.singleton(builtin_field("linear_safe"))
        est = lipschitz_estimate(F, self.box, grid=9)
        sigma = np.linalg.norm(LINEAR_SAFE_A, 2)
        assert est <= sigma + 1e-9
        assert est >= 0.98 * sigma

    def test_constant_field(self):
        F = InclusionSpec.singleton(field_from_expressions(["1", "2"], "const"))
        assert lipschitz_estimate(F, self.box, grid=5) == 0.0

    def test_identity_field(self):
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "id"))
        assert lipschitz_estimate(F, SetSpec.box([0, 0], [1, 1]), grid=5) \
            == pytest.approx(1.0, abs=1e-12)

    def test_hull_uses_vertex_hausdorff(self):
        f = field_from_expressions(["x1", "x2"], "id")
        F = InclusionSpec.hull([f, negated(f)])
        est = lipschitz_estimate(F, SetSpec.box([0, 0], [1, 1]), grid=4)
        assert est == pytest.approx(1.0, abs=1e-9)


    def test_hull_equals_pairwise_hausdorff(self):
        # the reference divides by a 1-D norm, which may round the separation
        # an ulp away from the batched norm: relative tolerance 1e-15 (~4.5 ulp)
        F = InclusionSpec.hull([QUAD, field_from_expressions(["sin(x1)", "x1*x1 - x2"], "trig"),
                                field_from_expressions(["x1*x2", "cos(x2) + x1/3"], "mix")])
        box = SetSpec.box([-0.7, -1.3], [1.9, 0.4])
        pts = grid_points(box.lo, box.hi, 5)
        V = [np.stack([f(p) for f in F.fields]) for p in pts]
        ref = max(hausdorff_distance(V[i], V[j]) / float(np.linalg.norm(pts[i] - pts[j]))
                  for i in range(len(pts)) for j in range(i + 1, len(pts)))
        assert lipschitz_estimate(F, box, grid=5) == pytest.approx(ref, rel=1e-15, abs=0.0)

    def test_ball_radius_cancels(self):
        f = builtin_field("linear_safe")
        assert lipschitz_estimate(InclusionSpec.ball_perturbed(f, 0.5), self.box, grid=5) \
            == lipschitz_estimate(InclusionSpec.singleton(f), self.box, grid=5)


class TestMaxRate:
    def test_rows_round_like_one_dimensional_matmul(self):
        # max_rate's per-row dot products must equal a 1-D `@` bit for bit
        rng = np.random.default_rng(11)
        for n in (2, 3):
            a, b = rng.normal(size=(2, 1000, n)) * rng.lognormal(size=(2, 1000, 1))
            assert np.vecdot(a, b).tolist() == [float(u @ v) for u, v in zip(a, b)]

    def test_singleton_and_hull_equal_vertex_loop(self):
        f = builtin_field("linear_safe")
        rng = np.random.default_rng(4)
        X, Z = rng.normal(size=(6, 2)), rng.normal(size=(6, 3, 3))
        for F in (InclusionSpec.singleton(f), InclusionSpec.hull([f, QUAD, negated(f)])):
            rates, etas = max_rate(F, X, Z)
            for x, zs, r, e in zip(X, Z, rates, etas):
                V = [g(x) for g in F.fields]
                for z, rz, ez in zip(zs, r, e):
                    vals = [z[0] + float(z[1:] @ v) for v in V]
                    k = int(np.argmax(vals))           # first largest vertex
                    assert rz == vals[k] and np.array_equal(ez, V[k])

    def test_ball_closed_form_and_maximizer(self):
        f = builtin_field("linear_safe")
        eps = 0.3
        F = InclusionSpec.ball_perturbed(f, eps)
        X = np.array([[1.0, 0.5], [-0.2, 2.0]])
        Z = np.array([[[0.5, 3.0, 4.0], [1.0, 0.0, 0.0]],
                      [[0.0, -1.0, 2.0], [-2.0, 0.0, -0.5]]])
        rates, etas = max_rate(F, X, Z)
        for x, zs, r, e in zip(X, Z, rates, etas):
            for z, rz, ez in zip(zs, r, e):
                norm = float(np.linalg.norm(z[1:]))
                assert rz == z[0] + float(z[1:] @ f(x)) + eps * norm
                expected = f(x) + eps * (z[1:] / norm) if norm > 0 else f(x)
                assert np.array_equal(ez, expected)
                # the maximizer attains the value
                assert z[0] + z[1:] @ ez == pytest.approx(rz, abs=1e-12)
        assert np.array_equal(etas[0, 1], f(X[0]))      # zeta_x = 0: eta at the center
        assert rates[0, 0] == 0.5 + (3.0 * -6.0 + 4.0 * 1.0) + eps * 5.0 == -12.0
        assert np.linalg.norm(etas[0, 0] - f(X[0])) == pytest.approx(eps, abs=1e-15)


class TestExpressionFields:
    def test_vectorized_evaluation(self):
        f = field_from_expressions(["0 - x2", "x1"], "rot")
        X = np.random.default_rng(1).normal(size=(10, 2))
        V = f(X)
        assert np.allclose(V[:, 0], -X[:, 1]) and np.allclose(V[:, 1], X[:, 0])

    def test_functions_and_powers(self):
        f = field_from_expressions(["sin(x1)^2 + sqrt(abs(x2))", "x1 * x2"], "g")
        v = f(np.array([0.5, 4.0]))
        assert v[0] == pytest.approx(np.sin(0.5) ** 2 + 2.0)
        assert v[1] == pytest.approx(2.0)

    def test_bad_symbol_rejected(self):
        from safereach.expr import ExpressionError
        with pytest.raises(ExpressionError):
            field_from_expressions(["y1 + 1"], "bad")

    def test_compiled_expression_never_returns_a_view_of_x(self):
        from safereach.expr import compile_expression
        X = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        bare = compile_expression("x1", ("x1", "x2"))(X)
        assert np.array_equal(bare, X[:, 0]) and not np.shares_memory(bare, X)
        const = compile_expression("2 * pi", ("x1", "x2"))(X)
        assert const.shape == (3,) and np.all(const == 2 * np.pi)
        assert compile_expression("x1 * x2", ("x1", "x2"))(X).tolist() == [2.0, 12.0, 30.0]
