import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from safereach import smoothing
from safereach.barrier import BarrierError
from safereach.dynamics import Selector, builtin_field
from safereach.geometry import PAIR_BUDGET, SetSpec, distance_to_set_many
from safereach.smoothing import (ConverseResolution, GlobalSmoothedFn, SmoothingError,
                                 _RescaledTubeMin, annulus_points, build_time_partition,
                                 converse_smooth_barrier, hermite_segment,
                                 smooth_global, smooth_on_compact)
from safereach.solver import IntegratorConfig, SolverError, integrate


def exp_decay(t, X):
    # h as a table, one row per time in t; a scalar t gives the one row
    r = np.linalg.norm(np.atleast_2d(X), axis=1)
    return np.exp(-np.asarray(t, dtype=float))[..., None] * r


def annulus_grid(n=41, lo=0.5, hi=1.0):
    ax = np.linspace(-hi, hi, n)
    gx, gy = np.meshgrid(ax, ax, indexing="ij")
    pts = np.column_stack([gx.ravel(), gy.ravel()])
    r = np.linalg.norm(pts, axis=1)
    return pts[(r >= lo) & (r <= hi)]


class TestHermiteSegment:
    def test_endpoint_identities(self):
        assert hermite_segment(0.0, 0.0, 1.0, 3.0, 1.0) == 3.0
        assert hermite_segment(1.0, 0.0, 1.0, 3.0, 1.0) == 1.0

    def test_midpoint_is_mean(self):
        assert hermite_segment(0.5, 0.0, 1.0, 3.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_constant_segment(self):
        ts = np.linspace(0.2, 0.7, 11)
        assert all(hermite_segment(t, 0.2, 0.7, 5.0, 5.0) == 5.0 for t in ts)

    def test_outside_segment_rejected(self):
        with pytest.raises(SmoothingError):
            hermite_segment(1.5, 0.0, 1.0, 1.0, 0.0)

    def test_arrays_evaluate_elementwise(self):
        rng = np.random.default_rng(2)
        t0 = rng.uniform(-3, 3, 50)
        t1 = t0 + rng.uniform(0.05, 5.0, 50)
        w0, w1 = rng.uniform(-10, 10, (2, 50))
        t = np.concatenate([t0[:10], t1[10:20], t0[20:] + rng.uniform(0, 1, 30) * (t1 - t0)[20:]])
        got = hermite_segment(t, t0, t1, w0, w1)
        assert got.shape == (50,)
        assert np.array_equal(got, [hermite_segment(*a) for a in zip(t, t0, t1, w0, w1)])
        assert np.array_equal(got[:10], w0[:10]) and np.array_equal(got[10:20], w1[10:20])
        with pytest.raises(SmoothingError, match=r"t=2\.5 outside segment \[0\.0, 1\.0\]"):
            hermite_segment(np.array([0.5, 2.5, 3.0]), 0.0, 1.0, 1.0, 0.0)

    @given(st.floats(-10, 10), st.floats(-10, 10),
           st.floats(0.05, 5.0), st.floats(-3, 3))
    @settings(max_examples=200, deadline=None)
    def test_contract_random_segments(self, w0, w1, width, t0):
        t1 = t0 + width
        # endpoint values exact
        assert hermite_segment(t0, t0, t1, w0, w1) == w0
        assert hermite_segment(t1, t0, t1, w0, w1) == w1
        # midpoint = mean
        mid = hermite_segment(t0 + width / 2, t0, t1, w0, w1)
        assert mid == pytest.approx((w0 + w1) / 2, abs=1e-12 * max(1, abs(w0), abs(w1)))
        # flat endpoint derivatives (central difference, step 1e-6)
        h = 1e-6
        d0 = (hermite_segment(t0 + h, t0, t1, w0, w1)
              - hermite_segment(t0 - h, t0, t1, w0, w1)) / (2 * h)
        d1 = (hermite_segment(t1 + h, t0, t1, w0, w1)
              - hermite_segment(t1 - h, t0, t1, w0, w1)) / (2 * h)
        assert abs(d0) <= 1e-6 and abs(d1) <= 1e-6
        # monotone between endpoint values
        scale = max(1.0, abs(w1 - w0))
        samples = [hermite_segment(t, t0, t1, w0, w1)
                   for t in np.linspace(t0, t1, 9)]
        diffs = np.diff(samples)
        if w0 > w1:
            assert np.all(diffs <= 1e-12 * scale)
        elif w0 < w1:
            assert np.all(diffs >= -1e-12 * scale)


class TestTimePartition:
    def test_constant_h_trivial_partition(self):
        grid = annulus_grid(21)
        h = lambda ts, X: np.full((len(ts), len(X)), 2.5)
        part = build_time_partition(h, grid, k_max=4, table_res=64)
        assert part.u_counts == (1, 1, 1, 1)
        assert np.allclose(part.eta, 2.5)
        assert all(part.zeta[part.block_offsets[k]:].sum() < part.eta[k] / 8.0
                   for k in range(part.k_max))

    def test_exponential_decay_analytic_u(self):
        # oracle: u must satisfy 1 - exp(-1/u) < exp(-1)/8, i.e. u >= 22,
        # and the doubling search lands on 32 for every unit interval
        grid = annulus_grid(41)
        part = build_time_partition(exp_decay, grid, k_max=3, table_res=256)
        assert part.u_counts == (32, 32, 32)
        assert np.allclose(part.eta, 0.5 * np.exp(-np.arange(1, 4)), rtol=1e-12)

    def test_eta_positive_nonincreasing(self):
        part = build_time_partition(exp_decay, annulus_grid(21), k_max=3,
                                    table_res=128)
        assert np.all(part.eta > 0)
        assert np.all(np.diff(part.eta) <= 0)

    def test_oscillation_bound_on_nodes(self):
        part = build_time_partition(exp_decay, annulus_grid(21), k_max=2,
                                    table_res=128)
        idx = part.node_table_indices()
        for k in range(1, part.k_max + 1):
            j0, j1 = part.block_offsets[k - 1], part.block_offsets[k]
            for i in range(j0, j1):
                drop = part.table[idx[i]] - part.table[idx[i + 1]]
                assert np.max(drop) < part.eta[k - 1] / 4.0

    def test_zeta_positive_nonincreasing_budget(self):
        part = build_time_partition(exp_decay, annulus_grid(21), k_max=3,
                                    table_res=128)
        assert np.all(part.zeta > 0)
        assert np.all(np.diff(part.zeta) <= 0)
        for k in range(1, part.k_max + 1):
            jk = part.block_offsets[k - 1]
            assert part.zeta[jk:].sum() < part.eta[k - 1] / 8.0

    def test_zero_locus_rejected(self):
        grid = np.array([[0.0, 0.0], [0.5, 0.0]])
        with pytest.raises(SmoothingError, match="zero locus"):
            build_time_partition(exp_decay, grid, k_max=1, table_res=16)

    def test_nonmonotone_h_rejected(self):
        h = lambda ts, X: (1.0 + np.sin(ts))[:, None] * np.ones(len(X))
        with pytest.raises(SmoothingError, match="nonincreasing"):
            build_time_partition(h, annulus_grid(11), k_max=2, table_res=32)

    def test_table_of_another_shape_rejected(self):
        grid = annulus_grid(11)
        for h in (lambda ts, X: np.ones(len(X)),               # one row, not a table
                  lambda ts, X: np.ones((len(X), len(ts))),    # x-major
                  lambda ts, X: np.ones((len(ts), len(X), 1))):
            with pytest.raises(SmoothingError, match=rf"must return a \(17, {len(grid)}\) table"):
                build_time_partition(h, grid, k_max=1, table_res=16)

    def test_non_finite_table_names_its_first_point(self):
        # NaN passes both the sign and the monotonicity tests
        grid = np.array([[0.6, 0.0], [0.8, 0.0], [0.9, 0.0]])
        h = lambda ts, X: np.where((ts[:, None] >= 0.5) & (X[:, 0] > 0.7), np.nan, 1.0)
        with pytest.raises(SmoothingError, match=r"not finite at t=0.5, x=\[0.8, 0.0\]"):
            build_time_partition(h, grid, k_max=1, table_res=16)
        h = lambda ts, X: np.where(X[:, 0] > 0.85, np.inf, 1.0) * np.ones((len(ts), 1))
        with pytest.raises(SmoothingError, match=r"not finite at t=0, x=\[0.9, 0.0\]"):
            build_time_partition(h, grid, k_max=1, table_res=16)

    def test_subdivision_cap_is_loud(self):
        # oscillation too fast for the table resolution
        h = lambda ts, X: (2.0 - np.tanh(40 * ts))[:, None] * np.ones(len(X))
        with pytest.raises(SmoothingError, match="subdivisions"):
            build_time_partition(h, annulus_grid(11), k_max=1, table_res=16)


class TestSmoothOnCompact:
    def test_sandwich_and_monotonicity_on_grid(self):
        grid = annulus_grid(41)
        part = build_time_partition(exp_decay, grid, k_max=2, table_res=128)
        g = smooth_on_compact(part)
        ts = np.linspace(0.0, 2.0, 21)
        vals = g.sample_times(ts, grid)
        for i, t in enumerate(ts):
            hv = exp_decay(t, grid)
            assert np.all(vals[i] >= 0.5 * hv - 1e-12)
            assert np.all(vals[i] <= 2.0 * hv + 1e-12)
        assert np.all(np.diff(vals, axis=0) <= 1e-12)

    def test_constant_h_reproduced(self):
        grid = annulus_grid(21)
        c = 1.7
        h = lambda ts, X: np.full((len(ts), len(X)), c)
        part = build_time_partition(h, grid, k_max=2, table_res=32)
        g = smooth_on_compact(part)
        assert np.allclose(g.sample_pairs(np.full(len(grid), 0.7), grid), c, atol=1e-12)

    def test_time_signal_without_state_dependence(self):
        grid = np.array([[0.6, 0.0]])
        h = lambda ts, X: np.exp(-ts)[:, None] * np.ones(len(X))
        part = build_time_partition(h, grid, k_max=2, table_res=64)
        g = smooth_on_compact(part)
        ts = np.array([0.0, 0.5, 1.7])
        v = g.sample_pairs(ts, np.tile([0.6, 0.0], (3, 1)))
        assert np.all((0.5 * np.exp(-ts) <= v) & (v <= 2.0 * np.exp(-ts)))

    def test_values_do_not_depend_on_the_batch(self):
        # every (t, x) of a time grid x points, alone, against both batch paths
        grid = annulus_grid(41)
        g = smooth_on_compact(build_time_partition(exp_decay, grid, k_max=2, table_res=128))
        ts = np.array([0.0, 0.31, 1.0, 1.47, 2.0])
        Q = annulus_grid(29, 0.55, 0.95)
        alone = np.array([[g.sample_pairs([t], x[None])[0] for x in Q] for t in ts])
        pairs = g.sample_pairs(np.repeat(ts, len(Q)), np.tile(Q, (len(ts), 1)))
        bits = lambda a: np.ascontiguousarray(a).view(np.uint64)
        assert np.array_equal(bits(g.sample_times(ts, Q)), bits(alone))
        assert np.array_equal(bits(pairs.reshape(alone.shape)), bits(alone))

    def test_a_call_of_several_chunks_equals_per_row_calls(self):
        grid = annulus_grid(41)
        g = smooth_on_compact(build_time_partition(exp_decay, grid, k_max=2, table_res=128))
        Q = np.random.default_rng(6).uniform(-1.0, 1.0, size=(400, 2))
        ts = np.random.default_rng(7).uniform(0.0, 2.0, size=400)
        # rows per chunk: (rows, n_grid, dim) temporaries of at most PAIR_BUDGET elements
        assert len(Q) > 2 * (PAIR_BUDGET // (len(g.grid) * 2))
        alone = [g.sample_pairs(ts[i:i + 1], Q[i:i + 1])[0] for i in range(len(Q))]
        assert np.array_equal(g.sample_pairs(ts, Q).view(np.uint64),
                              np.array(alone).view(np.uint64))

    def test_a_sample_times_call_of_several_chunks_equals_one_chunk(self, monkeypatch):
        grid = annulus_grid(41)
        g = smooth_on_compact(build_time_partition(exp_decay, grid, k_max=2, table_res=128))
        Q = np.random.default_rng(8).uniform(-1.0, 1.0, size=(400, 2))
        ts = np.array([0.0, 0.31, 1.0, 1.47, 2.0])
        assert len(g._chunks(Q)) >= 3
        chunked = g.sample_times(ts, Q)
        monkeypatch.setattr(smoothing, "PAIR_BUDGET", len(Q) * len(g.grid) * 2)
        assert len(g._chunks(Q)) == 1
        assert np.array_equal(chunked.view(np.uint64), g.sample_times(ts, Q).view(np.uint64))

    def test_certificate_present(self):
        grid = annulus_grid(21)
        part = build_time_partition(exp_decay, grid, k_max=1, table_res=64)
        g = smooth_on_compact(part)
        assert "fd_gradient_discrepancy" in g.certificate
        assert g.certificate["fd_gradient_discrepancy"] < 1e-2

    def test_off_grid_queries_stay_sandwiched(self):
        grid = annulus_grid(41)
        part = build_time_partition(exp_decay, grid, k_max=2, table_res=128)
        g = smooth_on_compact(part)
        probe = annulus_grid(29, 0.55, 0.95)      # off-construction points
        for t in (0.0, 0.31, 1.9):
            hv = exp_decay(t, probe)
            gv = g.sample_pairs(np.full(len(probe), t), probe)
            assert np.all(gv >= 0.5 * hv) and np.all(gv <= 2.0 * hv)


class TestSmoothGlobal:
    K = SetSpec.points([[0.0, 0.0]], name="origin")

    @staticmethod
    def h_dist(t, X):
        # time-constant distance profile: positive off K, zero on K; one row
        # per time in t, and the one row for a scalar t
        return np.linalg.norm(np.atleast_2d(X), axis=1) + np.zeros((*np.shape(t), 1))

    def test_zero_on_k(self):
        g = smooth_global(self.h_dist, self.K, range(-6, 1), k_max=1,
                          table_res=16, annulus_count=256)
        assert g.sample_pairs([0.5], np.zeros((1, 2))).tolist() == [0.0]

    def test_sandwich_on_shells(self):
        g = smooth_global(self.h_dist, self.K, range(-6, 1), k_max=1,
                          table_res=16, annulus_count=256)
        rng = np.random.default_rng(0)
        pts = rng.uniform(-1, 1, size=(200, 2))
        pts = pts[np.linalg.norm(pts, axis=1) > 0.1]
        hv = self.h_dist(0.0, pts)
        gv = g.sample_pairs(np.full(len(pts), 0.3), pts)
        assert np.all(gv >= 0.5 * hv) and np.all(gv <= 2.0 * hv)

    def test_overlap_is_convex_combination(self):
        g = smooth_global(self.h_dist, self.K, range(-6, 1), k_max=1,
                          table_res=16, annulus_count=256)
        x = np.array([0.4, 0.0])
        y = np.log2(np.linalg.norm(x) ** 2)
        covering = [s for s in g.parts if s - 2.5 < y < s + 3.5]
        assert len(covering) >= 2
        vals = [g.parts[s].sample_pairs([0.3], x[None])[0] for s in covering]
        glued = g.sample_pairs([0.3], x[None])[0]
        assert min(vals) - 1e-12 <= glued <= max(vals) + 1e-12

    def test_values_do_not_depend_on_the_batch(self):
        g = smooth_global(self.h_dist, self.K, range(-6, 1), k_max=1,
                          table_res=16, annulus_count=256)
        pts = np.random.default_rng(1).uniform(-1, 1, size=(60, 2))
        pts = np.vstack([pts[np.linalg.norm(pts, axis=1) > 0.1], np.zeros((1, 2))])
        ts = np.random.default_rng(2).uniform(0, 1, len(pts))
        alone = [g.sample_pairs(ts[i:i + 1], pts[i:i + 1])[0] for i in range(len(pts))]
        assert np.array_equal(g.sample_pairs(ts, pts).view(np.uint64),
                              np.array(alone).view(np.uint64))

    def test_uncovered_shell_raises(self):
        g = smooth_global(self.h_dist, self.K, range(-4, 0), k_max=1,
                          table_res=16, annulus_count=128)
        with pytest.raises(SmoothingError, match="coverage"):
            g.sample_pairs([0.0], np.array([[1e-4, 0.0]]))

    def test_validation_lists_missing_shells(self):
        pts = np.array([[1e-4, 0.0], [0.5, 0.0]])
        with pytest.raises(SmoothingError, match="shells"):
            smooth_global(self.h_dist, self.K, range(-4, 0), k_max=1,
                          table_res=16, annulus_count=128,
                          validation_points=pts)

    def test_validation_rejects_non_finite_h(self):
        # finite on every annulus grid, NaN at one validation point only
        def h(ts, X):
            return np.where(X[:, 0] == 0.3, np.nan, self.h_dist(ts, X))

        with pytest.raises(SmoothingError, match=r"violated at t=0\.0, x=\[0\.3, 0\.0\]"):
            smooth_global(h, self.K, range(-4, 0), k_max=1, table_res=16, annulus_count=128,
                          validation_points=np.array([[0.0, -0.5], [0.3, 0.0]]))

    def test_h_is_called_once_per_annulus_and_once_to_validate(self, monkeypatch):
        calls, batches = [], []

        def h(ts, X):
            calls.append(len(ts))
            return self.h_dist(ts, X)

        sample_pairs = GlobalSmoothedFn.sample_pairs
        monkeypatch.setattr(GlobalSmoothedFn, "sample_pairs",
                            lambda fn, ts, Q: (batches.append(len(Q)), sample_pairs(fn, ts, Q))[1])
        smooth_global(h, self.K, range(-4, 0), k_max=1, table_res=16, annulus_count=128,
                      validation_points=np.array([[0.3, 0.0], [0.0, -0.5]]))
        assert calls == [17] * 4 + [5]
        assert batches == [5 * 2]   # the validation: times x points in one batch

    def test_dimension_cap(self):
        K3 = SetSpec.points([[0.0, 0.0, 0.0]])
        with pytest.raises(SmoothingError, match="dimension"):
            smooth_global(self.h_dist, K3, range(-2, 1))

    def test_box_k_generic_annuli(self):
        K = SetSpec.box([-0.2, -0.2], [0.2, 0.2], name="core")
        h = lambda t, X: distance_to_set_many(np.atleast_2d(X), K) + np.zeros((*np.shape(t), 1))
        g = smooth_global(h, K, range(-5, 1), k_max=1, table_res=16,
                          annulus_count=512, seed=2)
        pts = np.array([[0.5, 0.1], [0.9, -0.6], [-0.4, 0.45]])
        hv = h(0.0, pts)
        gv = g.sample_pairs(np.full(len(pts), 0.5), pts)
        assert np.all(gv >= 0.5 * hv) and np.all(gv <= 2.0 * hv)

    def test_annulus_points_radial_structure(self):
        pts = annulus_points(self.K, -3, 200)
        d2 = (pts ** 2).sum(axis=1)
        assert np.all(d2 >= 2.0 ** -6 - 1e-12)
        assert np.all(d2 <= 2.0 ** 1 + 1e-12)


class TestConversePipeline:
    def test_small_counterexample_pipeline(self):
        f = builtin_field("counterexample2d")
        Xo = SetSpec.points([[0.0, 0.0]], name="origin")
        res = ConverseResolution(s_range=tuple(range(-8, 1)), k_max=4,
                                 table_res=32, annulus_count=256)
        B = converse_smooth_barrier(f, Xo, IntegratorConfig(step=1 / 256), res)
        # zero on X_o, positive off it
        assert B.evaluate_many([1.0], [np.zeros(2)]).value[0] == 0.0
        for x in ([0.3, 0.0], [0.0, -0.7], [0.5, 0.5]):
            assert B.evaluate_many([0.5], [np.array(x)]).value[0] > 0.0
        # nonincreasing along a forward trajectory of the original system
        from safereach.dynamics import InclusionSpec, Selector
        from safereach.solver import integrate
        F = InclusionSpec.singleton(f)
        tr = integrate(F, Selector.constant(), np.array([0.45, 0.0]), 1.5,
                       cfg=IntegratorConfig(step=1 / 256))
        idx = np.arange(0, len(tr.times), 64)
        vals = B.evaluate_many(tr.times[idx], tr.states[idx]).value
        assert np.all(np.diff(vals) <= 1e-7)
        # a value depends on its own (t, x) only, not on the batch's other times
        single = [B.evaluate_many([t], [x]).value[0] for t, x in zip(tr.times[idx], tr.states[idx])]
        assert np.array_equal(vals, single)

    def test_backward_touch_gives_zero(self):
        # points inside the ball X_o flow backward through it -> second branch;
        # outside points floor at a limit cycle above the ball radius
        f = builtin_field("counterexample2d")
        Xo = SetSpec.ball([0.0, 0.0], 0.05, name="core")
        res = ConverseResolution(s_range=tuple(range(-10, 1)), k_max=3,
                                 table_res=32, annulus_count=256)
        B = converse_smooth_barrier(f, Xo, IntegratorConfig(step=1 / 256), res)
        assert B.evaluate_many([2.0], [[0.02, 0.0]]).value[0] == 0.0
        assert B.evaluate_many([2.0], [[0.2, 0.0]]).value[0] > 0.0
        assert B.evaluate_many([0.0], [[0.8, 0.0]]).value[0] > 0.0
        # a horizon over the step budget is refused before any step
        B.batch_fn.__self__.cfg = IntegratorConfig(step=1 / 256, max_steps=256)
        assert B.evaluate_many([1.0], [[0.2, 0.0]]).value[0] > 0.0
        with pytest.raises(SolverError, match="horizon 2 needs 512 steps"):
            B.evaluate_many([2.0], [[0.2, 0.0]])
        # a count cast to int before the check wrapped negative: no step, and
        # the value of an unflowed state
        with pytest.raises(SolverError, match="horizon 1e[+]20 needs 25600000000000000000000 "):
            B.evaluate_many([1e20], [[0.2, 0.0]])
        with pytest.raises(BarrierError, match="finite t, got inf"):
            B.evaluate_many([np.inf], [[0.2, 0.0]])

    def test_negative_time_is_refused(self):
        f = builtin_field("counterexample2d")
        res = ConverseResolution(s_range=tuple(range(-10, 1)), k_max=3,
                                 table_res=32, annulus_count=256)
        B = converse_smooth_barrier(f, SetSpec.ball([0.0, 0.0], 0.05), IntegratorConfig(step=1 / 256),
                                    res)
        assert B.evaluate_many([0.0], [[0.2, 0.0]]).value[0] > 0.0
        for t in (-1.0, -5.0):
            with pytest.raises(BarrierError, match="converse barrier defined for t >= 0"):
                B.evaluate_many([t], [[0.2, 0.0]])

    def test_tube_table_is_the_running_minimum_along_each_path(self):
        # every table entry against a running minimum along the recorded
        # forward path of the rescaled field, one point at a time
        Xo = SetSpec.points([[0.0, 0.0]], name="origin")
        res = ConverseResolution(k_max=2, table_res=32, rescaled_step=1 / 64)
        tube = _RescaledTubeMin(builtin_field("counterexample2d"), Xo, res)
        assert tube.h == 1 / 64
        times = np.arange(0, res.k_max * res.table_res + 1) / res.table_res
        X = np.array([[0.3, 0.0], [0.0, -0.7], [0.3, 0.0], [0.5, 0.5]])
        table = tube(times, X)
        assert table.shape == (len(times), len(X))
        for q, x in enumerate(X):
            path = integrate(tube.F, Selector.constant(), x, float(res.k_max),
                             cfg=IntegratorConfig(step=tube.h))
            running = np.minimum.accumulate(distance_to_set_many(path.states, Xo))
            assert np.array_equal(table[:, q], running[::2])
        assert np.array_equal(table[0], distance_to_set_many(X, Xo))

    def test_tube_table_equals_per_time_calls(self):
        Xo = SetSpec.points([[0.0, 0.0]], name="origin")
        res = ConverseResolution(k_max=2, table_res=32, rescaled_step=1 / 64)
        tube = _RescaledTubeMin(builtin_field("counterexample2d"), Xo, res)
        times = np.arange(0, res.k_max * res.table_res + 1) / res.table_res
        X = np.array([[0.3, 0.0], [0.0, -0.7], [0.5, 0.5]])
        table = tube(times, X)
        for i in range(0, len(times), 4):
            assert np.array_equal(tube(times[i:i + 1], X)[0], table[i])
