import numpy as np
import pytest

from safereach.barrier import (RelaxFn, candidate_sign_check,
                               counterexample_barrier, counterexample_barrier_fn,
                               infinitesimal_check, lsc_probe, marginal_barrier,
                               monotonicity_check, sublevel_membership,
                               user_barrier)
from safereach.dynamics import (InclusionSpec, Selector, builtin_field,
                                field_from_expressions, lipschitz_estimate)
from safereach.geometry import SetSpec, distance_to_set_many
from safereach.solver import BundlePlan, IntegratorConfig, integrate

ORIGIN = SetSpec.points([[0.0, 0.0]], name="origin")
COUNTER = InclusionSpec.singleton(builtin_field("counterexample2d"))
LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
CFG = IntegratorConfig(step=1.0 / 512.0)
WINDOW = ([-2.0, -2.0], [2.0, 2.0])


class TestClosedFormBarrier:
    def test_zero_at_origin(self):
        for t in (0.0, 1.0, 17.3):
            assert counterexample_barrier(t, np.zeros(2)) == 0.0

    def test_constant_on_limit_cycles(self):
        for k in (1, 2, 3, 7):
            x = np.array([1.0 / (k * np.pi), 0.0])
            for t in (0.0, 2.0, 100.0):
                assert counterexample_barrier(t, x) == pytest.approx(
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
            assert abs(counterexample_barrier(0.0, x) - r) < 1e-12
            count += 1

    def test_matches_radial_flow_branch(self):
        # cot(pi/2) = 0, so at r = 2/pi and t = 2 the value is 1/(3 pi/4)
        x = np.array([2.0 / np.pi, 0.0])
        assert counterexample_barrier(2.0, x) == pytest.approx(4.0 / (3.0 * np.pi))

    def test_nonincreasing_in_time(self):
        x = np.array([0.4, 0.1])
        vals = [counterexample_barrier(t, x) for t in np.linspace(0, 10, 101)]
        assert np.all(np.diff(vals) <= 1e-15)

    def test_limits_to_inner_cycle(self):
        x = np.array([0.4, 0.0])          # 1/0.4 = 2.5 in (0, pi), k = 0
        assert counterexample_barrier(1e9, x) == pytest.approx(1.0 / np.pi, rel=1e-6)


class TestMarginalBarrier:
    def test_time_zero_is_distance(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        for x in ([0.3, 0.4], [0.05, 0.0], [1.0, -1.0]):
            assert B.evaluate(0.0, np.array(x)) == pytest.approx(
                np.linalg.norm(x), abs=1e-12)

    def test_zero_on_initial_set(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        for t in (0.0, 1.0, 3.0):
            assert B.evaluate(t, np.zeros(2)) == 0.0

    def test_matches_closed_form_at_spec_point(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        x = np.array([2.0 / np.pi, 0.0])
        assert B.evaluate(2.0, x) == pytest.approx(4.0 / (3.0 * np.pi), rel=1e-6)

    def test_nonincreasing_in_t_on_stored_grid(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        x = np.array([0.5, 0.2])
        ts = np.arange(0.0, 3.0 + 1e-12, 0.25)
        vals = B.evaluate_many(ts, np.tile(x, (len(ts), 1)))
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
            bx, by = (B.evaluate(t, x), B.evaluate(t, y))
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
            v0 = B0.evaluate(0.75, np.array(x))
            ve = Be.evaluate(0.75, np.array(x))
            assert ve <= v0 + 1e-9

    def test_batch_matches_scalar(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        ts = np.array([0.0, 0.5, 1.25])
        xs = np.array([[0.3, 0.0], [0.4, 0.2], [0.6, -0.1]])
        batch = B.evaluate_many(ts, xs)
        singles = [B.evaluate(t, x) for t, x in zip(ts, xs)]
        assert np.allclose(batch, singles, atol=1e-12)


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
        for sel in BundlePlan(4).selectors(F, T):
            for i, x in enumerate(xs):
                tr = integrate(F, sel, x, T, "backward", cfg)
                run = np.minimum.accumulate(distance_to_set_many(tr.states, X_o))
                best_lo[i] = min(best_lo[i], run[k_lo[i]])
                best_hi[i] = min(best_hi[i], run[k_hi[i]])
        expected = best_lo * (1.0 - frac) + best_hi * frac
        assert np.array_equal(B.evaluate_many(ts, xs), expected)


class TestSignCheck:
    def test_marginal_zero_on_initial_set(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        X_u = SetSpec.complement(ORIGIN, name="off_origin")
        rep = candidate_sign_check(B, ORIGIN, X_u, [0.0, 1.0, 2.0],
                                   n_init=8, n_unsafe=40, window=WINDOW)
        assert rep.verdict == "pass"
        assert rep.details["max_on_X_o"] == 0.0
        assert rep.details["min_on_X_u"] > 0.0

    def test_closed_form_positive_off_origin(self):
        B = counterexample_barrier_fn()
        X_u = SetSpec.complement(ORIGIN, name="off_origin")
        rep = candidate_sign_check(B, ORIGIN, X_u, np.linspace(0, 5, 6),
                                   n_init=4, n_unsafe=64,
                                   window=([-1.0, -1.0], [1.0, 1.0]))
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
        rep = candidate_sign_check(B, disk, X_u, [0.0], n_init=64, n_unsafe=32,
                                   window=([-4, -4], [4, 4]), zero_tol=1e-9)
        assert rep.verdict == "pass"
        assert rep.details["max_on_X_o"] <= 1e-9
        assert rep.details["min_on_X_u"] >= 3.0


class TestMonotonicity:
    def test_constant_barrier(self):
        B = user_barrier("1", 2)
        tr = integrate(LINEAR, Selector.constant(), np.array([1.0, 0.0]), 1.0, cfg=CFG)
        rep = monotonicity_check(B, tr, tol=1e-12)
        assert rep.verdict == "pass" and rep.worst_margin == 0.0

    def test_marginal_along_forward_spiral(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        tr = integrate(COUNTER, Selector.constant(), np.array([0.5, 0.0]), 2.0, cfg=CFG)
        rep = monotonicity_check(B, tr, tol=10 * CFG.accuracy, stride=64)
        assert rep.verdict == "pass"

    def test_closed_form_along_forward_spiral(self):
        B = counterexample_barrier_fn()
        tr = integrate(COUNTER, Selector.constant(), np.array([0.5, 0.0]), 3.0, cfg=CFG)
        rep = monotonicity_check(B, tr, tol=1e-9, stride=16)
        assert rep.verdict == "pass"

    def test_increasing_barrier_fails(self):
        B = user_barrier("0 - x1^2 - x2^2", 2)     # grows along expanding field
        F = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "exp"))
        tr = integrate(F, Selector.constant(), np.array([0.1, 0.0]), 0.5, cfg=CFG)
        # B decreases along expansion; flip to make it increase
        B2 = user_barrier("x1^2 + x2^2", 2)
        rep = monotonicity_check(B2, tr, tol=1e-9)
        assert rep.verdict == "fail"
        assert rep.witness["value"] > rep.witness["previous_value"]

    def test_requires_forward_trajectory(self):
        tr = integrate(LINEAR, Selector.constant(), np.array([1.0, 0.0]), 0.5,
                       direction="backward", cfg=CFG)
        with pytest.raises(ValueError):
            monotonicity_check(user_barrier("1", 2), tr)


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
    def test_sublevel_membership(self):
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        assert sublevel_membership(B, 0.0, [0.0, 0.0])["in_K"]
        res = sublevel_membership(B, 0.0, [0.0, 2.0])
        assert not res["in_K"] and res["value"] == pytest.approx(3.0)

    def test_marginal_membership_on_initial_set(self):
        B = marginal_barrier(COUNTER, ORIGIN, CFG, directions=1)
        assert sublevel_membership(B, 1.0, [0.0, 0.0])["in_K"]
        assert not sublevel_membership(B, 1.0, [0.3, 0.0])["in_K"]

    def test_lsc_probe_on_continuous_barrier(self):
        B = counterexample_barrier_fn()
        res = lsc_probe(B, 1.0, [0.4, 0.0])
        assert res["max_drop"] <= 0.05
