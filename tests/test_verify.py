import numpy as np
import pytest

from safereach.barrier import RelaxFn, infinitesimal_check, user_barrier
from safereach.dynamics import InclusionSpec, builtin_field, field_from_expressions
from safereach.geometry import SetSpec
from safereach.solver import BundlePlan, IntegratorConfig, integrate
from safereach.verify import (SafetyProblem, SamplePlan,
                              UNDER_APPROX_DISCLAIMER,
                              conditional_invariance_check,
                              forward_pre_invariance_check, nagumo_check,
                              prop1_check, resimulate_witness,
                              simulate_safety_check)

LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
ZERO = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
UP = InclusionSpec.singleton(field_from_expressions(["0", "1"], "up"))
DISK = SetSpec.ball([0, 0], 1.0, name="disk")
WALL = SetSpec.halfspace([0, 1], 2.0, name="wall")
CFG = IntegratorConfig(step=1.0 / 256.0)


class TestSimulate:
    def test_zero_field_trivially_safe(self):
        p = SafetyProblem(ZERO, DISK, WALL, 5.0, CFG, SamplePlan(8, 8))
        rep = simulate_safety_check(p)
        assert rep.passed
        assert UNDER_APPROX_DISCLAIMER in rep.disclaimers

    def test_linear_safe_long_horizon(self):
        p = SafetyProblem(LINEAR, DISK, WALL, 50.0, CFG, SamplePlan(16, 8))
        rep = simulate_safety_check(p)
        assert rep.passed
        assert rep.margin >= 0.9       # the invariant ellipse caps x2 at 1

    def test_straight_flight_violation(self):
        p = SafetyProblem(UP, DISK, WALL, 3.0, CFG, SamplePlan(8, 4), hit_tol=1e-6)
        rep = simulate_safety_check(p)
        assert rep.verdict == "violation"
        # earliest hit is from the top of the disk: flight time 1
        assert rep.witness["hit_time"] == pytest.approx(1.0, abs=2 * CFG.step)
        assert resimulate_witness(p, rep)

    def test_sample_disjointness_enforced(self):
        overlap = SetSpec.ball([0, 2.5], 1.0, name="bad")
        p = SafetyProblem(UP, overlap, WALL, 1.0, CFG, SamplePlan(4, 4))
        with pytest.raises(ValueError, match="sample-disjoint"):
            simulate_safety_check(p)

    def test_escapes_reported_not_violations(self):
        expanding = InclusionSpec.singleton(field_from_expressions(["x1", "x2"], "e"))
        cfg = IntegratorConfig(step=1 / 64, escape_radius=50.0)
        start = SetSpec.ball([3, 0], 0.5, name="start")
        target = SetSpec.halfspace([0, 1], 100.0, name="far")
        p = SafetyProblem(expanding, start, target, 8.0, cfg, SamplePlan(4, 4))
        rep = simulate_safety_check(p)
        assert rep.passed
        assert rep.escapes > 0

    def test_more_samples_keep_violation(self):
        small = SafetyProblem(UP, DISK, WALL, 3.0, CFG, SamplePlan(0, 8), hit_tol=1e-6)
        big = SafetyProblem(UP, DISK, WALL, 3.0, CFG, SamplePlan(0, 16), hit_tol=1e-6)
        assert simulate_safety_check(small).verdict == "violation"
        assert simulate_safety_check(big).verdict == "violation"

    def test_perturbed_bundle_stays_safe(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
        p = SafetyProblem(F, DISK, WALL, 10.0, CFG, SamplePlan(8, 4),
                          BundlePlan(directions=8))
        rep = simulate_safety_check(p)
        assert rep.passed
        assert rep.coverage["trajectories"] == 12 * 8


class TestInvarianceWrappers:
    def test_conditional_invariance(self):
        Xs = SetSpec.halfspace([0, -1], -2.0, name="below")  # {x2 <= 2}
        rep = conditional_invariance_check(LINEAR, DISK, Xs, 20.0, CFG,
                                           SamplePlan(8, 8))
        assert rep.passed

    def test_forward_pre_invariance_of_ellipse(self):
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        rep = forward_pre_invariance_check(LINEAR, ell, 10.0, CFG, SamplePlan(0, 16))
        assert rep.passed

    def test_disk_is_not_forward_pre_invariant(self):
        rep = forward_pre_invariance_check(LINEAR, DISK, 5.0, CFG,
                                           SamplePlan(16, 0))
        assert rep.verdict == "violation"


class TestNagumo:
    def test_zero_field_passes_any_set(self):
        rep = nagumo_check(ZERO, DISK, "boundary", n_samples=16)
        assert rep.verdict == "pass"

    def test_disk_fails_with_quantified_witness(self):
        w = np.array([-np.sqrt(2) / 2, np.sqrt(2) / 2])
        rep = nagumo_check(LINEAR, DISK, "boundary", n_samples=64,
                           extra_points=[w])
        assert rep.verdict == "fail"
        A = np.array([[-1.0, -10.0], [1.0, 0.0]])
        # the named witness alone violates: outward component <x, Ax> = 4,
        # i.e. a residual of 4/|Ax| per unit speed
        solo = nagumo_check(LINEAR, SetSpec.ball([0, 0], 1.0), "boundary",
                            n_samples=1, extra_points=[w])
        assert solo.verdict == "fail"
        assert float(w @ (A @ w)) == pytest.approx(4.0)
        assert solo.worst_margin == pytest.approx(
            4.0 / np.linalg.norm(A @ w), abs=1e-6)

    def test_ellipse_passes(self):
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        rep = nagumo_check(LINEAR, ell, "boundary", n_samples=32,
                           extra_points=[[0.0, 1.0], [0.0, -1.0]])
        assert rep.verdict == "pass"

    def test_exterior_mode_on_ellipse(self):
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        rep = nagumo_check(LINEAR, ell, "exterior", n_samples=24,
                           shell_width=0.05, window=([-4, -2], [4, 2]))
        assert rep.verdict == "pass"

    def test_empty_shell_inconclusive(self):
        rep = nagumo_check(LINEAR, DISK, "exterior", n_samples=8,
                           shell_width=1e-9, window=([5, 5], [6, 6]))
        assert rep.verdict == "inconclusive"

    def test_agreement_with_infinitesimal_boundary(self):
        # the cone test on the ellipse boundary and the
        # gradient test on the barrier's zero level agree (both pass)
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        cone = nagumo_check(LINEAR, ell, "boundary", n_samples=32)
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        grad = infinitesimal_check(B, LINEAR, "smooth", ("boundary", 1e-6),
                                   RelaxFn.zero(), t_grid=[0.0],
                                   window=([-4, -2], [4, 2]), count=64, tol=1e-6)
        assert cone.verdict == grad.verdict == "pass"


class TestProp1:
    Xs = SetSpec.halfspace([0, -1], -2.0, name="below")   # {x2 <= 2}
    B = user_barrier("x1^2/10 + x2^2 - 1", 2)
    window = ([-3.5, -3.0], [3.5, 3.0])

    def test_linear_example_passes(self):
        rep = prop1_check(LINEAR, DISK, self.Xs, self.B, RelaxFn.zero(),
                          "conditional", n_samples=48, shell_width=0.05,
                          window=self.window)
        assert rep.verdict == "pass"

    def test_strict_mode(self):
        rep = prop1_check(LINEAR, DISK, self.Xs, self.B, RelaxFn.zero(),
                          "strict", n_samples=48, shell_width=0.05,
                          window=self.window)
        assert rep.verdict == "pass"

    def test_linear_relaxation_dominates_zero(self):
        # with X_o equal to the barrier's zero sublevel set, B >= 0 on the
        # whole decrease region, where g(b) = L b >= 0 only loosens the test
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        strict = prop1_check(LINEAR, ell, self.Xs, self.B, RelaxFn.zero(),
                             "conditional", n_samples=32, shell_width=0.05,
                             window=self.window)
        relaxed = prop1_check(LINEAR, ell, self.Xs, self.B, RelaxFn.linear(1.0),
                              "conditional", n_samples=32, shell_width=0.05,
                              window=self.window)
        assert strict.verdict == "pass" and relaxed.verdict == "pass"
        assert relaxed.worst_margin <= strict.worst_margin + 1e-12

    def test_sign_flipped_barrier_fails(self):
        bad = user_barrier("1 - x1^2/10 - x2^2", 2)
        rep = prop1_check(LINEAR, DISK, self.Xs, bad, RelaxFn.zero(),
                          "conditional", n_samples=48, shell_width=0.05,
                          window=self.window)
        assert rep.verdict == "fail"
        assert rep.witness

    def test_requires_minimal_type_relaxation(self):
        with pytest.raises(ValueError, match="minimal"):
            prop1_check(LINEAR, DISK, self.Xs, self.B,
                        RelaxFn.extended_classK("b"), "conditional",
                        window=self.window)

    def test_time_dependent_barrier_rejected_shape(self):
        with pytest.raises(ValueError, match="mode"):
            prop1_check(LINEAR, DISK, self.Xs, self.B, RelaxFn.zero(),
                        "weird", window=self.window)


class TestSufficiencyChain:
    """Candidates that pass the sign and monotonicity checks should never be
    contradicted by simulation on the shipped systems."""

    def test_counterexample_chain(self):
        from safereach.barrier import candidate_sign_check, marginal_barrier, monotonicity_check
        from safereach.solver import Selector, integrate

        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        origin = SetSpec.points([[0.0, 0.0]], name="origin")
        X_u = SetSpec.complement(origin, name="off_origin")
        B = marginal_barrier(F, origin, CFG, directions=1)
        sign = candidate_sign_check(B, origin, X_u, [0.0, 1.0], n_init=4,
                                    n_unsafe=24, window=([-1, -1], [1, 1]))
        tr = integrate(F, Selector.constant(), np.array([0.5, 0.0]), 2.0, cfg=CFG)
        mono = monotonicity_check(B, tr, tol=10 * CFG.accuracy, stride=64)
        assert sign.verdict == "pass" and mono.verdict == "pass"
        rep = simulate_safety_check(SafetyProblem(F, origin, X_u, 5.0, CFG,
                                                  SamplePlan(0, 4)))
        assert rep.passed

    def test_linear_chain(self):
        from safereach.barrier import candidate_sign_check, monotonicity_check
        from safereach.solver import Selector, integrate

        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        sign = candidate_sign_check(B, DISK, WALL, [0.0], n_init=32, n_unsafe=32,
                                    window=([-4, -4], [4, 4]))
        ok_mono = True
        for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            x0 = np.array([np.cos(ang), np.sin(ang)])
            tr = integrate(LINEAR, Selector.constant(), x0, 5.0, cfg=CFG)
            rep = monotonicity_check(B, tr, tol=1e-9, stride=32)
            ok_mono = ok_mono and rep.verdict == "pass"
        assert sign.verdict == "pass" and ok_mono
        rep = simulate_safety_check(SafetyProblem(LINEAR, DISK, WALL, 50.0, CFG,
                                                  SamplePlan(16, 16)))
        assert rep.passed


class TestReportSerialization:
    def test_safety_report_json(self):
        p = SafetyProblem(ZERO, DISK, WALL, 1.0, CFG, SamplePlan(4, 4))
        rep = simulate_safety_check(p)
        import json

        data = json.loads(rep.to_json())
        assert data["verdict"] == "no_violation_found"
        assert data["coverage"]["initial_samples"] == 8
        assert data["disclaimers"]

    def test_check_report_json(self):
        rep = nagumo_check(ZERO, DISK, "boundary", n_samples=8)
        import json

        data = json.loads(rep.to_json())
        assert set(data) >= {"check", "samples", "worst_margin", "witness", "verdict"}


def _per_selector_reference(p):
    """simulate_safety_check as a loop: every selector from every start by its
    own integration, keeping the earliest hit in selector, then start order."""
    starts = p.initial_samples()
    sels = p.bundle.selectors(p.F, p.horizon)
    escapes, margin, witness, first_hits = 0, np.inf, {}, []
    for sel in sels:
        for i, x0 in enumerate(starts):
            tr = integrate(p.F, sel, x0, p.horizon, "forward", p.cfg)
            escapes += tr.termination == "escape"
            margin = min(margin, float(p.unsafe_margins(tr.states).min()))
            hits = np.nonzero(p.unsafe_hits(tr.states))[0]
            if len(hits) > 0:
                k = int(hits[0])
                first_hits.append((float(tr.times[k]), sel.index, i))
                if not witness or tr.times[k] < witness["hit_time"]:
                    witness = {"x0": x0.tolist(), "selector": sel.index,
                               "hit_time": float(tr.times[k]),
                               "hit_state": tr.states[k].tolist()}
    verdict = "violation" if witness else "no_violation_found"
    coverage = {"initial_samples": len(starts), "selectors": len(sels),
                "trajectories": len(starts) * len(sels), "horizon": p.horizon}
    return verdict, margin, escapes, coverage, witness, first_hits


class TestBatchedSweepMatchesReference:
    def _check(self, p):
        rep = simulate_safety_check(p)
        verdict, margin, escapes, coverage, witness, first_hits = _per_selector_reference(p)
        assert rep.verdict == verdict
        assert rep.margin == margin
        assert rep.escapes == escapes
        assert rep.coverage == coverage
        assert rep.witness == witness
        return rep, first_hits

    def test_violation_keeps_earliest_hit_with_tie_break(self):
        # a coarse step puts first hits of several selectors and starts on
        # the earliest node time
        F = InclusionSpec.ball_perturbed(field_from_expressions(["0", "1"], "up"), 0.3)
        slab = SetSpec.box([-1.0, 0.5], [1.0, 1.0], name="slab")
        p = SafetyProblem(F, slab, WALL, 3.0, IntegratorConfig(step=1 / 8),
                          SamplePlan(0, 16), BundlePlan(directions=8), hit_tol=1e-6)
        rep, first_hits = self._check(p)
        assert rep.verdict == "violation"
        tied = sorted((sel, i) for t, sel, i in first_hits if t == rep.witness["hit_time"])
        assert len({sel for sel, _ in tied}) > 1 and len({i for _, i in tied}) > 1
        sel, i = tied[0]
        assert (sel, i) != (0, 0)
        assert rep.witness["selector"] == sel
        assert rep.witness["x0"] == p.initial_samples()[i].tolist()

    def test_escapes(self):
        F = InclusionSpec.ball_perturbed(field_from_expressions(["x1", "x2"], "e"), 0.5)
        cfg = IntegratorConfig(step=1 / 64, escape_radius=8.0)
        p = SafetyProblem(F, SetSpec.ball([1, 0], 0.9, name="start"),
                          SetSpec.halfspace([0, 1], 100.0, name="far"), 2.0, cfg,
                          SamplePlan(4, 4), BundlePlan(directions=4))
        rep, _ = self._check(p)
        assert 0 < rep.escapes < rep.coverage["trajectories"]

    def test_switching_selectors(self):
        F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.3)
        p = SafetyProblem(F, DISK, SetSpec.halfspace([0, 1], 1.2, name="low_wall"), 3.0,
                          IntegratorConfig(step=1 / 64), SamplePlan(6, 6),
                          BundlePlan(directions=4, switches=2), hit_tol=1e-6)
        rep, _ = self._check(p)
        assert rep.coverage["selectors"] == 8
