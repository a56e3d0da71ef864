import json

import numpy as np
import pytest

from safereach import geometry, infinitesimal, sampling, solver, verify
from safereach.barrier import user_barrier
from safereach.dynamics import (FieldHandle, InclusionSpec, builtin_field,
                                field_from_expressions, inclusion_extreme_points)
from safereach.geometry import SetSpec
from safereach.infinitesimal import (RelaxFn, clarke_gradient_sample, infinitesimal_check,
                                     nagumo_check, prop1_check)
from safereach.solver import BundlePlan, IntegratorConfig, integrate
from safereach.verify import (SafetyProblem, SamplePlan, UNDER_APPROX_DISCLAIMER,
                              simulate_safety_check)

from helpers import selection_path

LINEAR = InclusionSpec.singleton(builtin_field("linear_safe"))
ZERO = InclusionSpec.singleton(field_from_expressions(["0", "0"], "zero"))
UP = InclusionSpec.singleton(field_from_expressions(["0", "1"], "up"))
DISK = SetSpec.ball([0, 0], 1.0, name="disk")
WALL = SetSpec.halfspace([0, 1], 2.0, name="wall")
# {x2 >= 2} again, as the complement of {x2 <= 2}
NOT_BELOW = SetSpec.complement(SetSpec.halfspace([0, -1], -2.0, name="below"), name="not_below")
CFG = IntegratorConfig(step=1.0 / 256.0)
HULL = InclusionSpec.hull([builtin_field("linear_safe"),
                           field_from_expressions(["x2 - x1", "x1*x2/2 - x2"], "quad")])


def _boundary_residual(F, K, x):
    """The residual nagumo_check's boundary mode gives the first vertex of F
    at the point x of K's boundary: its unit direction probed directly."""
    v = inclusion_extreme_points(F, [x])[0, 0]
    return infinitesimal.cone_residual([x], v / np.linalg.norm(v), K,
                                       tol=max(infinitesimal.NAGUMO_DEFAULT_TOL,
                                               infinitesimal.NAGUMO_SHELL_WIDTH))[0]


def _count_rhs_calls(monkeypatch):
    calls = []
    real = FieldHandle.__call__
    monkeypatch.setattr(FieldHandle, "__call__",
                        lambda self, x: calls.append(self.name) or real(self, x))
    return calls


class TestSimulate:
    def test_zero_field_trivially_safe(self):
        p = SafetyProblem(ZERO, DISK, WALL, 5.0, CFG, SamplePlan(8, 8))
        rep = simulate_safety_check(p)
        assert rep.passed
        assert json.loads(rep.to_json())["disclaimers"] == [UNDER_APPROX_DISCLAIMER]

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
        # a fresh run of the witness selector from its start hits at hit_time
        tr = selection_path(p.F, p.bundle.table(p.F, p.horizon), rep.witness["selector"],
                            np.array(rep.witness["x0"]), p.horizon, "forward", p.cfg)
        hits = p.unsafe_hits(tr.states)
        assert hits.any() and tr.times[np.argmax(hits)] == rep.witness["hit_time"]
        assert tr.states[np.argmax(hits)].tolist() == rep.witness["hit_state"]

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


class TestComplementMargin:
    """The margin of a complement X_u is the least depth of a node inside X_s,
    d(x, X_u), not the hit test's -d(x, X_s), which reads -0.0 inside."""

    BALL = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)

    def test_the_complement_twin_reports_the_halfspace_margin(self):
        reps = [simulate_safety_check(SafetyProblem(self.BALL, DISK, X_u, 5.0, CFG,
                                                    SamplePlan(8, 8), BundlePlan(8)))
                for X_u in (WALL, NOT_BELOW)]
        plain, twin = reps
        assert plain.passed and twin.passed
        assert 0.9 < plain.margin < 1.1
        assert twin.margin.hex() == plain.margin.hex()
        assert json.loads(twin.to_json())["margin"] == plain.margin

    def test_the_twin_distances_are_bit_equal(self):
        X = np.random.default_rng(4).uniform(-6.0, 6.0, size=(100_000, 2))
        X[:6] = [[0.0, 2.0], [-0.0, -0.0], [1.0, 2.0 + 1e-15], [3.0, -0.0], [-0.0, 5.0],
                 [2.0, 2.0 - 1e-15]]
        plain = geometry.distance_to_set_many(X, WALL)
        twin = geometry.distance_to_set_many(X, NOT_BELOW)
        assert np.array_equal(plain.view(np.uint64), twin.view(np.uint64))

    def test_the_margin_is_the_least_depth_over_the_nodes(self):
        # a violation: nodes leave X_s, so the least depth is 0
        p = SafetyProblem(UP, DISK, NOT_BELOW, 3.0, CFG, SamplePlan(4, 4), hit_tol=1e-6)
        rep = simulate_safety_check(p)
        table = p.bundle.table(p.F, p.horizon)
        depth = min(float(geometry.distance_to_set_many(tr.states, NOT_BELOW).min())
                    for j in range(solver.selections(table))
                    for tr in [selection_path(p.F, table, j, x0, p.horizon, "forward", p.cfg)
                               for x0 in p.initial_samples()])
        assert rep.verdict == "violation"
        assert rep.margin == depth == 0.0 and not np.signbit(rep.margin)

    def test_an_estimated_complement_reports_no_margin(self):
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        X_u = SetSpec.complement(ell)
        assert X_u.exactness() == "estimated"
        rep = simulate_safety_check(SafetyProblem(LINEAR, DISK, X_u, 0.25, CFG,
                                                  SamplePlan(4, 4)))
        assert rep.passed and rep.margin is None
        assert json.loads(rep.to_json())["margin"] is None


class TestHitAfterHitFreeBlocks:
    """The observer tests each block's least margin first; a first hit in a
    block after hit-free ones is still the witness."""

    @pytest.mark.parametrize("X_u", [WALL, NOT_BELOW], ids=["halfspace", "complement"])
    def test_the_first_hit_is_found_after_hit_free_blocks(self, monkeypatch, X_u):
        # 8 rows, 16 nodes of h = 1/256 per block; the first hits come near t = 1
        monkeypatch.setattr(solver, "BLOCK_ROWS", 8 * 16)
        p = SafetyProblem(UP, DISK, X_u, 3.0, CFG, SamplePlan(4, 4), hit_tol=1e-6)
        rep = simulate_safety_check(p)
        verdict, _, _, _, witness, first_hits = _per_selector_reference(p)
        assert rep.verdict == verdict == "violation"
        assert rep.witness == witness
        assert rep.witness["hit_time"] > 16 * CFG.step
        assert len({t for t, _, _ in first_hits}) > 1


class TestInvarianceWrappers:
    """Invariance of X_s as safety with X_u = complement(X_s)."""

    @staticmethod
    def stays_in(X_o, X_s, horizon, samples):
        X_u = SetSpec.complement(X_s, name=f"not_{X_s.name or X_s.kind}")
        return simulate_safety_check(SafetyProblem(LINEAR, X_o, X_u, horizon, CFG, samples))

    def test_conditional_invariance(self):
        Xs = SetSpec.halfspace([0, -1], -2.0, name="below")  # {x2 <= 2}
        assert self.stays_in(DISK, Xs, 20.0, SamplePlan(8, 8)).passed

    def test_forward_pre_invariance_of_ellipse(self):
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        assert self.stays_in(ell, ell, 10.0, SamplePlan(0, 16)).passed

    def test_disk_is_not_forward_pre_invariant(self):
        assert self.stays_in(DISK, DISK, 5.0, SamplePlan(16, 0)).verdict == "violation"


class TestNagumo:
    def test_zero_field_passes_any_set(self):
        rep = nagumo_check(ZERO, DISK, "boundary", n_samples=16)
        assert rep.verdict == "pass"

    def test_disk_fails_with_quantified_witness(self):
        w = np.array([-np.sqrt(2) / 2, np.sqrt(2) / 2])
        rep = nagumo_check(LINEAR, DISK, "boundary", n_samples=64)
        assert rep.verdict == "fail"
        A = np.array([[-1.0, -10.0], [1.0, 0.0]])
        # the named witness alone violates: outward component <x, Ax> = 4,
        # i.e. a residual of 4/|Ax| per unit speed
        solo = _boundary_residual(LINEAR, SetSpec.ball([0, 0], 1.0), w)
        assert solo > infinitesimal.NAGUMO_DEFAULT_TOL
        assert float(w @ (A @ w)) == pytest.approx(4.0)
        assert solo == pytest.approx(4.0 / np.linalg.norm(A @ w), abs=1e-6)

    def test_ellipse_passes(self):
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        rep = nagumo_check(LINEAR, ell, "boundary", n_samples=32)
        assert rep.verdict == "pass"
        for x in ([0.0, 1.0], [0.0, -1.0]):
            assert _boundary_residual(LINEAR, ell, x) <= infinitesimal.NAGUMO_DEFAULT_TOL

    def test_exterior_mode_on_ellipse(self, monkeypatch):
        ell = SetSpec.sublevel(lambda X: X[:, 0] ** 2 / 10 + X[:, 1] ** 2, 1.0, 2,
                               window=([-4, -2], [4, 2]), grid=41, name="ellipse")
        # a shell wide enough for 24 samples out of 768 candidates
        monkeypatch.setattr(infinitesimal, "NAGUMO_SHELL_WIDTH", 0.05)
        rep = nagumo_check(LINEAR, ell, "exterior", n_samples=24, window=([-4, -2], [4, 2]))
        assert rep.verdict == "pass"

    @pytest.mark.parametrize("F,names", [(HULL, ["linear_safe", "quad"]),
                                         (InclusionSpec.ball_perturbed(
                                             builtin_field("linear_safe"), 0.1),
                                          ["linear_safe"])])
    def test_one_rhs_call_per_field(self, monkeypatch, F, names):
        calls = _count_rhs_calls(monkeypatch)
        for n in (8, 32):
            calls.clear()
            rep = nagumo_check(F, DISK, "boundary", n_samples=n)
            assert rep.samples > 0 and sorted(calls) == names

    @pytest.mark.parametrize("F", [LINEAR, HULL,
                                   InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)])
    @pytest.mark.parametrize("mode, calls", [("boundary", 1), ("exterior", 2)])
    def test_distance_calls_do_not_grow_with_probes(self, monkeypatch, F, mode, calls):
        # exterior mode draws its shell with one more call
        count = []
        real = geometry.distance_to_set_many
        counted = lambda X, S: count.append(len(X)) or real(X, S)
        monkeypatch.setattr(infinitesimal, "distance_to_set_many", counted)
        monkeypatch.setattr(infinitesimal, "NAGUMO_SHELL_WIDTH", 0.05)
        for n in (8, 64):
            count.clear()
            rep = nagumo_check(F, DISK, mode, n_samples=n)
            assert rep.samples > 0 and len(count) == calls

    def test_empty_shell_inconclusive(self):
        rep = nagumo_check(LINEAR, DISK, "exterior", n_samples=8, window=([5, 5], [6, 6]))
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

    def _decrease_loop(self, candidates, n_samples=48, width=0.05, seed=0):
        """Per-zeta loops over the decrease region of the conditional check
        (X_o = DISK, g = 0): candidates(x, zeta) lists (eta, margin) pairs.
        Returns the first largest margin, its witness and the zeta count."""
        handle = lambda P: self.B.evaluate_many(np.zeros(len(P)), P).value
        region = infinitesimal._between_region(DISK, self.Xs, "conditional", n_samples, width,
                                        seed + 2, self.window)
        grads = clarke_gradient_sample(handle, region, radius=1e-6, fd_step=1e-7, seed=seed)
        worst, witness, zetas = -np.inf, {}, 0
        for x, zs in zip(region, grads):
            for zeta in zs:
                zetas += 1
                for eta, m in candidates(x, zeta):
                    if m > worst:
                        worst, witness = m, {"condition": "decrease", "x": x.tolist(),
                                             "eta": eta.tolist(), "zeta": zeta.tolist()}
        return worst, witness, zetas

    def test_hull_equals_vertex_loop(self):
        rep = prop1_check(HULL, DISK, self.Xs, self.B, RelaxFn.zero(), "conditional",
                          n_samples=48, shell_width=0.05, window=self.window)
        worst, witness, zetas = self._decrease_loop(
            lambda x, z: [(v, float(z @ v)) for v in (f(x) for f in HULL.fields)])
        assert rep.witness["condition"] == "decrease"
        assert rep.worst_margin == worst and rep.witness == witness
        assert rep.samples == 2 + zetas          # two sign conditions, then one per zeta

    def test_ball_uses_the_exact_maximum(self):
        eps = 0.5
        f = builtin_field("linear_safe")
        F = InclusionSpec.ball_perturbed(f, eps)
        rep = prop1_check(F, DISK, self.Xs, self.B, RelaxFn.zero(), "conditional",
                          n_samples=48, shell_width=0.05, window=self.window)

        def exact(x, z):
            norm = float(np.linalg.norm(z))
            return [(f(x) + eps * (z / norm), float(z @ f(x)) + eps * norm)]

        worst, witness, zetas = self._decrease_loop(exact)
        assert rep.witness["condition"] == "decrease"
        assert rep.worst_margin == worst and rep.witness == witness
        assert rep.samples == 2 + zetas
        # 16 sampled directions of the ball fall short of the maximum
        dirs = sampling.sphere_directions(2, 16, seed=0)
        sampled, _, _ = self._decrease_loop(
            lambda x, z: [(v, float(z @ v)) for v in f(x) + eps * dirs])
        assert rep.worst_margin >= sampled

    def test_one_rhs_call_per_field(self, monkeypatch):
        calls = _count_rhs_calls(monkeypatch)
        for n in (16, 48):
            calls.clear()
            prop1_check(HULL, DISK, self.Xs, self.B, RelaxFn.zero(), "conditional",
                        n_samples=n, shell_width=0.05, window=self.window)
            assert sorted(calls) == ["linear_safe", "quad"]

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
        F = InclusionSpec.singleton(builtin_field("counterexample2d"))
        origin = SetSpec.points([[0.0, 0.0]], name="origin")
        X_u = SetSpec.complement(origin, name="off_origin")
        B = marginal_barrier(F, origin, CFG, directions=1)
        sign = candidate_sign_check(B, origin, X_u, [0.0, 1.0],
                                    SamplePlan(2, 2, 0, ([-1, -1], [1, 1])), n_unsafe=24)
        tr = integrate(F, np.array([0.5, 0.0]), 2.0, cfg=CFG)
        mono = monotonicity_check(B, [tr], tol=10 * CFG.accuracy, stride=64)
        assert sign.verdict == "pass" and mono.verdict == "pass"
        rep = simulate_safety_check(SafetyProblem(F, origin, X_u, 5.0, CFG,
                                                  SamplePlan(0, 4)))
        assert rep.passed

    def test_linear_chain(self):
        from safereach.barrier import candidate_sign_check, monotonicity_check
        B = user_barrier("x1^2/10 + x2^2 - 1", 2)
        sign = candidate_sign_check(B, DISK, WALL, [0.0],
                                    SamplePlan(16, 16, 0, ([-4, -4], [4, 4])), n_unsafe=32)
        ok_mono = True
        for ang in np.linspace(0, 2 * np.pi, 8, endpoint=False):
            x0 = np.array([np.cos(ang), np.sin(ang)])
            tr = integrate(LINEAR, x0, 5.0, cfg=CFG)
            rep = monotonicity_check(B, [tr], tol=1e-9, stride=32)
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
    """simulate_safety_check as a loop: every selection from every start by its
    own integration, keeping the earliest hit in selection, then start order."""
    starts = p.initial_samples()
    table = p.bundle.table(p.F, p.horizon)
    S = solver.selections(table)
    escapes, margin, witness, first_hits = 0, np.inf, {}, []
    for j in range(S):
        for i, x0 in enumerate(starts):
            tr = selection_path(p.F, table, j, x0, p.horizon, "forward", p.cfg)
            escapes += tr.termination == "escape"
            margin = min(margin, float(p.unsafe_margins(tr.states).min()))
            hits = np.nonzero(p.unsafe_hits(tr.states))[0]
            if len(hits) > 0:
                k = int(hits[0])
                first_hits.append((float(tr.times[k]), j, i))
                if not witness or tr.times[k] < witness["hit_time"]:
                    witness = {"x0": x0.tolist(), "selector": j,
                               "hit_time": float(tr.times[k]),
                               "hit_state": tr.states[k].tolist()}
    verdict = "violation" if witness else "no_violation_found"
    coverage = {"initial_samples": len(starts), "selectors": S,
                "trajectories": len(starts) * S, "horizon": p.horizon}
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
