import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import safereach.barrier as barrier
from safereach import cli
from safereach.cli import main
from safereach.config import (ConfigError, build_scenario, parse_config,
                              set_to_config)
from safereach.dynamics import InclusionSpec, builtin_field
from safereach.geometry import SamplePlan, SetSpec, distance_to_set
from safereach.solver import BundlePlan, IntegratorConfig
from safereach.verify import nagumo_check

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

MINIMAL = """
seed = 5
[system]
kind = builtin
name = linear_safe
inclusion = singleton
[solver]
step = 0.015625
[sampling]
window = -2 -2 2 2
boundary = 4
interior = 4
tgrid = 0 1 2
[set X_o]
kind = ball
center = 0 0
radius = 1
[set X_u]
kind = halfspace
normal = 0 1
offset = 2
[simulate]
X_o = X_o
T = 0.5
[check quick]
kind = simulate
X_o = X_o
X_u = X_u
T = 2
"""


class TestConfigParsing:
    def test_minimal_parses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.get("", "seed") == 5
        scn = build_scenario(cfg)
        assert scn.system.dim == 2
        assert "X_o" in scn.sets and scn.sets["X_o"].kind == "ball"

    def test_unset_keys_take_the_dataclass_defaults(self):
        scn = build_scenario(parse_config("seed = 4\n[solver]\nstep = 0.125\n"))
        assert scn.solver == IntegratorConfig(step=0.125)
        assert scn.bundle == BundlePlan(seed=4)
        assert scn.samples == SamplePlan(seed=4)

    def test_unknown_key_rejected(self):
        # also keys no command reads, and one that shadowed [bundle] directions
        for anchor, line in (("step = 0.015625", "stepp = 2"),
                             ("step = 0.015625", "rel = 1e-8"),
                             ("step = 0.015625", "abs = 1e-10"),
                             ("[simulate]", "X_u = X_u"),
                             ("[simulate]", "hit_tol = 1e-6"),
                             ("[check quick]", "tgrid = 0 1 3"),
                             ("T = 2", "[barrier]\ndirections = 4")):
            bad = MINIMAL.replace(anchor, f"{anchor}\n{line}")
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(bad)

    def test_rk4_is_the_only_method(self):
        assert build_scenario(parse_config(MINIMAL, overrides={"solver.method": "rk4"}))
        with pytest.raises(ConfigError, match="method must be rk4"):
            build_scenario(parse_config(MINIMAL, overrides={"solver.method": "rk45"}))

    def test_duplicate_section_rejected(self):
        with pytest.raises(ConfigError, match="duplicate section"):
            parse_config(MINIMAL + "\n[solver]\nstep = 0.25\n")

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError, match="unknown section"):
            parse_config("seed = 1\n[frobnicate]\nx = 1\n")

    def test_duplicate_key_rejected(self):
        bad = "seed = 1\n[solver]\nstep = 0.1\nstep = 0.2\n"
        with pytest.raises(ConfigError, match="repeated"):
            parse_config(bad)

    def test_missing_seed_rejected(self):
        with pytest.raises(ConfigError, match="seed"):
            parse_config("[solver]\nstep = 0.1\n")

    def test_typed_values(self):
        with pytest.raises(ConfigError, match="expected number"):
            parse_config("seed = 1\n[solver]\nstep = tiny\n")

    def test_set_cycle_rejected(self):
        text = "seed = 1\n[set A]\nkind = complement\nof = B\n[set B]\nkind = complement\nof = A\n"
        with pytest.raises(ConfigError, match="cycle"):
            build_scenario(parse_config(text))

    def test_empty_t_grid_rejected(self):
        with pytest.raises(ConfigError, match="tgrid count"):
            build_scenario(parse_config(MINIMAL, overrides={"sampling.tgrid": "0 1 0"}))

    def test_overrides_rewrite_values(self):
        cfg = parse_config(MINIMAL, overrides={"solver.step": "0.5", "seed": "9"})
        assert cfg.get("", "seed") == 9
        assert cfg.get("solver", "step") == 0.5

    def test_expression_system(self):
        text = "seed = 1\n[system]\nkind = expression\nrhs = 0 - x2 ; x1\ninclusion = singleton\n"
        scn = build_scenario(parse_config(text))
        v = scn.system.fields[0](np.array([1.0, 2.0]))
        assert np.allclose(v, [-2.0, 1.0])

    def test_config_hash_tracks_bytes(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL + "\n# comment\n")
        assert a.hash() != b.hash()

    def test_set_round_trips_through_config(self):
        original = SetSpec.intersection(
            [SetSpec.ball([0.5, -1.0], 2.0),
             SetSpec.complement(SetSpec.box([-0.5, -0.5], [0.5, 0.5]))],
            name="shell")
        text = "seed = 1\n" + set_to_config(original)
        scn = build_scenario(parse_config(text))
        rebuilt = scn.sets["shell"]
        rng = np.random.default_rng(0)
        for p in rng.uniform(-3, 3, size=(25, 2)):
            assert distance_to_set(p, rebuilt) == pytest.approx(
                distance_to_set(p, original), abs=1e-9)


class TestCommands:
    def _write(self, tmp_path, text=MINIMAL):
        p = tmp_path / "case.scenario"
        p.write_text(text)
        return p

    def test_missing_config_is_usage_error(self, capsys):
        assert main(["check"]) == 1
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key, value", [
        ("check", "sampling.tgrid", "0 nan 3"),
        ("barrier-eval", "barrier-eval.tgrid", "inf inf 1"),
        ("simulate", "simulate.T", "inf"),
        ("check", "check quick.T", "nan"),
        ("reach", "reach.t", "-inf"),
    ])
    def test_non_finite_time_is_refused_by_its_key(self, tmp_path, capsys, command, key, value):
        argv = [command, "--config", str(self._write(tmp_path)), "--set", f"{key}={value}",
                "--out", str(tmp_path / "out")]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv) == 1
        section, name = key.rsplit(".", 1)
        assert f"error: [{section}] {name} must be finite" in capsys.readouterr().err

    def test_unparseable_config_exit_one(self, tmp_path, capsys):
        p = self._write(tmp_path, "nonsense without equals\n")
        assert main(["check", "--config", str(p)]) == 1

    def test_empty_config_exit_one(self, tmp_path):
        p = self._write(tmp_path, "")
        assert main(["check", "--config", str(p)]) == 1

    def test_simulate_writes_manifest_and_csvs(self, tmp_path):
        p = self._write(tmp_path)
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(p), "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["command"] == "simulate"
        listed = set(manifest["artifacts"])
        produced = {f.name for f in out.iterdir() if f.name != "manifest.json"}
        assert listed == produced and len(listed) == 8
        first = out / sorted(listed)[0]
        header = first.read_text().splitlines()[0]
        assert header == "t,x1,x2"

    def test_check_pass_exit_zero(self, tmp_path):
        p = self._write(tmp_path)
        out = tmp_path / "out"
        assert main(["check", "--config", str(p), "--out", str(out)]) == 0
        rep = json.loads((out / "quick.check.json").read_text())
        assert rep["verdict"] == "no_violation_found"

    def test_check_fail_exit_two(self, tmp_path):
        text = MINIMAL.replace("name = linear_safe",
                               "name = linear_safe").replace(
            "[system]\nkind = builtin\nname = linear_safe\ninclusion = singleton",
            "[system]\nkind = expression\nrhs = 0 ; 1\ninclusion = singleton")
        p = self._write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["check", "--config", str(p), "--out", str(out)]) == 2

    def test_reruns_byte_identical(self, tmp_path):
        p = self._write(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(p), "--out", str(out1)])
        main(["simulate", "--config", str(p), "--out", str(out2)])
        for f in sorted(out1.iterdir()):
            if f.name == "manifest.json":
                continue     # carries wall time
            assert f.read_bytes() == (out2 / f.name).read_bytes()
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert m1["config_hash"] == m2["config_hash"]
        assert m1["artifacts"] == m2["artifacts"]

    def test_seed_override_changes_outputs(self, tmp_path):
        p = self._write(tmp_path)
        out1, out2 = tmp_path / "a", tmp_path / "b"
        main(["simulate", "--config", str(p), "--out", str(out1)])
        main(["simulate", "--config", str(p), "--out", str(out2), "--seed", "99"])
        f = "traj_000_00.csv"
        assert (out1 / f).read_bytes() != (out2 / f).read_bytes()

    def test_barrier_eval_grid_content(self, tmp_path):
        text = MINIMAL + ("\n[barrier]\nkind = user\n"
                          "expression = x1^2/10 + x2^2 - 1\n"
                          "[barrier-eval]\nwindow = -1 -1 1 1\nnx = 11\ntgrid = 0 0 1\n")
        p = self._write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["barrier-eval", "--config", str(p), "--out", str(out)]) == 0
        data = np.loadtxt(out / "barrier_grid.csv", delimiter=",", skiprows=1)
        # columns t, x1, x2, B; on the initial disk the barrier tops out at 0
        in_disk = np.linalg.norm(data[:, 1:3], axis=1) <= 1.0
        assert data[in_disk, 3].max() <= 1e-12
        assert data[~in_disk, 3].max() > 0.0

    def test_jobs_flag_removed(self, tmp_path):
        p = self._write(tmp_path)
        with pytest.raises(SystemExit):
            main(["simulate", "--config", str(p), "--jobs", "2"])

    def test_filippov_counts_pairs_leaving_the_box(self, tmp_path, capsys):
        out = tmp_path / "out"
        main(["check", "--config", str(SCENARIOS / "linear.scenario"), "--out", str(out)])
        rep = json.loads((out / "filippov.check.json").read_text())
        assert (rep["pairs"], rep["not_applicable"]) == (10, 1)
        assert rep["holds"] and rep["verdict"] == "pass"
        assert "check filippov: pass" in capsys.readouterr().out
        main(["report", "--results", str(out), "--out", str(out)])
        summary = json.loads((out / "summary.json").read_text())
        assert {"filippov", "simulate_safety"} <= {e["check"] for e in summary["checks"]}

    def test_filippov_uses_the_bundle_plan(self, tmp_path, monkeypatch):
        text = MINIMAL.replace("inclusion = singleton", "inclusion = ball\nepsilon = 0.1") + (
            "\n[bundle]\ndirections = 2\n[set BOX]\nkind = box\nlo = -3 -3\nhi = 3 3\n"
            "[check filippov]\nkind = filippov\nlam_box = BOX\npairs = 2\n")
        plans = []

        def record(F, X, Y, T, lam, cfg, plan, **kw):
            plans.append(plan)
            return {"max_violation": np.zeros(len(X)), "holds": np.ones(len(X), dtype=bool),
                    "applicable": np.ones(len(X), dtype=bool)}

        monkeypatch.setattr(cli, "filippov_check", record)
        out = tmp_path / "out"
        assert main(["check", "--config", str(self._write(tmp_path, text)),
                     "--out", str(out)]) == 0
        assert plans == [BundlePlan(directions=2, switches=0, seed=5)]

    def test_filippov_pairs_that_escape_are_not_applicable(self, tmp_path, capsys):
        # escaping rows freeze at different steps, inside the Lipschitz box
        out = tmp_path / "out"
        assert main(["check", "--config", str(SCENARIOS / "linear.scenario"),
                     "--set", "system.inclusion=ball", "--set", "system.epsilon=5",
                     "--set", "solver.escape=2.5", "--set", "bundle.directions=4",
                     "--out", str(out)]) == 2
        rep = json.loads((out / "filippov.check.json").read_text())
        assert (rep["pairs"], rep["not_applicable"]) == (10, 10)
        assert rep["max_violation"] is None and rep["verdict"] == "inconclusive"
        assert "check filippov: inconclusive" in capsys.readouterr().out

    def test_proximal_check_makes_four_barrier_batches(self, tmp_path, monkeypatch):
        # the sample region, the Clarke gradients, the proximal test of every
        # pair and the relaxation's B values: one batch each, whatever the count
        calls, inside = [], []
        evaluate = barrier.BarrierFn.evaluate_many
        monkeypatch.setattr(barrier.BarrierFn, "evaluate_many", lambda self, ts, Xs: (
            calls.append(len(ts)) if inside else None) or evaluate(self, ts, Xs))
        check = cli.infinitesimal_check

        def counted(*args, **kw):
            inside.append(True)
            try:
                return check(*args, **kw)
            finally:
                inside.clear()

        monkeypatch.setattr(cli, "infinitesimal_check", counted)
        out = tmp_path / "out"
        main(["check", "--config", str(SCENARIOS / "counterexample.scenario"),
              "--set", "check prox.kind=infinitesimal", "--set", "check prox.mode=proximal",
              "--set", "check prox.count=48", "--set", "sampling.tgrid=0.5 1 2",
              "--out", str(out)])
        rep = json.loads((out / "prox.check.json").read_text())
        assert rep["check"] == "infinitesimal_proximal" and rep["samples"] > 0
        assert len(calls) == 4

    @pytest.mark.parametrize("h", ["sqrt(x1 - 0.9)", "1/(x1 - x1)"])
    def test_non_finite_h_is_named(self, tmp_path, capsys, h):
        # the error line is all the run prints: numpy issues no RuntimeWarning
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["smooth", "--config", str(SCENARIOS / "smooth.scenario"),
                         "--set", f"smooth.h={h}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert caught == [] and len(err.splitlines()) == 1
        assert err.startswith("error: h is not finite at t=0, x=[-1.0, 0.0]")
        assert not out.exists()

    def test_nagumo_keeps_the_library_tolerance(self, tmp_path):
        # without a tol key the exterior mode runs at nagumo_check's own default
        text = MINIMAL + "[check nag]\nkind = nagumo\nK = X_o\nmode = exterior\n"
        out = tmp_path / "out"
        main(["check", "--config", str(self._write(tmp_path, text)),
              "--set", "sampling.window=-1.2 -1.2 1.2 1.2", "--out", str(out)])
        rep = json.loads((out / "nag.check.json").read_text())
        lib = nagumo_check(InclusionSpec.singleton(builtin_field("linear_safe")),
                           SetSpec.ball([0, 0], 1.0), "exterior", seed=5,
                           window=([-1.2, -1.2], [1.2, 1.2]))
        assert rep["details"]["tol"] == lib.details["tol"] == 1e-3
        assert rep["worst_margin"] == lib.worst_margin and rep["verdict"] == lib.verdict

    def test_simulate_falls_back_to_interior_samples(self, tmp_path):
        # the complement of a point has no boundary sampler
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(SCENARIOS / "counterexample.scenario"),
                     "--set", "simulate.X_o=X_u", "--set", "simulate.T=0.01",
                     "--out", str(out)]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert len(manifest["artifacts"]) == 24

    def test_monotonicity_falls_back_to_interior_samples(self, tmp_path):
        # the complement of a point has no boundary sampler
        out = tmp_path / "out"
        status = main(["check", "--config", str(SCENARIOS / "counterexample.scenario"),
                       "--set", "sampling.tgrid=0 0 1", "--set", "check monotone.X_o=X_u",
                       "--set", "check monotone.T=0.05", "--out", str(out)])
        rep = json.loads((out / "monotone.check.json").read_text())
        assert status in (0, 2) and rep["samples"] == 2

    def test_nagumo_without_samples_is_inconclusive(self, tmp_path):
        text = MINIMAL + "[check nag]\nkind = nagumo\nK = X_o\nn_samples = 0\n"
        out = tmp_path / "out"
        assert main(["check", "--config", str(self._write(tmp_path, text)),
                     "--out", str(out)]) == 0

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        rep = json.loads((out / "nag.check.json").read_text(), parse_constant=reject)
        assert rep["verdict"] == "inconclusive" and rep["samples"] == 0
        assert rep["details"]["reason"] == "no boundary samples"

    @pytest.mark.parametrize("rhs, status, err", [
        ("x1*x1*x1*1e10; x2", 0, ""),     # rows escape: the escape norm overflows to inf
        ("log(x1); x2", 1, "error: non-finite state at step 1; last valid state ["),
    ])
    def test_overflowing_field_prints_no_warning(self, tmp_path, capsys, rhs, status, err):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(SCENARIOS / "counterexample.scenario"),
                         "--set", "system.kind=expression", "--set", f"system.rhs={rhs}",
                         "--set", "simulate.T=2", "--out", str(tmp_path / "out")]) == status
        captured = capsys.readouterr().err
        assert caught == [] and len(captured.splitlines()) == (1 if err else 0)
        assert captured.startswith(err)

    def test_non_finite_barrier_is_an_error(self, tmp_path, capsys):
        # NaN on the left half of X_o; B is about -9 on X_u, so this must not pass
        text = MINIMAL.replace("window = -2 -2 2 2", "window = -4 -4 4 4") + (
            "\n[barrier]\nkind = user\nexpression = sqrt(x1) - 10\n"
            "[check sign]\nkind = sign\nX_o = X_o\nX_u = X_u\n")
        out = tmp_path / "out"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["check", "--config", str(self._write(tmp_path, text)),
                         "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert caught == [] and len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: barrier returned non-finite value at t=")
        assert "check sign" not in captured.out

    def test_library_errors_are_reported_without_traceback(self, tmp_path, capsys):
        counter = str(SCENARIOS / "counterexample.scenario")
        linear = str(SCENARIOS / "linear.scenario")
        sign = self._write(tmp_path, MINIMAL + (
            "\n[barrier]\nkind = user\nexpression = x1^2 + x2^2 - 1\n"
            "[check sign]\nkind = sign\nX_o = X_o\nX_u = X_u\n"))
        # (argv, message, artifacts written before the error); a run that
        # fails before its first artifact leaves no output directory, and a
        # run that fails after it leaves a manifest naming the error
        cases = [
            (["check", "--config", str(sign)], "could not draw",          # GeometryError
             ["quick.check.json"]),
            (["reach", "--config", counter, "--set", "system.name=nosuch"],
             "unknown builtin field", []),                                   # DynamicsError
            (["reach", "--config", counter, "--set", "solver.step=0"],
             "step must be positive", []),                                   # SolverError
            (["reach", "--config", counter, "--set", "set START.radius=-1"],
             "radius must be nonnegative", []),                              # GeometryError
            (["smooth", "--config", str(SCENARIOS / "smooth.scenario"),
              "--set", "smooth.table_res=4"], "subdivisions", []),           # SmoothingError
            (["barrier-eval", "--config", counter, "--set", "solver.max_steps=10"],
             "horizon 5 needs 2560 steps, more than max_steps = 10", []),    # SolverError
            (["simulate", "--config", counter, "--set", "solver.max_steps=10",
              "--set", "simulate.T=0.5"],
             "horizon 0.5 needs 256 steps, more than max_steps = 10", []),   # SolverError
            (["check", "--config", str(SCENARIOS / "perturbed.scenario"),
              "--set", "check perturbed_safety.T=inf"],
             "[check perturbed_safety] T must be finite, got inf", []),      # ConfigError
            (["simulate", "--config", counter, "--set", "simulate.T=nan"],
             "[simulate] T must be finite, got nan", []),                    # ConfigError
            (["barrier-eval", "--config", counter, "--set", "barrier-eval.tgrid=1e20 1e20 1"],
             "horizon 1e+20 needs 51200000000000000000000 steps", []),       # SolverError
            (["check", "--config", linear, "--set", "barrier.expression=x1 +"],
             "cannot parse 'x1 +'", ["safety.check.json"]),                  # ExpressionError
            (["check", "--config", linear, "--set", "set ELLIPSE.fn=x1 +"],
             "cannot parse 'x1 +'", []),                                     # ExpressionError
        ]
        for i, (argv, message, written) in enumerate(cases):
            out = tmp_path / f"out{i}"
            assert main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert "Traceback" not in err
            if written:
                assert sorted(p.name for p in out.iterdir()) == sorted(
                    written + ["manifest.json"])
                manifest = json.loads((out / "manifest.json").read_text())
                assert manifest["artifacts"] == written
                assert message in manifest["error"]
            else:
                assert not out.exists()

    def test_check_builds_the_barrier_once(self, tmp_path, monkeypatch):
        text = MINIMAL.replace("window = -2 -2 2 2", "window = -4 -4 4 4") + (
            "\n[barrier]\nkind = user\nexpression = x1^2/10 + x2^2 - 1\n"
            "[check sign]\nkind = sign\nX_o = X_o\nX_u = X_u\n"
            "[check again]\nkind = sign\nX_o = X_o\nX_u = X_u\n")
        built = []
        real = cli._build_barrier
        monkeypatch.setattr(cli, "_build_barrier", lambda scn: built.append(1) or real(scn))
        out = tmp_path / "out"
        assert main(["check", "--config", str(self._write(tmp_path, text)),
                     "--out", str(out)]) == 0
        assert len(built) == 1

    def test_empty_t_grid_is_a_usage_error(self, tmp_path, capsys):
        assert main(["check", "--config", str(self._write(tmp_path)),
                     "--set", "sampling.tgrid=0 1 0", "--out", str(tmp_path / "out")]) == 1
        assert "tgrid count" in capsys.readouterr().err

    def test_filippov_inconclusive_when_no_pair_applies(self, tmp_path, capsys):
        text = MINIMAL + ("\n[set TINY]\nkind = box\nlo = -0.01 -0.01\nhi = 0.01 0.01\n"
                          "[check filippov]\nkind = filippov\nlam_box = TINY\npairs = 3\n")
        p = self._write(tmp_path, text)
        out = tmp_path / "out"
        assert main(["check", "--config", str(p), "--out", str(out)]) == 0
        rep = json.loads((out / "filippov.check.json").read_text())
        assert (rep["pairs"], rep["not_applicable"]) == (3, 3)
        assert rep["max_violation"] is None and rep["verdict"] == "inconclusive"
        assert "check filippov: inconclusive" in capsys.readouterr().out

    def test_shipped_scenarios_parse(self):
        for name in ("linear.scenario", "counterexample.scenario",
                     "perturbed.scenario", "smooth.scenario"):
            cfg = parse_config((SCENARIOS / name).read_text())
            build_scenario(cfg)


class TestReportCommand:
    def _fake_reports(self, d: Path, verdicts):
        d.mkdir(parents=True, exist_ok=True)
        for i, v in enumerate(verdicts):
            (d / f"c{i}.check.json").write_text(json.dumps(
                {"check": f"c{i}", "verdict": v, "worst_margin": 0.0}))

    def test_all_pass_rollup(self, tmp_path, capsys):
        self._fake_reports(tmp_path, ["pass", "pass"])
        assert main(["report", "--results", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rollup"] == "PASS"
        assert "ROLLUP: PASS" in capsys.readouterr().out

    def test_failures_named(self, tmp_path, capsys):
        self._fake_reports(tmp_path, ["pass", "fail"])
        assert main(["report", "--results", str(tmp_path)]) == 2
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rollup"] == "FAIL"
        assert summary["failing"] == ["c1"]
        assert "c1" in capsys.readouterr().out

    def test_inconclusive_listed_separately(self, tmp_path):
        self._fake_reports(tmp_path, ["pass", "inconclusive"])
        assert main(["report", "--results", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert summary["rollup"] == "INCONCLUSIVE"
        assert summary["inconclusive"] == ["c1"]

    def test_summary_text_written(self, tmp_path):
        self._fake_reports(tmp_path, ["pass"])
        main(["report", "--results", str(tmp_path)])
        text = (tmp_path / "summary.txt").read_text()
        assert "ROLLUP" in text and "one-sided" in text
