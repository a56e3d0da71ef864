import functools
import gc
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import safereach.barrier as barrier
import safereach.reachability as reachability
from safereach import cli
from safereach.cli import main
from safereach.config import CHECK_KEYS, ConfigError, RawConfig, build_scenario, parse_config
from safereach.dynamics import InclusionSpec, builtin_field
from safereach.geometry import SamplePlan, SetSpec
from safereach.solver import BundlePlan, IntegratorConfig
from safereach.verify import nagumo_check

ROOT = Path(__file__).resolve().parent.parent
SCENARIOS = ROOT / "scenarios"
SRC = ROOT / "src"

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

    def test_negative_or_non_integer_seed_rejected(self):
        with pytest.raises(ConfigError, match="non-negative integer, got -1$"):
            build_scenario(parse_config(MINIMAL.replace("seed = 5", "seed = -1")))
        with pytest.raises(ConfigError, match="non-negative integer, got 1.5$"):
            build_scenario(RawConfig({"": {"seed": [1.5]}}, "seed = 1.5\n"))

    def test_typed_values(self):
        # a value that does not parse is refused by its key; a top-level key
        # is named bare
        with pytest.raises(ConfigError, match=r"^\[solver\] step: expected number, got 'tiny'$"):
            parse_config("seed = 1\n[solver]\nstep = tiny\n")
        with pytest.raises(ConfigError, match=r"^seed: expected integer, got 'x'$"):
            parse_config("seed = x\n")
        with pytest.raises(ConfigError,
                           match=r"^\[sampling\] window: expected numbers, got '-2 a 2 2'$"):
            parse_config(MINIMAL.replace("window = -2 -2 2 2", "window = -2 a 2 2"))
        with pytest.raises(ConfigError, match=r"^\[simulate\] T: expected number, got 'soon'$"):
            parse_config("seed = 1\n[simulate]\nT = soon\n")

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

    def test_each_check_kind_reads_exactly_its_listed_keys(self, tmp_path, monkeypatch):
        # one small section per kind; the infinitesimal region reads width
        sections = {
            "simulate": "X_o = X_o\nX_u = X_u\nT = 0.25",
            "sign": "X_o = X_o\nX_u = X_u\nn_samples = 4",
            "monotonicity": "X_o = X_o\nT = 0.25\nn_samples = 2",
            "infinitesimal": "region = boundary\ncount = 4",
            "nagumo": "K = X_o\nn_samples = 4",
            "prop1": "X_o = X_o\nX_s = X_s\nn_samples = 4",
            "filippov": "lam_box = BOX\npairs = 2\nT = 0.25",
        }
        assert sections.keys() == CHECK_KEYS.keys()
        text = MINIMAL.replace("window = -2 -2 2 2", "window = -4 -4 4 4") + (
            "[set X_s]\nkind = halfspace\nnormal = 0 -1\noffset = -2\n"
            "[set BOX]\nkind = box\nlo = -3 -3\nhi = 3 3\n"
            "[barrier]\nkind = user\nexpression = x1^2/10 + x2^2 - 1\n") + "".join(
            f"[check {kind}]\nkind = {kind}\n{keys}\n" for kind, keys in sections.items())
        scn = build_scenario(parse_config(text))
        reads, get = [], RawConfig.get
        monkeypatch.setattr(RawConfig, "get", lambda cfg, section, key, default=None: (
            reads.append((section, key)), get(cfg, section, key, default))[1])
        barrier = functools.cache(lambda: cli._build_barrier(scn))
        for kind, keys in CHECK_KEYS.items():
            reads.clear()
            cli._run_one_check(kind, scn, barrier)
            assert {k for sec, k in reads if sec == f"check {kind}"} == {"kind", *keys}

    @pytest.mark.parametrize("section, message", [
        ("[check quick]\nX_o = X_o", r"^\[check quick\] needs kind$"),
        ("[check quick]\nkind = sign\nX_o = X_o\nX_u = X_u\nstride = 4",
         r"^\[check quick\] key 'stride' is not read by kind 'sign', "
         r"which reads X_o, X_u, n_samples$"),
    ])
    def test_a_check_section_is_refused_before_any_command(self, section, message):
        text = MINIMAL.split("[check quick]")[0] + section + "\n"
        with pytest.raises(ConfigError, match=message):
            build_scenario(parse_config(text))

    def test_config_hash_tracks_bytes(self):
        a = parse_config(MINIMAL)
        b = parse_config(MINIMAL + "\n# comment\n")
        assert a.hash() != b.hash()


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

        monkeypatch.setattr(reachability, "filippov_check", record)
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
        check = barrier.infinitesimal_check

        def counted(*args, **kw):
            inside.append(True)
            try:
                return check(*args, **kw)
            finally:
                inside.clear()

        monkeypatch.setattr(barrier, "infinitesimal_check", counted)
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

    def test_nagumo_without_samples_is_inconclusive(self):
        # a config refuses n_samples = 0; a library caller still gets a
        # report of the empty sample, in plain JSON
        lib = nagumo_check(InclusionSpec.singleton(builtin_field("linear_safe")),
                           SetSpec.ball([0.0, 0.0], 1.0), "boundary", n_samples=0)

        def reject(name):
            raise ValueError(f"not JSON: {name}")

        rep = json.loads(lib.to_json(), parse_constant=reject)
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
        negative = tmp_path / "negative.scenario"
        negative.write_text(MINIMAL.replace("seed = 5", "seed = -7"))
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
            # a [check NAME] key that its kind does not read, and an unknown
            # kind after passing checks, are refused before any check runs
            (["check", "--config", str(SCENARIOS / "perturbed.scenario"),
              "--set", "check perturbed_safety.T=0.5",
              "--set", "check perturbed_safety.n_samples=5",
              "--set", "check perturbed_safety.lam_box=nosuchset"],
             "[check perturbed_safety] key 'lam_box' is not read by kind 'simulate'",
             []),                                                            # ConfigError
            (["check", "--config", linear, "--set", "check conditional.tol=1e-3"],
             "[check conditional] key 'tol' is not read by kind 'prop1'", []),  # ConfigError
            (["check", "--config", linear, "--set", "check filippov.kind=nosuch"],
             "[check filippov] unknown check kind 'nosuch'", []),            # ConfigError
            # a seed is refused before any command draws from it
            (["check", "--config", str(SCENARIOS / "perturbed.scenario"), "--seed", "-1"],
             "seed must be a non-negative integer, got -1", []),           # ConfigError
            (["simulate", "--config", counter, "--seed", "-1"],
             "seed must be a non-negative integer, got -1", []),           # ConfigError
            (["check", "--config", counter, "--seed", "-1"],
             "seed must be a non-negative integer, got -1", []),           # ConfigError
            (["check", "--config", str(negative)],
             "seed must be a non-negative integer, got -7", []),           # ConfigError
            (["check", "--config", counter, "--set", "seed=1.5"],
             "seed: expected integer, got '1.5'", []),                       # ConfigError
        ]
        for i, (argv, message, written) in enumerate(cases):
            out = tmp_path / f"out{i}"
            assert main(argv + ["--out", str(out)]) == 1
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err
            assert len(err.splitlines()) == 1
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

    @pytest.mark.parametrize("overrides, steps, rows", [
        # the origin, a sign sample in X_o, leaves the backward sweep of 265
        # points after its first block of 8192 // 265 = 30 nodes: 29 steps, not 2560
        ([], 2560 + 1536, 12288 + 320000 - (2560 - 29)),
        # the marginal-check benchmark workload: 105 points, blocks of 78
        # nodes, so the origin takes 77 steps, not 768
        (["--set", "sampling.tgrid=0 1.5 7", "--set", "check monotone.T=0.5"], 768 + 256,
         2048 + 55040 - (768 - 77)),
    ], ids=["shipped", "marginal-check"])
    def test_sign_and_monotonicity_queries_make_one_backward_sweep(self, tmp_path,
                                                                   monkeypatch, overrides,
                                                                   steps, rows):
        # one forward bundle for the monotonicity check, then every query of
        # both checks in one tube_minimum: its sweep runs to the sign check's
        # largest t, which covers the monotonicity check's
        from safereach import solver

        sweeps, stepped, tubes = [], [], []
        sweep, tube = solver.rk4_sweep, solver.tube_minimum

        def counted(step, *args):
            sweeps.append(0)

            def one(k, live, X, W):
                sweeps[-1] += 1
                stepped.append(len(X))
                return step(k, live, X, W)
            return sweep(one, *args)

        monkeypatch.setattr(solver, "rk4_sweep", counted)
        monkeypatch.setattr(barrier, "tube_minimum",
                            lambda *a, **k: tubes.append(1) or tube(*a, **k))
        assert main(["check", "--config", str(SCENARIOS / "counterexample.scenario"),
                     *overrides, "--out", str(tmp_path / "out")]) == 0
        assert len(tubes) == 1 and len(sweeps) == 2 and sum(sweeps) == steps
        assert sum(stepped) == rows

    def test_results_before_a_failing_check_are_written(self, tmp_path, capsys):
        # a: sign and monotonicity queries of a user B, answered alone when
        # the batch with b's raises; b: B is NaN on X_u (x2 >= 2); c: the
        # monotonicity bundle needs more than max_steps
        base = MINIMAL.replace("window = -2 -2 2 2", "window = -4 -4 4 4") + (
            "\n[barrier]\nkind = user\nexpression = sqrt(1.5 - x2)\n")
        a = ("[check a]\nkind = sign\nX_o = X_o\nX_u = X_o\n"
             "[check m]\nkind = monotonicity\nX_o = X_o\nT = 0.25\n")
        b = "[check b]\nkind = sign\nX_o = X_o\nX_u = X_u\n"
        c = "[check c]\nkind = monotonicity\nX_o = X_o\nT = 4\n"
        runs = {}
        for name, text in [("a", a), ("b", b), ("ab", a + b), ("ac", a + c)]:
            out = tmp_path / name
            status = main(["check", "--config", str(self._write(tmp_path, base + text)),
                           "--set", "solver.max_steps=200", "--out", str(out)])
            runs[name] = status, capsys.readouterr(), out
        assert runs["a"][0] in (0, 2) and runs["b"][0] == 1 and runs["ac"][0] == 1
        assert runs["b"][1].err.startswith("error: barrier returned non-finite value")
        assert runs["ab"][1].err == runs["b"][1].err
        assert "horizon 4 needs 256 steps" in runs["ac"][1].err
        for name in ("ab", "ac"):
            status, captured, out = runs[name]
            assert status == 1 and captured.out == runs["a"][1].out
            assert json.loads((out / "manifest.json").read_text())["artifacts"] == [
                "quick.check.json", "a.check.json", "m.check.json"]
            for f in ("quick", "a", "m"):
                assert (out / f"{f}.check.json").read_bytes() == \
                    (runs["a"][2] / f"{f}.check.json").read_bytes()

    def test_empty_t_grid_is_a_usage_error(self, tmp_path, capsys):
        assert main(["check", "--config", str(self._write(tmp_path)),
                     "--set", "sampling.tgrid=0 1 0", "--out", str(tmp_path / "out")]) == 1
        assert "tgrid count" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("tgrid", "0 1 -2", "[barrier-eval] tgrid count must be at least 1, got -2"),
        ("tgrid", "0 1 0", "[barrier-eval] tgrid count must be at least 1, got 0"),
        ("tgrid", "0 1 2.5", "[barrier-eval] tgrid count must be a whole number, got 2.5"),
        ("nx", "0", "[barrier-eval] nx must be at least 1, got 0"),
    ])
    def test_an_empty_or_fractional_barrier_eval_grid_is_refused(self, tmp_path, capsys,
                                                                  key, value, message):
        text = MINIMAL + ("\n[barrier]\nkind = user\nexpression = x1\n"
                          "[barrier-eval]\nwindow = -1 -1 1 1\nnx = 3\ntgrid = 0 1 2\n")
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["barrier-eval", "--config", str(self._write(tmp_path, text)),
                         "--set", f"barrier-eval.{key}={value}", "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, scenario, dotted, value", [
        ("reach", "counterexample", "reach.stride", "0"),
        ("reach", "counterexample", "reach.stride", "-2"),
        ("barrier-eval", "counterexample", "barrier-eval.nx", "-1"),
        ("check", "counterexample", "check sign.n_samples", "0"),
        ("check", "counterexample", "check sign.n_samples", "-3"),
        ("check", "counterexample", "check monotone.n_samples", "0"),
        ("check", "counterexample", "check monotone.stride", "0"),
        ("check", "counterexample", "check monotone.stride", "-1"),
        ("check", "linear", "check decrease.count", "0"),
        ("check", "linear", "check ellipse_invariance.n_samples", "0"),
        ("check", "linear", "check conditional.n_samples", "0"),
        ("check", "linear", "check filippov.pairs", "0"),
    ])
    def test_a_count_below_one_is_refused_by_its_key(self, tmp_path, capsys, command,
                                                     scenario, dotted, value):
        out = tmp_path / "out"
        assert main([command, "--config", str(SCENARIOS / f"{scenario}.scenario"),
                     "--set", f"{dotted}={value}", "--out", str(out)]) == 1
        section, key = dotted.rsplit(".", 1)
        captured = capsys.readouterr()
        assert captured.err == f"error: [{section}] {key} must be at least 1, got {value}\n"
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("argv, message", [
        (["barrier-eval", "--config", "counterexample.scenario", "--set",
          "barrier.kind=counterexample", "--set", "barrier-eval.window=-1 1 -1"],
         "[barrier-eval] window must be 'lo_1 .. lo_n hi_1 .. hi_n' with n = 2, got 3 numbers"),
        (["barrier-eval", "--config", "counterexample.scenario",
          "--set", "barrier-eval.window=-1 -1 -1 1 1 1"],
         "[barrier-eval] window must be 'lo_1 .. lo_n hi_1 .. hi_n' with n = 2, got 6 numbers"),
        (["check", "--config", "linear.scenario", "--set", "sampling.window=-1 1 -1"],
         "[sampling] window must be 'lo_1 .. lo_n hi_1 .. hi_n' with n = 2, got 3 numbers"),
        (["check", "--config", "counterexample.scenario", "--set", "sampling.window=-1 1"],
         "[sampling] window must be 'lo_1 .. lo_n hi_1 .. hi_n' with n = 2, got 2 numbers"),
        (["check", "--config", "linear.scenario", "--set", "set ELLIPSE.window=-4 -2 4"],
         "[set ELLIPSE] window must be 'lo_1 .. lo_n hi_1 .. hi_n' with n = 2, got 3 numbers"),
        (["smooth", "--config", "smooth.scenario", "--set", "set ANNULUS.window=-1 1 0"],
         "[set ANNULUS] window must be 'lo_1 .. lo_n hi_1 .. hi_n', got 3 numbers"),
    ])
    def test_a_malformed_window_is_refused_by_its_key(self, tmp_path, capsys, argv, message):
        argv = argv[:2] + [str(SCENARIOS / argv[2])] + argv[3:]
        out = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()

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

    def test_a_missing_results_directory_is_refused_and_not_created(self, tmp_path, capsys):
        missing = tmp_path / "typo_dir"
        assert main(["report", "--results", str(missing)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: results directory not found: {missing}\n"
        assert captured.out == "" and not missing.exists()

    def test_a_results_directory_without_a_check_report_is_refused(self, tmp_path, capsys):
        (tmp_path / "manifest.json").write_text(json.dumps({"artifacts": []}))
        (tmp_path / "smooth_info.json").write_text(json.dumps({"sigma": 1.0}))
        assert main(["report", "--results", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: results directory {tmp_path} holds no check report "
                                "(a JSON file with a verdict)\n")
        assert captured.out == "" and not (tmp_path / "o").exists()
        assert not (tmp_path / "summary.json").exists()


class TestProcessEntry:
    def test_run_returns_mains_status_and_freezes_the_heap(self, tmp_path, monkeypatch, capsys):
        (tmp_path / "c.check.json").write_text(json.dumps({"check": "c", "verdict": "fail"}))
        assert gc.get_freeze_count() == 0
        monkeypatch.setattr(sys, "argv", ["safereach", "report", "--results", str(tmp_path)])
        try:
            assert cli.run() == 2
            assert gc.get_freeze_count() > 0
        finally:
            gc.unfreeze()
        assert "ROLLUP: FAIL" in capsys.readouterr().out

    def test_main_never_freezes(self, tmp_path):
        before = gc.get_freeze_count()
        config = tmp_path / "case.scenario"
        config.write_text(MINIMAL)
        assert main(["simulate", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert gc.get_freeze_count() == before

    def test_the_installed_script_takes_the_process_entry(self):
        lines = (ROOT / "pyproject.toml").read_text().splitlines()
        assert lines[lines.index("[project.scripts]") + 1] == 'safereach = "safereach.cli:run"'


class TestFreshInterpreter:
    """Runs in a new interpreter: in-process, pytest has loaded every module."""

    def _run(self, *args):
        # stdout is a pipe, block-buffered as in a shell pipeline
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                              env=env, timeout=300)

    def test_commands_load_only_their_modules(self, tmp_path):
        script = f"""
import importlib, sys
import safereach.cli as cli
lazy = {{"safereach." + m for m in ("barrier", "verify", "smoothing", "reachability")}}
assert not lazy & sys.modules.keys(), sorted(lazy & sys.modules.keys())
assert cli.main(["simulate", "--config", {str(SCENARIOS / "counterexample.scenario")!r},
                 "--set", "simulate.T=0.05", "--out", {str(tmp_path / "out")!r}]) == 0
assert not lazy & sys.modules.keys(), sorted(lazy & sys.modules.keys())
import safereach
for name in safereach.__all__:
    value = getattr(safereach, name)
    assert value is getattr(importlib.import_module(value.__module__), name), name
    assert name in dir(safereach), name
try:
    safereach.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown name resolved")
"""
        run = self._run("-c", script)
        assert run.returncode == 0, run.stderr
        assert (tmp_path / "out" / "manifest.json").exists()

    @pytest.mark.parametrize("argv, verdicts, unloaded", [
        (["--config", str(SCENARIOS / "perturbed.scenario"),
          "--set", "check perturbed_safety.T=0.25"],
         ["check perturbed_safety: pass"], ["safereach.barrier"]),
        # np.unique without a return_* flag would load numpy.ma
        (["--config", str(SCENARIOS / "counterexample.scenario"),
          "--set", "sampling.tgrid=0 1 3", "--set", "check monotone.T=0.25"],
         ["check sign: pass", "check monotone: pass"], ["safereach.verify", "numpy.ma"]),
    ], ids=["simulate", "sign-monotonicity"])
    def test_a_check_loads_only_what_its_kinds_run(self, tmp_path, argv, verdicts, unloaded):
        script = f"""
import sys
import safereach.cli as cli
assert cli.main(["check", *{argv!r}, "--out", {str(tmp_path / "out")!r}]) == 0
assert not {set(unloaded)!r} & sys.modules.keys(), {unloaded!r}
"""
        run = self._run("-c", script)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == verdicts

    def test_commands_load_neither_numpy_random_nor_openssl(self, tmp_path):
        # the Halton scramble and the Filippov draw come from sampling.Stream,
        # and the config hash from CPython's own SHA-256 where it has one
        config = tmp_path / "short.scenario"
        config.write_bytes((SCENARIOS / "counterexample.scenario").read_bytes().replace(
            b"T = 6.283185307179586", b"T = 0.05"))
        counter = str(SCENARIOS / "counterexample.scenario")
        runs = [
            ["simulate", "--config", str(config)],
            ["check", "--config", str(SCENARIOS / "perturbed.scenario"),
             "--set", "check perturbed_safety.T=0.25"],
            ["check", "--config", counter, "--set", "sampling.tgrid=0 1 3",
             "--set", "check monotone.T=0.25"],
            ["barrier-eval", "--config", counter, "--set", "barrier-eval.tgrid=0 0.5 2",
             "--set", "barrier-eval.nx=5"],
        ]
        unloaded = {"numpy.random"}
        if any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")):
            unloaded.add("_hashlib")
        script = f"""
import sys
import safereach.cli as cli
for i, argv in enumerate({runs!r}):
    assert cli.main(argv + ["--out", {str(tmp_path)!r} + f"/out{{i}}"]) == 0, argv
    loaded = {unloaded!r} & sys.modules.keys()
    assert not loaded, (argv, sorted(loaded))
"""
        run = self._run("-c", script)
        assert run.returncode == 0, run.stderr
        manifest = json.loads((tmp_path / "out0" / "manifest.json").read_text())
        assert manifest["config_hash"] == hashlib.sha256(config.read_bytes()).hexdigest()

    def test_the_module_entry_runs_a_check_to_its_exit(self, tmp_path):
        config = SCENARIOS / "linear.scenario"
        run = self._run("-m", "safereach.cli", "check", "--config", str(config),
                        "--out", str(tmp_path / "out"))
        assert run.returncode == 0, run.stderr
        names = [s.split(" ", 1)[1] for s in parse_config(config.read_text()).section_names("check")]
        assert len(names) == 5
        assert run.stdout.splitlines() == [f"check {name}: pass" for name in names]
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert manifest["artifacts"] == [f"{name}.check.json" for name in names]
        assert sorted(p.name for p in (tmp_path / "out").iterdir()) == \
            sorted(manifest["artifacts"] + ["manifest.json"])

    # each error class below is defined by a module that only its command loads
    def _assert_one_error_line(self, tmp_path, argv, message):
        run = self._run("-m", "safereach.cli", *argv, "--out", str(tmp_path / "out"))
        assert run.returncode == 1
        assert len(run.stderr.splitlines()) == 1 and run.stderr.startswith(message)

    def test_barrier_error_is_caught(self, tmp_path):
        config = tmp_path / "case.scenario"
        config.write_text(MINIMAL + "\n[barrier]\nkind = user\nexpression = sqrt(x1) - 10\n"
                          "[barrier-eval]\nwindow = -1 -1 1 1\nnx = 3\ntgrid = 0 1 2\n")
        self._assert_one_error_line(tmp_path, ["barrier-eval", "--config", str(config)],
                                    "error: barrier returned non-finite value")

    def test_smoothing_error_is_caught(self, tmp_path):
        self._assert_one_error_line(
            tmp_path, ["smooth", "--config", str(SCENARIOS / "smooth.scenario"),
                       "--set", "smooth.h=sqrt(x1 - 0.9)"], "error: h is not finite")
