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
import safereach.infinitesimal as infinitesimal
import safereach.reachability as reachability
from safereach import cli, config
from safereach.cli import main
from safereach.config import (BARRIERS, CHECKS, COMMANDS, SETS, ConfigError, RawConfig,
                              build_scenario, parse_config)
from safereach.dynamics import InclusionSpec, builtin_field, eval_inclusion
from safereach.geometry import SamplePlan, SetSpec
from safereach.infinitesimal import nagumo_check
from safereach.solver import BundlePlan, IntegratorConfig

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


# (section head, key, type) of every key the schema types as a state: a
# point holds n numbers, a window 2n, n the [system] dimension
STATE_KEYS = [(head, key, typ.rstrip("+")) for head, schema in config._SCHEMAS.items()
              for key, typ in schema.items() if typ.rstrip("+") in ("point", "window")]


class TestConfigParsing:
    def test_minimal_parses(self):
        cfg = parse_config(MINIMAL)
        assert cfg.get("", "seed") == 5
        scn = build_scenario(cfg)
        assert scn.system.dim == 2
        X_o = scn.commands["simulate"]["X_o"]
        assert (X_o.name, X_o.kind) == ("X_o", "ball")

    def test_a_hull_system_reads_its_member_keys(self):
        # F(x) is the hull of the rhs field and one field per member line,
        # in file order; closed form at two points
        text = MINIMAL.replace("kind = builtin\nname = linear_safe\ninclusion = singleton",
                               "kind = expression\nrhs = x2; -x1\ninclusion = hull\n"
                               "member = x2 + 1; -x1\nmember = 0 * x1; x1 * x2")
        F = build_scenario(parse_config(text)).system
        assert (F.kind, len(F.fields)) == ("hull", 3)
        X = np.array([[0.5, -2.0], [1.5, 3.0]])
        expected = np.stack([np.column_stack([X[:, 1], -X[:, 0]]),
                             np.column_stack([X[:, 1] + 1, -X[:, 0]]),
                             np.column_stack([0 * X[:, 0], X[:, 0] * X[:, 1]])], axis=1)
        assert np.array_equal(eval_inclusion(F, X), expected)

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
                             ("T = 2", "[barrier]\ndirections = 4"),
                             # a barrier's band width and a [system] dim changed no output
                             ("T = 2", "[barrier]\nkind = counterexample\nband = 0.2"),
                             ("name = linear_safe", "dim = 2")):
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

    # one section of each kind of SETS, BARRIERS and CHECKS, and of each
    # command section, each giving its required keys; the infinitesimal
    # region is boundary, which reads width
    SETS_GIVEN = {"ball": "center = 0 0\nradius = 1", "box": "lo = -3 -3\nhi = 3 3",
                  "halfspace": "normal = 0 1\noffset = 2",
                  "sublevel": "fn = x1^2/10 + x2^2 - 1\nwindow = -4 -2 4 2",
                  "points": "point = 0 0\npoint = 0.5 0", "complement": "of = ball",
                  "union": "of = ball box", "intersection": "of = box sublevel"}
    BARRIERS_GIVEN = {"counterexample": "", "user": "expression = x1^2/10 + x2^2 - 1",
                      "marginal": "X_o = points", "converse": "X_o = points\nk_max = 2"}
    CHECKS_GIVEN = {"simulate": "X_o = ball\nX_u = halfspace",
                    "sign": "X_o = ball\nX_u = complement",
                    "monotonicity": "X_o = ball", "infinitesimal": "region = boundary",
                    "nagumo": "K = sublevel", "prop1": "X_o = ball\nX_s = union",
                    "filippov": "lam_box = box"}
    COMMANDS_GIVEN = {"simulate": "X_o = ball", "reach": "x0 = 0.5 0\nt = 0.25",
                      "barrier-eval": "window = -1 -1 1 1",
                      "smooth": "h = exp(0 - t) * (4 + x1)\nregion = box"}

    def _every_kind(self, barrier="user", checks=None, commands=None):
        checks = self.CHECKS_GIVEN if checks is None else checks
        commands = self.COMMANDS_GIVEN if commands is None else commands
        return ("seed = 3\n[system]\nkind = builtin\nname = linear_safe\n"
                "[sampling]\nwindow = -4 -4 4 4\nboundary = 4\ninterior = 4\ntgrid = 0 0.5 2\n"
                + "".join(f"[set {k}]\nkind = {k}\n{v}\n" for k, v in self.SETS_GIVEN.items())
                + f"[barrier]\nkind = {barrier}\n{self.BARRIERS_GIVEN[barrier]}\n"
                + "".join(f"[{k}]\n{v}\n" for k, v in commands.items())
                + "".join(f"[check {k}]\nkind = {k}\n{v}\n" for k, v in checks.items()))

    def test_every_kind_resolves_to_exactly_its_table_keys(self, monkeypatch):
        assert (self.SETS_GIVEN.keys(), self.BARRIERS_GIVEN.keys(), self.CHECKS_GIVEN.keys(),
                self.COMMANDS_GIVEN.keys()) == (SETS.keys(), BARRIERS.keys(), CHECKS.keys(),
                                                COMMANDS.keys())
        # a command section's table is all its schema: it has no kind to pick keys
        assert all(table.keys() == config._SCHEMAS[section].keys()
                   for section, table in COMMANDS.items())
        resolved, real = {}, config.resolve
        monkeypatch.setattr(config, "resolve", lambda cfg, section, *rest: resolved.setdefault(
            section, real(cfg, section, *rest)))
        # a set as its name, so a resolved SetSpec compares with the name given
        named = lambda args: {k: v.name if isinstance(v, SetSpec) else v for k, v in args.items()}

        def expected(table, section, cfg):
            # a given value as parsed, else the default
            given, out = cfg.sections[section], {}
            for key, default in table.items():
                if key not in given:
                    out[key] = default[0] if isinstance(default, tuple) else default
                else:
                    out[key] = given[key] if key == "point" else given[key][0]
            return out

        for barrier in BARRIERS:
            resolved.clear()
            cfg = parse_config(self._every_kind(barrier))
            scn = build_scenario(cfg)
            for kind in SETS:
                assert resolved[f"set {kind}"] == (kind, expected(SETS[kind], f"set {kind}", cfg))
            kind, args = scn.barrier
            assert (kind, named(args)) == (barrier, expected(BARRIERS[barrier], "barrier", cfg))
        assert list(scn.checks) == list(CHECKS)
        for kind, (got, args) in scn.checks.items():
            want = expected(CHECKS[kind], f"check {kind}", cfg)
            if "g" in want:     # each g a RelaxFn, zero by default
                assert args.pop("g").kind == want.pop("g") == "zero"
            if kind == "monotonicity":
                want["tol"] = 10 * scn.solver.accuracy
            assert (got, named(args)) == (kind, want)
        assert list(scn.commands) == list(COMMANDS)
        for section, args in scn.commands.items():
            want = expected(COMMANDS[section], section, cfg)
            if section == "barrier-eval":   # the window as (lo, hi), tgrid as its times
                (lo, hi), ts = args.pop("window"), args.pop("tgrid")
                assert (lo.tolist(), hi.tolist()) == ([-1.0, -1.0], [1.0, 1.0])
                lo, hi, count = want.pop("tgrid")
                assert ts.tolist() == np.linspace(lo, hi, count).tolist()
                want.pop("window")
            assert named(args) == want

    def test_the_cli_reads_every_resolved_key_and_no_raw_one(self, tmp_path):
        # a scenario holds no raw config, and the commands and checks run on
        # arguments that record the keys read: every key of the table
        class Reads(dict):
            def __getitem__(self, key):
                self.read.add(key)
                return super().__getitem__(key)

        def recorded(kind, args):
            reads = Reads(args)
            reads.read = set()
            return kind, reads

        checks = {k: v + "\nn_samples = 2" if k in ("monotonicity", "sign") else v
                  for k, v in self.CHECKS_GIVEN.items()}
        checks["filippov"] += "\npairs = 2\nT = 0.25"
        checks["infinitesimal"] += "\ncount = 4"
        checks["monotonicity"] += "\nT = 0.25"
        commands = dict(self.COMMANDS_GIVEN, simulate="X_o = ball\nT = 0.25",
                        smooth=self.COMMANDS_GIVEN["smooth"] + "\ngrid_n = 5")
        assert "raw" not in config.Scenario._fields
        for kind in BARRIERS:
            text = self._every_kind(kind, checks, commands)
            if kind == "converse":     # a small smooth converse of the limit-cycle field
                text = text.replace("linear_safe", "counterexample2d")
            cfg = parse_config(text)
            scn = build_scenario(cfg)
            scn = scn._replace(barrier=recorded(*scn.barrier), checks={
                name: recorded(*check) for name, check in scn.checks.items()})
            assert cli._build_barrier(scn).evaluate_many([0.5], [[0.25, 0.5]]).value.shape == (1,)
            assert scn.barrier[1].read == BARRIERS[kind].keys()
            if kind == "user":
                barrier = functools.cache(lambda: cli._build_barrier(scn))
                for name in CHECKS:
                    cli._run_one_check(name, scn, barrier)
                    assert scn.checks[name][1].read == CHECKS[name].keys()
                scn = scn._replace(commands={section: recorded(None, args)[1]
                                             for section, args in scn.commands.items()})
                for section, handler in [("simulate", cli.cmd_simulate), ("reach", cli.cmd_reach),
                                         ("barrier-eval", cli.cmd_barrier_eval),
                                         ("smooth", cli.cmd_smooth)]:
                    manifest = cli.Manifest(section, cfg, tmp_path / section)
                    assert handler(scn, None, manifest) == 0 and manifest.data["artifacts"]
                    assert scn.commands[section].read == COMMANDS[section].keys()

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

    def test_a_user_barrier_without_a_system_reads_the_dimension_of_the_states(self, tmp_path):
        # a 3-D window: the barrier is compiled over x1, x2 and x3, not over x1 and x2
        p = self._write(tmp_path, "seed = 1\n[barrier]\nkind = user\nexpression = x1 + x2 + x3\n"
                                  "[barrier-eval]\nwindow = -1 -1 -1 1 1 1\nnx = 2\ntgrid = 0 0 1\n")
        out = tmp_path / "out"
        assert main(["barrier-eval", "--config", str(p), "--out", str(out)]) == 0
        assert (out / "barrier_grid.csv").read_text().splitlines()[0] == "t,x1,x2,x3,B"
        data = np.loadtxt(out / "barrier_grid.csv", delimiter=",", skiprows=1)
        assert len(data) == 8 and np.array_equal(data[:, 4], data[:, 1:4].sum(axis=1))

    @pytest.mark.parametrize("escape", [10.0, 3.0])
    def test_reach_writes_its_cloud_and_flags_an_escaped_path(self, tmp_path, escape):
        # x' = x from (1, 0) reaches radius e^2 > 3 by t = 2: the path escapes
        # radius 3, not radius 10
        text = MINIMAL.replace("kind = builtin\nname = linear_safe",
                               "kind = expression\nrhs = x1 ; x2").replace(
            "step = 0.015625", f"step = 0.015625\nescape = {escape}") + (
            "[reach]\nx0 = 1 0\nt = 2\nstride = 8\n")
        out = tmp_path / "out"
        assert main(["reach", "--config", str(self._write(tmp_path, text)),
                     "--out", str(out)]) == 0
        scn = build_scenario(parse_config(text))
        points, truncated = reachability.reach(scn.system, np.array([1.0, 0.0]), 2.0,
                                               scn.solver, scn.bundle, stride=8)
        assert truncated == (escape == 3.0)
        data = np.loadtxt(out / "reach.csv", delimiter=",", skiprows=1)
        assert np.array_equal(data, np.column_stack([np.arange(len(points)), points]))
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["reach.csv"]
        assert manifest.get("truncated", "absent") == (True if truncated else "absent")

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

    FILIPPOV_N = """
seed = 3
[system]
kind = expression
rhs = {rhs}
[solver]
step = 0.0625
[set BOX]
kind = box
lo = {lo}
hi = {hi}
[check filippov]
kind = filippov
lam_box = BOX
pairs = 2
T = 0.25
"""

    def _filippov_n(self, tmp_path, rhs):
        n = len(rhs)
        return self._write(tmp_path, self.FILIPPOV_N.format(
            rhs="; ".join(rhs), lo=" ".join(["-1"] * n), hi=" ".join(["1"] * n)))

    def test_filippov_at_n_4_runs_in_one_gigabyte(self, tmp_path):
        # its Lipschitz estimate sweeps the 6561^2 grid pairs a chunk of rows
        # at a time; one difference array of all of them took 1.3 GiB
        config = self._filippov_n(tmp_path, ["-x1 + x2", "-x2 + x3", "-x3 + x4", "-x4 + x1*x2"])
        script = ("import resource, runpy, sys\n"
                  "resource.setrlimit(resource.RLIMIT_AS, (2 ** 30, 2 ** 30))\n"
                  f"sys.argv = ['safereach', 'check', '--config', {str(config)!r}, "
                  f"'--out', {str(tmp_path / 'out')!r}]\n"
                  "runpy.run_module('safereach.cli', run_name='__main__', alter_sys=True)\n")
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
        run = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                             env=env, timeout=300)
        assert (run.returncode, run.stdout, run.stderr) == (0, "check filippov: pass\n", "")
        rep = json.loads((tmp_path / "out" / "filippov.check.json").read_text())
        assert rep["verdict"] == "pass" and rep["lambda"] > 0.0

    def test_filippov_refuses_n_5_before_any_output(self, tmp_path, capsys):
        # about 81 times the n = 4 sweep
        config = self._filippov_n(tmp_path, [f"-x{i}" for i in range(1, 6)])
        out = tmp_path / "out"
        assert main(["check", "--config", str(config), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == ("error: [check filippov] kind 'filippov' estimates lambda over 81^n "
                       "grid pairs: it needs n <= 4, got n = 5\n")
        assert not out.exists()

    def _decay(self, tmp_path, n, sections):
        """A scenario of x' = -x in n dimensions, X_o the unit ball."""
        zeros, xs = " ".join(["0"] * n), [f"x{i}" for i in range(1, n + 1)]
        return self._write(tmp_path, f"""
seed = 3
[system]
kind = expression
rhs = {"; ".join("-" + x for x in xs)}
[solver]
step = 0.0625
[sampling]
window = {" ".join(["-2"] * n)} {" ".join(["2"] * n)}
boundary = 4
interior = 4
tgrid = 0 1 2
[set X_o]
kind = ball
center = {zeros}
radius = 1
""" + sections.format(squares=" + ".join(x + "^2" for x in xs)))

    def test_simulate_draws_a_ball_in_12_dimensions(self, tmp_path, capsys):
        # a ball's interior samples take n + 1 Halton coordinates, 13 here
        config = self._decay(tmp_path, 12, "[simulate]\nX_o = X_o\nT = 0.25\n")
        out = tmp_path / "out"
        assert main(["simulate", "--config", str(config), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        paths = sorted(out.glob("traj_*.csv"))
        assert len(paths) == 8
        starts = np.array([np.loadtxt(p, delimiter=",", skiprows=1)[0, 1:] for p in paths])
        assert starts.shape == (8, 12) and (np.linalg.norm(starts, axis=1) <= 1.0 + 1e-12).all()

    def test_a_clarke_check_samples_11_dimensions(self, tmp_path, capsys):
        # Clarke samples are drawn in (t, x), 12 coordinates here
        config = self._decay(tmp_path, 11, "[barrier]\nkind = user\nexpression = {squares} - 1\n"
                             "[check decrease]\nkind = infinitesimal\nmode = clarke\n"
                             "region = everywhere\ng = zero\ncount = 20\n")
        assert main(["check", "--config", str(config), "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr() == ("check decrease: pass\n", "")

    def test_the_sign_check_draws_X_o_by_the_sampling_plan(self):
        # boundary 6 and interior 2: the check's X_o points are the plan's own
        # draw, the start points of simulate, not an even split of 8
        text = MINIMAL.replace("boundary = 4\ninterior = 4", "boundary = 6\ninterior = 2") \
            .replace("window = -2 -2 2 2", "window = -3 -3 3 3") + (
            "[barrier]\nkind = user\nexpression = x1^2 + x2^2 - 1\n"
            "[check sign]\nkind = sign\nX_o = X_o\nX_u = X_u\nn_samples = 5\n")
        scn = build_scenario(parse_config(text))
        _, a = scn.checks["sign"]
        queries = cli._run_one_check("sign", scn, lambda: None)
        window = scn.samples.window
        pts = np.vstack([scn.samples.draw(a["X_o"]),
                         a["X_u"].sample_interior(5, seed=scn.seed + 2, window=window)])
        assert len(pts) == 6 + 2 + 5
        assert np.array_equal(queries.Xs, np.tile(pts, (len(scn.t_grid), 1)))

    def test_smooth_refuses_a_w_tol_key(self, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["smooth", "--config", str(SCENARIOS / "smooth.scenario"),
                "--set", "smooth.w_tol=0.01", "--out", str(out)]
        assert main(argv) == 1
        assert "unknown key 'w_tol' in section [smooth]" in capsys.readouterr().err
        assert not out.exists()

    def test_proximal_check_makes_four_barrier_batches(self, tmp_path, monkeypatch):
        # the sample region, the Clarke gradients, the proximal test of every
        # pair and the relaxation's B values: one batch each, whatever the count
        calls, inside = [], []
        evaluate = barrier.BarrierFn.evaluate_many
        monkeypatch.setattr(barrier.BarrierFn, "evaluate_many", lambda self, ts, Xs: (
            calls.append(len(ts)) if inside else None) or evaluate(self, ts, Xs))
        check = infinitesimal.infinitesimal_check

        def counted(*args, **kw):
            inside.append(True)
            try:
                return check(*args, **kw)
            finally:
                inside.clear()

        monkeypatch.setattr(infinitesimal, "infinitesimal_check", counted)
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
        # the counterexample scenario with an expression system, which reads no name
        text = (SCENARIOS / "counterexample.scenario").read_text()
        config = self._write(tmp_path, text.replace("name = counterexample2d\n", ""))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["simulate", "--config", str(config),
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
        assert captured.err.startswith("error: [check sign] barrier returned non-finite "
                                       "value at t=")
        assert "check sign" not in captured.out

    @pytest.mark.parametrize("kind, keys", [
        ("sign", "X_o = X_o\nX_u = X_u\n"),
        ("monotonicity", "X_o = X_o\n"),
        ("infinitesimal", ""),
        ("prop1", "X_o = X_o\nX_s = X_s\nmode = strict\n"),
    ])
    def test_every_check_reading_the_barrier_names_itself_in_its_error(self, tmp_path, capsys,
                                                                       kind, keys):
        # log(x2) is NaN on the lower half of the window: after the simulate
        # check's report, the check that reads it fails by its own name
        text = MINIMAL.replace("window = -2 -2 2 2", "window = -4 -4 4 4") + (
            "[set X_s]\nkind = ball\ncenter = 0 0\nradius = 1.5\n"
            "[barrier]\nkind = user\nexpression = log(x2)\n"
            f"[check nan]\nkind = {kind}\n{keys}")
        out = tmp_path / "out"
        assert main(["check", "--config", str(self._write(tmp_path, text)),
                     "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("error: [check nan] barrier returned non-finite value")
        assert captured.out == "check quick: pass\n"
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == ["quick.check.json"]
        assert manifest["error"] == captured.err[len("error: "):].rstrip("\n")

    def test_library_errors_are_reported_without_traceback(self, tmp_path, capsys):
        counter = str(SCENARIOS / "counterexample.scenario")
        linear = str(SCENARIOS / "linear.scenario")
        sign = self._write(tmp_path, MINIMAL + (
            "\n[barrier]\nkind = user\nexpression = x1^2 + x2^2 - 1\n"
            "[check sign]\nkind = sign\nX_o = X_o\nX_u = X_u\n"))
        negative = tmp_path / "negative.scenario"
        negative.write_text(MINIMAL.replace("seed = 5", "seed = -7"))
        no_window = tmp_path / "no_window.scenario"     # a simulate check, then this one
        no_window.write_text(MINIMAL.replace("window = -2 -2 2 2\n", "") + (
            "[barrier]\nkind = user\nexpression = x1\n[check decrease]\nkind = infinitesimal\n"))
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
            # an empty set is a GeometryError: a disjoint intersection when it is
            # built, a sublevel set with no member on its grid when it is measured
            (["smooth", "--config", str(SCENARIOS / "smooth.scenario"),
              "--set", "set OUTER.center=5 5", "--set", "set ANNULUS.of=OUTER INNER"],
             "intersection is empty (disjoint balls)", []),                  # EmptySetError
            (["check", "--config", linear, "--set", "set ELLIPSE.grid=1"],
             "no member of 'ELLIPSE' found on its 1^n grid",
             ["safety.check.json", "decrease.check.json"]),                  # EmptySetError
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
            # refusals that once ended in a ValueError traceback
            (["check", "--config", linear, "--set", "check safety.X_u=X_o"],
             "X_o 'X_o' and X_u 'X_o' are not sample-disjoint", []),         # GeometryError
            (["check", "--config", linear, "--set", "sampling.interior=0",
              "--set", "sampling.boundary=0"],
             "[sampling] interior = 0 and boundary = 0: no initial points", []),  # GeometryError
            (["simulate", "--config", counter, "--set", "sampling.interior=0",
              "--set", "sampling.boundary=0"],
             "[sampling] interior = 0 and boundary = 0: no initial points", []),  # GeometryError
            (["barrier-eval", "--config", counter, "--set", "barrier.X_o=X_u"],
             "[barrier] X_o must be a closed set, not the complement 'X_u'", []),  # ConfigError
            (["check", "--config", str(no_window)],
             "[check decrease] kind 'infinitesimal' needs a [sampling] window", []),  # ConfigError
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

    @pytest.mark.parametrize("overrides, name, written", [
        ([], "conditional", ["safety", "ellipse_invariance"]),
        (["check ellipse_invariance.K=X_u", "check ellipse_invariance.mode=exterior"],
         "ellipse_invariance", ["safety"]),
    ])
    def test_an_unbounded_set_without_a_window_is_refused_by_its_check(
            self, tmp_path, capsys, overrides, name, written):
        # linear.scenario without its [sampling] window, and without the
        # [check decrease] that needs one: the shell outside the halfspace
        # X_s, or X_u, has no box to draw from; this once ended in a
        # ValueError traceback with no manifest written
        text = (SCENARIOS / "linear.scenario").read_text().replace("window = -4 -4 4 4\n", "")
        start = text.index("[check decrease]")
        config = self._write(tmp_path, text[:start] + text[text.index("[check", start + 1):])
        out = tmp_path / "out"
        argv = ["check", "--config", str(config), "--out", str(out)]
        assert main(argv + [a for o in overrides for a in ("--set", o)]) == 1
        captured = capsys.readouterr()
        message = f"[check {name}] exterior shell sampling needs a bounded K or window"
        assert captured.err == f"error: {message}\n"
        assert captured.out == "".join(f"check {w}: pass\n" for w in written)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["artifacts"] == [f"{w}.check.json" for w in written]
        assert manifest["error"] == message

    @pytest.mark.parametrize("overrides, text", [
        ([], "everywhere"),
        (["check decrease.region=boundary"], "('boundary', 0.001)"),
        (["check decrease.region=boundary", "check decrease.width=0.01"], "('boundary', 0.01)"),
        (["check decrease.region=margin_band"], "('margin_band', None)"),
    ])
    def test_an_infinitesimal_report_names_its_region_and_width(self, tmp_path, overrides,
                                                               text):
        # a boundary without a width is reported with the width infinitesimal
        # gives it; a margin without one is as wide as its values make it
        out = tmp_path / "out"
        main(["check", "--config", str(SCENARIOS / "linear.scenario"), "--out", str(out)]
             + [a for o in overrides for a in ("--set", o)])
        report = json.loads((out / "decrease.check.json").read_text())
        assert report["details"]["region"] == text

    def _closed_form_checks(self, tmp_path, regions):
        """counterexample.scenario with the closed-form barrier and, in place
        of its checks, one smooth infinitesimal check [check NAME] per
        NAME: region of regions."""
        text = (SCENARIOS / "counterexample.scenario").read_text().replace(
            "[barrier]\nkind = marginal\nX_o = X_o\n", "[barrier]\nkind = counterexample\n")
        assert "kind = counterexample" in text
        return self._write(tmp_path, text[:text.index("[check sign]")] + "".join(
            f"[check {name}]\nkind = infinitesimal\nregion = {region}\n"
            for name, region in regions.items()))

    def test_a_margin_band_without_a_width_keeps_a_sample(self, tmp_path):
        # the closed-form barrier's positive values at each t lie within a
        # factor of ten of each other: a band of a tenth of their median
        # kept none, and the check was inconclusive
        out = tmp_path / "out"
        config = self._closed_form_checks(tmp_path, {"mb": "margin_band"})
        main(["check", "--config", str(config), "--out", str(out)])
        report = json.loads((out / "mb.check.json").read_text())
        assert report["details"]["region"] == "('margin_band', None)"
        assert report["samples"] > 0 and report["verdict"] != "inconclusive"

    def test_the_closed_form_barrier_passes_the_smooth_decrease_check(self, tmp_path):
        # its decrease margin dB/dt + <grad B, f> is 0; both quotients are
        # taken at t' = max(t, FD_STEP), so the t = 0 pairs read rounding
        # only (with grad B at t = 0 they read 1.3e-7 and 1.0e-7, above tol)
        out = tmp_path / "out"
        config = self._closed_form_checks(tmp_path, {"all": "everywhere", "mb": "margin_band"})
        assert main(["check", "--config", str(config), "--out", str(out)]) == 0
        for name in ("all", "mb"):
            report = json.loads((out / f"{name}.check.json").read_text())
            assert report["verdict"] == "pass" and report["samples"] > 0
            assert abs(report["worst_margin"]) < 1e-9

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
        assert runs["b"][1].err.startswith("error: [check b] barrier returned non-finite value")
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

    @pytest.mark.parametrize("kind", ["marginal", "converse"])
    @pytest.mark.parametrize("command, section", [("check", "sampling"),
                                                  ("barrier-eval", "barrier-eval")])
    def test_a_negative_time_of_a_marginal_or_converse_barrier_is_refused(
            self, tmp_path, capsys, kind, command, section):
        out = tmp_path / "out"
        assert main([command, "--config", str(SCENARIOS / "counterexample.scenario"),
                     "--set", f"barrier.kind={kind}", "--set", f"{section}.tgrid=-1 1 3",
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == (f"error: [{section}] tgrid reaches t = -1, but a "
                                           f"{kind} barrier is defined for t >= 0 only\n")
        assert not out.exists()

    @pytest.mark.parametrize("barrier_text", ["kind = user\nexpression = x1 - t",
                                              "kind = counterexample"])
    def test_a_closed_form_barrier_takes_a_negative_time(self, tmp_path, barrier_text):
        text = (SCENARIOS / "counterexample.scenario").read_text().replace(
            "kind = marginal\nX_o = X_o", barrier_text)
        overrides = {"sampling.tgrid": "-1 1 3", "barrier-eval.tgrid": "-1 1 3"}
        scn = build_scenario(parse_config(text, overrides))
        assert scn.t_grid.tolist() == scn.commands["barrier-eval"]["tgrid"].tolist() == [-1, 0, 1]
        out = tmp_path / "out"
        assert main(["barrier-eval", "--config", str(self._write(tmp_path, text)),
                     "--set", "barrier-eval.tgrid=-1 1 3", "--out", str(out)]) == 0
        grid = np.loadtxt(out / "barrier_grid.csv", delimiter=",", skiprows=1)
        assert sorted(set(grid[:, 0])) == [-1, 0, 1]

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
        ("smooth", "smooth", "smooth.table_res", "0"),
        ("smooth", "smooth", "smooth.out_n", "0"),
        ("smooth", "smooth", "smooth.grid_n", "0"),
        ("smooth", "smooth", "smooth.grid_n", "-4"),
        ("check", "linear", "set ELLIPSE.grid", "0"),
        ("check", "linear", "set ELLIPSE.grid", "-1"),
        ("reach", "counterexample", "bundle.directions", "0"),
        ("check", "perturbed", "bundle.directions", "-3"),
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

    @pytest.mark.parametrize("dotted, value, message, written", [
        # a mode, region or form of g that the kind does not take: before any output
        ("check decrease.mode", "bogus",
         "[check decrease] mode must be smooth | clarke | proximal, got 'bogus'", []),
        ("check decrease.region", "bogus",
         "[check decrease] region must be everywhere | margin_band | boundary, got 'bogus'", []),
        ("check decrease.g", "bogus", "[check decrease] g must be zero | linear:L | "
         "classK:expr | minimal:expr, got 'bogus'", []),
        ("check ellipse_invariance.mode", "bogus",
         "[check ellipse_invariance] mode must be boundary | exterior, got 'bogus'", []),
        ("check conditional.mode", "bogus",
         "[check conditional] mode must be conditional | strict, got 'bogus'", []),
        ("check conditional.g", "classK:b",
         "[check conditional] g must be zero | linear:L | minimal:expr, got 'classK:b'", []),
        # a g that its relaxation refuses: by the config too, before any output
        ("check decrease.g", "linear:abc",
         "[check decrease] g: could not convert string to float: 'abc'", []),
        ("check decrease.g", "linear:-1", "[check decrease] g: linear relaxation needs L > 0", []),
        ("check decrease.g", "classK:b^2",
         "[check decrease] g: extended class-K function must be strictly increasing", []),
        ("check conditional.g", "minimal:b +", "[check conditional] g: cannot parse 'b +'", []),
    ])
    def test_a_bad_check_choice_or_relaxation_is_refused_by_its_key(
            self, tmp_path, capsys, dotted, value, message, written):
        out = tmp_path / "out"
        assert main(["check", "--config", str(SCENARIOS / "linear.scenario"),
                     "--set", f"{dotted}={value}", "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and len(err.splitlines()) == 1
        if written:
            manifest = json.loads((out / "manifest.json").read_text())
            assert manifest["artifacts"] == written and message in manifest["error"]
        else:
            assert not out.exists()

    @pytest.mark.parametrize("argv, message", [
        # an unknown set, before the checks ahead of the one naming it run
        (["check", "linear", "check conditional.X_s=NOSUCH"],
         "[check conditional] X_s: unknown set 'NOSUCH' (defined: ['ELLIPSE', 'LAMBOX', "
         "'X_o', 'X_s', 'X_u'])"),
        (["reach", "smooth", "set ANNULUS.of=OUTER NOSUCH"],
         "[set ANNULUS] of: unknown set 'NOSUCH'"),
        # a key that the kind of its [barrier], [set NAME] or [system] does not read
        (["barrier-eval", "counterexample", "barrier.expression=x1"],
         "[barrier] key 'expression' is not read by kind 'marginal', which reads X_o"),
        (["barrier-eval", "counterexample", "barrier.kind=converse", "barrier.expression=x1"],
         "[barrier] key 'expression' is not read by kind 'converse', "
         "which reads X_o, s_lo, s_hi, k_max"),
        (["reach", "counterexample", "set START.lo=1 1"],
         "[set START] key 'lo' is not read by kind 'ball', which reads center, radius"),
        (["check", "linear", "system.epsilon=0.5"],
         "[system] key 'epsilon' is not read by kind 'builtin' and inclusion 'singleton', "
         "which reads name"),
        (["check", "linear", "system.rhs=x2; x1"],
         "[system] key 'rhs' is not read by kind 'builtin' and inclusion 'singleton', "
         "which reads name"),
        (["check", "perturbed", "system.member=x2; x1"],
         "[system] key 'member' is not read by kind 'builtin' and inclusion 'ball', "
         "which reads name, epsilon"),
        (["check", "linear", "system.kind=expression", "system.rhs=x2; x1",
          "system.name=linear_safe"],
         "[system] key 'name' is not read by kind 'expression' and inclusion 'singleton', "
         "which reads rhs"),
        (["check", "perturbed", "system.inclusion=hull"],
         "[system] key 'epsilon' is not read by kind 'builtin' and inclusion 'hull', "
         "which reads name, member"),
        # a missing required key or kind, and an unknown kind
        (["check", "counterexample", "barrier.kind=user"],
         "[barrier] key 'X_o' is not read by kind 'user', which reads expression"),
        (["check", "linear", "system.inclusion=nosuch"],
         "[system] unknown system inclusion 'nosuch' (singleton | ball | hull)"),
        (["check", "linear", "barrier.kind=nosuch"],
         "[barrier] unknown barrier kind 'nosuch' (counterexample | user | marginal | converse)"),
        (["reach", "counterexample", "set START.kind=nosuch"],
         "[set START] unknown set kind 'nosuch' (ball | box | halfspace | points | sublevel | "
         "complement | union | intersection)"),
        # a state that is not n numbers, n the [system] dimension, whichever
        # command runs; each once wrote garbage or ended in a traceback
        (["reach", "counterexample", "reach.x0=0.6 0 0"],
         "[reach] x0 must be 'x_1 .. x_n' with n = 2, got 3 numbers"),
        (["reach", "counterexample", "reach.x0=0.6"],
         "[reach] x0 must be 'x_1 .. x_n' with n = 2, got 1 number"),
        (["reach", "perturbed", "reach.x0=0.6 0 0"],
         "[reach] x0 must be 'x_1 .. x_n' with n = 2, got 3 numbers"),
        (["simulate", "counterexample", "set START.center=0 0 0"],
         "[set START] center must be 'x_1 .. x_n' with n = 2, got 3 numbers"),
        (["check", "counterexample", "set START.center=0 0 0"],
         "[set START] center must be 'x_1 .. x_n' with n = 2, got 3 numbers"),
        (["check", "counterexample", "set X_o.point="],
         "[set X_o] point must be 'x_1 .. x_n' with n = 2, got 0 numbers"),
        (["check", "linear", "set LAMBOX.lo=0 0 0"],
         "[set LAMBOX] lo must be 'x_1 .. x_n' with n = 2, got 3 numbers"),
        # and without a [system], sets that cannot be one set
        (["smooth", "smooth", "set INNER.center=0 0 0"],
         "[set OUTER] center must be 'x_1 .. x_n' with n = 3, as [set INNER] center gives, "
         "got 2 numbers"),
        # a user barrier is compiled over that one dimension, whatever its
        # expression reads: x1 + x2 once ignored x3 of a 3-D window
        *((["barrier-eval", "smooth", "barrier.kind=user", f"barrier.expression={e}",
            "barrier-eval.window=-1 -1 -1 1 1 1"],
           "[barrier-eval] window must be 'lo_1 .. lo_n hi_1 .. hi_n' with n = 2, "
           "as [set INNER] center gives, got 6 numbers") for e in ("x1 + x2", "x1 + x2 + x3")),
        # the closed form of the counterexample barrier is the planar system's:
        # it once gave the radial formula of |x| in R^3 at every corner
        (["barrier-eval", "smooth", "set INNER.center=0 0 0", "set OUTER.center=0 0 0",
          "barrier.kind=counterexample", "barrier-eval.window=-1 -1 -1 1 1 1"],
         "[barrier] counterexample is the planar system's barrier: it needs n = 2, got n = 3"),
        # a call with a surplus argument once overwrote a state column, and one
        # with a missing argument ended in a TypeError
        *((["barrier-eval", "linear", f"barrier.expression={e}", "barrier-eval.window=-1 -1 1 1"],
           f"[barrier] {message}") for e, message in (
            ("max(x1, x2, x1)", "max takes 2 arguments, got 3"),
            ("sin(x1, x2)", "sin takes 1 argument, got 2"),
            ("min(x1)", "min takes 2 arguments, got 1"))),
        # an empty annulus range once ended in an IndexError
        (["check", "counterexample", "barrier.kind=converse", "barrier.s_lo=3"],
         "[barrier] s_lo must be at most s_hi, got 3 > 0"),
        (["smooth", "smooth", "set INNER.center="],
         "[set INNER] center must be 'x_1 .. x_n', got 0 numbers"),
        # an input error named by the section it came from
        (["smooth", "smooth", "set ANNULUS.of="],
         "[set ANNULUS] intersection needs at least one member"),
        (["check", "linear", "check safety.X_o=LAMBOX", "check safety.X_u=ELLIPSE"],
         "[check safety] X_o 'LAMBOX' and X_u 'ELLIPSE' are not sample-disjoint: "
         "sample [2.4375, 0.5555555555555554] lies in both"),
        (["barrier-eval", "linear", "barrier.expression=x1 +", "barrier-eval.window=-1 -1 1 1"],
         "[barrier] cannot parse 'x1 +': invalid syntax"),
        (["simulate", "counterexample", "simulate.T=-1"], "[simulate] T must be positive, got -1"),
        (["check", "perturbed", "check perturbed_safety.T=0"],
         "[check perturbed_safety] T must be positive, got 0"),
    ])
    def test_a_section_is_refused_by_its_table_before_any_output(self, tmp_path, capsys,
                                                                  argv, message):
        argv = [argv[0], "--config", str(SCENARIOS / f"{argv[1]}.scenario")] + [
            a for dotted in argv[2:] for a in ("--set", dotted)]
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n" and captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("section, message", [
        ("[set A]\nkind = ball\ncenter = 0 0", "[set A] kind 'ball' needs radius"),
        ("[set A]\nkind = ball\nradius = 1", "[set A] kind 'ball' needs center"),
        ("[set A]\nkind = halfspace\nnormal = 0 1", "[set A] kind 'halfspace' needs offset"),
        ("[set A]\nkind = sublevel\nfn = x1", "[set A] kind 'sublevel' needs window"),
        ("[set A]\nkind = complement\nof = X_o X_u", "[set A] complement takes exactly one set"),
        ("[barrier]\nkind = user", "[barrier] kind 'user' needs expression"),
        ("[barrier]\nkind = marginal", "[barrier] kind 'marginal' needs X_o"),
        ("[barrier]\nexpression = x1", "[barrier] needs kind"),
        ("[check c]\nkind = nagumo", "[check c] kind 'nagumo' needs K"),
        ("", "[check quick] kind 'simulate' needs a [system]"),
        ("[system]\nkind = expression",
         "[system] kind 'expression' and inclusion 'singleton' needs rhs"),
    ])
    def test_a_missing_required_key_is_refused_before_any_output(self, tmp_path, capsys,
                                                                 section, message):
        # the section added to MINIMAL, or in place of its [system] ("": no [system])
        system = "[system]\nkind = builtin\nname = linear_safe\ninclusion = singleton\n"
        replaces = section == "" or section.startswith("[system]")
        text = MINIMAL.replace(system, section + "\n") if replaces else MINIMAL + section + "\n"
        out = tmp_path / "out"
        assert main(["check", "--config", str(self._write(tmp_path, text)),
                     "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("command, scenario, dotted, value", [
        ("simulate", "counterexample", "sampling.interior", "-3"),
        ("simulate", "counterexample", "sampling.boundary", "-5"),
        ("check", "perturbed", "bundle.switches", "-2"),
    ])
    def test_a_negative_size_is_refused_by_its_key(self, tmp_path, capsys, command,
                                                   scenario, dotted, value):
        # 0 is a size (no interior samples, no switches); a negative one is refused
        config = SCENARIOS / f"{scenario}.scenario"
        build_scenario(parse_config(config.read_text(), {dotted: "0"}))
        out = tmp_path / "out"
        assert main([command, "--config", str(config), "--set", f"{dotted}={value}",
                     "--out", str(out)]) == 1
        section, key = dotted.rsplit(".", 1)
        captured = capsys.readouterr()
        assert captured.err == f"error: [{section}] {key} must be at least 0, got {value}\n"
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
         "[set ANNULUS] window must be 'lo_1 .. lo_n hi_1 .. hi_n' with n = 2, "
         "as [set INNER] center gives, got 3 numbers"),
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

    @pytest.mark.parametrize("head, key, typ", STATE_KEYS,
                             ids=[f"{head}.{key}" for head, key, _ in STATE_KEYS])
    def test_a_state_one_number_too_long_is_refused_by_its_key(self, tmp_path, capsys,
                                                               head, key, typ):
        # drawn from the schema, so a key typed point or window later is
        # covered at once: given in MINIMAL's section of that head, or in one
        # appended, it is refused before the section is resolved
        section = f"{head} EXTRA" if head in ("set", "check") else head
        count = 3 if typ == "point" else 5
        out = tmp_path / "out"
        assert main(["check", "--config", str(self._write(tmp_path)),
                     "--set", f"{section}.{key}={' '.join(['0.5'] * count)}",
                     "--out", str(out)]) == 1
        form = "x_1 .. x_n" if typ == "point" else "lo_1 .. lo_n hi_1 .. hi_n"
        captured = capsys.readouterr()
        assert captured.err == (f"error: [{section}] {key} must be '{form}' with n = 2, "
                                f"got {count} numbers\n")
        assert captured.out == "" and not out.exists()

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


    def test_a_json_file_that_is_not_an_object_is_skipped(self, tmp_path):
        (tmp_path / "list.json").write_text("[1, 2]")
        self._fake_reports(tmp_path, ["pass"])
        assert main(["report", "--results", str(tmp_path)]) == 0
        summary = json.loads((tmp_path / "summary.json").read_text())
        assert [e["file"] for e in summary["checks"]] == ["c0.check.json"]

    @pytest.mark.parametrize("verdict", [["pass"], "error"], ids=["list", "unknown"])
    def test_a_verdict_it_does_not_know_is_refused(self, tmp_path, capsys, verdict):
        # a non-string verdict once ended in a traceback, an unknown one in PASS
        self._fake_reports(tmp_path, [verdict])
        assert main(["report", "--results", str(tmp_path), "--out", str(tmp_path / "o")]) == 1
        captured = capsys.readouterr()
        assert captured.err == (f"error: {tmp_path / 'c0.check.json'} holds verdict {verdict!r}, "
                                "not one of pass | fail | inconclusive | no_violation_found | "
                                "violation\n")
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

    def test_run_freezes_the_heap_and_enables_the_collector_before_main(self, monkeypatch):
        # as after `python -m safereach.cli` has loaded: the collector paused
        seen = []
        monkeypatch.setattr(cli, "main", lambda: seen.append(
            (gc.get_freeze_count(), gc.isenabled())) or 2)
        assert gc.get_freeze_count() == 0
        gc.disable()
        try:
            assert cli.run() == 2
            after = gc.get_freeze_count()
        finally:
            gc.unfreeze()
            gc.enable()
        [(frozen, enabled)] = seen
        assert frozen > 0 and enabled and after >= frozen

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

    def test_the_module_entry_loads_with_the_collector_paused(self, tmp_path):
        # `python -m safereach.cli`: no collection runs from the start of
        # cli.py's body to main, and main runs on a frozen heap with the
        # collector on; a plain import of the module leaves the collector on
        (tmp_path / "c.check.json").write_text(json.dumps({"check": "c", "verdict": "pass"}))
        script = f"""
import gc, os, runpy, sys
CLI = os.path.join("safereach", "cli.py")
early, entered = [], []

def on_gc(phase, info):
    f, body = sys._getframe(), False
    while f is not None:
        body = body or (f.f_code.co_filename.endswith(CLI) and f.f_code.co_name == "<module>")
        f = f.f_back
    if phase == "start" and body and not entered:
        early.append(info["generation"])

def on_call(frame, event, arg):
    if event == "call" and frame.f_code.co_name == "main" and \
            frame.f_code.co_filename.endswith(CLI):
        entered.append((gc.isenabled(), gc.get_freeze_count() > 0))

gc.callbacks.append(on_gc)
sys.setprofile(on_call)
sys.argv = ["safereach", "report", "--results", {str(tmp_path)!r}]
try:
    runpy.run_module("safereach.cli", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    status = exc.code
sys.setprofile(None)
gc.callbacks.remove(on_gc)
assert status == 0, status
assert early == [], f"{{len(early)}} collections while cli.py loaded"
assert entered == [(True, True)], entered
"""
        run = self._run("-c", script)
        assert run.returncode == 0, run.stderr
        assert run.stdout.startswith("ROLLUP: PASS")
        run = self._run("-c", "import gc, safereach.cli; assert gc.isenabled()")
        assert run.returncode == 0, run.stderr

    def test_commands_load_only_their_modules(self, tmp_path):
        counter = str(SCENARIOS / "counterexample.scenario")
        script = f"""
import importlib, sys
import safereach.cli as cli
lazy = {{"safereach." + m for m in ("barrier", "verify", "smoothing", "reachability",
                                     "infinitesimal")}}
assert not lazy & sys.modules.keys(), sorted(lazy & sys.modules.keys())
assert cli.main(["simulate", "--config", {counter!r},
                 "--set", "simulate.T=0.05", "--out", {str(tmp_path / "out")!r}]) == 0
assert not lazy & sys.modules.keys(), sorted(lazy & sys.modules.keys())
assert cli.main(["barrier-eval", "--config", {counter!r}, "--set", "barrier-eval.tgrid=0 0.5 2",
                 "--set", "barrier-eval.nx=5", "--out", {str(tmp_path / "eval")!r}]) == 0
lazy.discard("safereach.barrier")
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
         ["check perturbed_safety: pass"], ["safereach.barrier", "safereach.infinitesimal"]),
        # np.unique without a return_* flag would load numpy.ma
        (["--config", str(SCENARIOS / "counterexample.scenario"),
          "--set", "sampling.tgrid=0 1 3", "--set", "check monotone.T=0.25"],
         ["check sign: pass", "check monotone: pass"],
         ["safereach.verify", "safereach.infinitesimal", "numpy.ma"]),
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

    @pytest.mark.parametrize("name, loads", [
        ("safety", "False True"), ("decrease", "True False"),
        ("ellipse_invariance", "True False"), ("conditional", "True False"),
        ("filippov", "False False")])
    def test_only_the_checks_of_infinitesimal_conditions_load_them(self, tmp_path, name, loads):
        # linear.scenario with its one [check name] section: infinitesimal,
        # nagumo and prop1 checks load safereach.infinitesimal, no other kind
        # does, and only the simulate check loads safereach.verify
        head, *checks = (SCENARIOS / "linear.scenario").read_text().split("\n[check ")
        [section] = [c for c in checks if c.startswith(name + "]")]
        config = tmp_path / "one.scenario"
        config.write_text(f"{head}\n[check {section}")
        script = f"""
import sys
import safereach.cli as cli
assert cli.main(["check", "--config", {str(config)!r}, "--out", {str(tmp_path / "out")!r}]) == 0
print("safereach.infinitesimal" in sys.modules, "safereach.verify" in sys.modules)
"""
        run = self._run("-c", script)
        assert run.returncode == 0, run.stderr
        assert run.stdout.splitlines() == [f"check {name}: pass", loads]

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
