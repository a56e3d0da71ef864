"""Tests of the benchmark itself: exact span counts on tiny inputs, the
correctness gate, and the agreement of ``BENCHMARK.json`` with
``bench/metrics.json``.

    PYTHONPATH=src python3 -m pytest -q bench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import safereach.barrier as barrier                      # noqa: E402
import safereach.geometry as geometry                    # noqa: E402
import safereach.solver as solver                        # noqa: E402
import safereach.verify as verify                        # noqa: E402
from safereach.dynamics import InclusionSpec, Selector, builtin_field  # noqa: E402
from safereach.expr import compile_expression            # noqa: E402
from safereach.geometry import SetSpec                   # noqa: E402
from spans import Tracer, layer_metrics                  # noqa: E402
from workloads import (WORKLOADS, Workload, check_operation, compare_reference,  # noqa: E402
                       ellipse_distance)

H = 1.0 / 64.0


def _traced(fn):
    with Tracer() as tracer:
        result = fn()
    return result, layer_metrics(tracer.arrays())


def test_integrate_one_row_makes_four_rhs_calls_per_step():
    F = InclusionSpec.singleton(builtin_field("linear_safe"))
    n = 10
    cfg = solver.IntegratorConfig(step=H)
    traj, m = _traced(lambda: solver.integrate(F, Selector.constant(index=0),
                                               [1.0, 0.5], n * H, cfg=cfg))
    assert len(traj.times) == n + 1
    assert m["dynamics.rhs_calls"] == 4 * n
    assert m["dynamics.rows_per_call"] == 1
    assert m["solver.integrate_calls"] == 1
    assert m["dynamics.rhs_us.rows_1"] > 0 and m["dynamics.rhs_us.rows_2-32"] == 0


@pytest.mark.parametrize("k,boundary,interior", [(3, 4, 2), (5, 8, 0)])
def test_simulation_sweep_makes_four_rhs_calls_per_step_and_selector(k, boundary, interior):
    F = InclusionSpec.ball_perturbed(builtin_field("linear_safe"), 0.1)
    n = 8
    p = verify.SafetyProblem(F, SetSpec.ball([0.0, 0.0], 1.0), SetSpec.halfspace([0.0, 1.0], 2.0),
                             n * H, solver.IntegratorConfig(step=H),
                             verify.SamplePlan(boundary, interior, 3),
                             verify.BundlePlanV(directions=k))
    rep, m = _traced(lambda: verify.simulate_safety_check(p))
    starts = boundary + interior
    assert rep.passed
    assert m["dynamics.rhs_calls"] == 4 * k * n
    assert m["dynamics.rows_per_call"] == starts
    assert m["verify.trajectories"] == k * starts
    assert m["geometry.dist_calls.halfspace"] > 0
    assert m["geometry.dist_calls.ball"] == 0
    assert m["geometry.estimated_share"] == 0.0


def test_distance_counts_land_in_their_kind():
    ball = SetSpec.ball([0.0, 0.0], 1.0)
    box = SetSpec.box([0.0, 0.0], [1.0, 1.0])
    fn = compile_expression("x1^2 + x2^2 - 1", ("x1", "x2"))
    disk = SetSpec.sublevel(fn, 0.0, 2, ([-2.0, -2.0], [2.0, 2.0]), grid=9)
    X = np.array([[2.0, 0.0], [0.0, 3.0], [0.5, 0.5], [1.5, 1.5], [-2.0, 0.0]])

    def queries():
        geometry.distance_to_set_many(X, ball)
        geometry.distance_to_set([2.0, 2.0], box)
        geometry.distance_to_set_many(X[:2], disk)
        geometry.distance_to_set_many(X, SetSpec.union([ball, box]))

    _, m = _traced(queries)
    assert (m["geometry.dist_calls.ball"], m["geometry.dist_points.ball"]) == (1, 5)
    assert (m["geometry.dist_calls.box"], m["geometry.dist_points.box"]) == (1, 1)
    assert (m["geometry.dist_calls.sublevel"], m["geometry.dist_points.sublevel"]) == (1, 2)
    assert (m["geometry.dist_calls.union"], m["geometry.dist_points.union"]) == (1, 5)
    assert m["geometry.dist_calls.points"] == 0
    assert 0.0 < m["geometry.estimated_share"] <= 1.0


def test_consumer_namespaces_are_traced_and_restored():
    originals = (barrier.distance_to_set_many, solver.integrate,
                 barrier.BarrierFn.__dict__["evaluate_many"])
    F = InclusionSpec.singleton(builtin_field("linear_safe"))
    B = barrier.marginal_barrier(F, SetSpec.points([[0.0, 0.0]]), solver.IntegratorConfig(step=H),
                                 directions=1)
    pts = np.array([[0.5, 0.0], [0.0, 0.5], [0.3, 0.3]])
    _, m = _traced(lambda: B.evaluate_many(np.full(3, 2 * H), pts))
    assert m["barrier.eval_calls"] == 1 and m["barrier.points_per_call"] == 3
    # B(0, x) plus one query per step of the backward running minimum
    assert m["geometry.dist_calls.points"] == 3
    assert m["dynamics.rhs_calls"] == 2 * 4 and m["dynamics.rows_per_call"] == 3
    assert (barrier.distance_to_set_many, solver.integrate,
            barrier.BarrierFn.__dict__["evaluate_many"]) == originals


def test_self_time_excludes_children():
    spans = {"names": np.array(["cli.command", "dynamics.rhs"]),
             "name_id": np.array([0, 1, 1], dtype=np.int32),
             "parent": np.array([-1, 0, 0], dtype=np.int32),
             "start": np.array([0.0, 1.0, 3.0]), "end": np.array([10.0, 2.0, 5.0]),
             "size": np.array([0, 4, 4])}
    m = layer_metrics(spans)
    assert m["cli.self_s"] == pytest.approx(7.0)
    assert m["dynamics.rhs_self_s"] == pytest.approx(3.0)
    assert m["dynamics.rhs_us.rows_2-32"] == pytest.approx(1.5e6)


def _sweep_output(tmp_path: Path, verdict: str, trajectories: int) -> Path:
    out = tmp_path / "out"
    out.mkdir(parents=True)
    (out / "manifest.json").write_text(json.dumps({"artifacts": ["perturbed_safety.check.json"]}))
    (out / "perturbed_safety.check.json").write_text(json.dumps({
        "verdict": verdict, "coverage": {"trajectories": trajectories},
        "escapes": 0, "margin": 0.9995122853432936}))
    return out


def test_gate_accepts_a_right_sweep_and_rejects_a_wrong_verdict(tmp_path):
    w = WORKLOADS["bundle-sweep"]
    good = _sweep_output(tmp_path / "a", "no_violation_found", 1536)
    assert check_operation(w, good, 0, "check perturbed_safety: pass\n", 1, {}) == []
    bad = _sweep_output(tmp_path / "b", "violation", 1536)
    assert check_operation(w, bad, 2, "check perturbed_safety: fail\n", 1, {})
    short = _sweep_output(tmp_path / "c", "no_violation_found", 1535)
    assert check_operation(w, short, 0, "check perturbed_safety: pass\n", 1, {})
    assert check_operation(w, tmp_path / "missing", 0, "", 1, {})


def test_reference_values_apply_at_the_reference_seed_only(tmp_path):
    w = WORKLOADS["bundle-sweep"]
    out = _sweep_output(tmp_path / "a", "no_violation_found", 1536)
    ref = {"bundle-sweep": {"seed": 13, "values": {"margin": 0.5}}}
    stdout = "check perturbed_safety: pass\n"
    assert check_operation(w, out, 0, stdout, 1, ref) == []
    assert check_operation(w, out, 0, stdout, 13, ref)
    assert compare_reference({"v": [1.0, 2.0]}, {"v": [1.0, 2.0 + 1e-12]}) == []
    assert compare_reference({"v": [1.0, 2.0]}, {"v": None})


def test_ellipse_distance_closed_form():
    d = ellipse_distance(np.array([[4.0, 0.0], [0.0, 2.0], [1.0, 0.5], [-5.0, 0.0]]))
    assert d == pytest.approx([4.0 - np.sqrt(10.0), 1.0, 0.0, 5.0 - np.sqrt(10.0)], abs=1e-12)


def test_wrong_output_counts_as_failed_operation(tmp_path):
    import run

    def argv(seed, out):
        return ["reach", "--config", "scenarios/counterexample.scenario",
                "--set", "reach.t=-0.05", "--seed", str(seed), "--out", str(out)]

    def gate(out, stdout):
        return ["verdict is not what the reference says"], {}

    wrong = Workload("bundle-sweep", 11, 1, argv, gate)
    work = tmp_path / "work"
    work.mkdir()
    result = run.measure(wrong, 1, 0.0, False, work, run.metric_units(False))
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] - run.SETUP_REPEATS > 0


def test_benchmark_json_matches_metric_definitions():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((BENCH / "metrics.json").read_text())
    assert [w["name"] for w in bench["workloads"]] == list(WORKLOADS)
    for section in ("end_to_end", "per_layer"):
        assert [m["name"] for m in bench[section]] == list(spec[section])
        for m in bench[section]:
            assert m["unit"] == spec[section][m["name"]]["unit"]
            assert m["better"] == spec[section][m["name"]]["better"]
    assert {m["name"] for m in bench["end_to_end"]} >= {"setup_s", "wall_s"}


def test_benchmark_refuses_a_tree_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    res = subprocess.run([sys.executable, "bench/run.py", "--workload", "bundle-sweep",
                          "--seed", "1", "--seconds", "1", "--trace", "0"],
                         cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""
