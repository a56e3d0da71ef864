"""The benchmark's workloads: how each one drives the CLI, how much work one
run does, and the correctness gate on its outputs.

Every workload runs the shipped CLI once per operation.  The horizons and
grids are shortened from the shipped scenarios so that one operation takes a
few seconds, but each workload keeps the layer split it was chosen for (see
``BENCHMARK.json`` and ``bench/metrics.json``).

A gate returns the list of problems it found; an empty list means the
operation succeeded.  Gates never raise on bad output: a missing file or a
malformed value is one more problem.  Invariants hold for every seed;
reference values, in ``bench/reference.json``, are compared only when the
operation ran at the workload's reference seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent

# bundle-sweep: 96 starts x 16 constant ball selectors, h = 1/256
SWEEP_T = 5
SWEEP_TRAJECTORIES = 96 * 16
# marginal-check: sign check on a 7-point t-grid up to t = 1.5 over 48 X_o and
# 64 X_u samples; monotonicity on 8 trajectories of T = 0.5 sampled every 64 nodes
MARGINAL_TGRID = "0 1.5 7"
MARGINAL_SIGN_SAMPLES = 7 * (48 + 64)
MARGINAL_MONO_T = 0.5
MARGINAL_MONO_SAMPLES = int(MARGINAL_MONO_T * 512) // 64 + 1
MARGINAL_EVALS = MARGINAL_SIGN_SAMPLES + 8 * MARGINAL_MONO_SAMPLES
# estimated-sets: the 6 x 6 grid at t in {0, 0.25} with h = 1/32 that
# bench/estimated.scenario sets
ELLIPSE_AXES = (np.sqrt(10.0), 1.0)          # x1^2/10 + x2^2 <= 1
ESTIMATE_WINDOW = np.array([-3.6, -1.8, 3.6, 1.8])
ESTIMATE_JITTER = 0.05
ESTIMATE_EVALS = 6 * 6 * 2
# The sublevel distance is an upper estimate realized by a member point: it
# may not fall below the true distance (up to the bisection's membership
# tolerance) and its tangential polish stops within this much above it.
ESTIMATE_FLOOR_TOL = 1e-9
ESTIMATE_CEIL_TOL = 0.1
# trajectory-export: 48 starts, one 1-row trajectory each, h = 1/512
EXPORT_T = 0.5
EXPORT_STARTS = 48
EXPORT_ROWS = int(EXPORT_T * 512) + 1
REFERENCE_TOL = 1e-9


@dataclass(frozen=True)
class Workload:
    name: str
    reference_seed: int
    work: int                        # work units per operation (see metrics.json)
    argv: Callable[[int, Path], list]
    gate: Callable[[Path, str], tuple]   # (out, stdout) -> (problems, values)


def _read_json(path: Path, problems: list):
    try:
        return json.loads(path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def _manifest(out: Path, problems: list) -> list:
    data = _read_json(out / "manifest.json", problems)
    return list(data.get("artifacts", [])) if isinstance(data, dict) else []


def _expect(problems: list, ok: bool, message: str) -> None:
    if not ok:
        problems.append(message)


# ---------------------------------------------------------------------------
# bundle-sweep
# ---------------------------------------------------------------------------

def _sweep_argv(seed: int, out: Path) -> list:
    return ["check", "--config", "scenarios/perturbed.scenario",
            "--set", f"check perturbed_safety.T={SWEEP_T}",
            "--seed", str(seed), "--out", str(out)]


def _sweep_gate(out: Path, stdout: str):
    problems: list = []
    _expect(problems, "check perturbed_safety: pass" in stdout, "sweep verdict is not pass")
    _expect(problems, _manifest(out, problems) == ["perturbed_safety.check.json"],
            "manifest does not list exactly the sweep report")
    rep = _read_json(out / "perturbed_safety.check.json", problems)
    values = {}
    if isinstance(rep, dict):
        _expect(problems, rep.get("verdict") == "no_violation_found",
                f"sweep verdict {rep.get('verdict')!r}")
        _expect(problems, rep.get("coverage", {}).get("trajectories") == SWEEP_TRAJECTORIES,
                f"sweep covered {rep.get('coverage', {}).get('trajectories')} trajectories")
        _expect(problems, rep.get("escapes") == 0, "sweep reports escapes")
        values["margin"] = rep.get("margin")
    return problems, values


# ---------------------------------------------------------------------------
# marginal-check
# ---------------------------------------------------------------------------

def _marginal_argv(seed: int, out: Path) -> list:
    return ["check", "--config", "scenarios/counterexample.scenario",
            "--set", f"sampling.tgrid={MARGINAL_TGRID}",
            "--set", f"check monotone.T={MARGINAL_MONO_T}",
            "--seed", str(seed), "--out", str(out)]


def _marginal_gate(out: Path, stdout: str):
    problems: list = []
    for name in ("sign", "monotone"):
        _expect(problems, f"check {name}: pass" in stdout, f"{name} verdict is not pass")
    _expect(problems, sorted(_manifest(out, problems))
            == ["monotone.check.json", "sign.check.json"],
            "manifest does not list exactly the two check reports")
    values = {}
    sign = _read_json(out / "sign.check.json", problems)
    if isinstance(sign, dict):
        _expect(problems, sign.get("verdict") == "pass", f"sign verdict {sign.get('verdict')!r}")
        _expect(problems, sign.get("samples") == MARGINAL_SIGN_SAMPLES,
                f"sign check evaluated {sign.get('samples')} points")
        values["sign_margin"] = sign.get("worst_margin")
        values["min_on_X_u"] = sign.get("details", {}).get("min_on_X_u")
    mono = _read_json(out / "monotone.check.json", problems)
    if isinstance(mono, dict):
        _expect(problems, mono.get("verdict") == "pass",
                f"monotone verdict {mono.get('verdict')!r}")
        _expect(problems, mono.get("samples") == MARGINAL_MONO_SAMPLES,
                f"monotonicity check evaluated {mono.get('samples')} points")
        values["monotone_margin"] = mono.get("worst_margin")
    return problems, values


# ---------------------------------------------------------------------------
# estimated-sets
# ---------------------------------------------------------------------------

def estimate_window(seed: int) -> np.ndarray:
    """Evaluation window for ``seed``: the base window with each bound moved
    by at most ESTIMATE_JITTER, too little to move a grid point across the
    ellipse boundary."""
    rng = np.random.default_rng(seed)
    return ESTIMATE_WINDOW + rng.uniform(-ESTIMATE_JITTER, ESTIMATE_JITTER, 4)


def _estimate_argv(seed: int, out: Path) -> list:
    window = " ".join(repr(float(v)) for v in estimate_window(seed))
    return ["barrier-eval", "--config", str(BENCH_DIR / "estimated.scenario"),
            "--set", f"barrier-eval.window={window}",
            "--seed", str(seed), "--out", str(out)]


def ellipse_distance(X: np.ndarray, axes=ELLIPSE_AXES) -> np.ndarray:
    """Euclidean distance from each row of X to the filled ellipse
    x1^2/a^2 + x2^2/b^2 <= 1: a dense sweep of the closed-form boundary
    a cos(th), b sin(th), refined by Newton steps on the angle."""
    a, b = axes
    X = np.atleast_2d(np.asarray(X, dtype=float))
    th = np.linspace(0.0, 2.0 * np.pi, 65536, endpoint=False)
    cx, cy = a * np.cos(th), b * np.sin(th)
    d2 = (cx[None, :] - X[:, :1]) ** 2 + (cy[None, :] - X[:, 1:]) ** 2
    t = th[np.argmin(d2, axis=1)]
    best = d2.min(axis=1)
    x1, x2 = X[:, 0], X[:, 1]
    for _ in range(8):
        c, s = np.cos(t), np.sin(t)
        g = -(a * c - x1) * a * s + (b * s - x2) * b * c
        dg = a * a * s * s - (a * c - x1) * a * c + b * b * c * c - (b * s - x2) * b * s
        with np.errstate(divide="ignore", invalid="ignore"):
            t = t - g / dg
        # fmin ignores a step that went non-finite
        best = np.fmin(best, (a * np.cos(t) - x1) ** 2 + (b * np.sin(t) - x2) ** 2)
    inside = (x1 / a) ** 2 + (x2 / b) ** 2 <= 1.0
    return np.where(inside, 0.0, np.sqrt(best))


def _estimate_gate(out: Path, stdout: str):
    problems: list = []
    _expect(problems, _manifest(out, problems) == ["barrier_grid.csv"],
            "manifest does not list exactly the barrier grid")
    try:
        data = np.loadtxt(out / "barrier_grid.csv", delimiter=",", skiprows=1, ndmin=2)
    except (OSError, ValueError) as exc:
        return problems + [f"barrier_grid.csv: {exc}"], {}
    if data.shape != (ESTIMATE_EVALS, 4):
        return problems + [f"barrier grid has shape {data.shape}"], {}
    t, X, B = data[:, 0], data[:, 1:3], data[:, 3]
    at0 = t == 0.0
    d = ellipse_distance(X[at0])
    _expect(problems, bool(np.all(B[at0] >= d - ESTIMATE_FLOOR_TOL)),
            f"B(0, x) below the closed-form distance by {float(np.max(d - B[at0])):.3g}")
    _expect(problems, bool(np.all(B[at0] <= d + ESTIMATE_CEIL_TOL)),
            f"B(0, x) above the closed-form distance by {float(np.max(B[at0] - d)):.3g}")
    same_grid = np.array_equal(X[~at0], X[at0])
    _expect(problems, same_grid, "grid points differ between times")
    if same_grid:
        _expect(problems, bool(np.all(B[~at0] <= B[at0])), "B(t, x) increases in t")
    _expect(problems, bool(np.all(B >= 0.0)), "negative barrier value")
    return problems, {"sum_B": float(B.sum()), "max_B": float(B.max())}


# ---------------------------------------------------------------------------
# trajectory-export
# ---------------------------------------------------------------------------

def _export_argv(seed: int, out: Path) -> list:
    return ["simulate", "--config", "scenarios/counterexample.scenario",
            "--set", f"simulate.T={EXPORT_T}",
            "--seed", str(seed), "--out", str(out)]


def _export_gate(out: Path, stdout: str):
    problems: list = []
    artifacts = _manifest(out, problems)
    expected = [f"traj_{i:03d}_00.csv" for i in range(EXPORT_STARTS)]
    _expect(problems, artifacts == expected,
            f"manifest lists {len(artifacts)} artifacts, expected {EXPORT_STARTS}")
    ends = []
    for name in expected:
        try:
            data = np.loadtxt(out / name, delimiter=",", skiprows=1, ndmin=2)
        except (OSError, ValueError) as exc:
            problems.append(f"{name}: {exc}")
            continue
        if data.shape != (EXPORT_ROWS, 3) or data[0, 0] != 0.0 \
                or abs(data[-1, 0] - EXPORT_T) > 1e-12:
            problems.append(f"{name}: shape {data.shape}, times not 0 to {EXPORT_T}")
            continue
        ends.append(data[-1, 1:])
    values = {}
    if len(ends) == EXPORT_STARTS:
        ends = np.asarray(ends)
        values = {"endpoint_sum": ends.sum(axis=0).tolist(), "traj_000_end": ends[0].tolist(),
                  "traj_047_end": ends[-1].tolist()}
    return problems, values


WORKLOADS = {w.name: w for w in (
    Workload("bundle-sweep", 13, SWEEP_TRAJECTORIES, _sweep_argv, _sweep_gate),
    Workload("marginal-check", 11, MARGINAL_EVALS, _marginal_argv, _marginal_gate),
    Workload("estimated-sets", 7, ESTIMATE_EVALS, _estimate_argv, _estimate_gate),
    Workload("trajectory-export", 11, EXPORT_STARTS, _export_argv, _export_gate),
)}


def load_reference() -> dict:
    return json.loads((BENCH_DIR / "reference.json").read_text())


def compare_reference(expected: dict, observed: dict, tol: float = REFERENCE_TOL) -> list:
    """Problems for each reference value that ``observed`` misses by more than tol."""
    problems = []
    for key, want in expected.items():
        got = observed.get(key)
        try:
            ok = got is not None and np.allclose(np.asarray(got, dtype=float),
                                                 np.asarray(want, dtype=float),
                                                 rtol=0.0, atol=tol)
        except (TypeError, ValueError):
            ok = False
        if not ok:
            problems.append(f"reference {key}: expected {want}, got {got}")
    return problems


def check_operation(workload: Workload, out: Path, status: int, stdout: str,
                    seed: int, reference: dict) -> list:
    """Every problem with one finished operation, reference values included."""
    problems = [] if status == 0 else [f"exit status {status}"]
    gate_problems, values = workload.gate(out, stdout)
    problems += gate_problems
    ref = reference.get(workload.name)
    if ref is not None and seed == ref["seed"]:
        problems += compare_reference(ref["values"], values)
    return problems
