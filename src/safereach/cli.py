"""Config-driven command line: simulate | reach | barrier-eval | check |
smooth | report.

Exit status: 0 when every requested check passes, 2 when any check fails,
1 on usage or configuration errors.  ``report`` exits 0 on a PASS or
INCONCLUSIVE rollup, 2 on FAIL, and 1 when the results directory is missing
or holds no check report.  Every run writes a manifest listing the emitted
artifacts together with the config hash, so reruns are auditable; a run that
fails after its first artifact records the error in it.
"""

from __future__ import annotations

import argparse
import functools
import gc
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import __version__
from .config import ConfigError, RawConfig, Scenario, build_scenario, load_config, time_grid
from .dynamics import DynamicsError, lipschitz_estimate
from .expr import ExpressionError, compile_expression
from .geometry import GeometryError, SetSpec
from .sampling import Stream, grid_points
from .solver import SolverError, solution_bundle, write_csv

# each command imports the library modules it runs, so a run loads only its own
if TYPE_CHECKING:
    from .barrier import BarrierFn, RelaxFn


class CliError(Exception):
    pass


class Manifest:
    """Artifact list of one run; the output directory appears with the first file."""

    def __init__(self, command: str, cfg: RawConfig, out: Path):
        self.data = {"tool_version": __version__, "config_hash": cfg.hash(),
                     "command": command, "wall_time_s": None, "artifacts": []}
        self.out = out
        self.t0 = time.perf_counter()

    def add(self, path: Path) -> Path:
        self.out.mkdir(parents=True, exist_ok=True)
        self.data["artifacts"].append(str(path.relative_to(self.out)))
        return path

    def write(self) -> None:
        self.data["wall_time_s"] = round(time.perf_counter() - self.t0, 3)
        self.out.mkdir(parents=True, exist_ok=True)
        path = self.out / "manifest.json"
        path.write_text(json.dumps(self.data, indent=2, sort_keys=True))


def _require(value, message: str):
    if value is None:
        raise CliError(message)
    return value


def _get_set(scn: Scenario, name: str) -> SetSpec:
    if name not in scn.sets:
        raise CliError(f"unknown set '{name}' (defined: {sorted(scn.sets)})")
    return scn.sets[name]


def _build_barrier(scn: Scenario) -> BarrierFn:
    from .barrier import counterexample_barrier_fn, marginal_barrier, user_barrier

    cfg = scn.raw
    kind = _require(cfg.get("barrier", "kind"), "config needs a [barrier] section with kind")
    band = cfg.get("barrier", "band", 0.1)
    if kind == "counterexample":
        return counterexample_barrier_fn(band_width=band)
    if kind == "user":
        expr = _require(cfg.get("barrier", "expression"), "[barrier] user needs expression")
        dim = scn.system.dim if scn.system else 2
        return user_barrier(expr, dim, band_width=band)
    if kind == "marginal":
        X_o = _get_set(scn, _require(cfg.get("barrier", "X_o"), "[barrier] marginal needs X_o"))
        _require(scn.system, "[barrier] marginal needs a [system]")
        return marginal_barrier(scn.system, X_o, scn.solver, scn.bundle.directions,
                                scn.bundle.switches, scn.bundle.seed, band)
    if kind == "converse":
        X_o = _get_set(scn, _require(cfg.get("barrier", "X_o"), "[barrier] converse needs X_o"))
        _require(scn.system, "[barrier] converse needs a [system]")
        if scn.system.kind != "singleton":
            raise CliError("[barrier] converse needs a single-valued system")
        from .smoothing import ConverseResolution, converse_smooth_barrier

        res = ConverseResolution(
            s_range=tuple(range(cfg.get("barrier", "s_lo", -8),
                                cfg.get("barrier", "s_hi", 0) + 1)),
            k_max=cfg.get("barrier", "k_max", 6))
        return converse_smooth_barrier(scn.system.base_field, X_o, scn.solver, res)
    raise CliError(f"unknown barrier kind '{kind}'")


def _parse_relax(text: str) -> RelaxFn:
    from .barrier import RelaxFn

    if text in (None, "zero"):
        return RelaxFn.zero()
    if text.startswith("linear:"):
        return RelaxFn.linear(float(text.split(":", 1)[1]))
    if text.startswith("classK:"):
        return RelaxFn.extended_classK(text.split(":", 1)[1])
    if text.startswith("minimal:"):
        return RelaxFn.minimal(text.split(":", 1)[1])
    raise CliError(f"unknown relaxation '{text}' (zero | linear:L | classK:expr | minimal:expr)")


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(scn: Scenario, args, manifest: Manifest) -> int:
    cfg = scn.raw
    _require(scn.system, "simulate needs a [system]")
    X_o = _get_set(scn, _require(cfg.get("simulate", "X_o"), "[simulate] needs X_o"))
    T = cfg.get("simulate", "T", 1.0)
    try:
        starts = scn.samples.draw(X_o)
    except ValueError as exc:
        raise CliError(f"[simulate] {exc}") from None
    bundles = solution_bundle(scn.system, starts, T, cfg=scn.solver, plan=scn.bundle)
    for i, trajs in enumerate(bundles):
        for tr in trajs:
            tr.to_csv(manifest.add(manifest.out / f"traj_{i:03d}_{tr.selector_index:02d}.csv"))
    return 0


def cmd_reach(scn: Scenario, args, manifest: Manifest) -> int:
    from .reachability import cloud_to_csv, reach, save_cloud

    cfg = scn.raw
    _require(scn.system, "reach needs a [system]")
    x0 = np.asarray(_require(cfg.get("reach", "x0"), "[reach] needs x0"), dtype=float)
    t = _require(cfg.get("reach", "t"), "[reach] needs t")
    cloud = reach(scn.system, x0, t, scn.solver, scn.bundle,
                  stride=cfg.get("reach", "stride", 1))
    cloud_to_csv(cloud, manifest.add(manifest.out / "reach.csv"))
    save_cloud(cloud, manifest.add(manifest.out / "reach.rch"))
    return 0


def cmd_barrier_eval(scn: Scenario, args, manifest: Manifest) -> int:
    cfg = scn.raw
    window = cfg.get("barrier-eval", "window")
    _require(window, "[barrier-eval] needs window")
    dim = len(window) // 2
    nx = cfg.get("barrier-eval", "nx", 21)
    ts = time_grid(cfg, "barrier-eval", [0.0, 1.0, 5])
    B = _build_barrier(scn)
    pts = grid_points(window[:dim], window[dim:], nx)
    # one t-major batch: a value depends on its own (t, x) only
    t_col, x_rows = np.repeat(ts, len(pts)), np.tile(pts, (len(ts), 1))
    data = np.column_stack([t_col, x_rows, B.evaluate_many(t_col, x_rows).value])
    write_csv(manifest.add(manifest.out / "barrier_grid.csv"), "t", data, "B")
    return 0


def cmd_smooth(scn: Scenario, args, manifest: Manifest) -> int:
    from .smoothing import build_time_partition, smooth_on_compact

    cfg = scn.raw
    h_text = _require(cfg.get("smooth", "h"), "[smooth] needs h expression over t,x1..xn")
    region = _get_set(scn, _require(cfg.get("smooth", "region"), "[smooth] needs region set"))
    dim = region.dim
    variables = ("t",) + tuple(f"x{i + 1}" for i in range(dim))
    hx = compile_expression(h_text, variables)
    # rows (t, x) over times x points, t-major; h's table is one call on them
    tx = lambda ts, X: np.column_stack([np.repeat(ts, len(X)), np.tile(X, (len(ts), 1))])
    h = lambda ts, X: hx(tx(ts, X)).reshape(len(ts), len(X))
    box = region.bounding_box()
    if box is None:
        raise CliError("[smooth] region must be bounded")
    pts = grid_points(box[0], box[1], cfg.get("smooth", "grid_n", 41))
    grid = pts[region.contains(pts)]
    if len(grid) == 0:
        raise CliError("[smooth] region grid is empty")
    part = build_time_partition(h, grid, cfg.get("smooth", "k_max", 3),
                                table_res=cfg.get("smooth", "table_res", 256))
    g = smooth_on_compact(part, w_tol=cfg.get("smooth", "w_tol"))
    out_n = cfg.get("smooth", "out_n", 9)
    ts = np.linspace(0.0, part.nodes[-1], out_n)
    data = np.column_stack([tx(ts, grid), g.sample_times(ts, grid).ravel()])
    write_csv(manifest.add(manifest.out / "smoothed_grid.csv"), "t", data, "g")
    info = {"u_counts": list(part.u_counts), "eta": part.eta.tolist(),
            "sigma": g.sigma, "certificate": g.certificate}
    manifest.add(manifest.out / "smooth_info.json").write_text(
        json.dumps(info, indent=2, sort_keys=True))
    return 0


def _run_one_check(name: str, scn: Scenario, barrier):
    """Run one [check NAME] section; barrier() returns the run's barrier.
    Returns the report's JSON and verdict, or, for a sign or monotonicity
    check, its ``barrier.Queries``.  Each kind imports what it runs: a
    simulate check never loads barrier, a sign or monotonicity check never
    loads verify."""
    cfg = scn.raw
    section = f"check {name}"
    kind = cfg.get(section, "kind")     # known, with only its keys: see build_scenario
    window = scn.samples.window
    seed = scn.seed
    if kind == "simulate":
        from .verify import SafetyProblem, simulate_safety_check

        X_o = _get_set(scn, _require(cfg.get(section, "X_o"), f"[{section}] needs X_o"))
        X_u = _get_set(scn, _require(cfg.get(section, "X_u"), f"[{section}] needs X_u"))
        p = SafetyProblem(scn.system, X_o, X_u, cfg.get(section, "T", 1.0), scn.solver,
                          scn.samples, scn.bundle, hit_tol=cfg.get(section, "tol", 1e-9))
        rep = simulate_safety_check(p)
        return rep.to_json(), ("pass" if rep.passed else "fail")
    if kind == "sign":
        from .barrier import sign_queries

        B = barrier()
        X_o = _get_set(scn, _require(cfg.get(section, "X_o"), f"[{section}] needs X_o"))
        X_u = _get_set(scn, _require(cfg.get(section, "X_u"), f"[{section}] needs X_u"))
        return sign_queries(B, X_o, X_u, scn.t_grid,
                            n_init=scn.samples.interior + scn.samples.boundary,
                            n_unsafe=cfg.get(section, "n_samples", 64),
                            window=window, seed=seed)
    if kind == "monotonicity":
        from .barrier import monotonicity_queries

        barrier()   # built before the section's keys are read, as for the other kinds
        X_o = _get_set(scn, _require(cfg.get(section, "X_o"), f"[{section}] needs X_o"))
        n = cfg.get(section, "n_samples", 8)
        try:
            starts = X_o.sample_boundary(n, seed=seed, window=window)
        except GeometryError:   # sets without a boundary sampler fall back to interior
            starts = X_o.sample_interior(n, seed=seed, window=window)
        bundles = solution_bundle(scn.system, starts, cfg.get(section, "T", 1.0),
                                  cfg=scn.solver, plan=scn.bundle)
        return monotonicity_queries([tr for trajs in bundles for tr in trajs],
                                    tol=cfg.get(section, "tol", 10 * scn.solver.accuracy),
                                    stride=cfg.get(section, "stride", 16))
    if kind == "infinitesimal":
        from .barrier import infinitesimal_check

        B = barrier()
        region = cfg.get(section, "region", "everywhere")
        if region == "margin_band":
            region = ("margin_band", cfg.get(section, "width"))
        elif region == "boundary":
            region = ("boundary", cfg.get(section, "width", 1e-3))
        rep = infinitesimal_check(B, scn.system, cfg.get(section, "mode", "smooth"),
                                  region, _parse_relax(cfg.get(section, "g")),
                                  t_grid=scn.t_grid, window=window,
                                  count=cfg.get(section, "count", 200),
                                  seed=seed, tol=cfg.get(section, "tol", 1e-7))
        return rep.to_json(), rep.verdict
    if kind == "nagumo":
        from .verify import nagumo_check

        K = _get_set(scn, _require(cfg.get(section, "K"), f"[{section}] needs K"))
        rep = nagumo_check(scn.system, K, cfg.get(section, "mode", "boundary"),
                           n_samples=cfg.get(section, "n_samples", 64),
                           tol=cfg.get(section, "tol"), seed=seed,
                           window=window)
        return rep.to_json(), rep.verdict
    if kind == "prop1":
        from .verify import prop1_check

        B = barrier()
        X_o = _get_set(scn, _require(cfg.get(section, "X_o"), f"[{section}] needs X_o"))
        X_s = _get_set(scn, _require(cfg.get(section, "X_s"), f"[{section}] needs X_s"))
        rep = prop1_check(scn.system, X_o, X_s, B, _parse_relax(cfg.get(section, "g")),
                          cfg.get(section, "mode", "conditional"),
                          n_samples=cfg.get(section, "n_samples", 48),
                          shell_width=cfg.get(section, "width", 1e-3),
                          window=window, seed=seed)
        return rep.to_json(), rep.verdict
    if kind == "filippov":
        from .reachability import filippov_check

        box = _get_set(scn, _require(cfg.get(section, "lam_box"), f"[{section}] needs lam_box"))
        lam = lipschitz_estimate(scn.system, box, grid=9)
        pairs = cfg.get(section, "pairs", 10)
        max_sep = cfg.get(section, "max_sep", 0.5)
        dim = scn.system.dim
        # per pair: x, then the offset of y, as successive draws of one stream
        U = Stream(seed).uniform(-1.0, 1.0, (pairs, 2, dim))
        res = filippov_check(scn.system, U[:, 0], U[:, 0] + U[:, 1] * max_sep / np.sqrt(dim),
                             cfg.get(section, "T", 1.0), lam, scn.solver, scn.bundle, box=box,
                             tol=cfg.get(section, "tol", 1e-6))
        ok = res["applicable"]
        worst = {"max_violation": None, "holds": True}
        if ok.any():
            # the first applicable pair with the largest violation
            i = int(np.argmax(np.where(ok, res["max_violation"], -np.inf)))
            worst = {"max_violation": float(res["max_violation"][i]),
                     "holds": bool(res["holds"][i])}
        verdict = "inconclusive" if not ok.any() else "pass" if worst["holds"] else "fail"
        payload = json.dumps({"check": "filippov", "lambda": lam, **worst, "pairs": pairs,
                              "not_applicable": int(pairs - np.count_nonzero(ok)),
                              "verdict": verdict},
                             indent=2, sort_keys=True)
        return payload, verdict


def cmd_check(scn: Scenario, args, manifest: Manifest) -> int:
    names = [s.split(" ", 1)[1] for s in scn.raw.section_names("check")]
    if not names:
        raise CliError("no [check NAME] sections in config")
    barrier = functools.cache(lambda: _build_barrier(scn))
    # every check runs, or asks its queries of B, in config order up to the
    # first that raises; the results before it are written first
    runs, error = [], None
    for name in names:
        try:
            runs.append(_run_one_check(name, scn, barrier))
        except Exception as exc:
            error = exc
            break
    if not all(isinstance(run, tuple) for run in runs):
        from .barrier import check_results

        runs = check_results(barrier(), runs)
    verdicts = []
    for name, (payload, verdict) in zip(names, runs):
        manifest.add(manifest.out / f"{name}.check.json").write_text(payload)
        verdicts.append(verdict)
        print(f"check {name}: {verdict}")
    if error is not None:
        raise error
    return 2 if any(v == "fail" for v in verdicts) else 0


def cmd_report(results_dir: str, out: Path) -> int:
    """Roll up the check reports of results_dir into out; nothing is written
    unless results_dir holds at least one, so a mistyped or empty directory
    cannot roll up PASS."""
    d = Path(results_dir)
    if not d.is_dir():
        raise CliError(f"results directory not found: {d}")
    entries = []
    for path in sorted(d.glob("*.json")):
        if path.name in ("manifest.json", "summary.json"):
            continue
        try:
            data = json.loads(path.read_text())
        except json.JSONDecodeError:
            continue
        verdict = data.get("verdict")
        if verdict is None:
            continue
        if verdict == "no_violation_found":
            verdict = "pass"
        elif verdict == "violation":
            verdict = "fail"
        entries.append({"file": path.name, "check": data.get("check", path.stem),
                        "verdict": verdict,
                        "worst_margin": data.get("worst_margin")})
    if not entries:
        raise CliError(f"results directory {d} holds no check report "
                       "(a JSON file with a verdict)")
    if any(e["verdict"] == "fail" for e in entries):
        rollup = "FAIL"
    elif any(e["verdict"] == "inconclusive" for e in entries):
        rollup = "INCONCLUSIVE"
    else:
        rollup = "PASS"
    failing = [e["check"] for e in entries if e["verdict"] == "fail"]
    inconclusive = [e["check"] for e in entries if e["verdict"] == "inconclusive"]
    summary = {"rollup": rollup, "checks": entries, "failing": failing,
               "inconclusive": inconclusive,
               "disclaimer": "verdicts are one-sided numerical evidence, not proofs"}
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    lines = [f"ROLLUP: {rollup}"]
    for e in entries:
        lines.append(f"  {e['verdict'].upper():12s} {e['check']} ({e['file']})")
    if failing:
        lines.append("failing: " + ", ".join(failing))
    if inconclusive:
        lines.append("inconclusive: " + ", ".join(inconclusive))
    lines.append(summary["disclaimer"])
    (out / "summary.txt").write_text("\n".join(lines) + "\n")
    print("\n".join(lines))
    return 2 if rollup == "FAIL" else 0


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def make_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="safereach",
                                description="barrier-function safety toolkit")
    p.add_argument("command", choices=["simulate", "reach", "barrier-eval",
                                       "check", "smooth", "report"])
    p.add_argument("--config", help="scenario file (required except for report)")
    p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                   help="override a config entry")
    p.add_argument("--out", help="output directory")
    p.add_argument("--seed", type=int, help="override the config seed")
    p.add_argument("--results", help="results directory for the report command")
    return p


def _input_errors() -> tuple:
    """The error classes the library raises for bad input.  A module that is
    not loaded raised none, so its class is read from ``sys.modules``."""
    errors = [ConfigError, CliError, ExpressionError, GeometryError, DynamicsError,
              SolverError]
    for module, name in (("barrier", "BarrierError"), ("smoothing", "SmoothingError")):
        loaded = sys.modules.get(f"{__package__}.{module}")
        if loaded is not None:
            errors.append(getattr(loaded, name))
    return tuple(errors)


def main(argv=None) -> int:
    args = make_parser().parse_args(argv)
    manifest = None
    try:
        if args.command == "report":
            return cmd_report(args.results or args.out or ".",
                              Path(args.out or args.results or "."))
        if not args.config:
            raise CliError("--config is required")
        overrides = {}
        for item in args.set:
            if "=" not in item:
                raise CliError(f"--set expects SECTION.KEY=VALUE, got '{item}'")
            k, v = item.split("=", 1)
            overrides[k.strip()] = v.strip()
        if args.seed is not None:
            overrides["seed"] = str(args.seed)
        cfg = load_config(args.config, overrides)
        scn = build_scenario(cfg)
        out = args.out or scn.out_dir or os.environ.get("SAFEREACH_OUT", "safereach-out")
        manifest = Manifest(args.command, cfg, Path(out))
        handler = {"simulate": cmd_simulate, "reach": cmd_reach,
                   "barrier-eval": cmd_barrier_eval, "check": cmd_check,
                   "smooth": cmd_smooth}[args.command]
        status = handler(scn, args, manifest)
        manifest.write()
        return status
    except _input_errors() as exc:
        print(f"error: {exc}", file=sys.stderr)
        if manifest is not None and manifest.data["artifacts"]:
            # a partial run says what it wrote and why it stopped
            manifest.data["error"] = str(exc)
            manifest.write()
        return 1


def run() -> int:
    """The process entry: ``main``, then ``gc.freeze()``.  Interpreter
    shutdown runs full collections over every object still tracked, numpy's
    and ours, to free memory the OS is about to drop; a frozen object is out
    of the collector's reach.  ``main`` itself never freezes: an in-process
    caller would keep its cyclic garbage for the rest of its life."""
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
