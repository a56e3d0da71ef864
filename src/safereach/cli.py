"""Config-driven command line: simulate | reach | barrier-eval | check |
smooth | report.

Exit status: 0 when every requested check passes, 2 when any check fails,
1 on usage or configuration errors.  ``report`` exits 0 on a PASS or
INCONCLUSIVE rollup, 2 on FAIL, and 1 when the results directory is missing,
holds no check report or holds a verdict it does not know.  Every run writes
a manifest listing the emitted artifacts together with the config hash, so
reruns are auditable; a run that fails after its first artifact records the
error in it.
"""

from __future__ import annotations

import gc

# a process entered here runs no collection while numpy and the package load;
# run() freezes what the loading built and turns the collector back on
if __name__ == "__main__":
    gc.disable()

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import Error, __version__
from .config import RawConfig, Scenario, build_scenario, load_config
from .expr import compile_expression
from .sampling import grid_points
from .solver import solution_bundle, write_csv

# each command imports the library modules it runs, so a run loads only its own
if TYPE_CHECKING:
    from .barrier import BarrierFn


class CliError(Error):
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


def _build_barrier(scn: Scenario) -> BarrierFn:
    """The [barrier] of scn, from the arguments build_scenario resolved; an
    input error that building it raises names [barrier]."""
    from .barrier import counterexample_barrier_fn, marginal_barrier, user_barrier

    kind, a = _require(scn.barrier, "config needs a [barrier] section")
    try:
        if kind == "counterexample":
            return counterexample_barrier_fn()
        if kind == "user":
            return user_barrier(a["expression"], scn.dim)
        if kind == "marginal":
            return marginal_barrier(scn.system, a["X_o"], scn.solver, scn.bundle.directions,
                                    scn.bundle.switches, scn.bundle.seed)
        from .smoothing import ConverseResolution, converse_smooth_barrier

        res = ConverseResolution(s_range=tuple(range(a["s_lo"], a["s_hi"] + 1)), k_max=a["k_max"])
        return converse_smooth_barrier(scn.system.base_field, a["X_o"], scn.solver, res)
    except Error as exc:
        raise CliError(f"[barrier] {exc}") from None


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_simulate(scn: Scenario, args, manifest: Manifest) -> int:
    _require(scn.system, "simulate needs a [system]")
    a = _require(scn.commands.get("simulate"), "[simulate] needs X_o")
    starts = scn.samples.draw(a["X_o"])
    bundles = solution_bundle(scn.system, starts, a["T"], cfg=scn.solver, plan=scn.bundle)
    for i, trajs in enumerate(bundles):
        for tr in trajs:
            tr.to_csv(manifest.add(manifest.out / f"traj_{i:03d}_{tr.selector_index:02d}.csv"))
    return 0


def cmd_reach(scn: Scenario, args, manifest: Manifest) -> int:
    from .reachability import reach

    _require(scn.system, "reach needs a [system]")
    a = _require(scn.commands.get("reach"), "[reach] needs x0")
    points, truncated = reach(scn.system, a["x0"], a["t"], scn.solver, scn.bundle,
                              stride=a["stride"])
    write_csv(manifest.add(manifest.out / "reach.csv"), "index",
              np.column_stack([np.arange(len(points)), points]))
    if truncated:
        manifest.data["truncated"] = True
    return 0


def cmd_barrier_eval(scn: Scenario, args, manifest: Manifest) -> int:
    a = _require(scn.commands.get("barrier-eval"), "[barrier-eval] needs window")
    B = _build_barrier(scn)
    pts = grid_points(*a["window"], a["nx"])
    # one t-major batch: a value depends on its own (t, x) only
    t_col, x_rows = np.repeat(a["tgrid"], len(pts)), np.tile(pts, (len(a["tgrid"]), 1))
    data = np.column_stack([t_col, x_rows, B.evaluate_many(t_col, x_rows).value])
    write_csv(manifest.add(manifest.out / "barrier_grid.csv"), "t", data, "B")
    return 0


def cmd_smooth(scn: Scenario, args, manifest: Manifest) -> int:
    from .smoothing import build_time_partition, smooth_on_compact

    a = _require(scn.commands.get("smooth"), "[smooth] needs h expression over t,x1..xn")
    region = a["region"]
    variables = ("t",) + tuple(f"x{i + 1}" for i in range(region.dim))
    hx = compile_expression(a["h"], variables)
    # rows (t, x) over times x points, t-major; h's table is one call on them
    tx = lambda ts, X: np.column_stack([np.repeat(ts, len(X)), np.tile(X, (len(ts), 1))])
    h = lambda ts, X: hx(tx(ts, X)).reshape(len(ts), len(X))
    box = region.bounding_box()
    if box is None:
        raise CliError("[smooth] region must be bounded")
    pts = grid_points(box[0], box[1], a["grid_n"])
    grid = pts[region.contains(pts)]
    if len(grid) == 0:
        raise CliError("[smooth] region grid is empty")
    part = build_time_partition(h, grid, a["k_max"], table_res=a["table_res"])
    g = smooth_on_compact(part)
    ts = np.linspace(0.0, part.nodes[-1], a["out_n"])
    data = np.column_stack([tx(ts, grid), g.sample_times(ts, grid).ravel()])
    write_csv(manifest.add(manifest.out / "smoothed_grid.csv"), "t", data, "g")
    info = {"u_counts": list(part.u_counts), "eta": part.eta.tolist(),
            "sigma": g.sigma, "certificate": g.certificate}
    manifest.add(manifest.out / "smooth_info.json").write_text(
        json.dumps(info, indent=2, sort_keys=True))
    return 0


def _run_one_check(name: str, scn: Scenario, barrier):
    """Run [check NAME] on the arguments build_scenario resolved; barrier()
    returns the run's barrier.  Returns the report's JSON and verdict, or,
    for a sign or monotonicity check, its ``barrier.Queries``.  Each kind
    imports the module of its check and makes one call into it, so a run
    loads only its own: a simulate check never loads barrier, a sign or
    monotonicity check never loads verify."""
    kind, a = scn.checks[name]
    window = scn.samples.window
    seed = scn.seed
    if kind == "simulate":
        from .verify import SafetyProblem, simulate_safety_check

        rep = simulate_safety_check(SafetyProblem(scn.system, a["X_o"], a["X_u"], a["T"],
                                                  scn.solver, scn.samples, scn.bundle,
                                                  hit_tol=a["tol"]))
        return rep.to_json(), ("pass" if rep.passed else "fail")
    if kind == "sign":
        from .barrier import sign_queries

        barrier()   # built before the queries are drawn, as for the other kinds
        return sign_queries(a["X_o"], a["X_u"], scn.t_grid, scn.samples, a["n_samples"])
    if kind == "monotonicity":
        from .barrier import bundle_monotonicity_queries

        barrier()   # built before the queries are drawn, as for the other kinds
        return bundle_monotonicity_queries(scn.system, a["X_o"], a["T"], a["n_samples"],
                                           a["tol"], a["stride"], scn.solver, scn.bundle,
                                           seed, window)
    if kind == "infinitesimal":
        from .infinitesimal import infinitesimal_check

        region = a["region"] if a["region"] == "everywhere" else (a["region"], a["width"])
        rep = infinitesimal_check(barrier(), scn.system, a["mode"], region, a["g"],
                                  t_grid=scn.t_grid, window=window, count=a["count"],
                                  seed=seed, tol=a["tol"])
        return rep.to_json(), rep.verdict
    if kind == "nagumo":
        from .infinitesimal import nagumo_check

        rep = nagumo_check(scn.system, a["K"], a["mode"], n_samples=a["n_samples"],
                           tol=a["tol"], seed=seed, window=window)
        return rep.to_json(), rep.verdict
    if kind == "prop1":
        from .infinitesimal import prop1_check

        rep = prop1_check(scn.system, a["X_o"], a["X_s"], barrier(), a["g"], a["mode"],
                          n_samples=a["n_samples"], shell_width=a["width"],
                          window=window, seed=seed)
        return rep.to_json(), rep.verdict
    if kind == "filippov":
        from .reachability import filippov_report

        return filippov_report(scn.system, a["lam_box"], a["T"], a["pairs"], a["max_sep"],
                               a["tol"], scn.solver, scn.bundle, seed)


def cmd_check(scn: Scenario, args, manifest: Manifest) -> int:
    names = list(scn.checks)
    if not names:
        raise CliError("no [check NAME] sections in config")
    barrier = functools.cache(lambda: _build_barrier(scn))

    def named(name: str, exc: Error) -> CliError:
        # an input error named by its check, the barrier's by [barrier]
        return exc if isinstance(exc, CliError) else CliError(f"[check {name}] {exc}")

    # every check runs, or asks its queries of B, in config order up to the
    # first that raises; one batch of B then answers the queries of all of
    # them, and each such check makes its report from its answer, up to the
    # first that raises.  The results before the first error are written
    runs, error = [], None
    for name in names:
        try:
            runs.append(_run_one_check(name, scn, barrier))
        except Error as exc:
            error = named(name, exc)
            break
    asked = [run for run in runs if not isinstance(run, tuple)]
    if asked:
        from .barrier import batch_values

        answers = iter(batch_values(barrier(), asked))
    verdicts = []
    for name, run in zip(names, runs):
        if not isinstance(run, tuple):
            try:
                rep = run.check(next(answers), run)
            except Error as exc:
                error = named(name, exc)
                break
            run = rep.to_json(), rep.verdict
        payload, verdict = run
        manifest.add(manifest.out / f"{name}.check.json").write_text(payload)
        verdicts.append(verdict)
        print(f"check {name}: {verdict}")
    if error is not None:
        raise error
    return 2 if any(v == "fail" for v in verdicts) else 0


# each verdict a check report may hold, as the rollup reads it; report refuses any other
ROLLUP_VERDICTS = {"pass": "pass", "fail": "fail", "inconclusive": "inconclusive",
                   "no_violation_found": "pass", "violation": "fail"}


def cmd_report(results_dir: str, out: Path) -> int:
    """Roll up the check reports of results_dir, its JSON objects with a
    verdict, into out.  Nothing is written unless there is one and every
    verdict is a key of ROLLUP_VERDICTS, so a mistyped or empty directory,
    or a verdict the rollup does not know, cannot roll up PASS."""
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
        verdict = data.get("verdict") if isinstance(data, dict) else None
        if verdict is None:
            continue
        if not isinstance(verdict, str) or verdict not in ROLLUP_VERDICTS:
            raise CliError(f"{path} holds verdict {verdict!r}, not one of "
                           + " | ".join(ROLLUP_VERDICTS))
        entries.append({"file": path.name, "check": data.get("check", path.stem),
                        "verdict": ROLLUP_VERDICTS[verdict],
                        "worst_margin": data.get("worst_margin")})
    if not entries:
        raise CliError(f"results directory {d} holds no check report "
                       "(a JSON file with a verdict)")
    failing = [e["check"] for e in entries if e["verdict"] == "fail"]
    inconclusive = [e["check"] for e in entries if e["verdict"] == "inconclusive"]
    rollup = "FAIL" if failing else "INCONCLUSIVE" if inconclusive else "PASS"
    summary = {"rollup": rollup, "checks": entries, "failing": failing,
               "inconclusive": inconclusive,
               "disclaimer": "verdicts are one-sided numerical evidence, not proofs"}
    out.mkdir(parents=True, exist_ok=True)
    (out / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True))
    lines = [f"ROLLUP: {rollup}"] + [f"  {e['verdict'].upper():12s} {e['check']} ({e['file']})"
                                     for e in entries]
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
    except Error as exc:
        print(f"error: {exc}", file=sys.stderr)
        if manifest is not None and manifest.data["artifacts"]:
            # a partial run says what it wrote and why it stopped
            manifest.data["error"] = str(exc)
            manifest.write()
        return 1


def run() -> int:
    """The process entry: ``gc.freeze()`` and ``gc.enable()``, ``main``, then
    ``gc.freeze()`` again.  The objects that loading built, numpy's and ours,
    live for the whole process; frozen, they are out of the collector's
    reach, so a collection during ``main`` scans only what ``main`` builds.
    Interpreter shutdown runs full collections over every object still
    tracked, to free memory the OS is about to drop; the second freeze takes
    what ``main`` left there too.  ``main`` itself never freezes: an
    in-process caller would keep its cyclic garbage for the rest of its life."""
    gc.freeze()
    gc.enable()
    status = main()
    gc.freeze()
    return status


if __name__ == "__main__":
    sys.exit(run())
