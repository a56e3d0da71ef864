"""Benchmark of the safereach command line, one workload per run.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The loop is closed, with one client: each
operation is one ``python -m safereach.cli`` process that starts after the
previous one ended, with a fresh output directory, so neither the marginal
barrier's per-point cache nor earlier output can count as speed.  One
warm-up operation at the workload's reference seed comes first and is not
timed; its outputs are checked against ``bench/reference.json``.  Then
operations at ``--seed`` run until ``--seconds`` have passed.

With ``--trace 0`` the end-to-end metrics are measured with tracing off.
``setup_s`` times a child that stops after ``build_scenario``, several times
per run.  With ``--trace 1`` every other operation runs under the span tracer
of ``bench/spans.py`` and the per-layer metrics come from its spans; the
untraced operations in between give ``trace.overhead_s``.

Times are speed-normalised.  On a small shared host the speed of a CPU
drifts by a factor of up to two over tens of seconds, which no number of
repetitions averages out.  The benchmark therefore pins itself and its
children to one CPU, and while a child runs it times a fixed pure-Python
probe loop on that CPU every PROBE_PERIOD_S (about 1% of the CPU).  Every
time it reports is the measured wall time multiplied by PROBE_NOMINAL_S over
the median probe time during that child: the wall time the child would take
at the probe's nominal speed.  The raw wall times are printed alongside.

Every operation is checked (``bench/workloads.py``).  Human-readable lines
(machine, each metric with its quartiles and sample count, failures) come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import select
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from spans import SET_KINDS, layer_metrics, load_spans
from workloads import WORKLOADS, Workload, check_operation, load_reference

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
CHILD = BENCH / "child.py"
CHILD_TIMEOUT_S = 120
MIN_TIMED = 3           # untraced operations per run, however short --seconds
MIN_TRACED = 2
SETUP_REPEATS = 5
PROBE_LOOPS = 3000
PROBE_PERIOD_S = 0.03
# about the probe's time on an idle CPU of the machine the baseline was
# measured on; it fixes the scale of the normalised seconds, nothing else
PROBE_NOMINAL_S = 3e-4
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclass
class Timing:
    wall_s: float
    probes: list        # probe times taken on the child's CPU while it ran

    @property
    def norm_s(self) -> float:
        """Wall time scaled to the CPU speed at which the probe takes
        PROBE_NOMINAL_S: the time the operation would take at that speed."""
        return self.wall_s * PROBE_NOMINAL_S / statistics.median(self.probes)


@dataclass
class Operation:
    timing: Timing
    rss_mb: float
    problems: list
    dir: Path


def _probe() -> float:
    """Time of a fixed pure-Python loop: how fast this CPU runs right now."""
    t0 = time.perf_counter()
    total = 0.0
    for i in range(PROBE_LOOPS):
        total += math.sqrt(i)
    return time.perf_counter() - t0


def _run(argv: list, env: dict, stdout, stderr, timeout: float) -> tuple:
    """Run one child to its exit, probing this CPU's speed while it runs.

    Returns (exit status, wall seconds, resource usage, probe times).  The
    child is killed after ``timeout`` seconds."""
    probes = [_probe()]
    t0 = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=stdout, stderr=stderr)
    fd = os.pidfd_open(proc.pid)
    try:
        while not select.select([fd], [], [], PROBE_PERIOD_S)[0]:
            if time.perf_counter() - t0 > timeout:
                proc.kill()
            else:
                probes.append(_probe())
        wall = time.perf_counter() - t0
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -9
        raise
    finally:
        os.close(fd)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage, probes


class Runner:
    """Runs operations of one workload in fresh directories under ``work``."""

    def __init__(self, workload: Workload, work: Path):
        self.workload = workload
        self.work = work
        self.expected = load_reference()
        self.count = 0
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env["PYTHONPATH"] \
            if self.env.get("PYTHONPATH") else src
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["TMPDIR"] = str(work)

    def _spawn(self, child: list, seed: int) -> tuple:
        """Run ``python <child> <workload arguments>`` in a fresh directory;
        ``child`` may name ``{dir}``, the operation's directory."""
        self.count += 1
        op_dir = self.work / f"op{self.count:04d}"
        op_dir.mkdir(parents=True)
        argv = ([sys.executable] + [a.format(dir=op_dir) for a in child]
                + self.workload.argv(seed, op_dir / "out"))
        with open(op_dir / "stdout", "w") as so, open(op_dir / "stderr", "w") as se:
            status, wall, usage, probes = _run(argv, self.env, so, se, CHILD_TIMEOUT_S)
        # ru_maxrss is in KiB on Linux
        return op_dir, status, Timing(wall, probes), usage.ru_maxrss / 1024.0

    def operation(self, seed: int, traced: bool = False) -> Operation:
        child = [str(CHILD), "trace", "{dir}/spans.npz"] if traced else ["-m", "safereach.cli"]
        op_dir, status, timing, rss = self._spawn(child, seed)
        stdout = (op_dir / "stdout").read_text()
        problems = check_operation(self.workload, op_dir / "out", status, stdout,
                                   seed, self.expected)
        if status != 0:
            problems.append((op_dir / "stderr").read_text().strip()[-500:])
        return Operation(timing, rss, problems, op_dir)

    def setup(self, seed: int) -> Operation:
        op_dir, status, timing, rss = self._spawn([str(CHILD), "setup"], seed)
        problems = [] if status == 0 else [f"set-up exit status {status}: "
                                           + (op_dir / "stderr").read_text().strip()[-500:]]
        return Operation(timing, rss, problems, op_dir)

    @staticmethod
    def discard(op: Operation) -> None:
        shutil.rmtree(op.dir, ignore_errors=True)


def _quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _report(name: str, unit: str, values: list) -> float:
    q1, med, q3 = _quartiles(values)
    print(f"  {name:34s} {med:14.6g} {unit:10s} q1 {q1:.6g}  q3 {q3:.6g}  n {len(values)}")
    return med


def _machine() -> str:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return (f"nproc {os.cpu_count()}, cpu {cpu}, "
            f"python {platform.python_version()}, numpy {np.__version__}")


def _split_lines(name: str, m: dict) -> list:
    """The layer split each workload was chosen for, as measured."""
    base = m["cli.command_s"] or float("nan")
    geometry = sum(m[f"geometry.dist_s.{k}"] for k in SET_KINDS)
    checks = {
        "bundle-sweep": [("geometry distance share", geometry / base, "<", 0.05)],
        "marginal-check": [("barrier + dynamics self share",
                            (m["barrier.self_s"] + m["dynamics.rhs_self_s"]) / base, ">", 0.80)],
        "estimated-sets": [("sublevel distance share", m["geometry.dist_s.sublevel"] / base,
                            ">", 0.90),
                           ("dynamics self share", m["dynamics.rhs_self_s"] / base, "<", 0.02)],
        "trajectory-export": [("rows per RHS call", m["dynamics.rows_per_call"], "==", 1.0),
                              ("cli.write_s", m["cli.write_s"], ">", 0.0)],
    }[name]
    ops = {"<": lambda a, b: a < b, ">": lambda a, b: a > b, "==": lambda a, b: a == b}
    return [f"  split {label}: {value:.4g} {op} {limit:g}: "
            f"{'ok' if ops[op](value, limit) else 'NOT MET'}"
            for label, value, op, limit in checks]


def measure(workload: Workload, seed: int, seconds: float, trace: bool, work: Path,
            units: dict) -> dict:
    runner = Runner(workload, work)
    ops: list[Operation] = []

    def keep(op: Operation) -> Operation:
        ops.append(op)
        for problem in op.problems:
            print(f"FAILED {workload.name} op {len(ops)}: {problem}", file=sys.stderr)
        return op

    warm = keep(runner.operation(workload.reference_seed))
    runner.discard(warm)
    setup = []
    if not trace:
        for _ in range(SETUP_REPEATS):
            op = keep(runner.setup(seed))
            setup.append(op.timing)
            runner.discard(op)
    plain, traced, spans, written = [], [], [], []
    start = time.perf_counter()
    while (time.perf_counter() - start < seconds or len(plain) < MIN_TIMED
           or (trace and len(traced) < MIN_TRACED)):
        tracing = trace and len(traced) <= len(plain)
        op = keep(runner.operation(seed, traced=tracing))
        if tracing:
            traced.append(op)
            try:
                spans.append(layer_metrics(load_spans(op.dir / "spans.npz")))
            except (OSError, ValueError, KeyError) as exc:
                op.problems.append(f"spans: {exc}")
                print(f"FAILED {workload.name} op {len(ops)}: spans: {exc}", file=sys.stderr)
            written.append(sum(p.stat().st_size for p in (op.dir / "out").rglob("*")
                               if p.is_file()))
        else:
            plain.append(op)
        runner.discard(op)

    print(f"workload {workload.name}, seed {seed}, {'traced' if trace else 'untraced'}, "
          f"{len(plain) + len(traced)} timed operations in "
          f"{time.perf_counter() - start:.1f} s; machine: {_machine()}")
    values: dict = {}
    if trace and spans:
        for name in spans[0]:
            values[name] = [s[name] for s in spans]
        values["cli.bytes_written"] = written
        traced_wall = statistics.median(o.timing.norm_s for o in traced)
        values["trace.wall_s"] = [o.timing.norm_s for o in traced]
        values["trace.overhead_s"] = [traced_wall
                                      - statistics.median(o.timing.norm_s for o in plain)]
    elif not trace:
        _report("raw wall_s", "s", [o.timing.wall_s for o in plain])
        _report("raw setup_s", "s", [t.wall_s for t in setup])
        values["wall_s"] = [o.timing.norm_s for o in plain]
        values["work_per_s"] = [workload.work / o.timing.norm_s for o in plain]
        values["setup_s"] = [t.norm_s for t in setup]
        values["peak_rss_mb"] = [o.rss_mb for o in plain]
    metrics = {}
    for name in units:
        if name in values:
            metrics[name] = {"value": _report(name, units[name], values[name]),
                             "unit": units[name]}
    failed = sum(1 for o in ops if o.problems)
    print(f"  {'failed_frac':34s} {failed / len(ops):14.6g} {'fraction':10s} "
          f"failed {failed} of {len(ops)} operations")
    if trace and spans:
        print("\n".join(_split_lines(workload.name, {k: v["value"] for k, v in metrics.items()})))
    return {"correct": failed == 0 and len(metrics) == len(units), "attempted": len(ops),
            "failed": failed, "metrics": metrics}


def metric_units(trace: bool) -> dict:
    spec = json.loads((BENCH / "metrics.json").read_text())
    return {name: m["unit"] for name, m in spec["per_layer" if trace else "end_to_end"].items()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "safereach" / "cli.py").is_file():
        print(f"error: no safereach sources under {ROOT / 'src'}; "
              "run from the root of a safereach checkout", file=sys.stderr)
        return 2
    # the probes must run on the CPU the operations run on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = ROOT / ".bench_out" / f"{args.workload}-seed{args.seed}-pid{os.getpid()}"
    work.mkdir(parents=True)
    try:
        result = measure(WORKLOADS[args.workload], args.seed, args.seconds,
                         bool(args.trace), work, metric_units(bool(args.trace)))
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
