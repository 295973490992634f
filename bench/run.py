#!/usr/bin/env python3
"""Benchmark of the qtaylor ``verify`` runner, end to end and per layer.

    python3 bench/run.py --workload full-moderate --seed 1 --seconds 30 --trace 0

Run from anywhere; the program is imported from ``src/`` next to this
directory.  A workload is a fixed list of ``verify`` invocations
``(q, suite, seed)``; the verify seeds are derived from ``--seed``.  The
benchmark calls ``qtaylor.cli.main`` in this process, one invocation at a
time (a closed loop with one client and no threads), and repeats the list
in passes until ``--seconds`` is spent.  Every pass also runs one
``--suite kernel --negative-controls`` invocation.

Correctness gate, applied to every invocation of every pass: the report is
byte-identical to the one the same invocation wrote in the first pass, the
summary agrees with the records, the exit code is 0 exactly when every
record passed, and the negative control exits 1 with its sabotaged check
failing.  A violation makes the run incorrect and the exit code 1.

Pass times are scaled to a reference machine speed, which is sampled by
a fixed calibration loop between the invocations: the shared host's speed
drifts by tens of percent within minutes (see WORKLOADS.md).

``--trace 0`` prints the end-to-end metrics (tracing off).  ``--trace 1``
alternates untraced and traced passes and prints the per-layer metrics of
the traced ones (see tracer.py) plus the tracing overhead.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import io
import json
import os
import platform
import random
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, process_time

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

MODERATE_BASES = ("0.2", "0.45", "-0.3", "0.5i")
HIGH_Q_BASES = ("0.65", "0.7", "-0.6")
STRUCTURED_SUITES = ("qcore", "hyper", "operator", "taylor", "kernel", "profiles",
                     "quadratic")
SABOTAGED_CHECK = "two-basis-identity-sabotaged"
SETUP_SPAWNS = 7
# One calibration loop takes CALIBRATION_REFERENCE_S on the reference
# machine (2-CPU Xeon, Python 3.11.7); pass times are scaled to that speed.
CALIBRATION_REFERENCE_S = 1e-3
CALIBRATION_LOOPS = 5  # per speed sample, taken between invocations
SETUP_CALIBRATION_LOOPS = 10  # before and after each import in setup_seconds


@dataclass(frozen=True)
class Workload:
    bases: tuple[str, ...]
    suites: tuple[str, ...]
    seeds_per_base: int


WORKLOADS = {
    "full-moderate": Workload(MODERATE_BASES, ("all",), 1),
    "structured-moderate": Workload(MODERATE_BASES, STRUCTURED_SUITES, 4),
    "full-high-q": Workload(HIGH_Q_BASES, ("all",), 1),
}

END_TO_END_UNITS = {"run_s": "s", "run_cpu_s": "s", "check_pass_frac": "ratio",
                    "setup_s": "s", "peak_rss_mb": "MiB"}


@dataclass(frozen=True)
class Invocation:
    q: str
    suite: str
    seed: int
    negative_control: bool = False

    def argv(self, report: Path) -> list[str]:
        args = ["--suite", self.suite, "--q", self.q, "--seed", str(self.seed),
                "--report", str(report)]
        return args + ["--negative-controls"] if self.negative_control else args


def invocations(workload: str, seed: int) -> list[Invocation]:
    """The workload's invocation list; the same seed gives the same list."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    seeds = [rng.randrange(2 ** 32) for _ in range(spec.seeds_per_base)]
    calls = [Invocation(q, suite, s) for s in seeds for q in spec.bases
             for suite in spec.suites]
    return calls + [Invocation(spec.bases[0], "kernel", seeds[0], negative_control=True)]


def gate(inv: Invocation, code, report: bytes, reference: bytes | None
         ) -> tuple[list[str], int, int]:
    """Check one invocation's outcome; return (violations, records, failed records).

    The negative control's records are not counted: its failure is designed.
    """
    try:
        lines = report.decode().splitlines()
        records = [json.loads(line) for line in lines[:-1]]
        summary_passed = json.loads(lines[-1])["summary"]["passed"]
        failed = sum(not r["passed"] for r in records)
        sabotage_failed = any(r["check"] == SABOTAGED_CHECK and not r["passed"]
                              for r in records)
    except (UnicodeDecodeError, ValueError, LookupError, TypeError) as exc:
        return [f"unreadable report ({type(exc).__name__}: {exc})"], 0, 0
    problems = []
    if not records:
        problems.append("report holds no records")
    if summary_passed is not (failed == 0):
        problems.append("summary verdict disagrees with the records")
    if reference is not None and report != reference:
        problems.append("report differs from the first pass")
    if inv.negative_control:
        if code != 1:
            problems.append(f"negative control exited {code}, expected 1")
        if not sabotage_failed:
            problems.append(f"{SABOTAGED_CHECK} did not fail")
        return problems, 0, 0
    if code != (0 if failed == 0 else 1):
        problems.append(f"exit code {code} with {failed} failed records")
    return problems, len(records), failed


def calibration_loop() -> complex:
    """Fixed pure-Python work shaped like the program's product loops."""
    total = 0j
    for k in range(100):
        x, value = complex(0.3 + 0.01 * k, 0.2), 1 + 0j
        for _ in range(80):
            value *= 1 - x
            x *= 0.45
        total += value
    return total


@dataclass
class PassResult:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    loop_wall_s: list[float] = field(default_factory=list)  # per speed sample
    loop_cpu_s: list[float] = field(default_factory=list)
    invocations: int = 0
    bad_invocations: int = 0
    records: int = 0
    failed_records: int = 0
    violations: list[str] = field(default_factory=list)

    def sample_speed(self) -> None:
        """Time CALIBRATION_LOOPS calibration loops on both clocks."""
        wall, cpu = perf_counter(), process_time()
        for _ in range(CALIBRATION_LOOPS):
            calibration_loop()
        self.loop_wall_s.append((perf_counter() - wall) / CALIBRATION_LOOPS)
        self.loop_cpu_s.append((process_time() - cpu) / CALIBRATION_LOOPS)

    def scaled(self, clock: str) -> float:
        """The pass time on the ``wall`` or ``cpu`` clock at reference speed."""
        loops = getattr(self, f"loop_{clock}_s")
        return (getattr(self, f"{clock}_s") * CALIBRATION_REFERENCE_S
                / statistics.fmean(loops))


class Runner:
    """Runs passes over one workload and applies the correctness gate."""

    def __init__(self, main, calls: list[Invocation], workdir: Path):
        self.main = main
        self.calls = calls
        self.workdir = workdir
        self.references: dict[int, bytes] = {}

    def run_pass(self) -> PassResult:
        result = PassResult()
        for i, inv in enumerate(self.calls):
            result.sample_speed()
            report = self.workdir / f"{i}.jsonl"
            report.unlink(missing_ok=True)
            captured = io.StringIO()
            crash = None
            wall, cpu = perf_counter(), process_time()
            with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
                try:
                    code = self.main(inv.argv(report))
                except Exception:  # a crash is a gate violation, not a benchmark error
                    code, crash = None, traceback.format_exc(limit=3)
            result.wall_s += perf_counter() - wall
            result.cpu_s += process_time() - cpu
            result.invocations += 1
            if crash is not None:
                problems, records, failed = [f"raised\n{crash}"], 0, 0
            else:
                text = report.read_bytes() if report.exists() else b""
                problems, records, failed = gate(inv, code, text, self.references.get(i))
                self.references.setdefault(i, text)
            result.records += records
            result.failed_records += failed
            if problems:
                result.bad_invocations += 1
                result.violations += [f"{inv}: {p}" for p in problems]
        result.sample_speed()
        return result


def import_program():
    """Import qtaylor.cli from the checkout; exit nonzero when it is not there."""
    if not (SRC / "qtaylor" / "cli.py").is_file():
        sys.exit(f"bench: no program at {SRC / 'qtaylor'}")
    sys.path.insert(0, str(SRC))
    import qtaylor.cli
    return qtaylor.cli


SETUP_CODE = """\
import time
{loop}
def calibrate():
    start = time.perf_counter()
    for _ in range({loops}):
        calibration_loop()
    return time.perf_counter() - start
before = calibrate()
start = time.perf_counter()
import qtaylor.cli
qtaylor.cli.make_parser()
setup = time.perf_counter() - start
print(setup, (before + calibrate()) / {total})
"""


def setup_seconds() -> float:
    """Time a fresh interpreter takes to import qtaylor.cli and build its parser.

    Each of the fresh interpreters also times the calibration loop around
    the import, and the import time is scaled like the pass times.  Returns
    the median over the interpreters.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    code = SETUP_CODE.format(loop=inspect.getsource(calibration_loop),
                             loops=SETUP_CALIBRATION_LOOPS,
                             total=2 * SETUP_CALIBRATION_LOOPS)
    times = []
    for _ in range(SETUP_SPAWNS):
        out = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                             check=True, capture_output=True, text=True).stdout
        setup, per_loop = map(float, out.split())
        times.append(setup * CALIBRATION_REFERENCE_S / per_loop)
    return statistics.median(times)


def tail(samples: list[float]) -> str:
    """The highest percentile with at least ten samples beyond it, if any."""
    n = len(samples)
    if n < 11:
        return f"no tail percentile (n={n}, needs 11)"
    return f"p{100 * (n - 10) // n}={sorted(samples)[n - 11]:.4f}"


def machine() -> str:
    import numpy
    return (f"nproc={os.cpu_count()} machine={platform.machine()} "
            f"python={platform.python_version()} numpy={numpy.__version__}")


def run_passes(runner: Runner, seconds: float, traced_runner=None):
    """Run passes until the next one would overrun ``seconds``.

    At least two passes run, so that the second can be checked against the
    first.  With ``traced_runner`` (a callable running one traced pass)
    passes alternate untraced/traced, starting untraced.  Returns
    (untraced passes, traced passes).
    """
    plain, traced = [], []
    start = perf_counter()
    longest = 0.0
    while True:
        began = perf_counter()
        if traced_runner is None or len(plain) <= len(traced):
            plain.append(runner.run_pass())
        else:
            traced.append(traced_runner())
        longest = max(longest, perf_counter() - began)
        if len(plain) + len(traced) >= 2 and perf_counter() - start + longest > seconds:
            return plain, traced


def fail_frac(passes: list[PassResult]) -> float:
    records = sum(p.records for p in passes)
    bad = sum(p.failed_records + len(p.violations) for p in passes)
    return bad / max(records, 1)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--max-invocations", type=int, default=None,
                        help="use only the first N invocations of the workload "
                             "(the negative control always runs)")
    args = parser.parse_args(argv)

    # Turn SIGTERM into SystemExit so the scratch directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    # The program sees only its command-line arguments.
    for name in ("QTAYLOR_TOL", "QTAYLOR_MAX_TERMS"):
        os.environ.pop(name, None)
    cli = import_program()

    calls = invocations(args.workload, args.seed)
    if args.max_invocations is not None:
        calls = calls[:args.max_invocations] + calls[-1:]
    print(f"machine: {machine()}")
    print(f"workload {args.workload}: {len(calls) - 1} invocations per pass "
          f"+ 1 negative control; closed loop, 1 client")

    workdir = Path(tempfile.mkdtemp(prefix=".run-", dir=Path(__file__).parent))
    try:
        runner = Runner(cli.main, calls, workdir)
        if args.trace:
            metrics, passes = traced_metrics(runner, args.seconds)
        else:
            setup_s = setup_seconds()
            passes, _ = run_passes(runner, args.seconds)
            metrics = end_to_end_metrics(passes, setup_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    violations = [v for p in passes for v in p.violations]
    for v in violations[:20]:
        print(f"GATE: {v}")
    result = {
        "correct": not violations,
        "attempted": sum(p.invocations for p in passes),
        "failed": sum(p.bad_invocations for p in passes),
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 1 if violations else 0


def pass_time(passes: list[PassResult], clock: str) -> float:
    """Median over the passes of the ``wall`` or ``cpu`` pass time at reference speed.

    The host shares its CPUs, and its speed for this process drifts by tens
    of percent within minutes.  A pass's time is scaled by the mean speed of
    the calibration loop sampled between its invocations, so the scaled
    time follows the program's work rather than the neighbours' load.
    """
    return statistics.median(p.scaled(clock) for p in passes)


def describe(name: str, passes: list[PassResult], clock: str) -> None:
    raw = [getattr(p, f"{clock}_s") for p in passes]
    loop_ms = [1e3 * t for p in passes for t in p.loop_wall_s]
    print(f"{name}: scaled median={pass_time(passes, clock):.4f} s; raw pass "
          f"median={statistics.median(raw):.4f} s, {tail(raw)}, passes={len(raw)}; "
          f"calibration loop median={statistics.median(loop_ms):.4f} ms wall")


def end_to_end_metrics(passes: list[PassResult], setup_s: float) -> dict:
    frac = fail_frac(passes)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    describe("run_s", passes, "wall")
    describe("run_cpu_s", passes, "cpu")
    print(f"check_fail_frac: {frac:.6f} ({sum(p.failed_records for p in passes)} "
          f"failed records of {sum(p.records for p in passes)})")
    values = {"run_s": pass_time(passes, "wall"), "run_cpu_s": pass_time(passes, "cpu"),
              "check_pass_frac": 1.0 - frac, "setup_s": setup_s, "peak_rss_mb": rss_mb}
    for name, value in values.items():
        print(f"{name} = {value:.6g} {END_TO_END_UNITS[name]}")
    return {name: {"value": value, "unit": END_TO_END_UNITS[name]}
            for name, value in values.items()}


def traced_metrics(runner: Runner, seconds: float) -> tuple[dict, list[PassResult]]:
    """Per-layer metrics from traced passes, alternated with untraced ones."""
    from tracer import Tracer, median_times

    tracer = Tracer(sys.modules["qtaylor"])
    snapshots = []

    def traced_pass() -> PassResult:
        tracer.reset()
        tracer.install()
        try:
            result = runner.run_pass()
        finally:
            tracer.remove()
        snapshots.append(tracer.snapshot())
        return result

    plain, traced = run_passes(runner, seconds, traced_pass)
    counts = snapshots[0]["counts"]
    if any(s["counts"] != counts for s in snapshots[1:]):
        traced[-1].violations.append("work counts differ between traced passes")
    overhead = pass_time(traced, "wall") / pass_time(plain, "wall") - 1.0
    values = {**counts, **median_times(snapshots),
              "check_fail_frac": fail_frac(plain + traced),
              "trace.overhead_frac": overhead}
    print(f"passes: {len(plain)} untraced, {len(traced)} traced")
    for name, value in values.items():
        print(f"{name} = {value:.6g} {layer_unit(name)}")
    metrics = {name: {"value": value, "unit": layer_unit(name)}
               for name, value in values.items()}
    return metrics, plain + traced


def layer_unit(name: str) -> str:
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith(("_frac", "_ratio")):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
