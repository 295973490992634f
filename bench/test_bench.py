"""Smoke tests of the benchmark itself.

    python3 bench/test_bench.py

They check that a single-invocation run prints every metric named in
BENCHMARK.json with its unit, that a tampered report trips the correctness
gate, that the tracer counts what cProfile counts without changing any
report, and that the benchmark fails cleanly when the program is missing.
"""

from __future__ import annotations

import contextlib
import cProfile
import io
import json
import pstats
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracer import Tracer  # noqa: E402

cli = run.import_program()
import qtaylor  # noqa: E402  (imported from src by import_program)

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench_run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170, check=False)


class WorkDir:
    """A scratch directory inside the benchmark directory, removed on exit."""

    def __enter__(self) -> Path:
        self.path = Path(tempfile.mkdtemp(prefix=".run-", dir=HERE))
        return self.path

    def __exit__(self, *exc) -> None:
        shutil.rmtree(self.path, ignore_errors=True)


def verify(argv: list[str], report: Path) -> tuple[int, bytes]:
    with contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv + ["--report", str(report)])
    return code, report.read_bytes()


class SingleInvocationRun(unittest.TestCase):
    def check_metrics(self, trace: str, spec: list[dict]) -> None:
        proc = bench_run("--workload", "structured-moderate", "--seed", "3",
                         "--seconds", "1", "--trace", trace, "--max-invocations", "1")
        self.assertEqual(proc.returncode, 0, proc.stdout + proc.stderr)
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 2)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in spec])
        for m in spec:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])
            self.assertTrue(any(line.startswith(f"{m['name']} = ")
                                and line.endswith(f" {m['unit']}") for line in lines),
                            f"{m['name']} not printed with its unit")

    def test_end_to_end_metrics(self):
        self.check_metrics("0", BENCH["end_to_end"])

    def test_per_layer_metrics(self):
        self.check_metrics("1", BENCH["per_layer"])


class CorrectnessGate(unittest.TestCase):
    def setUp(self):
        self.inv = run.Invocation("0.45", "qcore", 7)
        with WorkDir() as tmp, contextlib.redirect_stdout(io.StringIO()):
            self.code = cli.main(self.inv.argv(tmp / "r.jsonl"))
            self.report = (tmp / "r.jsonl").read_bytes()

    def test_untouched_report_passes(self):
        problems, records, failed = run.gate(self.inv, self.code, self.report, self.report)
        self.assertEqual(problems, [])
        self.assertGreater(records, 0)
        self.assertEqual(failed, 0)

    def test_changed_residual_differs_from_first_pass(self):
        first = json.loads(self.report.splitlines()[0])
        tampered = self.report.replace(json.dumps(first["residual"]).encode(), b"0.0", 1)
        self.assertNotEqual(tampered, self.report)
        problems, _, _ = run.gate(self.inv, self.code, tampered, self.report)
        self.assertIn("report differs from the first pass", problems)

    def test_flipped_verdict_trips_summary_and_exit_code(self):
        tampered = self.report.replace(b'"passed": true', b'"passed": false', 1)
        problems, _, _ = run.gate(self.inv, self.code, tampered, None)
        self.assertIn("summary verdict disagrees with the records", problems)
        self.assertTrue(any(p.startswith("exit code 0") for p in problems))

    def test_truncated_report_is_unreadable(self):
        problems, _, _ = run.gate(self.inv, self.code, self.report[:40], None)
        self.assertTrue(problems[0].startswith("unreadable report"))

    def test_negative_control_must_fail(self):
        control = run.Invocation("0.45", "kernel", 7, negative_control=True)
        problems, _, _ = run.gate(control, 0, self.report, None)
        self.assertIn("negative control exited 0, expected 1", problems)
        self.assertIn(f"{run.SABOTAGED_CHECK} did not fail", problems)

    def test_nondeterministic_second_pass_is_caught(self):
        calls = [self.inv]
        state = {"calls": 0}

        def drifting_main(argv):
            state["calls"] += 1
            code = cli.main(argv)
            if state["calls"] == 2:
                path = Path(argv[argv.index("--report") + 1])
                path.write_bytes(path.read_bytes().replace(b"qcore", b"qc0re", 1))
            return code

        with WorkDir() as tmp:
            runner = run.Runner(drifting_main, calls, tmp)
            self.assertEqual(runner.run_pass().violations, [])
            second = runner.run_pass()
        self.assertEqual(second.bad_invocations, 1)
        self.assertIn("report differs from the first pass", second.violations[0])

    def test_tampered_report_fails_the_command(self):
        def tampering_main(argv):
            code = cli.main(argv)
            path = Path(argv[argv.index("--report") + 1])
            path.write_bytes(path.read_bytes().replace(b'"passed": true',
                                                       b'"passed": false', 1))
            return code

        out = io.StringIO()
        with mock.patch.object(cli, "main", tampering_main), \
                contextlib.redirect_stdout(out):
            code = run.main(["--workload", "structured-moderate", "--seed", "1",
                             "--seconds", "0", "--max-invocations", "1"])
        self.assertEqual(code, 1)
        self.assertFalse(json.loads(out.getvalue().splitlines()[-1])["correct"])


class TracerSelfCheck(unittest.TestCase):
    def test_counts_match_cprofile_and_reports_are_unchanged(self):
        argv = ["--suite", "all", "--q", "0.45"]
        with WorkDir() as tmp:
            _, plain = verify(argv, tmp / "plain.jsonl")
            profile = cProfile.Profile()
            profile.enable()
            verify(argv, tmp / "profiled.jsonl")
            profile.disable()
            tracer = Tracer(qtaylor)
            tracer.install()
            try:
                _, traced = verify(argv, tmp / "traced.jsonl")
            finally:
                tracer.remove()
        profiled_calls = sum(
            stat[1] for (path, _, name), stat in pstats.Stats(profile).stats.items()
            if name == "qpoch_infinite" and path.endswith("qcore.py"))
        counts = tracer.snapshot()["counts"]
        self.assertEqual(counts["qcore.qpoch_infinite.calls"], profiled_calls)
        self.assertEqual(traced, plain)
        self.assertIs(qtaylor.kernel.qpoch_infinite, qtaylor.qcore.qpoch_infinite)
        self.assertFalse(hasattr(qtaylor.kernel.qpoch_infinite, "__wrapped__"))

    def test_contour_nodes_count_only_E_evaluations(self):
        tracer = Tracer(qtaylor)
        snapshots = {}
        with WorkDir() as tmp:
            for suite in ("profiles", "laurent"):
                tracer.reset()
                tracer.install()
                try:
                    verify(["--suite", suite, "--q", "0.45"], tmp / f"{suite}.jsonl")
                finally:
                    tracer.remove()
                snapshots[suite] = tracer.snapshot()["counts"]
        self.assertGreater(snapshots["profiles"]["kernel.contour.calls"], 0)
        self.assertEqual(snapshots["profiles"]["kernel.contour.nodes"], 0)
        self.assertGreater(snapshots["laurent"]["kernel.contour.nodes"], 0)


class Inputs(unittest.TestCase):
    def test_seed_fixes_the_invocations(self):
        for name in run.WORKLOADS:
            self.assertEqual(run.invocations(name, 5), run.invocations(name, 5))
            self.assertNotEqual(run.invocations(name, 5), run.invocations(name, 6))
        self.assertEqual([w["name"] for w in BENCH["workloads"]], list(run.WORKLOADS))

    def test_fails_without_the_program(self):
        with WorkDir() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            (tmp / "bench").mkdir()
            for path in HERE.glob("*.py"):
                shutil.copy(path, tmp / "bench")
            proc = bench_run("--workload", "full-moderate", "--seed", "1",
                             "--seconds", "1", "--trace", "0", cwd=tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
