"""Suites on two processes: a multi-suite run forks one worker for half of its suites.

Every record, report byte, line of stdout and exit code must be the serial loop's, an
error must surface in the parent as the serial loop raises it, and no child process may
outlive the run.
"""

import json
import os
import signal
import subprocess
import sys
from pathlib import Path

import pytest

from qtaylor import cli, quadratic, suites
from qtaylor.errors import ZeroDenominator
from qtaylor.suites import SuiteConfig, parse_complex, run_suites

pytestmark = pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")

BASES = ["0.45", "-0.3", "0.5i", "0.7"]
SEEDS = [20240901, 1]


@pytest.fixture(autouse=True)
def no_child_survives():
    yield
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _refuse_fork():
    raise AssertionError("forked on one usable CPU")


def on_both_paths(monkeypatch, run):
    """run() as two processes (on two usable CPUs, one fork) and as the serial loop (on one)."""
    forks, real_fork = [], os.fork

    def counted_fork():
        forks.append(os.getpid())
        return real_fork()
    with monkeypatch.context() as m:
        m.setattr(os, "fork", counted_fork)
        m.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        two = run()
    assert forks == [os.getpid()]
    with monkeypatch.context() as m:
        m.setattr(os, "fork", _refuse_fork)
        m.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        one = run()
    return two, one


def _records(cfg):
    return [json.dumps(r.to_dict(), sort_keys=True) for r in run_suites(cfg).records]


@pytest.mark.parametrize("negative_controls", [False, True])
@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("q", BASES)
def test_two_processes_give_the_serial_records(q, seed, negative_controls, monkeypatch):
    cfg = SuiteConfig(q=parse_complex(q), seed=seed, negative_controls=negative_controls)
    two, one = on_both_paths(monkeypatch, lambda: _records(cfg))
    assert len(two) == 64 + negative_controls and two == one


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("q", BASES)
def test_two_processes_give_the_serial_report(q, seed, tmp_path, monkeypatch, capsys):
    argv = ["--suite", "all", "--q", q, "--seed", str(seed), "--negative-controls"]

    def run():
        report = tmp_path / "report.jsonl"
        code = cli.main(argv + ["--report", str(report)])
        return code, report.read_bytes(), capsys.readouterr()
    two, one = on_both_paths(monkeypatch, run)
    assert two == one and two[0] == 1  # the sabotaged check fails by design


@pytest.mark.parametrize("names, cpus", [(("qcore", "hyper", "taylor"), {0, 1}),
                                         (("laurent", "profiles"), {0, 1}),
                                         (("kernel", "quadratic", "taylor", "laurent"), {0})])
def test_no_fork_without_two_suites_a_side_and_two_cpus(names, cpus, monkeypatch):
    monkeypatch.setattr(os, "fork", _refuse_fork)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
    records = run_suites(SuiteConfig(suites=names, draws=4)).records
    assert list(dict.fromkeys(r.suite for r in records)) == list(names)


def test_a_worker_side_error_fails_only_its_check(monkeypatch):
    # the worker inherits the patch, as a forked process inherits all of this one
    cfg = SuiteConfig(draws=4)
    before = _records(cfg)

    def broken(*args, **kwargs):
        raise ZeroDenominator("forced")
    monkeypatch.setattr(quadratic, "companion_vwp_terms", broken)
    two, one = on_both_paths(monkeypatch, lambda: _records(cfg))
    assert two == one
    changed = [json.loads(new) for old, new in zip(before, two) if new != old]
    assert len(two) == len(before) and [r["check"] for r in changed] == ["companion-vwp-form"]
    assert changed[0]["detail"] == "ZeroDenominator: forced" and not changed[0]["passed"]


class LocalError(Exception):
    """An exception whose two arguments pickling does not give back to its constructor."""

    def __init__(self, what, where):
        super().__init__(f"{what} in {where}")


@pytest.mark.parametrize("exc, raised", [
    (RuntimeError("forced"), RuntimeError("forced")),
    (LocalError("forced", "laurent"), RuntimeError("LocalError: forced in laurent")),
])
def test_an_escaping_worker_error_is_raised_in_the_parent(exc, raised, monkeypatch):
    def runner(cfg):
        raise exc
    monkeypatch.setitem(suites._RUNNERS, "laurent", runner)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    with pytest.raises(type(raised)) as info:
        run_suites(SuiteConfig(draws=4))
    assert str(info.value) == str(raised)


def test_a_dead_worker_raises_and_leaves_no_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(suites._RUNNERS, "profiles", lambda cfg: os._exit(3))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    report = tmp_path / "report.jsonl"
    report.write_text("an earlier report\n")
    with pytest.raises(RuntimeError, match=r"'taylor', 'laurent', 'profiles', 'quadratic'.*"
                                           r"wait status 768"):
        cli.main(["--suite", "all", "--draws", "4", "--report", str(report)])
    assert report.read_text() == "an earlier report\n" and capsys.readouterr().out == ""


@pytest.mark.parametrize("suite", ["kernel", "qcore"])
def test_a_signal_in_the_parent_reaps_the_worker(suite, monkeypatch):
    # the parent's half turns SIGTERM into SystemExit, as bench/run.py does
    previous = signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    try:
        monkeypatch.setitem(suites._RUNNERS, suite,
                            lambda cfg: os.kill(os.getpid(), signal.SIGTERM))
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(SystemExit) as info:
            cli.main(["--suite", "all", "--draws", "4"])
    finally:
        signal.signal(signal.SIGTERM, previous)
    assert info.value.code == 128 + signal.SIGTERM


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs sched_setaffinity")
def test_one_usable_cpu_gives_the_serial_loop(tmp_path, capsys):
    # the child restricts itself to one CPU before it imports qtaylor, and refuses to fork
    script = ("import os, sys\n"
              "os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
              "def refuse(): raise AssertionError('forked on one usable CPU')\n"
              "os.fork = refuse\n"
              "from qtaylor import cli\n"
              "sys.exit(cli.main(sys.argv[1:]))\n")
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    one, default = tmp_path / "one.jsonl", tmp_path / "default.jsonl"
    run = subprocess.run([sys.executable, "-c", script, "--suite", "all", "--q", "0.45",
                          "--report", str(one)], env=env, capture_output=True, text=True,
                         check=False, timeout=120)
    code = cli.main(["--suite", "all", "--q", "0.45", "--report", str(default)])
    assert (run.returncode, run.stdout, run.stderr) == (code, capsys.readouterr().out, "")
    assert one.read_bytes() == default.read_bytes()
