import importlib
import json
import math
import os
import subprocess
import sys
import threading
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

from qtaylor import cli
from qtaylor.errors import ConfigError
from qtaylor.suites import (SuiteConfig, decay_rows, format_complex,
                            parse_complex, run_suites)


class TestComplexText:
    @pytest.mark.parametrize("z", [0.45, -0.3 + 0.2j, 1e-3 - 2.5j, 2.0 + 0.0j])
    def test_round_trip(self, z):
        assert parse_complex(format_complex(complex(z))) == complex(z)

    def test_i_suffix(self):
        assert parse_complex("0.5+0.3i") == 0.5 + 0.3j
        assert parse_complex("-0.2-0.1i") == -0.2 - 0.1j
        assert parse_complex("0.7") == 0.7 + 0j

    def test_rejects_garbage(self):
        with pytest.raises(ConfigError):
            parse_complex("not-a-number")


class TestRunner:
    def test_qcore_smoke(self):
        cfg = SuiteConfig(suites=("qcore",), seed=3, draws=6)
        report = run_suites(cfg)
        assert report.all_passed
        assert len(report.records) >= 4  # at least four check families

    def test_unknown_suite_rejected(self):
        with pytest.raises(ConfigError):
            run_suites(SuiteConfig(suites=("nope",)))

    def test_determinism(self):
        cfg = SuiteConfig(suites=("qcore", "hyper"), seed=11, draws=6)
        r1 = run_suites(cfg)
        r2 = run_suites(cfg)
        s1 = [json.dumps(r.to_dict(), sort_keys=True) for r in r1.records]
        s2 = [json.dumps(r.to_dict(), sort_keys=True) for r in r2.records]
        assert s1 == s2

    def test_negative_control_reports_failure(self):
        cfg = SuiteConfig(suites=("kernel",), seed=5, draws=4,
                          negative_controls=True)
        report = run_suites(cfg)
        sabotaged = [r for r in report.records
                     if r.check == "two-basis-identity-sabotaged"]
        assert len(sabotaged) == 1 and not sabotaged[0].passed
        # a designed failure: a finite degraded residual, not an error
        assert math.isfinite(sabotaged[0].residual)
        assert sabotaged[0].detail == "expected failure: zeroth Taylor value dropped"
        assert not report.all_passed

    def test_summary_structure(self):
        cfg = SuiteConfig(suites=("qcore",), seed=3, draws=6)
        summary = run_suites(cfg).summary()
        assert summary["passed"] is True
        assert summary["suites"]["qcore"]["failures"] == 0

    def test_full_run_covers_every_operation(self):
        # every library operation surfaces in at least one check of "all"
        report = run_suites(SuiteConfig(seed=2, draws=6))
        seen = {(r.suite, r.check) for r in report.records}
        catalog = {
            ("qcore", "recurrence"), ("qcore", "infinite-shift"),
            ("qcore", "multi-factorwise"), ("qcore", "theta-symmetry"),
            ("qcore", "theta-grid-zero"), ("qcore", "weierstrass-addition"),
            ("hyper", "phi-z0"), ("hyper", "phi-terminating"),
            ("hyper", "phi-vs-long-sum"), ("hyper", "vwp-telescoping"),
            ("hyper", "vwp-expanded-roots"), ("hyper", "rogers-summation"),
            ("hyper", "jackson-summation"),
            ("operator", "dq-basics"), ("operator", "dcq-c0-reduction"),
            ("operator", "phi1-lowering"), ("operator", "iterated-lowering"),
            ("operator", "closed-form-vs-recursion"),
            ("operator", "delta-property"), ("operator", "branch-invariance"),
            ("operator", "grid-functional-weights"),
            ("taylor", "coefficient-recovery"), ("taylor", "first-reexpansion"),
            ("taylor", "linearity"), ("taylor", "remainder-consistency"),
            ("taylor", "flat-function"), ("taylor", "basis-boundedness"),
            ("kernel", "factorisation"), ("kernel", "involution"),
            ("kernel", "g-equals-involuted-f"), ("kernel", "f-ratio-geometric"),
            ("kernel", "taylor-crosscheck"), ("kernel", "two-basis-identity"),
            ("kernel", "negative-control-Hb"), ("kernel", "remainder-gap-ratio"),
            ("kernel", "lowering-laws"), ("kernel", "E-grid-zeros"),
            ("kernel", "pole-clearing-paths"), ("kernel", "truncated-flatness"),
            ("kernel", "vwp-rewriting"),
            ("laurent", "monomial"), ("laurent", "quadruple-vs-contour"),
            ("laurent", "E-negative-coefficients"),
            ("laurent", "structured-cancellation"),
            ("profiles", "annular-factorisation"), ("profiles", "profile-quotient"),
            ("profiles", "scalar-profile-sums"), ("profiles", "leading-profile"),
            ("profiles", "profile-kernel"), ("profiles", "kernel-coefficients"),
            ("profiles", "generating-residual"), ("profiles", "bridge-identity"),
            ("profiles", "contiguous-moments"),
            ("profiles", "coefficient-hierarchy"),
            ("profiles", "exponential-profile-limits"),
            ("profiles", "canonical-growth"),
            ("quadratic", "watson-type-expansion"),
            ("quadratic", "companion-expansion"),
            ("quadratic", "unit-leading-coefficients"),
            ("quadratic", "coefficient-decay"),
            ("quadratic", "taylor-identification"), ("quadratic", "tail-decay"),
            ("quadratic", "companion-vwp-form"), ("quadratic", "folding"),
        }
        assert catalog <= seen
        assert report.all_passed


class TestDecayCurves:
    def test_remainder_gap_ratio(self):
        cfg = SuiteConfig(q=0.4, seed=5)
        rows = decay_rows(cfg, "remainder_gap")
        fitted = rows[0][3]
        assert abs(fitted - 0.4) < 0.25 * 0.4

    def test_two_basis_tail_monotone(self):
        cfg = SuiteConfig(seed=5)
        rows = decay_rows(cfg, "two_basis_tail")
        tail = [r[1] for r in rows if r[0] > 10]
        assert all(a > b for a, b in zip(tail, tail[1:]))

    def test_quadratic_tail_and_profile_scaling(self):
        cfg = SuiteConfig(seed=5)
        for target in ("quadratic_tail", "profile_scaling"):
            rows = decay_rows(cfg, target)
            assert len(rows) > 3 and math.isfinite(rows[0][3])

    def test_unknown_target(self):
        with pytest.raises(ConfigError):
            decay_rows(SuiteConfig(), "nope")

    @pytest.mark.parametrize("target, suite, spied", [
        ("remainder_gap", "kernel", "kernel.remainder_gap_curve"),
        ("quadratic_tail", "quadratic", "quadratic.quadratic_tail_curve"),
        ("profile_scaling", "profiles", "profiles.exponential_profile_limit_residual"),
        ("two_basis_tail", "kernel", "kernel.two_basis_terms"),
    ])
    def test_targets_plot_their_checks_draws(self, monkeypatch, target, suite, spied):
        # the curve reads the point and parameter set of remainder-gap-ratio, tail-decay,
        # exponential-profile-limits and the two-basis draw that negative-control-Hb degrades
        module, name = spied.split(".")
        real, calls = getattr(importlib.import_module(f"qtaylor.{module}"), name), []
        monkeypatch.setattr(f"qtaylor.{spied}",
                            lambda *a, **kw: calls.append(a) or real(*a, **kw))

        def draws():  # (point, parameter set) of each call made at one point
            out = [a[1][0][:2] if target == "profile_scaling" else a[:2] for a in calls]
            calls.clear()
            return [draw for draw in out if np.ndim(draw[0]) == 0]
        decay_rows(SuiteConfig(q=0.7, seed=5), target)
        curve = draws()[0]
        run_suites(SuiteConfig(suites=(suite,), q=0.7, seed=5))
        assert curve in draws()


class TestCommandLine:
    def test_reports_do_not_depend_on_the_hash_seed(self, tmp_path):
        # every stream is seeded by a string, which Random hashes by SHA-512, not by hash()
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        reports = []
        for hash_seed in ("0", "1"):
            report = tmp_path / f"report-{hash_seed}.jsonl"
            subprocess.run([sys.executable, "-m", "qtaylor.cli", "--suite", "all", "--report",
                            str(report)], env={**env, "PYTHONHASHSEED": hash_seed},
                           capture_output=True, check=False, timeout=120)
            reports.append(report.read_bytes())
        assert reports[0] == reports[1] and reports[0].count(b"\n") == 65

    @pytest.mark.slow
    @pytest.mark.parametrize("q", ["0.65", "0.7", "-0.6"])
    def test_verdicts_hold_on_an_older_simd_dispatch(self, q, tmp_path, capsys):
        # NumPy picks its SIMD loops at import, and NPY_DISABLE_CPU_FEATURES turns the
        # AVX2/FMA3 and AVX-512 ones off in the child process alone, which then rounds its
        # complex products as an x86-64-v2 machine does: residual bits may move, but every
        # verdict of the run must be that of this process's dispatch
        from numpy._core._multiarray_umath import __cpu_features__
        if not __cpu_features__.get("X86_V3"):
            pytest.skip("this process dispatches no AVX2 loops to turn off")
        script = ("import sys; from numpy._core._multiarray_umath import __cpu_features__\n"
                  "from qtaylor import cli\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print(__cpu_features__['X86_V3'], code)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src"),
               "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4 X86_V3"}
        older, default = tmp_path / "older.jsonl", tmp_path / "default.jsonl"
        run = subprocess.run([sys.executable, "-c", script, "--suite", "all", "--q", q,
                              "--report", str(older)], env=env, capture_output=True,
                             text=True, check=False, timeout=300)
        code = cli.main(["--suite", "all", "--q", q, "--report", str(default)])
        capsys.readouterr()
        assert run.stdout.splitlines()[-1] == f"False {code}"

        def verdicts(report):  # every record's, then the summary's
            *records, summary = map(json.loads, report.read_text().splitlines())
            return ([(r["suite"], r["check"], r["passed"]) for r in records]
                    + [summary["summary"]["passed"]])
        assert len(verdicts(default)) == 65 and verdicts(older) == verdicts(default)

    @pytest.mark.parametrize("q", ["0.45", "0.7"])
    def test_verdicts_need_no_lapack_fit_and_no_fft(self, q, tmp_path, capsys):
        # their first call maps library state into the process (peak memory): a fresh
        # process runs every suite with the least-squares routines refusing to run, and
        # never imports numpy.fft; NumPy imports numpy.linalg itself, so only its calls count
        script = ("import sys; import numpy as np; from qtaylor import cli\n"
                  "def refuse(*args, **kwargs): raise AssertionError('refused')\n"
                  "np.polyfit = np.linalg.lstsq = refuse\n"
                  "code = cli.main(sys.argv[1:])\n"
                  "print('numpy.fft' in sys.modules, code)\n")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
        patched, plain = tmp_path / "patched.jsonl", tmp_path / "plain.jsonl"
        run = subprocess.run([sys.executable, "-c", script, "--suite", "all", "--q", q,
                              "--report", str(patched)], env=env, capture_output=True,
                             text=True, check=False, timeout=120)
        code = cli.main(["--suite", "all", "--q", q, "--report", str(plain)])
        capsys.readouterr()
        assert run.stderr == "" and run.stdout.splitlines()[-1] == f"False {code}"
        assert patched.read_bytes() == plain.read_bytes()

    def test_exit_zero_on_pass(self, tmp_path, capsys):
        report = tmp_path / "report.jsonl"
        code = cli.main(["--suite", "qcore", "--seed", "3", "--draws", "6",
                         "--report", str(report)])
        assert code == 0
        lines = report.read_text().strip().splitlines()
        assert json.loads(lines[-1])["summary"]["passed"] is True
        assert "PASS" in capsys.readouterr().out

    @pytest.mark.parametrize("suite", ["taylor", "laurent", "profiles"])
    def test_reports_identical_for_same_seed(self, suite, tmp_path):
        paths = [tmp_path / "a.jsonl", tmp_path / "b.jsonl"]
        for p in paths:
            cli.main(["--suite", suite, "--seed", "21", "--draws", "6",
                      "--report", str(p)])
        assert paths[0].read_text() == paths[1].read_text()

    def test_negative_controls_exit_one(self, tmp_path):
        code = cli.main(["--suite", "kernel", "--seed", "5", "--draws", "4",
                         "--negative-controls"])
        assert code == 1

    def test_config_file_and_overrides(self, tmp_path):
        cfgfile = tmp_path / "params.json"
        cfgfile.write_text(json.dumps({"q": "0.4", "seed": 9, "draws": 6,
                                       "suite": "qcore"}))
        code = cli.main(["--params", str(cfgfile)])
        assert code == 0

    def test_explicit_kernel_parameters(self, tmp_path):
        cfgfile = tmp_path / "params.json"
        cfgfile.write_text(json.dumps({
            "suite": "kernel", "q": "0.4", "seed": 9, "draws": 4,
            "explicit": [{"b": "0.55+0.2i", "c": "0.62-0.25i",
                          "d": "0.48+0.33i", "e": "0.71-0.12i"}]}))
        report = tmp_path / "r.jsonl"
        code = cli.main(["--params", str(cfgfile), "--report", str(report)])
        assert code == 0
        recs = [json.loads(l) for l in report.read_text().splitlines()[:-1]]
        two_basis = [r for r in recs if r["check"] == "two-basis-identity"]
        assert two_basis[0]["params"]["explicit"] is True
        assert two_basis[0]["params"]["draws"] == 1

    def test_empty_explicit_params_is_config_error(self, tmp_path):
        cfgfile = tmp_path / "params.json"
        cfgfile.write_text(json.dumps({"explicit": []}))
        assert cli.main(["--params", str(cfgfile)]) == 2

    def test_bad_q_is_config_error(self):
        assert cli.main(["--q", "1.5"]) == 2

    @pytest.mark.parametrize("q", ["1e-170", "1e-160", "1e-160i"])
    def test_base_whose_square_underflows_is_config_error(self, q, capsys):
        # q^2 below the smallest normal double: base-q^2 products would see q = 0
        assert cli.main(["--suite", "quadratic", "--q", q]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error: base must satisfy |q|^2")
        assert len(err.splitlines()) == 1

    def test_tiny_base_with_a_normal_square_runs(self, capsys):
        assert cli.main(["--suite", "qcore", "--q", "1e-150"]) == 0
        assert capsys.readouterr().out.endswith("PASS: 6 checks over 1 suites\n")

    def test_env_override_max_terms(self, monkeypatch):
        # a 16-factor cap cannot reach the tail target: checks must fail
        monkeypatch.setenv("QTAYLOR_MAX_TERMS", "16")
        code = cli.main(["--suite", "qcore", "--seed", "3", "--draws", "4"])
        assert code == 1

    @pytest.mark.parametrize("name, value", [
        ("QTAYLOR_TOL", "abc"), ("QTAYLOR_TOL", "0"), ("QTAYLOR_TOL", "nan"),
        ("QTAYLOR_MAX_TERMS", "4"), ("QTAYLOR_MAX_TERMS", "many")])
    def test_bad_env_setting_is_config_error(self, monkeypatch, capsys, name, value):
        monkeypatch.setenv(name, value)
        assert cli.main(["--suite", "qcore", "--seed", "3", "--draws", "4"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("field, value", [
        ("eps_rel", "abc"), ("eps_rel", -1e-10), ("max_terms", 4),
        ("explicit", [{"b": "0.5", "c": "0.6", "d": "0.4"}]),
        ("explicit", [{"b": "zz", "c": "0.6", "d": "0.4", "e": "0.7"}]),
        ("explicit", [1]), ("explicit", {"b": "0.5"}),
        ("modulus_range", 5), ("modulus_range", [0.3]), ("modulus_range", ["a", 1])])
    def test_bad_file_setting_is_config_error(self, tmp_path, capsys, field, value):
        cfgfile = tmp_path / "params.json"
        cfgfile.write_text(json.dumps({"suite": "qcore", field: value}))
        assert cli.main(["--params", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("configuration error:") and "Traceback" not in err

    @pytest.mark.parametrize("field, value", [
        ("draws", 12.7), ("draws", True), ("seed", True), ("seed", 7.5),
        ("draws", 1e400), ("modulus_range", [True, 0.9]), ("max_terms", 64.5)])
    def test_non_integral_or_boolean_setting_is_config_error(self, tmp_path, capsys,
                                                             field, value):
        # int() would have run draws=12 and seed=1; 1e400 is read as Infinity
        cfgfile = tmp_path / "params.json"
        cfgfile.write_text(json.dumps({"suite": "qcore", field: value}))
        assert cli.main(["--params", str(cfgfile)]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"configuration error: {field}") and "Traceback" not in err

    def test_integral_float_setting_is_accepted(self, tmp_path):
        cfgfile = tmp_path / "params.json"
        cfgfile.write_text(json.dumps({"suite": "qcore", "draws": 6.0, "seed": 3}))
        assert cli.main(["--params", str(cfgfile)]) == 0

    @pytest.mark.parametrize("args", [
        ["--suite", "qcore", "--seed", "3", "--draws", "4", "--report", "{missing}/r.jsonl"],
        ["--suite", "qcore", "--seed", "3", "--draws", "4", "--report", "{dir}"],
        ["--emit-csv", "two_basis_tail:{missing}/x.csv"],
        ["--params", "{dir}"]])
    def test_unusable_path_is_config_error(self, tmp_path, capsys, args):
        paths = {"missing": tmp_path / "missing", "dir": tmp_path}
        assert cli.main([a.format(**paths) for a in args]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("configuration error:")
        assert "Traceback" not in captured.err + captured.out

    def test_nonpositive_tol_flag_is_config_error(self):
        assert cli.main(["--suite", "qcore", "--tol", "0"]) == 2

    def test_emit_csv(self, tmp_path):
        # every column of every target is a number: NumPy scalars once wrote np.float64(...)
        for target, rows in (("remainder_gap", 7), ("two_basis_tail", 15),
                             ("quadratic_tail", 12), ("profile_scaling", 10)):
            out = tmp_path / f"{target}.csv"
            code = cli.main(["--emit-csv", f"{target}:{out}", "--q", "0.4", "--seed", "5"])
            assert code == 0
            lines = out.read_text().strip().splitlines()
            assert lines[0] == "order,residual,scale,fitted_ratio"
            assert len(lines) == rows + 1
            table = [[float(v) for v in line.split(",")] for line in lines[1:]]
            assert all(len(row) == 4 for row in table)
            # every row carries the scale its residual was divided by
            assert all(row[2] != 1.0 for row in table)

    def test_emit_csv_bad_target(self, tmp_path):
        assert cli.main(["--emit-csv", f"nope:{tmp_path / 'x.csv'}"]) == 2


class TestInvocationOverhead:
    def test_unwritable_report_path_fails_before_any_suite(self, tmp_path, monkeypatch, capsys):
        ran = []
        monkeypatch.setattr(cli, "run_suites", lambda cfg: ran.append(cfg))
        for report in (tmp_path / "missing" / "r.jsonl", tmp_path):
            assert cli.main(["--suite", "qcore", "--report", str(report)]) == 2
            assert capsys.readouterr().err.startswith("configuration error:")
        assert ran == []

    def test_a_longer_existing_report_is_fully_replaced(self, tmp_path):
        # the report is opened once, for appending; an earlier, longer report is emptied
        # first, so the file holds the same bytes as a report written to a fresh path
        argv = ["--suite", "qcore", "--seed", "3", "--draws", "4", "--report"]
        fresh, reused = tmp_path / "fresh.jsonl", tmp_path / "reused.jsonl"
        assert cli.main(argv + [str(fresh)]) == 0
        reused.write_text("x" * (3 * len(fresh.read_bytes())) + "\n")
        assert cli.main(argv + [str(reused)]) == 0
        assert reused.read_bytes() == fresh.read_bytes()
        assert cli.main(argv + [str(reused)]) == 0  # and an equal one
        assert reused.read_bytes() == fresh.read_bytes()

    def test_report_to_a_pipe_is_written_whole(self, tmp_path):
        # a FIFO cannot seek: the report is written as is, and the run exits 0
        fifo, argv = tmp_path / "report.fifo", ["--suite", "qcore", "--seed", "3", "--draws", "4"]
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(fifo.read_bytes()), daemon=True)
        reader.start()
        try:
            assert cli.main(argv + ["--report", str(fifo)]) == 0
        finally:
            reader.join(timeout=60)
        assert cli.main(argv + ["--report", str(tmp_path / "file.jsonl")]) == 0
        assert got == [(tmp_path / "file.jsonl").read_bytes()]

    def test_to_dict_is_asdict(self):
        from dataclasses import asdict
        for record in run_suites(SuiteConfig(seed=3, draws=4)).records:
            got, want = record.to_dict(), asdict(record)
            assert got == want and list(got) == list(want)
            assert got["params"] is not record.params

    def test_parser_built_once_per_process(self):
        assert cli.make_parser() is cli.make_parser()


def _count_calls(monkeypatch, functions):
    """Count the calls of qtaylor functions, given as (module, name), at every qtaylor
    module that binds them."""
    counts = Counter()
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "qtaylor" or n.startswith("qtaylor."))]
    for module_name, name in functions:
        original = getattr(importlib.import_module(f"qtaylor.{module_name}"), name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is original:
                    monkeypatch.setattr(module, attr, counted)
    return counts


class TestRepeatedInvocations:
    def test_a_second_invocation_does_the_same_work(self, tmp_path, monkeypatch, capsys):
        # one process may run many invocations (the benchmark does): nothing computed in
        # one may be kept for the next, so both make the same calls and write one report
        counts = _count_calls(monkeypatch, [("qcore", "qpoch_infinite"),
                                            ("hyper", "_series_sum"),
                                            ("taylor", "coefficient_rows")])
        runs = []
        for i in range(2):
            report = tmp_path / f"run{i}.jsonl"
            code = cli.main(["--suite", "all", "--q", "0.65", "--seed", "7",
                             "--report", str(report)])
            runs.append((code, dict(counts), report.read_bytes(), capsys.readouterr().out))
            counts.clear()
        assert set(runs[0][1]) == {"qpoch_infinite", "_series_sum", "coefficient_rows"}
        assert runs[1] == runs[0]
