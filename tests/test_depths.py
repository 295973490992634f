"""Suite records that depend on truncation depths and fit windows.

Series depths come from qcore.geometric_depth (through the coefficient
families' own adaptive sums) and fit windows from qcore.fit_window.  At
q = 0.7 the former fixed depths (60 terms) and order windows (4..12) left
the records tested here above their tolerances.  The slow acceptance sweep
pins the records that fail at the bases where the engine is judged.
"""

import functools
import json
from pathlib import Path

import pytest

from conftest import replay_fixture
from qtaylor import kernel
from qtaylor.errors import QTaylorError
from qtaylor.suites import SuiteConfig, format_complex, run_kernel, run_suites

DEFAULT_SEED = SuiteConfig().seed


def _names(cls) -> set:
    return {cls.__name__}.union(*map(_names, cls.__subclasses__()))


# the errors a check block turns into a failed record of that check
CAUGHT_ERRORS = _names(QTaylorError) | _names(ArithmeticError)


@functools.lru_cache(maxsize=None)
def _records(suite: str, q: float, seed: int) -> dict:
    report = run_suites(SuiteConfig(suites=(suite,), q=q, seed=seed))
    return {r.check: r for r in report.records}


# the recorded draws of each (replay_fixtures.json)
@pytest.mark.parametrize("suite, check, seed", [
    ("kernel", "remainder-gap-ratio", DEFAULT_SEED),
    ("kernel", "remainder-gap-ratio", 2),
    ("profiles", "generating-residual", 1),
    ("profiles", "generating-residual", 3),
    ("quadratic", "companion-expansion", 2),
    ("quadratic", "tail-decay", DEFAULT_SEED),
    ("quadratic", "tail-decay", 3),
])
def test_passes_at_high_base(replay, suite, check, seed):
    assert replay(replay_fixture(suite, check, "0.7", seed))[check].passed


def test_two_basis_identity_at_high_base(replay):
    # 60 terms leave ~0.7^60 of the leading coefficients: 1.3e-8 at this recorded draw
    rec = replay(replay_fixture("kernel", "two-basis-identity", "0.7", 3))["two-basis-identity"]
    assert rec.residual < 1e-12
    assert rec.params["trunc"] > 60


def test_records_report_derived_depths():
    records = _records("quadratic", 0.7, DEFAULT_SEED)
    for check in ("watson-type-expansion", "companion-expansion"):
        assert records[check].params["trunc"] != 60
    assert records["tail-decay"].params["orders"] != "4..12"


@pytest.mark.parametrize("q", [0.45, 0.7])
def test_remainder_gap_check_needs_complementary_target(monkeypatch, q):
    # dropping K(c/de), hence the target B K(c/de) S_g, must fail the check
    monkeypatch.setattr(kernel.KernelParams, "Kcde", 0.0)
    [rec] = [r for r in run_kernel(SuiteConfig(q=q)) if r.check == "remainder-gap-ratio"]
    assert not rec.passed


@pytest.mark.slow
@pytest.mark.parametrize("q", [0.8, 0.9])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2, 3])
def test_no_truncation_failure_at_high_bases(q, seed):
    report = run_suites(SuiteConfig(q=q, seed=seed))
    assert not [r for r in report.records if "TruncationFailure" in r.detail]


@pytest.mark.slow
@pytest.mark.parametrize("suite, q", [
    ("hyper", 0.8), ("hyper", 0.9), ("hyper", -0.8), ("hyper", 0.6 + 0.5j),
    ("kernel", 0.9), ("laurent", 0.9), ("taylor", 0.95), ("kernel", 0.95),
    ("laurent", 0.95), ("laurent", -0.8), ("laurent", 0.6 + 0.5j),
])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2, 3])
def test_no_suite_abort_at_high_bases(suite, q, seed):
    # an error fails only the check that raised it, so reject a record that
    # names any caught error as well as a suite-abort; the fixed Rogers probe
    # left |aq/(bcd)| >= 1 past |q| ~ 0.82, the f_k/g_k guard took
    # (q;q)_40 ~ 1.5e-6 at q = 0.9 for a pole, and the Taylor prefactor guard
    # took (q;q)_8 ~ 7.8e-7 at q = 0.95 for one; the Laurent tables' closed-form rows
    # (~860 of them at q = 0.95) must neither raise nor warn
    report = run_suites(SuiteConfig(suites=(suite,), q=q, seed=seed))
    assert not [r.detail for r in report.records if r.check == "suite-abort"
                or r.detail.split(":")[0] in CAUGHT_ERRORS]


SWEEP_BASES = (0.2, 0.45, -0.3, 0.5j, 0.65, 0.7, -0.6)
SWEEP_SEEDS = (DEFAULT_SEED, 1, 2, 3)
# (q, seed, suite, check) of every failing record of the acceptance sweep; the 16 that failed
# when every check of a suite drew from one suite-wide stream keep their verdicts as replay
# fixtures (replay_fixtures.json)
KNOWN_FAILURES = sorted([
    (-0.6, DEFAULT_SEED, "taylor", "basis-boundedness"),
    (-0.6, 1, "taylor", "basis-boundedness"),
    (-0.6, 2, "taylor", "basis-boundedness"),
    (-0.6, 3, "taylor", "basis-boundedness"),
    (0.65, 1, "taylor", "basis-boundedness"),
    (0.65, 2, "profiles", "generating-residual"),
    (0.65, 2, "taylor", "flat-function"),
    (0.65, 3, "taylor", "basis-boundedness"),
    (0.7, DEFAULT_SEED, "taylor", "basis-boundedness"),
    (0.7, 1, "taylor", "basis-boundedness"),
    (0.7, 2, "profiles", "generating-residual"),
    (0.7, 2, "profiles", "bridge-identity"),
    (0.7, 2, "profiles", "canonical-growth"),
    (0.7, 2, "taylor", "basis-boundedness"),
    (0.7, 2, "taylor", "flat-function"),
    (0.7, 3, "taylor", "basis-boundedness"),
    (0.7, 3, "taylor", "flat-function"),
], key=str)


@pytest.mark.slow
def test_acceptance_sweep_fails_exactly_the_known_records():
    # verify --suite all at 7 bases x 4 seeds: 1,792 records, 17 known failures;
    # a verdict change anywhere in the sweep fails this test and names the record
    records, failures = 0, []
    for q in SWEEP_BASES:
        for seed in SWEEP_SEEDS:
            report = run_suites(SuiteConfig(q=complex(q), seed=seed))
            records += len(report.records)
            failures += [(q, seed, r.suite, r.check) for r in report.records if not r.passed]
    assert records == 1792
    assert sorted(failures, key=str) == KNOWN_FAILURES


HIGH_BASES = (0.05, 0.1, 0.8, 0.9, 0.95, -0.8, 0.6 + 0.5j)
# the failing records ("suite/check", in record order) of every run ("seed@q") of the
# high-base matrix that fails any: 157 of its 1,792 records
HIGH_BASE_FAILURES = json.loads(Path(__file__).with_name("high_base_failures.json").read_text())


@pytest.mark.slow
def test_high_base_matrix_fails_exactly_the_pinned_records():
    # verify --suite all at the bases outside the sweep x 4 seeds; a verdict change
    # anywhere in the matrix fails this test and names the run
    records, failures = 0, {}
    for q in HIGH_BASES:
        for seed in SWEEP_SEEDS:
            report = run_suites(SuiteConfig(q=complex(q), seed=seed))
            records += len(report.records)
            failed = [f"{r.suite}/{r.check}" for r in report.records if not r.passed]
            if failed:
                failures[f"{seed}@{format_complex(q)}"] = failed
    assert records == 1792
    assert sum(map(len, HIGH_BASE_FAILURES.values())) == 157
    assert failures == HIGH_BASE_FAILURES
