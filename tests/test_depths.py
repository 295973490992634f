"""Suite records that depend on truncation depths and fit windows.

Series depths come from qcore.geometric_depth (through the coefficient
families' own adaptive sums) and fit windows from qcore.fit_window.  At
q = 0.7 the former fixed depths (60 terms) and order windows (4..12) left
the records tested here above their tolerances.
"""

import functools

import pytest

from qtaylor import kernel
from qtaylor.suites import SuiteConfig, run_kernel, run_suites

DEFAULT_SEED = SuiteConfig().seed


@functools.lru_cache(maxsize=None)
def _records(suite: str, q: float, seed: int) -> dict:
    report = run_suites(SuiteConfig(suites=(suite,), q=q, seed=seed))
    return {r.check: r for r in report.records}


@pytest.mark.parametrize("suite, check, seed", [
    ("kernel", "remainder-gap-ratio", DEFAULT_SEED),
    ("kernel", "remainder-gap-ratio", 2),
    ("profiles", "generating-residual", 1),
    ("profiles", "generating-residual", 3),
    ("quadratic", "companion-expansion", 2),
    ("quadratic", "tail-decay", DEFAULT_SEED),
    ("quadratic", "tail-decay", 3),
])
def test_passes_at_high_base(suite, check, seed):
    assert _records(suite, 0.7, seed)[check].passed


def test_two_basis_identity_at_high_base():
    # 60 terms leave ~0.7^60 of the leading coefficients: 1.3e-8 at this seed
    rec = _records("kernel", 0.7, 3)["two-basis-identity"]
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
    monkeypatch.setattr(kernel, "K_at_cde", lambda kp: 0.0)
    [rec] = [r for r in run_kernel(SuiteConfig(q=q)) if r.check == "remainder-gap-ratio"]
    assert not rec.passed


@pytest.mark.slow
@pytest.mark.parametrize("q", [0.8, 0.9])
@pytest.mark.parametrize("seed", [DEFAULT_SEED, 1, 2, 3])
def test_no_truncation_failure_at_high_bases(q, seed):
    report = run_suites(SuiteConfig(q=q, seed=seed))
    assert not [r for r in report.records if "TruncationFailure" in r.detail]
