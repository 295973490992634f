"""The check runner: every suite check is a block that fails on its own."""

import math

import pytest

from qtaylor import kernel, wpoperator
from qtaylor.errors import DomainError, ZeroDenominator
from qtaylor.suites import (SuiteConfig, run_operator, run_profiles,
                            run_suites)


def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


@pytest.mark.parametrize("exc", [ZeroDenominator("forced"), ZeroDivisionError("forced")])
def test_error_fails_only_its_check(monkeypatch, exc):
    cfg = SuiteConfig(suites=("kernel",), draws=4)
    before = [r.to_dict() for r in run_suites(cfg).records]
    monkeypatch.setattr(kernel, "kernel_taylor_crosscheck", _raise(exc))
    after = [r.to_dict() for r in run_suites(cfg).records]
    assert [r["check"] for r in after] == [r["check"] for r in before]
    for old, new in zip(before, after):
        if new["check"] == "taylor-crosscheck":
            assert not new["passed"] and new["residual"] == math.inf
            assert new["detail"] == f"{type(exc).__name__}: forced"
        else:
            assert new == old


def test_operator_error_fails_closed_form_check(monkeypatch):
    # a raising draw must fail the check, not be skipped
    monkeypatch.setattr(wpoperator, "cooper_eval", _raise(DomainError("forced")))
    [rec] = [r for r in run_operator(SuiteConfig(draws=4))
             if r.check == "closed-form-vs-recursion"]
    assert not rec.passed
    assert rec.detail == "DomainError: forced"


@pytest.mark.parametrize("q", [0.65, 0.7])
def test_profiles_error_keeps_the_other_records(q):
    # generating-residual leaves the validated s-disc for this draw
    records = run_profiles(SuiteConfig(q=q, seed=2561212077))
    assert len(records) == 12
    assert "suite-abort" not in {r.check for r in records}
    failed = [r for r in records if not r.passed]
    assert failed and all(r.detail.startswith("ConvergenceRegionViolation: ")
                          for r in failed)


def test_records_report_the_draws_that_ran():
    records = {r.check: r for r in run_suites(SuiteConfig(suites=("kernel",), draws=4)).records}
    for check in ("factorisation", "involution", "lowering-laws"):
        assert records[check].params["draws"] == 4
    assert records["vwp-rewriting"].params["draws"] == 3
    grid = records["E-grid-zeros"].params
    assert grid["grid_powers"] == "0..10" and grid["depth"] > 10


def test_records_carry_the_scale_they_were_divided_by():
    records = {r.check: r for r in run_suites(SuiteConfig(suites=("qcore",), draws=4)).records}
    assert records["theta-symmetry"].scale != 1.0
    assert records["multi-factorwise"].scale != 1.0
    assert "terms" not in records["recurrence"].to_dict()


def test_negative_control_error_escapes(monkeypatch):
    # an error in the sabotaged evaluation must not pass for its designed failure
    real = kernel.two_basis_residual

    def broken(z, kp, n, force_unit_Hb=False):
        if force_unit_Hb:
            raise ZeroDenominator("forced")
        return real(z, kp, n)
    monkeypatch.setattr(kernel, "two_basis_residual", broken)
    with pytest.raises(ZeroDenominator):
        run_suites(SuiteConfig(suites=("kernel",), draws=4, negative_controls=True))


def test_canonical_growth_failure_names_the_spread():
    # the C-factor spread, not the reassembly, fails at this draw
    [rec] = [r for r in run_profiles(SuiteConfig(q=0.7, seed=2798990346))
             if r.check == "canonical-growth"]
    assert not rec.passed and rec.params["spread"] >= 10.0
    assert rec.detail == "C-factor spread 11.3 >= 10 at radius 1.58"
