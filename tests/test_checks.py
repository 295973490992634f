"""The check runner: every suite check is a block that fails on its own."""

import dataclasses
import importlib
import json
import math
import re
from pathlib import Path

import pytest

import numpy as np

from qtaylor import hyper, kernel, profiles, qcore, suites, taylor, wpoperator
from qtaylor.errors import DomainError, ZeroDenominator
from qtaylor.suites import (SuiteConfig, parse_complex, run_kernel, run_laurent, run_operator,
                            run_profiles, run_qcore, run_suites, run_taylor)

from conftest import replay_fixture



def _raise(exc):
    def broken(*args, **kwargs):
        raise exc
    return broken


@pytest.mark.parametrize("exc", [ZeroDenominator("forced"), ZeroDivisionError("forced")])
def test_error_fails_only_its_check(monkeypatch, exc):
    cfg = SuiteConfig(suites=("kernel",), draws=4)
    before = [r.to_dict() for r in run_suites(cfg).records]
    monkeypatch.setattr(kernel, "kernel_taylor_terms", _raise(exc))
    after = [r.to_dict() for r in run_suites(cfg).records]
    assert [r["check"] for r in after] == [r["check"] for r in before]
    for old, new in zip(before, after):
        if new["check"] == "taylor-crosscheck":
            assert not new["passed"] and new["residual"] == math.inf
            assert new["detail"] == f"{type(exc).__name__}: forced"
        else:
            assert new == old


def test_a_zero_decay_value_fails_only_its_fit(monkeypatch):
    cfg = SuiteConfig(suites=("kernel",), draws=4)
    before = [r.to_dict() for r in run_suites(cfg).records]
    real, calls = kernel.remainder_gap_curve, []

    def one_zero_gap(z, kp, orders):
        gaps, scales = real(z, kp, orders)
        calls.append(orders)
        return (gaps[:3] + (0.0,) + gaps[4:] if len(calls) == 1 else gaps), scales

    monkeypatch.setattr(kernel, "remainder_gap_curve", one_zero_gap)
    after = [r.to_dict() for r in run_suites(cfg).records]
    assert [r["check"] for r in after] == [r["check"] for r in before]
    failed = [new for new in after if not new["passed"]]
    assert [r["check"] for r in failed] == ["remainder-gap-ratio"]
    [rec] = failed
    assert rec["residual"] == math.inf
    assert rec["detail"] == (f"DomainError: decay value 0.0 at order {calls[0][3]} "
                             "is not positive and finite")
    assert [r for r in after if r is not rec] == [
        r for r in before if r["check"] != "remainder-gap-ratio"]


def test_operator_error_fails_closed_form_check(monkeypatch):
    # a raising draw must fail the check, not be skipped
    monkeypatch.setattr(wpoperator, "cooper_eval", _raise(DomainError("forced")))
    [rec] = [r for r in run_operator(SuiteConfig(draws=4))
             if r.check == "closed-form-vs-recursion"]
    assert not rec.passed
    assert rec.detail == "DomainError: forced"


@pytest.mark.parametrize("q", ["0.65", "0.7"])
def test_profiles_error_keeps_the_other_records(replay, q):
    # generating-residual leaves the validated s-disc at its recorded draw
    records = replay(replay_fixture("profiles", "generating-residual", q, 2561212077))
    assert len(records) == 12 and "suite-abort" not in records
    failed = [r for r in records.values() if not r.passed]
    assert failed and all(r.detail.startswith("ConvergenceRegionViolation: ") for r in failed)


@pytest.mark.parametrize("q", [0.45, 0.7])
def test_dcq_c0_reduction_fails_on_a_perturbed_closed_form(monkeypatch, q):
    # the check compares D_{0,q} of the drawn combination with its lowering law, an
    # independent closed form: a relative error of 1e-11 in that form must fail it
    real = taylor.lowered_terms
    monkeypatch.setattr(taylor, "lowered_terms",
                        lambda *args: [t * (1 + 1e-11) for t in real(*args)])
    [rec] = [r for r in run_operator(SuiteConfig(q=q)) if r.check == "dcq-c0-reduction"]
    assert not rec.passed and rec.residual > 1e-12


def test_batched_check_reports_the_first_failing_draw(monkeypatch):
    # the batch of all draws fails; judged one by one, the first draw that fails on its
    # own names the error, and no later draw is evaluated
    real, singles = hyper.jackson_8w7_terms, []

    def flaky(a, b, c, d, n, ctx):
        if np.ndim(a):
            raise ZeroDenominator("somewhere in the batch")
        singles.append(a)
        if len(singles) in (3, 5):
            raise DomainError(f"draw {len(singles)}")
        return real(a, b, c, d, n, ctx)
    monkeypatch.setattr(hyper, "jackson_8w7_terms", flaky)
    [rec] = [r for r in run_suites(SuiteConfig(suites=("hyper",))).records
             if r.check == "jackson-summation"]
    assert not rec.passed and rec.detail == "DomainError: draw 3" and len(singles) == 3


@pytest.mark.parametrize("name, check, per_draw", [
    ("theta", "theta-symmetry", 2), ("weierstrass_terms", "weierstrass-addition", 1)])
def test_stacked_qcore_checks_report_the_first_failing_draw(monkeypatch, name, check,
                                                            per_draw):
    # theta-symmetry evaluates theta at u and q/u, weierstrass-addition one set of terms a
    # draw: the batch fails, and judged one by one the third draw names its own error
    real, singles = getattr(qcore, name), []

    def flaky(*args):
        if np.ndim(args[0]):
            raise ZeroDenominator("somewhere in the batch")
        singles.append(args[0])
        if len(singles) == 2 * per_draw + 1:
            raise DomainError(f"draw 3 at {args[0]!r}")
        return real(*args)
    monkeypatch.setattr(qcore, name, flaky)
    [rec] = [r for r in run_qcore(SuiteConfig()) if r.check == check]
    assert not rec.passed and rec.detail == f"DomainError: draw 3 at {singles[2 * per_draw]!r}"


def test_a_depth_cap_fails_only_the_checks_that_reach_it():
    # E-kp's depth, laurent's contour coefficients and the profile closed forms are read
    # inside the checks that use them: a cap of 60 terms at q = 0.45 fails those checks
    # one by one and keeps the other records of each suite
    for run, count in ((run_kernel, 13), (run_laurent, 4), (run_profiles, 12)):
        records = run(SuiteConfig(q=0.45, max_terms=60))
        failed = [r for r in records if not r.passed]
        assert len(records) == count and 0 < len(failed) < count
        assert all(r.detail.startswith("TruncationFailure: ") for r in failed)


def _scaled_laurent_row(monkeypatch):  # the suite's row |P1_(1,0)| scaled down to 1e-9 of it
    real = kernel.laurent_pair
    monkeypatch.setattr(kernel, "laurent_pair", lambda pos, neg, n: real(pos, neg, n)
                        * (1e-9 if np.ndim(pos) == 1 else 1.0))


def _convergent_boundary(monkeypatch):  # every contiguous moment flagged convergent
    real = profiles.contiguous_moment
    monkeypatch.setattr(profiles, "contiguous_moment",
                        lambda kp, m: dataclasses.replace(real(kp, m), convergent=True))


@pytest.mark.parametrize("run, q, seed, force, check, detail", [
    (run_taylor, 0.45, 20240901,
     lambda mp: mp.setattr(taylor, "flatness_check", lambda *args: 0.0),
     "flat-function", r"control failed: phi_3 flatness 0\.000e\+00 <= 1e-04"),
    # from bench structured-moderate seed 1; 9.734e-07 at q = 0.45 and 3.478e-06 at -0.3
    (run_kernel, 0.2, 2367369324, None, "truncated-flatness",
     r"control failed: beyond-depth residual 9\.993e-08 <= 1e-05"),
    (run_laurent, 0.45, 20240901, _scaled_laurent_row, "structured-cancellation",
     r"control failed: individual \|P1_\(1,0\)\|=\d\.\d{3}e-\d\d <= 1e-03"),
    (run_profiles, 0.45, 20240901, _convergent_boundary, "contiguous-moments",
     r"control failed: convergent at m=0: True, m=1: True, m=-12: True"),
    (run_profiles, 0.7, 2, None, "canonical-growth",
     r"control failed: C-factor spread 12\.1 >= 10 at radius 1\.72"),
], ids=["flat-function", "truncated-flatness", "structured-cancellation", "contiguous-moments",
        "canonical-growth"])
def test_a_failed_control_says_so_and_gives_its_value(monkeypatch, run, q, seed, force, check,
                                                      detail):
    if force:
        force(monkeypatch)
    [rec] = [r for r in run(SuiteConfig(q=q, seed=seed)) if r.check == check]
    assert not rec.passed and rec.residual == math.inf
    assert re.fullmatch(detail, rec.detail), rec.detail


def test_a_check_that_draws_more_moves_no_other_record(monkeypatch):
    # every check draws from a stream of its own: one more number drawn before each Rogers
    # draw gives rogers-summation other draws, and every other hyper record keeps every byte
    def records():
        return [json.dumps(r.to_dict(), sort_keys=True)
                for r in run_suites(SuiteConfig(suites=("hyper",))).records]
    before, real, drawn = records(), suites._rogers_draw, []
    monkeypatch.setattr(suites, "_rogers_draw",
                        lambda rng, ctx: rng.random() and drawn.append(real(rng, ctx)) or drawn[-1])
    moved = {json.loads(old)["check"] for old, new in zip(before, records(), strict=True)
             if new != old}
    assert len(drawn) == SuiteConfig().draws and moved <= {"rogers-summation"}


def test_records_report_the_draws_that_ran():
    records = {r.check: r for r in run_suites(SuiteConfig(suites=("kernel",), draws=4)).records}
    for check in ("factorisation", "involution", "lowering-laws"):
        assert records[check].params["draws"] == 4
    assert records["vwp-rewriting"].params["draws"] == 3
    grid = records["E-grid-zeros"].params
    assert grid["grid_powers"] == "0..10" and grid["depth"] > 10


# checks judged by additive terms or by a reference value since their library
# functions return the terms: each record carries the real scale
TERM_SCALED = [("hyper", "vwp-telescoping"), ("hyper", "rogers-summation"),
               ("hyper", "jackson-summation"), ("operator", "iterated-lowering"),
               ("operator", "grid-functional-weights"), ("kernel", "g-equals-involuted-f"),
               ("kernel", "taylor-crosscheck"), ("kernel", "two-basis-identity"),
               ("kernel", "lowering-laws"), ("kernel", "truncated-flatness"),
               ("kernel", "vwp-rewriting"), ("laurent", "structured-cancellation"),
               ("profiles", "annular-factorisation"), ("profiles", "leading-profile"),
               ("profiles", "bridge-identity"), ("profiles", "coefficient-hierarchy"),
               ("quadratic", "watson-type-expansion"), ("quadratic", "companion-expansion"),
               ("quadratic", "taylor-identification"), ("quadratic", "companion-vwp-form"),
               ("quadratic", "folding")]

# absolute residuals against exact targets of modulus 0 or 1, the reach of a flatness
# measure, ratios compared with 1, and a control ratio (see README, "Numerical conventions")
UNIT_SCALED = sorted([
    ("hyper", "phi-z0"), ("operator", "dq-basics"), ("operator", "delta-property"),
    ("taylor", "flat-function"), ("taylor", "basis-boundedness"),
    ("kernel", "negative-control-Hb"), ("laurent", "monomial"),
    ("quadratic", "unit-leading-coefficients")])

# the two summations whose t_0 is the literal 1: at a draw where no other term exceeds it,
# their largest term is that 1 and a record scaled right reads 1.0, so each is read at the
# recorded draws of q = 0.45 and the default seed, where its largest term is another
SCALE_FIXTURES = {("hyper", check): replay_fixture("hyper", check, "0.45", SuiteConfig().seed)
                  for check in ("rogers-summation", "jackson-summation")}


def test_records_carry_the_scale_they_were_divided_by(replay):
    # a check that hands c.see a residual it scaled itself records scale 1.0 and fails here
    report = run_suites(SuiteConfig(q=0.45))
    records = {(r.suite, r.check): r for r in report.records}
    assert len(records) == len(report.records) == 64
    records.update({key: replay(fixture)[key[1]] for key, fixture in SCALE_FIXTURES.items()})
    assert all(records[key].scale != 1.0 for key in TERM_SCALED)
    assert sorted(key for key, r in records.items() if r.scale == 1.0) == UNIT_SCALED
    assert records["qcore", "theta-symmetry"].scale != 1.0
    assert records["qcore", "multi-factorwise"].scale != 1.0
    assert "terms" not in records["qcore", "recurrence"].to_dict()


def _rhs_times(factor):
    def defect(real):
        def patched(*args):
            terms = real(*args)
            if isinstance(terms, np.ndarray):  # a batch: row 0 holds each draw's rhs
                return np.vstack([terms[:1] * factor, terms[1:]])
            return (terms[0] * factor, *terms[1:])
        return patched
    return defect


def _last_summand_dropped(real):
    def patched(a, b, c, d, n, ctx):
        terms = real(a, b, c, d, n, ctx)
        if isinstance(terms, np.ndarray):  # a batch: t_n of each draw is in row n + 1
            terms = terms.copy()
            terms[np.asarray(n) + 1, np.arange(terms.shape[1])] = 0.0
            return terms
        return terms[:-1]
    return patched


def _ninth_partial_sum_short(real):  # S_9 summed without its last term
    return lambda spec, trunc, ctx: real(spec, 8 if trunc == 9 else trunc, ctx)


def _times(factor):
    return lambda real: lambda *args: real(*args) * factor


def _second_weight_times(factor):
    return lambda real: lambda *args: [w * (factor if i == 1 else 1) for i, w in
                                       enumerate(real(*args))]


def _third_closed_form_times(factor):
    return lambda real: lambda *args: [(t, closed * factor if k == 3 else closed)
                                       for k, (t, closed) in enumerate(real(*args))]


def _one_order_short(real):  # E truncated one order short of the nodes it must vanish at
    return lambda z, kp, n, products=None: real(z, kp, n - 1, products)


def _e_over_z_dropped(real):
    return lambda *args: (*real(*args)[:3], 0.0)


def _last_factor_dropped(real):  # (x;q)_n without its last factor
    def patched(x, n, ctx):
        (lhs, rhs), infinite = real(x, n, ctx)
        return ((lhs / (1 - x * ctx.q ** (n - 1)) if n else lhs), rhs), infinite
    return patched


# a defect of each identity's own kind, patched into the function its terms come from
NEGATIVE_CONTROLS = [
    ("hyper/rogers-summation", "hyper.rogers_6w5_terms", _rhs_times(1 + 1e-6)),
    ("hyper/jackson-summation", "hyper.jackson_8w7_terms", _last_summand_dropped),
    ("hyper/vwp-telescoping", "hyper.series_eval", _ninth_partial_sum_short),
    ("operator/grid-functional-weights", "wpoperator.grid_functional_weights",
     _second_weight_times(1 + 1e-6)),
    ("kernel/taylor-crosscheck", "kernel.kernel_taylor_terms", _third_closed_form_times(1 + 1e-5)),
    ("kernel/truncated-flatness", "kernel.pole_cleared_E_terms", _one_order_short),
    pytest.param("profiles/bridge-identity", "profiles.bridge_terms", _e_over_z_dropped,
                 marks=pytest.mark.xfail(strict=True, reason=(
                     "E and the generating residual both vanish identically, so the E/Z "
                     "side is rounding next to the largest term and no defect of it shows"))),
    ("quadratic/taylor-identification", "quadratic.quadratic_taylor_terms",
     _third_closed_form_times(1 + 1e-5)),
    ("quadratic/folding", "quadratic.folding_terms", _last_factor_dropped),
    ("profiles/profile-kernel", "profiles.L_profile", _times(1 + 1e-6)),
]


@pytest.mark.parametrize("record, target, defect", NEGATIVE_CONTROLS)
def test_negative_control_fails_under_the_term_scale(monkeypatch, replay, record, target,
                                                     defect):
    # each check judged against its largest additive term must still see a defect of
    # its own identity: the record passes clean and fails, on its residual, with the
    # defect patched in
    suite, check = record.split("/")

    def run():
        if (suite, check) in SCALE_FIXTURES:
            return replay(SCALE_FIXTURES[suite, check])[check]
        [rec] = [r for r in run_suites(SuiteConfig(suites=(suite,))).records if r.check == check]
        return rec
    clean = run()
    module, name = target.split(".")
    real = getattr(importlib.import_module(f"qtaylor.{module}"), name)
    monkeypatch.setattr(f"qtaylor.{target}", defect(real))
    rec = run()
    assert clean.passed and clean.scale != 1.0
    assert not rec.passed and math.isfinite(rec.residual)


def test_negative_control_error_escapes(monkeypatch):
    # an error in the sabotaged evaluation must not pass for its designed failure
    real = kernel.two_basis_terms

    def broken(z, kp, n, force_unit_Hb=False):
        if force_unit_Hb:
            raise ZeroDenominator("forced")
        return real(z, kp, n)
    monkeypatch.setattr(kernel, "two_basis_terms", broken)
    with pytest.raises(ZeroDenominator):
        run_suites(SuiteConfig(suites=("kernel",), draws=4, negative_controls=True))


def test_canonical_growth_failure_names_the_spread(replay):
    # the C-factor spread, not the reassembly, fails at this recorded draw
    rec = replay(replay_fixture("profiles", "canonical-growth", "0.7", 2798990346))[
        "canonical-growth"]
    assert not rec.passed and rec.params["spread"] >= 10.0
    assert rec.detail == "control failed: C-factor spread 11.3 >= 10 at radius 1.58"


# every record of verify --suite profiles at these verify seeds and bases ("seed@q"): each
# check's draws come from its own stream and the named draws it reads, so a check that
# draws more or fewer numbers moves no other record; at 951650520@0.7 a point of
# generating-residual and one of bridge-identity leave the validated s-disc
STREAM_RECORDS = json.loads(Path(__file__).with_name("profiles_stream.json").read_text())


@pytest.mark.parametrize("run", sorted(STREAM_RECORDS))
def test_profiles_records_keep_the_random_stream(run):
    seed, q = run.split("@")
    records = run_profiles(SuiteConfig(q=float(q), seed=int(seed)))
    assert [[r.check, r.passed, r.params, r.detail] for r in records] == STREAM_RECORDS[run]


# every qcore, operator and taylor record (suite, check, verdict, residual, params, detail) at
# these verify seeds (the default and those of full-high-q bench seeds 1-2) and bases
# ("seed@q"; at 0.6+0.5i, q and its root have two nonzero parts).  The exact residuals are
# the bits of NumPy 2.4 on an x86-64 AVX-512 machine: f's sample rounds in NumPy's complex
# loops at every base (the draws are complex), and a last-bit change in its terms moves
# closed-form-vs-recursion's residual by up to 2,500 u, so a build whose complex multiply
# rounds otherwise (no fused multiply-add, say) reads other residual bits here, while
# verdicts, params and details hold.
DRAW_AXIS_RECORDS = json.loads(Path(__file__).with_name("draw_axis_stream.json").read_text())


@pytest.mark.parametrize("run", sorted(DRAW_AXIS_RECORDS))
def test_draw_axis_records_keep_the_random_stream(run):
    seed, q = run.split("@")
    cfg = SuiteConfig(q=parse_complex(q), seed=int(seed))
    records = [r for suite in (run_qcore, run_operator, run_taylor) for r in suite(cfg)]
    assert [[r.suite, r.check, r.passed, r.residual, r.params, r.detail]
            for r in records] == DRAW_AXIS_RECORDS[run]
