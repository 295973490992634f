import math
import random

import numpy as np
import pytest

from conftest import decode_draw, replay_fixture
from qtaylor import hyper, quadratic
from qtaylor.errors import ConvergenceRegionViolation, DomainError, PoleProximity
from qtaylor.hyper import series_eval
from qtaylor.qcore import QContext, qpoch_finite, scaled_residual
from qtaylor.quadratic import (QuadraticParams, companion_product,
                               companion_taylor_terms, companion_terms,
                               companion_vwp_terms, folding_terms, h_spec,
                               quadratic_tail_curve, quadratic_taylor_terms,
                               quadratic_terms, r_spec)
from qtaylor.sampling import sample_complex, sample_quadratic_params, sample_z
from qtaylor.suites import SuiteConfig, parse_complex, run_quadratic


@pytest.fixture
def qp(ctx):
    return QuadraticParams(0.78 + 0.2j, 0.37 - 0.12j, 0.45 + 0.21j, 0.66 - 0.3j, ctx)


class TestParameters:
    def test_ratio_bound_enforced(self, ctx):
        with pytest.raises(ConvergenceRegionViolation):
            QuadraticParams(0.4, 0.5, 0.3, 0.6, ctx)

    def test_companion_bound_enforced(self, ctx):
        with pytest.raises(ConvergenceRegionViolation):
            QuadraticParams(0.8, 0.4, 1.1, 0.6, ctx)

    @pytest.mark.parametrize("zero", range(4))
    def test_zero_parameter_rejected(self, ctx, zero):
        params = [0.8, 0.4, 0.3, 0.6]
        params[zero] = 0.0
        with pytest.raises(DomainError):
            QuadraticParams(*params, ctx)


class TestFamilyCache:
    """C_{a,b}, the companion constant and the h, r sums are computed once per instance."""

    @pytest.mark.parametrize("q", [0.2, 0.45, 0.7, -0.6, 0.5j, 0.9])
    def test_reads_equal_a_fresh_sum(self, q):
        # below, at and past the adaptive depth: a slice, then a continuation
        ctx = QContext(q)
        rng = random.Random(19)
        for _ in range(6):
            qp = sample_quadratic_params(rng, ctx)
            for spec, family, adaptive in ((h_spec(qp), qp.h_terms, qp.h_sum),
                                           (r_spec(qp), qp.r_terms, qp.r_sum)):
                depth = adaptive.terms_used - 1
                assert family() == adaptive.terms == series_eval(spec, None, ctx).terms
                for n in (0, 1, 6, 31, depth, depth + 5, depth + 40):
                    assert family(n) == series_eval(spec, n, ctx).terms, n

    def test_values_computed_once_per_instance(self, monkeypatch, qp, ctx):
        products, runs = [], []
        real_quotient, real_series_sum = quadratic.qpoch_quotient, hyper._series_sum
        monkeypatch.setattr(quadratic, "qpoch_quotient",
                            lambda *a: products.append(a) or real_quotient(*a))
        monkeypatch.setattr(hyper, "_series_sum",
                            lambda *a: runs.append(a) or real_series_sum(*a))

        def evaluate(params):
            values = (params.Cab, params.Cad, params.h_terms(), params.r_terms(),
                      params.h_terms(6), params.r_terms(0))
            return values, (len(products), len(runs))
        first, counts = evaluate(qp)
        assert counts == (2, 2)
        assert evaluate(qp) == (first, (2, 2))
        # no process-wide cache: an equal parameter set computes its own
        twin = QuadraticParams(qp.a, qp.b, qp.alpha, qp.d, ctx)
        assert twin == qp and evaluate(twin) == (first, (4, 4))

    def test_suite_sums_each_family_once_per_draw(self, monkeypatch):
        # summing h and r again for the coefficient checks (at depths 0, 31 and 6)
        # took 31 runs
        cfg = SuiteConfig(suites=("quadratic",), q=0.45)
        runs, real_series_sum = [], hyper._series_sum
        monkeypatch.setattr(hyper, "_series_sum",
                            lambda *a: runs.append(a) or real_series_sum(*a))
        records = run_quadratic(cfg)
        assert all(r.passed for r in records)
        # one adaptive run per family for all draws (the first draw reads its column for
        # the coefficient checks), and the one 8W7 form of companion-vwp-form
        assert [trunc for _, trunc, *_ in runs] == [[None] * cfg.draws] * 2 + [[None]]


def _pochs(params, k, ctx):
    return math.prod(qpoch_finite(u, k, ctx) for u in params)


class TestCoefficientSpecs:
    """The summands of h_spec and r_spec against the closed forms, k <= 12."""

    def test_h_closed_form(self, qp, ctx):
        a, b, q, rq = qp.a, qp.b, ctx.q, ctx.sqrt_q
        hs = series_eval(h_spec(qp), 12, ctx).terms
        assert len(hs) == 13
        for k, h in enumerate(hs):
            closed = ((1 - a * b * q ** (2 * k - 1)) / (1 - a * b / q)
                      * _pochs([a * b / q, b / rq, -b / rq, a * q / b], k, ctx)
                      / _pochs([q, a * rq, -a * rq, b * b / q], k, ctx)
                      * (-b / a) ** k)
            assert h == pytest.approx(closed, rel=1e-12)

    def test_r_closed_form(self, qp, ctx):
        al, d, q = qp.alpha, qp.d, ctx.q
        rs = series_eval(r_spec(qp), 12, ctx).terms
        assert len(rs) == 13
        for k, r in enumerate(rs):
            closed = ((1 + al * q ** (2 * k)) / (1 + al)
                      * _pochs([-al, al, -d, -q / d], k, ctx)
                      / _pochs([q, -q, al * q / d, al * d], k, ctx)
                      * al ** k)
            assert r == pytest.approx(closed, rel=1e-12)


class TestWatsonTypeExpansion:
    def test_seeded_draws(self, ctx, rng):
        for _ in range(20):
            qp = sample_quadratic_params(rng, ctx)
            z = sample_z(rng)
            assert scaled_residual(*quadratic_terms(z, qp, 60)) < 1e-8

    def test_unit_leading_coefficient(self, qp):
        assert qp.h_terms(0) == (1.0,)

    def test_coefficient_decay_rate(self, qp):
        target = abs(qp.b / qp.a)
        hs = qp.h_terms(41)
        for k in (20, 30, 40):
            r = abs(hs[k + 1] / hs[k])
            assert abs(r - target) < 0.1 * target

    def test_taylor_identification(self, qp):
        assert max(scaled_residual(*pair) for pair in quadratic_taylor_terms(qp, 6)) < 1e-7

    def test_tail_remainder_decay(self, qp, rng):
        z = sample_z(rng)
        orders = [4, 6, 8, 10, 12]
        tails, _ = quadratic_tail_curve(z, qp, orders)
        fit = math.exp(np.polyfit(orders, np.log(tails), 1)[0])
        assert abs(fit - abs(qp.b / qp.a)) < 0.1 * abs(qp.b / qp.a)

    def test_pole_margin(self, qp):
        with pytest.raises(PoleProximity):
            quadratic_terms(1 / qp.b, qp, 40)

    @pytest.mark.parametrize("m", [1, 3])
    def test_tail_curve_rejects_later_pole_circle(self, m, ctx, qp):
        with pytest.raises(PoleProximity):
            quadratic_tail_curve(qp.b * ctx.q ** m, qp, [4, 6])


class TestCompanionExpansion:
    def test_seeded_draws(self, ctx, rng):
        for _ in range(20):
            qp = sample_quadratic_params(rng, ctx)
            z = sample_z(rng)
            assert scaled_residual(*companion_terms(z, qp, 60)) < 1e-8

    def test_unit_leading_coefficient(self, qp):
        assert qp.r_terms(0) == (1.0,)

    def test_coefficient_decay_rate(self, qp):
        target = abs(qp.alpha)
        rs = qp.r_terms(36)
        for k in (20, 35):
            r = abs(rs[k + 1] / rs[k])
            assert abs(r - target) < 0.1 * target

    def test_taylor_identification(self, qp):
        assert max(scaled_residual(*pair) for pair in companion_taylor_terms(qp, 6)) < 1e-7

    def test_vwp_specialisation(self, qp, rng):
        z = sample_z(rng)
        assert scaled_residual(*companion_vwp_terms(z, qp)) < 1e-10


class TestExpansionScale:
    """The expansion residuals are scaled by their largest term, not by |Q(z)|."""

    FIXTURE = replay_fixture("quadratic", "companion-expansion", "0.9", 2)

    def near_zero_point(self):
        # q = 0.9, draw 9 of the recorded ones: |Q_companion(z)| = 3.7e-9, terms of order 1
        (_, qp), (_, z) = self.FIXTURE["draws"]["points"][18:20]
        return decode_draw("sample_quadratic_params", qp, QContext(0.9)), parse_complex(z)

    def test_companion_record_passes_at_high_base(self, replay):
        record = replay(self.FIXTURE)["companion-expansion"]
        assert record.passed and record.residual < 1e-13

    def test_truncation_still_fails_at_the_same_point(self):
        qp, z = self.near_zero_point()
        assert abs(companion_product(z, qp)) < 1e-8
        assert scaled_residual(*companion_terms(z, qp)) < 1e-13
        assert scaled_residual(*companion_terms(z, qp, 3)) > 1e-8


class TestFolding:
    def test_empty_products(self, ctx):
        assert max(scaled_residual(*pair) for pair in folding_terms(0.7 + 0.2j, 0, ctx)) < 1e-10

    def test_finite_random_arguments(self, ctx, rng):
        for _ in range(10):
            x = sample_complex(rng, 0.2, 0.9)
            assert max(scaled_residual(*pair) for pair in folding_terms(x, 5, ctx)) < 1e-12

    def test_infinite_at_large_modulus(self):
        from qtaylor.qcore import QContext
        ctx = QContext(0.5)
        assert max(scaled_residual(*pair) for pair in folding_terms(0.9, 6, ctx)) < 1e-10
