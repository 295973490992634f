import math

import numpy as np
import pytest

from qtaylor.errors import ConvergenceRegionViolation, PoleProximity
from qtaylor.hyper import vwp_eval
from qtaylor.qcore import qpoch_finite
from qtaylor.quadratic import (QuadraticParams, companion_coefficient, companion_product,
                               companion_residual, companion_series_vs_vwp,
                               companion_taylor_identification,
                               folding_identity_check, h_spec,
                               quadratic_coefficient, quadratic_residual,
                               quadratic_tail_curve,
                               quadratic_taylor_identification, r_spec)
from qtaylor.sampling import sample_complex, sample_quadratic_params, sample_z
from qtaylor.suites import SuiteConfig, run_quadratic


@pytest.fixture
def qp():
    return QuadraticParams(0.78 + 0.2j, 0.37 - 0.12j, 0.45 + 0.21j, 0.66 - 0.3j)


class TestParameters:
    def test_ratio_bound_enforced(self):
        with pytest.raises(ConvergenceRegionViolation):
            QuadraticParams(0.4, 0.5, 0.3, 0.6)

    def test_companion_bound_enforced(self):
        with pytest.raises(ConvergenceRegionViolation):
            QuadraticParams(0.8, 0.4, 1.1, 0.6)


def _pochs(params, k, ctx):
    return math.prod(qpoch_finite(u, k, ctx) for u in params)


class TestCoefficientSpecs:
    """The summands of h_spec and r_spec against the closed forms, k <= 12."""

    def test_h_closed_form(self, qp, ctx):
        a, b, q, rq = qp.a, qp.b, ctx.q, ctx.sqrt_q
        hs = vwp_eval(h_spec(qp, ctx), 12, ctx).terms
        assert len(hs) == 13
        for k, h in enumerate(hs):
            closed = ((1 - a * b * q ** (2 * k - 1)) / (1 - a * b / q)
                      * _pochs([a * b / q, b / rq, -b / rq, a * q / b], k, ctx)
                      / _pochs([q, a * rq, -a * rq, b * b / q], k, ctx)
                      * (-b / a) ** k)
            assert h == pytest.approx(closed, rel=1e-12)

    def test_r_closed_form(self, qp, ctx):
        al, d, q = qp.alpha, qp.d, ctx.q
        rs = vwp_eval(r_spec(qp, ctx), 12, ctx).terms
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
            qp = sample_quadratic_params(rng)
            z = sample_z(rng)
            assert quadratic_residual(z, qp, 60, ctx) < 1e-8

    def test_unit_leading_coefficient(self, qp, ctx):
        assert quadratic_coefficient(qp, 0, ctx) == 1.0

    def test_coefficient_decay_rate(self, qp, ctx):
        target = abs(qp.b / qp.a)
        for k in (20, 30, 40):
            r = abs(quadratic_coefficient(qp, k + 1, ctx)
                    / quadratic_coefficient(qp, k, ctx))
            assert abs(r - target) < 0.1 * target

    def test_taylor_identification(self, qp, ctx):
        assert quadratic_taylor_identification(qp, 6, ctx) < 1e-7

    def test_tail_remainder_decay(self, qp, ctx, rng):
        z = sample_z(rng)
        orders = [4, 6, 8, 10, 12]
        tails = quadratic_tail_curve(z, qp, orders, ctx)
        fit = math.exp(np.polyfit(orders, np.log(tails), 1)[0])
        assert abs(fit - abs(qp.b / qp.a)) < 0.1 * abs(qp.b / qp.a)

    def test_pole_margin(self, ctx, qp):
        with pytest.raises(PoleProximity):
            quadratic_residual(1 / qp.b, qp, 40, ctx)

    @pytest.mark.parametrize("m", [1, 3])
    def test_tail_curve_rejects_later_pole_circle(self, m, ctx, qp):
        with pytest.raises(PoleProximity):
            quadratic_tail_curve(qp.b * ctx.q ** m, qp, [4, 6], ctx)


class TestCompanionExpansion:
    def test_seeded_draws(self, ctx, rng):
        for _ in range(20):
            qp = sample_quadratic_params(rng)
            z = sample_z(rng)
            assert companion_residual(z, qp, 60, ctx) < 1e-8

    def test_unit_leading_coefficient(self, qp, ctx):
        assert companion_coefficient(qp, 0, ctx) == 1.0

    def test_coefficient_decay_rate(self, qp, ctx):
        target = abs(qp.alpha)
        for k in (20, 35):
            r = abs(companion_coefficient(qp, k + 1, ctx)
                    / companion_coefficient(qp, k, ctx))
            assert abs(r - target) < 0.1 * target

    def test_taylor_identification(self, qp, ctx):
        assert companion_taylor_identification(qp, 6, ctx) < 1e-7

    def test_vwp_specialisation(self, qp, ctx, rng):
        z = sample_z(rng)
        assert companion_series_vs_vwp(z, qp, ctx) < 1e-10


class TestExpansionScale:
    """The expansion residuals are scaled by their largest term, not by |Q(z)|."""

    def near_zero_point(self):
        # q = 0.9, seed 2: |Q_companion(z)| = 3.7e-9 at draw 9, terms of order 1
        cfg = SuiteConfig(suites=("quadratic",), q=0.9, seed=2)
        ctx, rng = cfg.context(), cfg.rng_for("quadratic")
        points = [(sample_quadratic_params(rng), sample_z(rng)) for _ in range(cfg.draws)]
        return ctx, points[9]

    def test_companion_record_passes_at_high_base(self):
        cfg = SuiteConfig(suites=("quadratic",), q=0.9, seed=2)
        [record] = [r for r in run_quadratic(cfg) if r.check == "companion-expansion"]
        assert record.passed and record.residual < 1e-13

    def test_truncation_still_fails_at_the_same_point(self):
        ctx, (qp, z) = self.near_zero_point()
        assert abs(companion_product(z, qp, ctx)) < 1e-8
        depth = vwp_eval(r_spec(qp, ctx), None, ctx).terms_used - 1
        assert companion_residual(z, qp, depth, ctx) < 1e-13
        assert companion_residual(z, qp, 3, ctx) > 1e-8


class TestFolding:
    def test_empty_products(self, ctx):
        assert folding_identity_check(0.7 + 0.2j, 0, ctx) < 1e-10

    def test_finite_random_arguments(self, ctx, rng):
        for _ in range(10):
            x = sample_complex(rng, 0.2, 0.9)
            assert folding_identity_check(x, 5, ctx) < 1e-12

    def test_infinite_at_large_modulus(self):
        from qtaylor.qcore import QContext
        ctx = QContext(0.5)
        assert folding_identity_check(0.9, 6, ctx) < 1e-10
