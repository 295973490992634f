import math
import random
from dataclasses import replace

import pytest

from qtaylor.errors import (DivergenceSuspected, DomainError, TruncationFailure,
                            ZeroDenominator)
from qtaylor.hyper import (PhiSeriesSpec, VWPSpec, jackson_8w7_residual,
                           phi_eval, rogers_6w5_residual, vwp_eval,
                           vwp_expanded_spec, well_poised_defect)
from qtaylor.kernel import f_spec, g_spec
from qtaylor.qcore import QContext
from qtaylor.quadratic import h_spec, r_spec
from qtaylor.sampling import sample_complex, sample_kernel_params, sample_quadratic_params
from qtaylor.suites import SuiteConfig, run_hyper


class TestPhiSeries:
    def test_parameter_count_enforced(self):
        with pytest.raises(DomainError):
            PhiSeriesSpec((0.1, 0.2), (0.3, 0.4), 0.5)

    def test_argument_zero(self, ctx):
        spec = PhiSeriesSpec((0.4 + 0.1j, 0.3), (0.5 - 0.2j,), 0.0)
        assert phi_eval(spec, None, ctx).value == 1.0

    def test_terminating_two_term_sum(self, ctx):
        q = ctx.q
        z = 0.3 + 0.2j
        a1 = 0.4
        b1 = 0.6
        spec = PhiSeriesSpec((1 / q, a1), (b1,), z)
        got = phi_eval(spec, None, ctx).value
        # direct two-term sum: 1 + (1 - q^{-1})(1 - a1) / ((1 - q)(1 - b1)) z
        want = 1 + (1 - 1 / q) * (1 - a1) / ((1 - q) * (1 - b1)) * z
        assert got == pytest.approx(want, rel=1e-13)

    def test_terminating_insensitive_to_extra_terms(self, ctx):
        spec = PhiSeriesSpec((1 / ctx.q ** 2, 0.4), (0.6,), 0.3 + 0.2j)
        exact = phi_eval(spec, 2, ctx).value
        longer = phi_eval(spec, 12, ctx).value
        assert abs(exact - longer) <= 1e-13 * abs(exact)

    def test_adaptive_matches_brute_force(self, ctx, rng):
        for _ in range(10):
            nums = tuple(sample_complex(rng, 0.2, 0.9) for _ in range(3))
            dens = tuple(sample_complex(rng, 0.3, 0.9) for _ in range(2))
            spec = PhiSeriesSpec(nums, dens, sample_complex(rng, 0.1, 0.5))
            adaptive = phi_eval(spec, None, ctx).value
            brute = phi_eval(spec, 220, ctx).value
            assert abs(adaptive - brute) / abs(brute) < 1e-12

    def test_zero_denominator_detected(self, ctx):
        spec = PhiSeriesSpec((0.4, 0.3), (1 / ctx.q ** 2,), 0.2)
        with pytest.raises(ZeroDenominator):
            phi_eval(spec, None, ctx)

    def test_divergence_guard(self, ctx):
        spec = PhiSeriesSpec((2.0, 3.0), (0.1,), 2.0)
        with pytest.raises(DivergenceSuspected):
            phi_eval(spec, None, ctx)


class TestVWPSeries:
    def test_argument_zero(self, ctx):
        spec = VWPSpec(0.5, (0.6, 0.7), 0.0)
        assert vwp_eval(spec, None, ctx).value == 1.0

    def test_rejects_unit_leading_parameter(self, ctx):
        with pytest.raises(DomainError):
            vwp_eval(VWPSpec(1.0, (0.5,), 0.2), None, ctx)

    def test_expanded_list_both_roots(self, ctx, rng):
        # for real a > 0 both explicit square roots reproduce the ratio form
        for _ in range(6):
            a = rng.uniform(0.3, 0.8)
            root = math.sqrt(a)
            spec = VWPSpec(a, tuple(sample_complex(rng, 0.4, 0.9) for _ in range(2)),
                           sample_complex(rng, 0.1, 0.4))
            v = vwp_eval(spec, 24, ctx).value
            for r in (root, -root):
                w = phi_eval(vwp_expanded_spec(spec, r, ctx), 24, ctx).value
                assert abs(v - w) / abs(v) < 1e-12

    def test_well_poised_pairing(self, ctx):
        spec = VWPSpec(0.55 + 0.1j, (0.6, 0.7 - 0.2j, 0.4), 0.3)
        assert well_poised_defect(spec, ctx) < 1e-15

    def test_partial_sum_telescoping(self, ctx):
        spec = VWPSpec(0.55, (0.6 + 0.2j, 0.7, 0.4 - 0.3j), 0.3 + 0.1j)
        s8 = vwp_eval(spec, 8, ctx).value
        s9 = vwp_eval(spec, 9, ctx).value
        q = ctx.q
        k = 9
        from qtaylor.qcore import qpoch_finite, qpoch_multi
        summand = ((1 - spec.a * q ** (2 * k)) / (1 - spec.a)
                   * qpoch_finite(spec.a, k, ctx)
                   * qpoch_multi(spec.b_list, k, ctx).value
                   / (qpoch_finite(q, k, ctx)
                      * qpoch_multi([spec.a * q / b for b in spec.b_list],
                                    k, ctx).value)
                   * spec.argument ** k)
        assert abs((s9 - s8) - summand) <= 1e-14 * max(abs(s9), abs(summand))


def family_specs(q):
    """The four coefficient families f, g, h, r at one sampled draw."""
    ctx = QContext(q)
    rng = random.Random(15)
    kp, qp = sample_kernel_params(rng, ctx), sample_quadratic_params(rng)
    return ctx, [f_spec(kp), g_spec(kp), h_spec(qp, ctx), r_spec(qp, ctx)]


class TestAdaptiveStop:
    """The adaptive sum stops where geometric_depth(rate, |t_k| / |S_k|) first reads 0."""

    @pytest.mark.parametrize("q", [0.2, 0.7, -0.6])
    def test_stop_index_is_the_depth_rule(self, q):
        ctx, specs = family_specs(q)
        # a cap no sum reaches sends every stop test through geometric_depth
        capped = replace(ctx, max_terms=10 ** 6)
        for spec in specs:
            tb, ref = vwp_eval(spec, None, ctx), vwp_eval(spec, None, capped)
            assert (tb.terms_used, tb.value, tb.tail_abs) == (ref.terms_used, ref.value,
                                                              ref.tail_abs)

    @pytest.mark.parametrize("q", [0.2, 0.7, -0.6])
    def test_small_cap_still_raises(self, q):
        ctx, specs = family_specs(q)
        for spec in specs:
            with pytest.raises(TruncationFailure):
                vwp_eval(spec, None, replace(ctx, max_terms=16))


class TestRogersSummation:
    def test_seeded_draws(self, ctx, rng):
        worst = 0.0
        draws = 0
        while draws < 50:
            a = sample_complex(rng, 0.2, 0.9)
            b, c, d = (sample_complex(rng, 0.35, 0.95) for _ in range(3))
            if abs(a * ctx.q / (b * c * d)) > 0.7:
                continue
            worst = max(worst, rogers_6w5_residual(a, b, c, d, ctx))
            draws += 1
        assert worst < 1e-9

    def test_small_c_limit_region(self, ctx):
        assert rogers_6w5_residual(0.04, 0.8, 0.05 + 0.01j, 0.8, ctx) < 1e-8

    @pytest.mark.parametrize("q", [0.45, 0.9, -0.8, 0.6 + 0.5j])
    def test_suite_probe_scales_with_q(self, q):
        # the suite's small-c probe keeps |aq/(bcd)| at 0.55 at every base
        records = {r.check: r for r in run_hyper(SuiteConfig(q=q))}
        assert "suite-abort" not in records
        assert records["rogers-summation"].passed

    def test_convergence_region_enforced(self, ctx):
        with pytest.raises(DomainError):
            rogers_6w5_residual(0.9, 0.3, 0.3, 0.3, ctx)


class TestJacksonSummation:
    def test_depth_zero(self, ctx):
        assert jackson_8w7_residual(0.5, 0.6, 0.7, 0.8, 0, ctx) == 0.0

    def test_depth_one(self, ctx, rng):
        a, b, c, d = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
        assert jackson_8w7_residual(a, b, c, d, 1, ctx) < 1e-12

    def test_seeded_draws_depth_twelve(self, ctx, rng):
        worst = 0.0
        for _ in range(50):
            a, b, c, d = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
            n = rng.randrange(0, 13)
            worst = max(worst, jackson_8w7_residual(a, b, c, d, n, ctx))
        assert worst < 1e-10
