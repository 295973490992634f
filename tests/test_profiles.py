import cmath
import math

import numpy as np
import pytest

from qtaylor.errors import (ConvergenceRegionViolation, DomainError,
                            PoleProximity)
from qtaylor.kernel import (KernelParams, involute, laurent_coefficient_detail,
                            pole_cleared_E_terms)
from qtaylor.profiles import (annular_factorization_terms,
                              bridge_terms,
                              canonical_growth_profile, contiguous_moment,
                              exponential_profile_limit_residual,
                              generating_Q_terms, L_profile,
                              leading_profile_terms,
                              leading_profile_theta_terms,
                              profile_coefficient_terms,
                              profile_kernel_P, profile_kernel_coefficients,
                              profile_sums_and_closed_forms)
from qtaylor.qcore import QContext, qpoch_infinite, scaled_residual, theta
from qtaylor.sampling import (sample_complex, sample_profile_kernel_params,
                              sample_z)


@pytest.fixture
def kp(ctx4):
    # |b| < |c| keeps the profile sums and the first moments convergent
    return KernelParams(0.45 + 0.15j, 0.72 - 0.2j, 0.48 + 0.33j, 0.71 - 0.12j,
                        ctx4)


@pytest.fixture
def lam(kp):
    return kp.b


def pinf(a, ctx):
    return qpoch_infinite(a, ctx).value


class TestAnnularFactorisation:
    def test_layer_zero_sides_coincide(self, ctx4):
        lam, w = 0.6 + 0.1j, 1.1 + 0.2j
        assert scaled_residual(*annular_factorization_terms(lam, 0, w, ctx4)) < 1e-15

    @pytest.mark.parametrize("N", [5, 10, 20])
    def test_deep_layers(self, N, ctx4):
        terms = annular_factorization_terms(0.6 + 0.1j, N, 1.05 + 0.2j, ctx4)
        assert scaled_residual(*terms) < 1e-10

    @pytest.mark.parametrize("q", [0.1, 0.05])
    def test_deepest_layer_at_small_base(self, q):
        # (-lam/z)^20 alone overflows here: |lam/z| = 1/(q^20 |w|) ~ 1e20 at q = 0.1
        terms = annular_factorization_terms(0.6 + 0.1j, 20, 1.3 + 0.2j, QContext(q))
        assert scaled_residual(*terms) < 1e-10

    def test_zero_set_validation(self, ctx4):
        with pytest.raises(PoleProximity):
            annular_factorization_terms(0.6, 5, 1.0, ctx4)


class TestLimitProfile:
    def test_equal_parameters(self, ctx4, lam):
        assert L_profile(1.1 + 0.2j, 0.5, 0.5, lam, ctx4) == 1.0

    def test_theta_quotient_equivalence(self, ctx4, lam, rng):
        al, be = sample_complex(rng, 0.4, 0.9), sample_complex(rng, 0.4, 0.9)
        w = sample_z(rng, 0.9, 1.2)
        lp = L_profile(w, al, be, lam, ctx4)
        th = theta(al / (lam * w), ctx4) / theta(be / (lam * w), ctx4)
        assert lp == pytest.approx(th, rel=1e-12)

    def test_limit_of_scaled_quotient(self, ctx4, lam):
        al, be = 0.6 + 0.1j, 0.8 - 0.2j
        w = 1.1 + 0.25j
        target = L_profile(w, al, be, lam, ctx4)
        errs = []
        for N in (4, 8, 12):
            z = lam * ctx4.q ** N * w
            quot = ((be / al) ** N * pinf(al * z, ctx4) * pinf(al / z, ctx4)
                    / (pinf(be * z, ctx4) * pinf(be / z, ctx4)))
            errs.append(abs(quot - target) / abs(target))
        assert errs[0] > errs[1] > errs[2]
        assert errs[2] < 1e-4


class TestScalarProfileSums:
    def test_series_vs_products(self, kp):
        cf = profile_sums_and_closed_forms(kp)
        assert cf.F_star_series == pytest.approx(cf.F_star_product, rel=1e-9)
        assert cf.G_star_series == pytest.approx(cf.G_star_product, rel=1e-9)

    def test_theta_quotient_forms(self, kp):
        cf = profile_sums_and_closed_forms(kp)
        assert cf.Hb * cf.F_star_product == pytest.approx(cf.Hb_F_star_theta,
                                                          rel=1e-9)
        assert cf.Kcde * cf.G_star_product == pytest.approx(cf.Kcde_G_star_theta,
                                                            rel=1e-9)

    def test_involution_exchanges_sums(self, kp):
        cf = profile_sums_and_closed_forms(kp)
        cfi = profile_sums_and_closed_forms(involute(kp))
        assert cf.G_star_product == pytest.approx(cfi.F_star_product, rel=1e-10)

    def test_convergence_region_enforced(self, ctx4):
        kp = KernelParams(0.88, 0.33 + 0.05j, 0.48 + 0.33j, 0.71 - 0.12j, ctx4)
        with pytest.raises(ConvergenceRegionViolation):
            profile_sums_and_closed_forms(kp)


class TestLeadingProfile:
    def test_cancellation_on_annulus(self, kp, lam, rng):
        for _ in range(50):
            w = sample_z(rng, 0.8, 1.25)
            assert scaled_residual(*leading_profile_terms(w, kp, lam)) < 1e-8

    def test_degree_two_theta_form(self, kp, rng):
        t = sample_z(rng, 0.7, 1.3)
        assert scaled_residual(*leading_profile_theta_terms(t, kp)) < 1e-8

    def test_interpolation_anchors(self, kp):
        assert scaled_residual(*leading_profile_theta_terms(1 / kp.b, kp)) < 1e-10
        assert scaled_residual(*leading_profile_theta_terms(kp.d * kp.e / kp.c, kp)) < 1e-10


class TestProfileKernel:
    def test_s_zero_is_limit_profile(self, ctx4, lam):
        al, be = 0.6 + 0.1j, 0.8 - 0.2j
        w = 1.1 + 0.25j
        assert profile_kernel_P(0.0, w, al, be, lam, ctx4) == pytest.approx(
            L_profile(w, al, be, lam, ctx4), rel=1e-14)

    def test_exact_scaling(self, ctx4, lam):
        al, be = 0.6 + 0.1j, 0.8 - 0.2j
        w = 1.1 + 0.25j
        for N in (4, 7):
            z = lam * ctx4.q ** N * w
            quot = ((be / al) ** N * pinf(al * z, ctx4) * pinf(al / z, ctx4)
                    / (pinf(be * z, ctx4) * pinf(be / z, ctx4)))
            got = profile_kernel_P(ctx4.q ** N, w, al, be, lam, ctx4)
            assert got == pytest.approx(quot, rel=1e-12)

    def test_equal_parameters_for_all_s(self, ctx4, lam):
        for s in (0.0, ctx4.q ** 6, ctx4.q ** 3):
            assert profile_kernel_P(s, 1.05 + 0.2j, 0.7, 0.7, lam, ctx4) == 1.0

    def test_s_disc_validation(self, ctx4, lam):
        with pytest.raises(ConvergenceRegionViolation):
            profile_kernel_P(2.5, 1.1, 0.6, 0.8, lam, ctx4)


class TestProfileKernelCoefficients:
    def test_order_zero(self, ctx4, lam):
        al, be = 0.6 + 0.1j, 0.8 - 0.2j
        w = 1.1 + 0.25j
        assert profile_kernel_coefficients([0], w, al, be, lam, ctx4)[0] == \
            pytest.approx(L_profile(w, al, be, lam, ctx4), rel=1e-14)

    def test_order_one_nu_form(self, ctx4, lam):
        al, be = 0.6 + 0.1j, 0.8 - 0.2j
        w = 1.1 + 0.25j
        q = ctx4.q
        nu = be - al + q * (1 / al - 1 / be)
        want = (L_profile(w, al, be, lam, ctx4) * lam * w / (1 - q) * nu)
        got = profile_kernel_coefficients([1], w, al, be, lam, ctx4)[0]
        assert got == pytest.approx(want, rel=1e-13)

    @pytest.mark.parametrize("j", [0, 1, 2, 3, 4])
    def test_against_contour_in_s(self, j, ctx4, lam):
        al, be = 0.6 + 0.1j, 0.8 - 0.2j
        w = 1.1 + 0.25j
        closed = profile_kernel_coefficients([j], w, al, be, lam, ctx4)[0]
        [(contour, _, _)] = laurent_coefficient_detail(
            lambda s: (profile_kernel_P(s, w, al, be, lam, ctx4),), [-j], 0.3, ctx4)
        assert abs(closed - contour) <= 1e-8 * max(abs(closed), abs(contour))


class TestGeneratingResidual:
    def test_vanishes_at_s_zero(self, kp, lam, rng):
        w = sample_z(rng, 0.85, 1.2)
        t1, t2, t3 = generating_Q_terms(0.0, w, kp, lam)
        assert abs(t1 - t2 - t3) < 1e-8 * max(abs(t1), abs(t2), abs(t3))

    def test_vanishes_on_s_grid(self, kp, lam, ctx4, rng):
        for s in (ctx4.q ** 8, ctx4.q ** 6, ctx4.q ** 4):
            for _ in range(3):
                w = sample_z(rng, 0.85, 1.2)
                t1, t2, t3 = generating_Q_terms(s, w, kp, lam)
                assert abs(t1 - t2 - t3) < 1e-7 * max(abs(t1), abs(t2), abs(t3))

    def test_value_api(self, kp, lam, ctx4):
        t1, t2, t3 = generating_Q_terms(ctx4.q ** 5, 1.05 + 0.2j, kp, lam)
        assert abs(t1 - t2 - t3) < 1e-7

    @pytest.mark.parametrize("N", [4, 7, 10])
    def test_bridge_to_pole_cleared_residual(self, N, kp, lam, rng):
        w = sample_z(rng, 0.9, 1.15)
        assert scaled_residual(*bridge_terms(N, w, kp, lam)) < 1e-6


class TestContiguousMoments:
    def test_zeroth_moment_is_scalar_sum(self, kp):
        cf = profile_sums_and_closed_forms(kp)
        mom = contiguous_moment(kp, 0)
        assert mom.convergent
        assert mom.F_m == pytest.approx(cf.F_star_series, rel=1e-12)
        assert mom.G_m == pytest.approx(cf.G_star_series, rel=1e-12)

    def test_positive_shift_dominated(self, kp):
        assert contiguous_moment(kp, 1).convergent

    def test_ratio_bound_flags_divergence(self, kp):
        mom = contiguous_moment(kp, -12)
        assert not mom.convergent
        assert math.isnan(mom.F_m.real)

    def test_negative_shift_boundary(self, ctx4):
        # |b/c| > 1: already the m = -1 moment fails the ratio bound
        kp = KernelParams(0.8, 0.62 - 0.2j, 0.48 + 0.33j, 0.71 - 0.12j, ctx4)
        assert not contiguous_moment(kp, -1).convergent


class TestCoefficientHierarchy:
    def test_order_zero_equals_leading_profile(self, kp, lam, rng):
        w = sample_z(rng, 0.9, 1.15)
        j0 = scaled_residual(*profile_coefficient_terms([(0, w)], kp, lam)[0])
        lead = scaled_residual(*leading_profile_terms(w, kp, lam))
        assert abs(j0 - lead) < 1e-12

    def test_first_correction(self, kp, lam, rng):
        for _ in range(3):
            w = sample_z(rng, 0.9, 1.15)
            assert scaled_residual(*profile_coefficient_terms([(1, w)], kp, lam)[0]) < 1e-6

    def test_second_correction_in_region(self, ctx4, rng):
        kp = sample_profile_kernel_params(rng, ctx4, moment_order=2)
        w = sample_z(rng, 0.9, 1.15)
        assert scaled_residual(*profile_coefficient_terms([(2, w)], kp, kp.b)[0]) < 1e-6

    def test_moment_window_enforced(self, ctx4):
        # |b/c| > |q| so the m = -2 moment diverges: j = 2 must refuse
        kp = KernelParams(0.45 + 0.15j, 0.72 - 0.2j, 0.48 + 0.33j,
                          0.71 - 0.12j, ctx4)
        with pytest.raises(ConvergenceRegionViolation):
            profile_coefficient_terms([(2, 1.05 + 0.2j)], kp, kp.b)

    def test_against_contour_in_s(self, kp, lam, ctx4):
        # termwise quadrature oracle: every generating-function constituent
        # is differentiated in s on a contour inside its own analyticity
        # disc (the shifted kernels' s-poles march toward the origin, so a
        # single assembled contour does not exist)
        from qtaylor.kernel import fk_coefficients, gk_coefficients
        w = 1.05 + 0.22j
        t = lam * w
        q = ctx4.q
        j = 1
        K = 24
        b, c, d, e = kp.b, kp.c, kp.d, kp.e
        c2 = c * c / (b * d * e)
        cde = c / (d * e)

        def quad_coeff(fn, rho):
            [(coeff, _, _)] = laurent_coefficient_detail(lambda s: (fn(s),), [-j],
                                                         rho, ctx4)
            return coeff

        prod_quad = quad_coeff(
            lambda s: (profile_kernel_P(s, w, c / d, b, lam, ctx4)
                       * profile_kernel_P(s, w, c / e, cde, lam, ctx4)), 0.05)
        prod_closed = sum(
            profile_kernel_coefficients([i], w, c / d, b, lam, ctx4)[0]
            * profile_kernel_coefficients([j - i], w, c / e, cde, lam, ctx4)[0]
            for i in range(j + 1))
        dev = abs(prod_quad - prod_closed) / max(abs(prod_closed), 1.0)

        for alpha0, beta0, coeffs in ((c, b, fk_coefficients(kp, K)),
                                      (c2, cde, gk_coefficients(kp, K))):
            quad_sum = 0.0 + 0.0j
            closed_sum = 0.0 + 0.0j
            for k in range(K + 1):
                al, be = alpha0 * q ** k, beta0 * q ** k
                # safely inside both the validated s-disc and the term's
                # own pole-free disc (smallest pole at |al/(t q)|)
                rho = 0.2 / max(abs(al * t), abs(be * t),
                                abs(t * q / al), abs(t * q / be))
                term_quad = quad_coeff(
                    lambda s, al=al, be=be: profile_kernel_P(s, w, al, be, lam, ctx4),
                    rho)
                term_closed = profile_kernel_coefficients([j], w, al, be, lam, ctx4)[0]
                quad_sum += coeffs[k] * term_quad
                closed_sum += coeffs[k] * term_closed
            dev = max(dev, abs(quad_sum - closed_sum) / max(abs(closed_sum), 1.0))
        assert dev < 1e-6


class TestExponentialProfiles:
    def test_decay_trend(self, kp, lam):
        w = 1.08 + 0.2j
        errs = [exponential_profile_limit_residual(2, [(w, kp, N)], lam)[0].r_residual
                for N in (6, 8, 10, 12)]
        ratio = math.exp(np.polyfit([6, 8, 10, 12], np.log(errs), 1)[0])
        assert abs(ratio - abs(kp.ctx.q)) < 0.25 * abs(kp.ctx.q)

    def test_boundary_order_compares_directly(self, kp, lam):
        res = exponential_profile_limit_residual(5, [(1.08 + 0.2j, kp, 5)], lam)[0]
        assert math.isfinite(res.r_residual)

    def test_involution_swaps_families(self, kp, lam):
        w = 1.08 + 0.2j
        res = exponential_profile_limit_residual(2, [(w, kp, 9)], lam)[0]
        resi = exponential_profile_limit_residual(2, [(w, involute(kp), 9)], lam)[0]
        assert res.s_residual == pytest.approx(resi.r_residual, rel=1e-9)
        assert res.r_residual == pytest.approx(resi.s_residual, rel=1e-9)

    def test_order_beyond_layer_rejected(self, kp, lam):
        with pytest.raises(DomainError):
            exponential_profile_limit_residual(6, [(1.1, kp, 5)], lam)


class TestCanonicalGrowth:
    def test_layer_zero(self, kp, lam):
        w = 1.18 + 0.25j
        cg = canonical_growth_profile(lam, [(0, w)], kp)[0]
        assert cg.extracted_monomial == 1.0
        assert cg.Z_value == pytest.approx(cg.C_factor, rel=1e-12)

    def test_split_reassembles(self, kp, lam):
        for N in (4, 8, 12):
            w = 1.18 + 0.25j
            cg = canonical_growth_profile(lam, [(N, w)], kp)[0]
            assert cg.Z_value == pytest.approx(
                cg.extracted_monomial * cg.C_factor, rel=1e-10)

    def test_bounded_factor_plateaus_in_depth(self, kp, lam):
        for phase in (0.13, 0.41, 0.77):
            w = 1.3 * cmath.exp(2j * math.pi * phase)
            mags = [abs(canonical_growth_profile(lam, [(N, w)], kp)[0].C_factor)
                    for N in range(4, 13)]
            assert max(mags) / min(mags) < 10.0

    def test_quotient_reassembly(self, kp, lam, ctx4):
        # Z * (E/Z) returns E (factorisation sanity)
        z = lam * ctx4.q ** 5 * (1.18 + 0.25j)
        t1, t2, t3 = pole_cleared_E_terms(z, kp, 60)
        e = t1 - t2 - t3
        Z = canonical_growth_profile(lam, [(5, 1.18 + 0.25j)], kp)[0].Z_value
        assert Z * (e / Z) == pytest.approx(e, rel=1e-12)
