import math

import numpy as np
import pytest

from qtaylor import hyper, kernel
from qtaylor.errors import DomainError, ZeroDenominator
from qtaylor.hyper import vwp_eval
from qtaylor.kernel import (H_at_b, H_lowering_residual, K_at_cde,
                            K_lowering_residual, KernelParams,
                            adaptive_series_depth, bailey_crosscheck,
                            f_spec, fk_coefficient,
                            g_spec, gk_coefficient, involute, kernel_factors,
                            kernel_H, kernel_K, M_clearing,
                            pole_cleared_E_terms, remainder_gap_curve,
                            two_basis_residual, two_basis_terms,
                            kernel_taylor_crosscheck)
from qtaylor.qcore import QContext, qpoch_groups
from qtaylor.sampling import (sample_kernel_params,
                              sample_profile_kernel_params, sample_z)
from qtaylor.suites import SuiteConfig, run_suites
from qtaylor.taylor import phi_basis


@pytest.fixture
def kp(ctx4):
    return KernelParams(0.55 + 0.2j, 0.62 - 0.25j, 0.48 + 0.33j, 0.71 - 0.12j,
                        ctx4)


class TestKernelFactors:
    def test_construction_requires_nonzero(self, ctx4):
        with pytest.raises(DomainError):
            KernelParams(0.0, 0.5, 0.5, 0.5, ctx4)

    def test_genericity_enforced(self, ctx4):
        # b c = 1 violates the parameter-level clearance
        with pytest.raises(ZeroDenominator):
            KernelParams(2.0, 0.5, 0.6, 0.7, ctx4)

    def test_factorisation(self, kp, rng):
        for _ in range(5):
            z = sample_z(rng)
            kf = kernel_factors(z, kp)
            assert abs(kf.F - kf.A * kf.H) < 1e-12 * abs(kf.F)
            assert abs(kf.F - kf.B * kf.K) < 1e-12 * abs(kf.F)

    def test_inversion_symmetry(self, kp, rng):
        z = sample_z(rng)
        kf, kfi = kernel_factors(z, kp), kernel_factors(1 / z, kp)
        for name in "FABHK":
            assert getattr(kf, name) == pytest.approx(getattr(kfi, name),
                                                      rel=1e-11)

    def test_zeroth_values_closed_forms(self, kp):
        assert H_at_b(kp) == pytest.approx(kernel_H(kp.b, kp), rel=1e-12)
        zc = kp.c / (kp.d * kp.e)
        assert K_at_cde(kp) == pytest.approx(kernel_K(zc, kp), rel=1e-12)


class TestQuadrupleCache:
    """H(b), K(c/de) and the family terms are computed once per KernelParams."""

    def test_zeroth_values_and_depth_computed_once_per_instance(self, monkeypatch, kp):
        # the families are summed adaptively, and the shallower one continued to the
        # common depth: 3 runs of _series_sum per instance when their depths differ
        depths = {vwp_eval(spec, None, kp.ctx).terms_used for spec in (f_spec(kp), g_spec(kp))}
        sums = 1 + len(depths)
        products, series = [], []
        real_quotient, real_series_sum = kernel.qpoch_quotient, hyper._series_sum
        monkeypatch.setattr(kernel, "qpoch_quotient",
                            lambda *a: products.append(a) or real_quotient(*a))
        for module in (hyper, kernel):
            monkeypatch.setattr(module, "_series_sum",
                                lambda *a: series.append(a) or real_series_sum(*a))

        def evaluate(quadruple):
            values = (H_at_b(quadruple), K_at_cde(quadruple), adaptive_series_depth(quadruple),
                      quadruple.family_terms(quadruple.series_depth))
            return values, (len(products), len(series))
        first, counts = evaluate(kp)
        assert counts == (2, sums)
        assert evaluate(kp) == (first, (2, sums))
        # no process-wide cache: an equal quadruple and the involuted one recompute
        twin = KernelParams(kp.b, kp.c, kp.d, kp.e, kp.ctx)
        assert twin == kp and evaluate(twin) == (first, (4, 2 * sums))
        assert evaluate(involute(kp))[1] == (6, 3 * sums)

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6])
    def test_each_family_summed_at_most_twice(self, monkeypatch, q, rng):
        ctx = QContext(q)
        kp = sample_kernel_params(rng, ctx)
        specs = {"f": f_spec(kp), "g": g_spec(kp)}
        passes, extensions = [], []
        real_eval, real_series_sum = kernel.vwp_eval, kernel._series_sum
        monkeypatch.setattr(kernel, "vwp_eval",
                            lambda spec, *a: passes.append((spec,) + a) or real_eval(spec, *a))
        monkeypatch.setattr(kernel, "_series_sum",
                            lambda ratio, n, ctx, start: extensions.append((n, start))
                            or real_series_sum(ratio, n, ctx, start))
        depth = adaptive_series_depth(kp)
        for n in (0, 3, depth // 2, depth):
            for z in (sample_z(rng), 1.1 - 0.2j):
                two_basis_residual(z, kp, n)
                pole_cleared_E_terms(z, kp, n)
            pole_cleared_E_terms(np.array([sample_z(rng) for _ in range(4)]), kp, n)
        # one adaptive pass per family, and at most one extension, from where the
        # shallower family's pass stopped to the common depth
        assert passes == [(spec, None, ctx) for spec in specs.values()]
        assert len(extensions) <= 1
        for n, start in extensions:
            assert n == depth and start.terms_used <= depth
            assert start.terms in [vwp_eval(spec, None, ctx).terms for spec in specs.values()]
        # the cached terms are bit for bit a fresh fixed-depth sum
        monkeypatch.undo()
        for spec, cached in zip(specs.values(), kp.family_terms(depth)):
            fresh = vwp_eval(spec, depth, ctx).terms
            assert len(cached) == depth + 1 and cached == fresh

    def test_deeper_request_sums_afresh(self, kp):
        depth = adaptive_series_depth(kp)
        fs, gs = kp.family_terms(depth + 5)
        assert fs == vwp_eval(f_spec(kp), depth + 5, kp.ctx).terms
        assert gs[:depth + 1] == kp.family_terms(depth)[1]

    def test_failed_value_is_not_cached(self, monkeypatch, kp):
        monkeypatch.setattr(kernel, "qpoch_quotient", _raise_zero)
        with pytest.raises(ZeroDivisionError):
            H_at_b(kp)
        monkeypatch.undo()
        assert H_at_b(kp) == pytest.approx(kernel_H(kp.b, kp), rel=1e-12)


def _raise_zero(*args):
    raise ZeroDivisionError("forced")


class TestInvolution:
    def test_order_two(self, kp):
        back = involute(involute(kp))
        for name in "bcde":
            assert getattr(back, name) == pytest.approx(getattr(kp, name),
                                                        rel=1e-13)

    def test_exchanges_kernels(self, kp, rng):
        ip = involute(kp)
        z = sample_z(rng)
        assert kernel_H(z, ip) == pytest.approx(kernel_K(z, kp), rel=1e-12)
        assert kernel_K(z, ip) == pytest.approx(kernel_H(z, kp), rel=1e-12)

    def test_exchanges_bases(self, kp, ctx4, rng):
        ip = involute(kp)
        z = sample_z(rng)
        for k in range(11):
            lhs = phi_basis(z, ip.phi_pair, k, ctx4)
            rhs = phi_basis(z, kp.psi_pair, k, ctx4)
            assert lhs == pytest.approx(rhs, rel=1e-11)


class TestCoefficientFamilies:
    def test_unit_leading_terms(self, kp):
        assert fk_coefficient(kp, 0) == 1.0
        assert gk_coefficient(kp, 0) == 1.0

    def test_geometric_ratio(self, kp, ctx4):
        for k in range(20, 41):
            r = abs(fk_coefficient(kp, k + 1) / fk_coefficient(kp, k))
            assert abs(r - abs(ctx4.q)) < 0.1 * abs(ctx4.q)

    def test_g_is_involuted_f(self, kp):
        ip = involute(kp)
        for k in range(13):
            g = gk_coefficient(kp, k)
            assert g == pytest.approx(fk_coefficient(ip, k), rel=1e-12)

    def test_high_base_denominators_are_not_poles(self):
        # (q;q)_40 = 1.5e-6 at q = 0.9: the product is small, no factor is
        kp = KernelParams(0.55 + 0.2j, 0.62 - 0.25j, 0.48 + 0.33j, 0.71 - 0.12j,
                          QContext(0.9))
        fs = vwp_eval(f_spec(kp), 40, kp.ctx).terms
        gs = vwp_eval(g_spec(kp), 40, kp.ctx).terms
        assert fk_coefficient(kp, 40) == pytest.approx(fs[40], rel=1e-10)
        assert gk_coefficient(kp, 40) == pytest.approx(gs[40], rel=1e-10)

    def test_vwp_terms_match_closed_form(self, kp):
        fs = vwp_eval(f_spec(kp), 12, kp.ctx).terms
        gs = vwp_eval(g_spec(kp), 12, kp.ctx).terms
        assert len(fs) == len(gs) == 13
        for k in range(13):
            assert fs[k] == pytest.approx(fk_coefficient(kp, k), rel=1e-12)
            assert gs[k] == pytest.approx(gk_coefficient(kp, k), rel=1e-12)

    def test_taylor_crosscheck(self, ctx4, rng):
        kp = sample_kernel_params(rng, ctx4, lo=0.35, hi=0.85)
        assert kernel_taylor_crosscheck(kp, 6) < 1e-7
        assert kernel_taylor_crosscheck(involute(kp), 6) < 1e-7


class TestTwoBasisIdentity:
    def test_generic_draws(self, ctx4, rng):
        for _ in range(10):
            kp = sample_kernel_params(rng, ctx4)
            z = sample_z(rng)
            assert two_basis_residual(z, kp, 60) < 1e-7

    def test_inversion_invariance(self, kp, rng):
        z = sample_z(rng)
        r1 = two_basis_residual(z, kp, 60)
        r2 = two_basis_residual(1 / z, kp, 60)
        assert abs(r1 - r2) < 1e-9

    def test_normalisations_not_optional(self, kp, rng):
        z = sample_z(rng)
        base = two_basis_residual(z, kp, 60)
        assert two_basis_residual(z, kp, 60, force_unit_Hb=True) > 1e6 * base
        assert two_basis_residual(z, kp, 60, force_unit_Kcde=True) > 1e6 * base


class TestComplementaryRemainder:
    def test_gap_decays_geometrically(self, ctx4, rng):
        kp = sample_profile_kernel_params(rng, ctx4)
        z = sample_z(rng)
        orders = list(range(4, 11))
        gaps = remainder_gap_curve(z, kp, orders)
        fit = math.exp(np.polyfit(orders, np.log(gaps), 1)[0])
        assert abs(fit - abs(ctx4.q)) < 0.25 * abs(ctx4.q)

    def test_involuted_counterpart(self, ctx4, rng):
        kp = sample_profile_kernel_params(rng, ctx4)
        z = sample_z(rng)
        orders = list(range(4, 11))
        gaps = remainder_gap_curve(z, involute(kp), orders)
        fit = math.exp(np.polyfit(orders, np.log(gaps), 1)[0])
        assert abs(fit - abs(ctx4.q)) < 0.25 * abs(ctx4.q)

    def test_one_H_sample_per_expansion(self, monkeypatch, rng):
        # orders 12..20 at q = 0.7: 21 grid nodes plus H(z) itself, not 231 + 1
        ctx = QContext(0.7)
        kp = sample_profile_kernel_params(rng, ctx)
        calls = []
        real = kernel.kernel_H
        monkeypatch.setattr(kernel, "kernel_H", lambda *a, **k: calls.append(a) or real(*a, **k))
        remainder_gap_curve(sample_z(rng), kp, list(range(12, 21)))
        assert len(calls) == 22

    def test_deep_order_gap_is_small(self):
        # numerically stable regime: |c| < |b q| keeps the pipeline clean
        ctx = QContext(0.45)
        kp = KernelParams(0.85, 0.25 + 0.05j, 0.6 + 0.2j, 0.55 - 0.3j, ctx)
        [gap] = remainder_gap_curve(1.1 + 0.3j, kp, [30])
        assert gap < 1e-6


def _loop_cleared_family_sum(z, pair, coeffs, tail, ctx):
    """The one-order-at-a-time pole-cleared sum that the array form replaced: the oracle."""
    q = ctx.q
    a, c = pair.a, pair.c
    cz, az = c * z, a * z
    fin, total, x, scale = 1.0 + 0.0j, 0.0 + 0.0j, 1.0 + 0.0j, 0.0
    for k, u in enumerate(coeffs):
        if k:
            tail /= (1.0 - cz * x) * (1.0 - c * x / z)
            fin *= (1.0 - az * x) * (1.0 - a * x / z)
            x *= q
        total += u * fin * tail
        scale += abs(u * fin * tail)
    return total, scale


class TestPoleClearedResidual:
    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6, 0.3 + 0.5j])
    def test_cleared_sums_match_the_loop(self, rng, q):
        ctx = QContext(q)
        kp = sample_kernel_params(rng, ctx)
        fs, gs = kp.family_terms(kp.series_depth)
        zs = np.array([sample_z(rng) for _ in range(6)])
        for pair, coeffs in ((kp.phi_pair, fs), (kp.psi_pair, gs)):
            tails = qpoch_groups([[pair.c * zs, pair.c / zs]], ctx)[0]
            batch = kernel._cleared_family_sum(zs, pair, coeffs, tails, ctx)
            for z, tail, got in zip(zs.tolist(), tails.tolist(), batch):
                want, scale = _loop_cleared_family_sum(z, pair, coeffs, tail, ctx)
                one = kernel._cleared_family_sum(z, pair, coeffs, tail, ctx)
                # the same products in the same order, rounded by NumPy's loops
                for value in (got, one):
                    assert abs(value - want) <= 4 * len(coeffs) * 2.0 ** -52 * scale

    def test_grid_zeros(self, kp, ctx4):
        depth = adaptive_series_depth(kp)
        for m in range(11):
            for z in (kp.b * ctx4.q ** m, kp.c / (kp.d * kp.e) * ctx4.q ** m):
                t1, t2, t3 = pole_cleared_E_terms(z, kp, depth)
                scale = max(abs(t1), abs(t2), abs(t3))
                assert abs(t1 - t2 - t3) < 1e-7 * scale

    def test_two_computation_paths(self, kp, rng):
        depth = adaptive_series_depth(kp)
        z = sample_z(rng)
        lhs = M_clearing(z, kp) * (lambda t: t[0] - t[1] - t[2])(
            two_basis_terms(z, kp, depth))
        rhs = (lambda t: t[0] - t[1] - t[2])(pole_cleared_E_terms(z, kp, depth))
        scale = max(abs(t) for t in pole_cleared_E_terms(z, kp, depth))
        assert abs(lhs - rhs) < 1e-11 * scale

    def test_truncated_flat_through_depth(self, kp, ctx4):
        N = 5
        for m in range(N + 1):
            z = kp.b * ctx4.q ** m
            t1, t2, t3 = pole_cleared_E_terms(z, kp, N)
            assert abs(t1 - t2 - t3) < 1e-7 * max(abs(t1), abs(t2), abs(t3))
            z = kp.c / (kp.d * kp.e) * ctx4.q ** m
            t1, t2, t3 = pole_cleared_E_terms(z, kp, N)
            assert abs(t1 - t2 - t3) < 1e-7 * max(abs(t1), abs(t2), abs(t3))

    def test_truncated_not_flat_beyond_depth(self, kp, ctx4):
        N = 5
        z = kp.b * ctx4.q ** (N + 3)
        t1, t2, t3 = pole_cleared_E_terms(z, kp, N)
        assert abs(t1 - t2 - t3) > 1e-5 * max(abs(t1), abs(t2), abs(t3))

    def test_truncation_converges(self, kp, rng):
        z = sample_z(rng)
        e60, e100 = ((lambda t: t[0] - t[1] - t[2])(pole_cleared_E_terms(z, kp, n))
                     for n in (60, 100))
        scale = max(abs(t) for t in pole_cleared_E_terms(z, kp, 60))
        assert abs(e60 - e100) < 1e-10 * scale


class TestPoleClearingPathsCheck:
    """The suite's pole-clearing-paths record at q = 0.65, default seed.

    Both routes to E are near-cancelling there (|M t1| ~ 4e-3 against
    |M t2|, |M t3| ~ 1.4e4), so the check is scaled by the largest
    additive term.
    """

    def test_passes_at_rounding_level_and_still_detects_truncation(self, monkeypatch):
        seen = []
        original = kernel.M_clearing

        def spy(z, kp):
            seen.append((z, kp))
            return original(z, kp)

        monkeypatch.setattr(kernel, "M_clearing", spy)
        report = run_suites(SuiteConfig(suites=("kernel",), q=0.65))
        record, = [r for r in report.records if r.check == "pole-clearing-paths"]
        assert record.passed and record.residual < 1e-12
        # the same point with E truncated at depth 5 must fail clearly
        (z, kp), = seen
        depth = adaptive_series_depth(kp)
        m_val = original(z, kp)
        t = [m_val * x for x in two_basis_terms(z, kp, depth)]
        e5 = pole_cleared_E_terms(z, kp, 5)
        scale = max(abs(x) for x in t + list(pole_cleared_E_terms(z, kp, depth)))
        assert abs(t[0] - t[1] - t[2] - (e5[0] - e5[1] - e5[2])) / scale > 1e-6


class TestLoweringLaws:
    def test_H_lowering(self, kp, rng):
        for _ in range(4):
            assert H_lowering_residual(sample_z(rng), kp) < 1e-8

    def test_K_lowering_via_involution(self, kp, rng):
        assert H_lowering_residual(sample_z(rng), involute(kp)) < 1e-8

    def test_K_lowering_closed_form(self, kp, rng):
        assert K_lowering_residual(sample_z(rng), kp) < 1e-8

    def test_prefactor_vanishes_at_unit_d(self, ctx4, rng):
        from qtaylor.wpoperator import apply_Dcq
        kp = KernelParams(0.55 + 0.2j, 0.62 - 0.25j, 1.0, 0.71 - 0.12j, ctx4)
        z = sample_z(rng)
        image = apply_Dcq(lambda w: kernel_H(w, kp), z, kp.c, ctx4)
        assert abs(image) < 1e-10


class TestVWPRewriting:
    def test_generic_draws(self, ctx4, rng):
        for _ in range(4):
            kp = sample_kernel_params(rng, ctx4)
            assert bailey_crosscheck(kp, sample_z(rng)) < 1e-7

    def test_unit_circle(self, kp, rng):
        import cmath
        z = cmath.exp(2j * math.pi * rng.random())
        assert bailey_crosscheck(kp, z) < 1e-7

    def test_degenerate_collapse(self, ctx4, rng):
        # e = c^2/(dq) collapses both series to their leading terms
        c = 0.62 - 0.25j
        d = 0.48 + 0.33j
        kp = KernelParams(0.55 + 0.2j, c, d, c * c / (d * ctx4.q), ctx4)
        assert bailey_crosscheck(kp, 1.07 + 0.3j) < 1e-9
