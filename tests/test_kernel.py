import math
import random

import numpy as np
import pytest

from qtaylor import hyper, kernel
from qtaylor.errors import DomainError, ZeroDenominator
from qtaylor.hyper import series_eval
from qtaylor.kernel import (H_lowering_terms, K_lowering_terms, KernelParams,
                            bailey_terms, f_spec, fk_coefficients,
                            g_spec, gk_coefficients, involute, kernel_factors,
                            kernel_products, M_clearing,
                            pole_cleared_E_terms, remainder_gap_curve,
                            two_basis_terms, kernel_taylor_terms)
from qtaylor.qcore import (POLE_MARGIN, QContext, factor_clearance, qpoch_groups, qpoch_multi,
                           scaled_residual)
from qtaylor.sampling import (sample_kernel_params,
                              sample_profile_kernel_params, sample_z)
from qtaylor.suites import SuiteConfig, run_laurent, run_suites
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
        assert kp.Hb == pytest.approx(kernel_products(kp.b, kp, "H")[0], rel=1e-12)
        zc = kp.c / (kp.d * kp.e)
        assert kp.Kcde == pytest.approx(kernel_products(zc, kp, "K")[0], rel=1e-12)


class TestQuadrupleCache:
    """H(b), K(c/de) and the family terms are computed once per KernelParams."""

    def test_zeroth_values_and_depth_computed_once_per_instance(self, monkeypatch, kp):
        # H(b) and K(c/de) come from one product call; both families are summed adaptively
        # in one run, and the shallower one continued to the common depth: 2 runs of
        # _series_sum per instance when their depths differ
        depths = {series_eval(spec, None, kp.ctx).terms_used for spec in (f_spec(kp), g_spec(kp))}
        sums = len(depths)
        products, series = [], []
        real_quotient, real_series_sum = kernel.qpoch_quotients, hyper._series_sum
        monkeypatch.setattr(kernel, "qpoch_quotients",
                            lambda *a: products.append(a) or real_quotient(*a))
        monkeypatch.setattr(hyper, "_series_sum",
                            lambda *a: series.append(a) or real_series_sum(*a))

        def evaluate(quadruple):
            values = (quadruple.Hb, quadruple.Kcde, quadruple.series_depth,
                      quadruple.family_terms(quadruple.series_depth))
            return values, (len(products), len(series))
        first, counts = evaluate(kp)
        assert counts == (1, sums)
        assert evaluate(kp) == (first, (1, sums))
        # no process-wide cache: an equal quadruple and the involuted one recompute
        twin = KernelParams(kp.b, kp.c, kp.d, kp.e, kp.ctx)
        assert twin == kp and evaluate(twin) == (first, (2, 2 * sums))
        assert evaluate(involute(kp))[1] == (3, 3 * sums)

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6])
    def test_each_family_summed_at_most_twice(self, monkeypatch, q, rng):
        ctx = QContext(q)
        kp = sample_kernel_params(rng, ctx)
        specs = {"f": f_spec(kp), "g": g_spec(kp)}
        own = [series_eval(spec, None, ctx).terms_used - 1 for spec in specs.values()]
        runs, real_series_sum = [], hyper._series_sum

        def series_sum(ratio, n, ctx):
            runs.append(n)
            return real_series_sum(ratio, n, ctx)
        monkeypatch.setattr(hyper, "_series_sum", series_sum)
        depth = kp.series_depth
        for n in (0, 3, depth // 2, depth):
            for z in (sample_z(rng), 1.1 - 0.2j):
                two_basis_terms(z, kp, n)
                pole_cleared_E_terms(z, kp, n)
            pole_cleared_E_terms(np.array([sample_z(rng) for _ in range(4)]), kp, n)
        # one adaptive run for both families, and one fixed-depth run of the shallower
        # family to the common depth when the two adaptive depths differ
        assert runs == [[None, None]] + ([[depth]] if min(own) < depth else [])
        # the cached terms are bit for bit a fresh fixed-depth sum
        monkeypatch.undo()
        for spec, cached in zip(specs.values(), kp.family_terms(depth)):
            fresh = series_eval(spec, depth, ctx).terms
            assert len(cached) == depth + 1 and cached == fresh

    @pytest.mark.parametrize("q", [0.2, 0.45, 0.7, -0.6, 0.5j, 0.9])
    def test_reads_equal_a_fresh_sum(self, q):
        # below, at and past each family's adaptive depth and the common one
        ctx = QContext(q)
        rng = random.Random(19)
        for _ in range(6):
            kp = sample_kernel_params(rng, ctx)
            specs = (f_spec(kp), g_spec(kp))
            depth = kp.series_depth
            own = [series_eval(spec, None, ctx).terms_used - 1 for spec in specs]
            for n in sorted({0, 1, 6, 31, *own, depth, depth + 5, depth + 40}):
                assert kp.family_terms(n) == tuple(series_eval(spec, n, ctx).terms
                                                   for spec in specs), n

    def test_deeper_request_continues_the_cached_sums(self, monkeypatch, kp):
        depth = kp.series_depth
        runs, real_series_sum = [], hyper._series_sum
        monkeypatch.setattr(hyper, "_series_sum", lambda ratio, n, ctx:
                            runs.append(n) or real_series_sum(ratio, n, ctx))
        fs, gs = kp.family_terms(depth + 5)
        # both families past the cached depth: one fixed-depth run of both
        assert runs == [[depth + 5, depth + 5]]
        monkeypatch.undo()
        assert fs == series_eval(f_spec(kp), depth + 5, kp.ctx).terms
        assert gs[:depth + 1] == kp.family_terms(depth)[1]

    def test_failed_value_is_not_cached(self, monkeypatch, kp):
        monkeypatch.setattr(kernel, "qpoch_quotients", _raise_zero)
        with pytest.raises(ZeroDivisionError):
            kp.Hb
        monkeypatch.undo()
        assert kp.Hb == pytest.approx(kernel_products(kp.b, kp, "H")[0], rel=1e-12)


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
        h, k = kernel_products(z, kp, "HK")
        ih, ik = kernel_products(z, ip, "HK")
        assert ih == pytest.approx(k, rel=1e-12)
        assert ik == pytest.approx(h, rel=1e-12)

    def test_exchanges_bases(self, kp, ctx4, rng):
        ip = involute(kp)
        z = sample_z(rng)
        for k in range(11):
            lhs = phi_basis(z, ip.phi_pair, k, ctx4)
            rhs = phi_basis(z, kp.psi_pair, k, ctx4)
            assert lhs == pytest.approx(rhs, rel=1e-11)


class TestCoefficientFamilies:
    def test_unit_leading_terms(self, kp):
        assert fk_coefficients(kp, 0) == gk_coefficients(kp, 0) == [1.0]

    def test_geometric_ratio(self, kp, ctx4):
        fs = fk_coefficients(kp, 41)
        for k in range(20, 41):
            r = abs(fs[k + 1] / fs[k])
            assert abs(r - abs(ctx4.q)) < 0.1 * abs(ctx4.q)

    def test_g_is_involuted_f(self, kp):
        fs = fk_coefficients(involute(kp), 12)
        for g, f in zip(gk_coefficients(kp, 12), fs):
            assert g == pytest.approx(f, rel=1e-12)

    def test_high_base_denominators_are_not_poles(self):
        # (q;q)_40 = 1.5e-6 at q = 0.9: the product is small, no factor is
        kp = KernelParams(0.55 + 0.2j, 0.62 - 0.25j, 0.48 + 0.33j, 0.71 - 0.12j,
                          QContext(0.9))
        fs = series_eval(f_spec(kp), 40, kp.ctx).terms
        gs = series_eval(g_spec(kp), 40, kp.ctx).terms
        assert fk_coefficients(kp, 40)[40] == pytest.approx(fs[40], rel=1e-10)
        assert gk_coefficients(kp, 40)[40] == pytest.approx(gs[40], rel=1e-10)

    def test_vwp_terms_match_closed_form(self, kp):
        fs = series_eval(f_spec(kp), 12, kp.ctx).terms
        gs = series_eval(g_spec(kp), 12, kp.ctx).terms
        assert len(fs) == len(gs) == 13
        assert fs == pytest.approx(fk_coefficients(kp, 12), rel=1e-12)
        assert gs == pytest.approx(gk_coefficients(kp, 12), rel=1e-12)

    def test_taylor_crosscheck(self, ctx4, rng):
        kp = sample_kernel_params(rng, ctx4, lo=0.35, hi=0.85)
        for pair in (*kernel_taylor_terms(kp, 6), *kernel_taylor_terms(involute(kp), 6)):
            assert scaled_residual(*pair) < 1e-7


def closed_summand(x, nums, bases, k, ctx, name):
    """The per-k closed form the family tables replace: fresh products at every k."""
    if k == 0:
        return 1.0 + 0.0j
    q = ctx.q
    lead = (1.0 - x * q ** (2 * k)) / (1.0 - x)
    if min(factor_clearance(u, ctx) for u in bases) <= POLE_MARGIN:
        raise ZeroDenominator(f"vanishing denominator in {name}")
    num = qpoch_multi([x, *nums], k, ctx).value
    den = qpoch_multi([q, *bases], k, ctx).value
    return lead * num / den * q ** k


def family_parameters(kp):
    """(x, nums, bases) of f_k and of g_k."""
    b, c, d, e, q = kp.b, kp.c, kp.d, kp.e, kp.ctx.q
    return {"f_k": (b * c / q, [d, e, c * c / (d * e * q)],
                    (b * c / d, b * c / e, b * d * e * q / c)),
            "g_k": (c ** 3 / (b * d ** 2 * e ** 2 * q),
                    [c / (b * d), c / (b * e), c * c / (d * e * q)],
                    (c * c / (d * e * e), c * c / (d * d * e), c * q / (b * d * e)))}


class TestFamilyTables:
    """f_0..f_n and g_0..g_n from one pass, bit for bit the per-k closed form."""

    @pytest.mark.parametrize("q", [0.2, 0.45, 0.7, -0.6, 0.5j, 0.9])
    def test_tables_equal_the_per_k_closed_form(self, q):
        ctx = QContext(q)
        rng = random.Random(13)
        for _ in range(3):
            kp = sample_kernel_params(rng, ctx)
            params = family_parameters(kp)
            for name, table in (("f_k", fk_coefficients(kp, 60)),
                                ("g_k", gk_coefficients(kp, 60))):
                want = [closed_summand(*params[name], k, ctx, name) for k in range(61)]
                assert table == want, name

    def test_short_tables(self, kp):
        assert fk_coefficients(kp, 0) == gk_coefficients(kp, 0) == [1.0 + 0.0j]
        assert len(fk_coefficients(kp, 1)) == 2
        with pytest.raises(DomainError):
            fk_coefficients(kp, -1)

    def test_near_pole_base_raises(self, kp):
        # KernelParams rejects such a quadruple up front; the table keeps its own guard
        x, nums, bases = family_parameters(kp)["f_k"]
        near = (1.0 + 1e-9) / kp.ctx.q ** 3
        for n in (0, 1, 40):
            with pytest.raises(ZeroDenominator, match="vanishing denominator in f_k"):
                kernel._closed_family(x, nums, (bases[0], near, bases[2]), n, kp.ctx, "f_k")

    def test_structured_cancellation_builds_each_table_once(self, monkeypatch):
        built = []
        real = kernel._closed_family
        monkeypatch.setattr(kernel, "_closed_family",
                            lambda *a: built.append(a[-1]) or real(*a))
        records = run_laurent(SuiteConfig(q=0.7, draws=4))
        assert [r.passed for r in records if r.check == "structured-cancellation"] == [True]
        assert built == ["f_k", "g_k"]


class TestTwoBasisIdentity:
    def test_generic_draws(self, ctx4, rng):
        for _ in range(10):
            kp = sample_kernel_params(rng, ctx4)
            z = sample_z(rng)
            assert scaled_residual(*two_basis_terms(z, kp, 60)) < 1e-7

    def test_inversion_invariance(self, kp, rng):
        z = sample_z(rng)
        r1 = scaled_residual(*two_basis_terms(z, kp, 60))
        r2 = scaled_residual(*two_basis_terms(1 / z, kp, 60))
        assert abs(r1 - r2) < 1e-9

    def test_normalisations_not_optional(self, kp, rng):
        z = sample_z(rng)
        base = scaled_residual(*two_basis_terms(z, kp, 60))
        assert scaled_residual(*two_basis_terms(z, kp, 60, force_unit_Hb=True)) > 1e6 * base
        assert scaled_residual(*two_basis_terms(z, kp, 60, force_unit_Kcde=True)) > 1e6 * base


class TestComplementaryRemainder:
    def test_gap_decays_geometrically(self, ctx4, rng):
        kp = sample_profile_kernel_params(rng, ctx4)
        z = sample_z(rng)
        orders = list(range(4, 11))
        gaps, _ = remainder_gap_curve(z, kp, orders)
        fit = math.exp(np.polyfit(orders, np.log(gaps), 1)[0])
        assert abs(fit - abs(ctx4.q)) < 0.25 * abs(ctx4.q)

    def test_involuted_counterpart(self, ctx4, rng):
        kp = sample_profile_kernel_params(rng, ctx4)
        z = sample_z(rng)
        orders = list(range(4, 11))
        gaps, _ = remainder_gap_curve(z, involute(kp), orders)
        fit = math.exp(np.polyfit(orders, np.log(gaps), 1)[0])
        assert abs(fit - abs(ctx4.q)) < 0.25 * abs(ctx4.q)

    def test_one_H_sample_per_expansion(self, monkeypatch, rng):
        # orders 12..20 at q = 0.7: 21 grid nodes plus H(z) itself, each evaluated once
        # (not 231 + 1), all of them in one product call
        ctx = QContext(0.7)
        kp = sample_profile_kernel_params(rng, ctx)
        kp.Kcde
        nodes, calls = [], []
        real, real_quotients = kernel.kernel_quotient, kernel.qpoch_quotients
        monkeypatch.setattr(kernel, "kernel_quotient", lambda name, z, *a, **k:
                            nodes.append(np.size(z) if name == "H" else 0) or real(name, z, *a, **k))
        monkeypatch.setattr(kernel, "qpoch_quotients",
                            lambda *a: calls.append(a) or real_quotients(*a))
        remainder_gap_curve(sample_z(rng), kp, list(range(12, 21)))
        assert sum(nodes) == 22 and len(calls) == 1

    def test_deep_order_gap_is_small(self):
        # numerically stable regime: |c| < |b q| keeps the pipeline clean
        ctx = QContext(0.45)
        kp = KernelParams(0.85, 0.25 + 0.05j, 0.6 + 0.2j, 0.55 - 0.3j, ctx)
        [gap], _ = remainder_gap_curve(1.1 + 0.3j, kp, [30])
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
        depth = kp.series_depth
        for m in range(11):
            for z in (kp.b * ctx4.q ** m, kp.c / (kp.d * kp.e) * ctx4.q ** m):
                t1, t2, t3 = pole_cleared_E_terms(z, kp, depth)
                scale = max(abs(t1), abs(t2), abs(t3))
                assert abs(t1 - t2 - t3) < 1e-7 * scale

    def test_two_computation_paths(self, kp, rng):
        depth = kp.series_depth
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
        depth = kp.series_depth
        m_val = original(z, kp)
        t = [m_val * x for x in two_basis_terms(z, kp, depth)]
        e5 = pole_cleared_E_terms(z, kp, 5)
        scale = max(abs(x) for x in t + list(pole_cleared_E_terms(z, kp, depth)))
        assert abs(t[0] - t[1] - t[2] - (e5[0] - e5[1] - e5[2])) / scale > 1e-6


class TestLoweringLaws:
    def test_H_lowering(self, kp, rng):
        for _ in range(4):
            assert scaled_residual(*H_lowering_terms(sample_z(rng), kp)) < 1e-8

    def test_K_lowering_via_involution(self, kp, rng):
        assert scaled_residual(*H_lowering_terms(sample_z(rng), involute(kp))) < 1e-8

    def test_K_lowering_closed_form(self, kp, rng):
        assert scaled_residual(*K_lowering_terms(sample_z(rng), kp)) < 1e-8

    def test_prefactor_vanishes_at_unit_d(self, ctx4, rng):
        from qtaylor.wpoperator import apply_Dcq
        kp = KernelParams(0.55 + 0.2j, 0.62 - 0.25j, 1.0, 0.71 - 0.12j, ctx4)
        z = sample_z(rng)
        image = apply_Dcq(lambda w: kernel_products(w, kp, "H")[0], z, kp.c, ctx4)
        assert abs(image) < 1e-10


class TestVWPRewriting:
    def test_generic_draws(self, ctx4, rng):
        for _ in range(4):
            kp = sample_kernel_params(rng, ctx4)
            assert scaled_residual(*bailey_terms(kp, sample_z(rng))) < 1e-7

    def test_unit_circle(self, kp, rng):
        import cmath
        z = cmath.exp(2j * math.pi * rng.random())
        assert scaled_residual(*bailey_terms(kp, z)) < 1e-7

    def test_degenerate_collapse(self, ctx4, rng):
        # e = c^2/(dq) collapses both series to their leading terms
        c = 0.62 - 0.25j
        d = 0.48 + 0.33j
        kp = KernelParams(0.55 + 0.2j, c, d, c * c / (d * ctx4.q), ctx4)
        assert scaled_residual(*bailey_terms(kp, 1.07 + 0.3j)) < 1e-9
