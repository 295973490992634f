from unittest import mock

import numpy as np
import pytest

from qtaylor import kernel
from qtaylor.errors import QuadratureNonConvergence, TruncationFailure
from qtaylor.kernel import (E_contour_coefficient, KernelParams,
                            calP_quadruple, calP_tables,
                            fk_coefficients, gk_coefficients,
                            laurent_coefficient_detail, laurent_pair,
                            structured_E_terms, trapezoid_coefficients)
from qtaylor.qcore import QContext, geometric_depth, qpoch_infinite, scaled_residual
from qtaylor.sampling import sample_complex
from qtaylor.suites import SuiteConfig, run_laurent


@pytest.fixture
def kp(ctx4):
    return KernelParams(0.55 + 0.2j, 0.62 - 0.25j, 0.48 + 0.33j, 0.71 - 0.12j,
                        ctx4)


def coefficient(G, n, radius, ctx):
    [(value, _, _)] = laurent_coefficient_detail(G, [n], radius, ctx)
    return value


class TestContourCoefficient:
    def test_monomial(self, ctx):
        assert coefficient(lambda z: (z ** 5,), -5, 1.0, ctx) == \
            pytest.approx(1.0, abs=1e-13)
        for n in (1, 2, 6):
            assert abs(coefficient(lambda z: (z ** 5,), n, 1.0, ctx)) < 1e-13

    @pytest.mark.parametrize("radius", [0.3, 1.0, 1.7])
    def test_laurent_polynomial_from_two_terms(self, radius, ctx):
        # G = (z^3 + 2 z^-2 - 0.5) - 0.25/z; [z^-n] G for n = -3, 0, 1, 2, 5
        want = {-3: 1.0, 0: -0.5, 1: -0.25, 2: 2.0, 5: 0.0}
        got = laurent_coefficient_detail(
            lambda z: (z ** 3 + 2 / z ** 2 - 0.5, 0.25 / z), want, radius, ctx)
        for (n, expected), (value, scale, nodes) in zip(want.items(), got):
            assert abs(value - expected) <= 1e-12 * max(1.0, scale)
            assert nodes >= 128

    @pytest.mark.parametrize("m", [64, 128, 1024])
    @pytest.mark.parametrize("radius", [0.8, 1.0, 1.25])
    def test_direct_sums_match_the_inverse_fft(self, m, radius):
        gen = np.random.default_rng(m)
        t = gen.normal(size=(2, m)) + 1j * gen.normal(size=(2, m))
        ns = [-m - 1, -5, 0, 2, m + 3]
        got = trapezoid_coefficients(t[0] - t[1], ns, radius)
        want = np.fft.ifft(t[0] - t[1])
        peak = np.abs(t).max()
        for n, value in zip(ns, got):
            assert abs(value - radius ** n * want[n % m]) <= 1e-14 * radius ** n * peak

    @pytest.mark.parametrize("n", [-2, 0, 1, 3])
    def test_stop_rule_is_kept_with_fft_sums(self, kp, n):
        # the node doubling and its stop, run once on the inverse FFT as reference
        def fft_coefficients(values, ns, radius):
            transform = np.fft.ifft(values)
            return [complex(radius ** k * transform[k % len(values)]) for k in ns]

        def g(z):
            return kernel.pole_cleared_E_terms(z, kp, kp.series_depth)

        got = laurent_coefficient_detail(g, [n, n + 1], 1.1, kp.ctx)
        with mock.patch.object(kernel, "trapezoid_coefficients", fft_coefficients):
            want = laurent_coefficient_detail(g, [n, n + 1], 1.1, kp.ctx)
        for (value, scale, nodes), (ref, ref_scale, ref_nodes) in zip(got, want):
            assert (scale, nodes) == (ref_scale, ref_nodes)
            assert abs(value - ref) <= 1e-14 * scale

    def test_nonconvergence_detected(self, ctx):
        # a branch cut on the contour defeats trapezoid convergence
        with pytest.raises(QuadratureNonConvergence):
            coefficient(lambda z: (np.sqrt(z),), 1, 1.0, ctx)


class TestStructuredCoefficients:
    def test_quadruple_sum_against_contour(self, ctx4, rng):
        for _ in range(4):
            al, be, ga, de = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
            n = rng.randrange(0, 4)
            structured = calP_quadruple(al, be, ga, de, n, ctx4)

            def g(z):
                return (qpoch_infinite(al * z, ctx4).value
                        * qpoch_infinite(be / z, ctx4).value
                        * qpoch_infinite(ga * z, ctx4).value
                        * qpoch_infinite(de / z, ctx4).value,)

            contour = coefficient(g, n, 1.0, ctx4)
            assert abs(structured - contour) <= 1e-8 * max(abs(structured),
                                                           abs(contour))

    def test_residual_coefficients_vanish(self, kp):
        for coeff, scale, _ in E_contour_coefficient(kp, range(1, 7)):
            assert abs(coeff) < 1e-6 * scale

    def test_one_sample_serves_every_order(self, kp):
        with mock.patch.object(kernel, "pole_cleared_E_terms",
                               wraps=kernel.pole_cleared_E_terms) as spy:
            E_contour_coefficient(kp, range(1, 7))
        # one batched call for the first 64 nodes, one per doubling
        assert 0 < spy.call_count <= 5

    def test_cancellation_identity(self, kp):
        # E vanishes identically: its terms cancel at n = 0 as at n >= 1
        tables = calP_tables(kp, 50)
        for n in (0, 1, 2):
            [terms] = structured_E_terms(kp, n, tables, [kp.family_terms(50)])
            assert scaled_residual(*terms) < 1e-6

    def test_structured_matches_contour(self, kp, ctx4):
        n = 1
        [(t1, t2, t3)] = structured_E_terms(kp, n, calP_tables(kp, 49),
                                            [(fk_coefficients(kp, 49), gk_coefficients(kp, 49))])
        structured = t1 - t2 - t3
        [(coeff, scale, _)] = E_contour_coefficient(kp, [n])
        assert abs(structured - coeff) < 1e-6 * scale

    def test_individual_terms_not_small(self, kp):
        # the cancellation is between the families, not termwise
        [(_, scale, _)] = E_contour_coefficient(kp, [1])
        [row] = calP_tables(kp, 0)[0]
        assert abs(laurent_pair(row, row, 1)) > 1e-3 * scale

    def test_quadrature_detail_reports_scale(self, kp):
        [(coeff, scale, nodes)] = laurent_coefficient_detail(
            lambda z: (z ** 3,), [-3], 1.0, kp.ctx)
        assert coeff == pytest.approx(1.0, abs=1e-12)
        assert scale == pytest.approx(1.0)
        assert nodes >= 128


def loop_euler(u, ctx):
    """The coefficients of (u t;q)_inf by the loop the row builder replaced: one ratio
    -u q^(i-1) / (1 - q^i) and one geometric_depth call (under ctx.max_terms) per step."""
    q = ctx.q
    coeffs, peak, qi = [1.0 + 0.0j], 1.0, 1.0 + 0.0j
    while True:
        ratio = -u * qi / (1.0 - qi * q)
        coeffs.append(coeffs[-1] * ratio)
        peak = max(peak, abs(coeffs[-1]))
        qi *= q
        if abs(ratio) < 1.0 and geometric_depth(abs(ratio), abs(coeffs[-1]) / peak,
                                                ctx.max_terms) == 0:
            return np.asarray(coeffs)


def row_length(row):
    return int(np.flatnonzero(row)[-1]) + 1


class TestClosedFormRows:
    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6, 0.5j, 0.3 + 0.5j, 0.9])
    @pytest.mark.parametrize("u", [0.35 + 0.2j, 3.29, -1.7 + 0.4j])
    def test_euler_rows_keep_the_loop_stop(self, q, u):
        ctx = QContext(q)
        rows = kernel._closed_rows(u, 60, ctx)
        assert len(rows) == 61
        for k, row in enumerate(rows):
            want = loop_euler(u * ctx.q ** k, ctx)
            assert row_length(row) == len(want)
            assert np.abs(row[:len(want)] - want).max() <= 1e-13 * np.abs(want).max()

    # the least max_terms under which the loop expands rows k = 0..5 without a TruncationFailure
    @pytest.mark.parametrize("q, u, least", [(0.9, 0.9, 740), (0.45, 0.35, 86),
                                             (-0.6, -1.7 + 0.4j, 2345), (0.3 + 0.5j, 2.0, 1543)])
    def test_euler_rows_keep_the_loop_cap(self, q, u, least):
        for cap, fails in ((least - 1, True), (least, False)):
            ctx = QContext(q, max_terms=cap)
            try:
                want = [loop_euler(u * ctx.q ** k, ctx) for k in range(6)]
            except TruncationFailure:
                assert fails
                with pytest.raises(TruncationFailure):
                    kernel._closed_rows(u, 5, ctx)
            else:
                assert not fails
                rows = kernel._closed_rows(u, 5, ctx)
                assert list(map(row_length, rows)) == list(map(len, want))

    def test_capped_tables_raise(self):
        kp = KernelParams(0.55 + 0.2j, 0.62 - 0.25j, 0.48 + 0.33j, 0.71 - 0.12j,
                          QContext(0.9, max_terms=16))
        with pytest.raises(TruncationFailure):
            calP_tables(kp, 10)

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6, 0.3 + 0.5j])
    def test_qbinomial_rows_are_the_products(self, q):
        ctx = QContext(q)
        a = 0.8 - 0.6j
        rows = kernel._closed_rows(a, 40, ctx, finite=True)
        poly = np.ones(1, dtype=complex)
        for k, row in enumerate(rows):
            # a row drops only the terms its geometric tail puts below 2^-55 of its peak
            assert row_length(row) <= k + 1
            width = max(row.size, poly.size)
            gap = np.pad(row, (0, width - row.size)) - np.pad(poly, (0, width - poly.size))
            assert np.abs(gap).max() <= 1e-14 * np.abs(poly).max()
            poly = np.append(poly, 0.0) - a * ctx.q ** k * np.append(0.0, poly)


def test_structured_cancellation_at_high_base():
    # 50 fixed terms leave q^50 ~ 2e-8 of the leading f_k, g_k at q = 0.7;
    # at the adaptive depth the check reads rounding
    records = run_laurent(SuiteConfig(q=0.7))
    [rec] = [r for r in records if r.check == "structured-cancellation"]
    assert rec.params["k_trunc"] > 50
    assert rec.passed and rec.residual < 1e-6
