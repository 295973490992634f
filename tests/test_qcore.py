import math

import pytest

from qtaylor.errors import DomainError, TruncationFailure
from qtaylor.qcore import (TAIL_TARGET, QContext, fit_window, geometric_depth,
                           qpoch_finite, qpoch_infinite, qpoch_multi,
                           scaled_residual, theta, weierstrass_terms)
from qtaylor.sampling import sample_complex


def brute_product(a, q, n):
    value = 1.0 + 0.0j
    for j in range(n):
        value *= 1.0 - a * q ** j
    return value


class TestContext:
    @pytest.mark.parametrize("bad_q", [0.0, 1.0, -1.2, 1.5 + 0.2j])
    def test_rejects_bad_base(self, bad_q):
        with pytest.raises(DomainError):
            QContext(bad_q)

    def test_rejects_bad_policy(self):
        with pytest.raises(DomainError):
            QContext(0.5, eps_rel=0.0)
        with pytest.raises(DomainError):
            QContext(0.5, max_terms=8)
        with pytest.raises(DomainError):
            QContext(0.5, pole_margin=-1.0)

    def test_squared_context(self, ctx):
        assert ctx.squared().q == pytest.approx(ctx.q ** 2)
        assert ctx.other_branch().squared().root_sign == -1

    def test_sqrt_branch(self, ctx):
        assert ctx.sqrt_q == pytest.approx(math.sqrt(0.45))
        assert ctx.other_branch().sqrt_q == pytest.approx(-math.sqrt(0.45))


class TestQPochhammer:
    @pytest.mark.parametrize("a", [0.3, 1.7 - 0.4j, -2.0, 0.0])
    def test_empty_product(self, a, ctx):
        assert qpoch_finite(a, 0, ctx) == 1.0

    def test_single_factor(self):
        assert qpoch_finite(0.7, 1, QContext(0.5)) == pytest.approx(0.3)

    def test_two_factors(self):
        # (1 - 0.5)(1 - 0.25)
        assert qpoch_finite(0.5, 2, QContext(0.5)) == pytest.approx(0.375)

    def test_recurrence(self, ctx, rng):
        q = ctx.q
        for _ in range(32):
            a = sample_complex(rng, 0.1, 1.5)
            n = rng.randrange(0, 32)
            lhs = qpoch_finite(a, n + 1, ctx)
            rhs = qpoch_finite(a, n, ctx) * (1 - a * q ** n)
            assert lhs == pytest.approx(rhs, rel=1e-13, abs=1e-15)

    def test_negative_order_rejected(self, ctx):
        with pytest.raises(DomainError):
            qpoch_finite(0.3, -1, ctx)

    def test_infinite_zero_argument(self, ctx):
        tb = qpoch_infinite(0.0, ctx)
        assert tb.value == 1.0 and tb.tail_abs == 0.0 and tb.terms_used == 0

    def test_infinite_against_long_product(self):
        ctx = QContext(0.3)
        tb = qpoch_infinite(0.3, ctx)
        brute = brute_product(0.3, 0.3, 2000)
        assert abs(tb.value - brute) / abs(brute) < 1e-12
        assert tb.terms_used >= 16

    def test_tail_bound_certificate(self, ctx):
        tb = qpoch_infinite(ctx.q, ctx)
        # below a quarter of the binary64 unit roundoff
        assert 0.0 < tb.tail_abs < TAIL_TARGET
        # the certified bound dominates the actual omitted log-tail (up to
        # the rounding of |a||q|^N, formed by N multiplications)
        q = abs(ctx.q)
        n = tb.terms_used
        omitted = sum(-math.log1p(-q ** j) for j in range(n + 1, n + 200))
        assert tb.tail_abs >= omitted * (1 - 1e-13)
        # and one factor fewer would miss the target
        assert q * q ** (n - 1) / (1 - q) >= TAIL_TARGET

    def test_truncation_failure(self):
        ctx = QContext(0.9, max_terms=16)
        with pytest.raises(TruncationFailure):
            qpoch_infinite(0.5, ctx)

    def test_high_base_needs_no_cap(self):
        # (0.8;0.9)_inf takes 388 factors; a fixed 512-factor cap with a
        # 1e-24 target used to need 522
        tb = qpoch_infinite(0.8, QContext(0.9))
        brute = brute_product(0.8, 0.9, 4000)
        assert abs(tb.value - brute) <= 1e-13 * abs(brute)
        with pytest.raises(TruncationFailure):
            qpoch_infinite(0.8, QContext(0.9, max_terms=16))

    def test_shift_identity(self, ctx, rng):
        # (u;q)_inf = (u;q)_k (u q^k;q)_inf
        for _ in range(20):
            a = sample_complex(rng, 0.2, 0.95)
            k = rng.randrange(0, 9)
            lhs = qpoch_infinite(a, ctx).value
            rhs = qpoch_finite(a, k, ctx) * qpoch_infinite(a * ctx.q ** k, ctx).value
            assert abs(lhs - rhs) <= 1e-12 * max(abs(lhs), abs(rhs))


class TestGeometricDepth:
    def test_first_depth_below_target(self, rng):
        for _ in range(2000):
            rate = rng.uniform(0.0, 0.999)
            lead = 10.0 ** rng.uniform(-20.0, 20.0)
            n = geometric_depth(rate, lead)
            assert lead * rate ** n / (1 - rate) < TAIL_TARGET
            if n:
                assert lead * rate ** (n - 1) / (1 - rate) >= TAIL_TARGET

    def test_edge_cases(self):
        assert geometric_depth(0.5, 0.0) == 0
        assert geometric_depth(0.0, 1.0) == 1
        assert geometric_depth(0.0, TAIL_TARGET / 2) == 0

    @pytest.mark.parametrize("rate, lead", [(1.0, 1.0), (1.5, 1.0), (-0.1, 1.0),
                                            (0.5, math.inf), (0.5, math.nan)])
    def test_no_geometric_tail(self, rate, lead):
        with pytest.raises(TruncationFailure):
            geometric_depth(rate, lead)

    def test_cap(self):
        n = geometric_depth(0.9)
        assert geometric_depth(0.9, cap=n) == n
        with pytest.raises(TruncationFailure):
            geometric_depth(0.9, cap=n - 1)

    def test_fit_window(self):
        assert fit_window(0.45) == list(range(6, 15))  # 0.45^6 = 8.3e-3
        assert fit_window(0.05) == list(range(2, 11))
        assert fit_window(0.8) == list(range(12, 21))  # latest start


class TestQPochhammerMulti:
    def test_empty_list(self, ctx):
        assert qpoch_multi([], 5, ctx).value == 1.0
        assert qpoch_multi([], None, ctx).value == 1.0

    def test_singleton_matches_finite(self, ctx):
        a = 0.6 - 0.2j
        assert qpoch_multi([a], 7, ctx).value == qpoch_finite(a, 7, ctx)

    def test_pair_factorwise(self, ctx, rng):
        a, b = sample_complex(rng), sample_complex(rng)
        lhs = qpoch_multi([a, b], None, ctx)
        rhs = qpoch_infinite(a, ctx).value * qpoch_infinite(b, ctx).value
        assert abs(lhs.value - rhs) / abs(rhs) < 1e-12
        assert lhs.tail_abs > 0.0


class TestTheta:
    def test_zero_at_one(self, ctx):
        assert theta(1.0, ctx) == 0.0

    def test_zero_at_q(self, ctx):
        assert abs(theta(ctx.q, ctx)) < 1e-14

    def test_rejects_zero(self, ctx):
        with pytest.raises(DomainError):
            theta(0.0, ctx)

    def test_symmetry(self, ctx, rng):
        for _ in range(200):
            u = sample_complex(rng, 0.3, 1.6)
            t1, t2 = theta(u, ctx), theta(ctx.q / u, ctx)
            assert abs(t1 - t2) <= 1e-12 * max(abs(t1), abs(t2))


class TestWeierstrassAddition:
    def test_generic_quadruples(self, ctx, rng):
        for _ in range(200):
            x, y, u, v = (sample_complex(rng, 0.5, 1.5) for _ in range(4))
            t1, t2, t3 = weierstrass_terms(x, y, u, v, ctx)
            scale = max(abs(t1), abs(t2), abs(t3))
            assert abs(t1 - t2 - t3) < 1e-12 * scale

    def test_degenerate_y_equals_v(self, ctx, rng):
        x, y, u = (sample_complex(rng, 0.5, 1.4) for _ in range(3))
        t1, t2, t3 = weierstrass_terms(x, y, u, y, ctx)
        scale = max(abs(t1), abs(t2), 1.0)
        assert abs(t1 - t2 - t3) < 1e-12 * scale

    def test_degenerate_x_equals_u(self, ctx, rng):
        x, y, v = (sample_complex(rng, 0.5, 1.4) for _ in range(3))
        t1, t2, t3 = weierstrass_terms(x, y, x, v, ctx)
        assert abs(t1 - t2 - t3) < 1e-12 * max(abs(t1), abs(t2), 1.0)

    def test_rejects_zero_argument(self, ctx):
        with pytest.raises(DomainError):
            weierstrass_terms(0.0, 1.0, 1.0, 1.0, ctx)


class TestScaledResidual:
    def test_bit_equal_to_inline_form(self, rng):
        for _ in range(200):
            t1, t2, t3 = (sample_complex(rng, 1e-3, 1e3) for _ in range(3))
            inline = abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3))
            assert scaled_residual(t1, t2, t3) == inline
            assert scaled_residual(t1, t2) == abs(t1 - t2) / max(abs(t1), abs(t2))

    def test_first_term_minus_the_rest(self):
        assert scaled_residual(3.0, 1.0, 2.0) == 0.0
        assert scaled_residual(1.0, 2.0, 3.0) == 4.0 / 3.0

    def test_zero_terms(self):
        assert scaled_residual(0.0, 0.0j, 0.0) == 0.0
        assert scaled_residual(0.0j) == 0.0
