import math
from fractions import Fraction

import numpy as np
import pytest

from qtaylor.errors import DomainError, TruncationFailure
from qtaylor.qcore import (TAIL_TARGET, QContext, fit_window, fitted_rate,
                           geometric_depth, qpoch_finite, qpoch_groups, qpoch_infinite,
                           qpoch_table, residual_and_scale, scaled_residual, theta,
                           weierstrass_terms)
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

    def test_squared_context(self, ctx):
        assert ctx.squared().q == pytest.approx(ctx.q ** 2)
        assert ctx.other_branch().squared().root_sign == -1

    def test_sqrt_branch(self, ctx):
        assert ctx.sqrt_q == pytest.approx(math.sqrt(0.45))
        assert ctx.other_branch().sqrt_q == pytest.approx(-math.sqrt(0.45))

    @pytest.mark.parametrize("q", [0.7, -0.6, 0.3 + 0.5j])
    def test_power_table_is_the_running_product(self, q):
        # one table per context, the loop x *= q from 1, read-only, and rebuilt longer
        # with the same leading entries
        ctx = QContext(q)
        short = ctx.powers(10)
        x, loop = 1.0 + 0.0j, []
        for _ in range(1001):
            loop.append(x)
            x *= ctx.q
        assert ctx.powers(1000).tolist() == loop and short.tolist() == loop[:11]
        assert not short.flags.writeable and len(ctx.powers(3)) == 4
        assert repr(ctx) == repr(QContext(q)) and ctx == QContext(q)
        assert ctx.other_branch()._powers is None

    @pytest.mark.parametrize("q", [0.7, -0.6, 0.3 + 0.5j])
    def test_squared_context_reads_its_own_table(self, q):
        # squared() copies a context whose table of q is built; its products must be
        # those of a fresh context of base q^2, bit for bit
        ctx = QContext(q)
        ctx.powers(400)
        squared, fresh = ctx.squared(), QContext(ctx.q * ctx.q)
        rng = np.random.default_rng(5)
        a = rng.uniform(0.05, 1.4, 40) * np.exp(2j * np.pi * rng.random(40))

        def products(c):
            return [qpoch_infinite(a, c).value, qpoch_infinite(complex(a[0]), c).value,
                    qpoch_table(a, 30, c), qpoch_finite(complex(a[1]), 17, c), c.powers(400)]
        assert all(np.asarray(x).tobytes() == np.asarray(y).tobytes()
                   for x, y in zip(products(squared), products(fresh)))


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
        with pytest.raises(DomainError):
            qpoch_table([0.3], -1, ctx)

    @pytest.mark.parametrize("q", [0.2, 0.7, -0.6, 0.5j, 0.9])
    def test_table_columns_are_the_finite_products(self, q, rng):
        ctx = QContext(q)
        params = [sample_complex(rng, 0.05, 3.0) for _ in range(9)]
        table = qpoch_table(params, 70, ctx)
        assert table.shape == (71, 9)
        for col, a in zip(table.T.tolist(), params):
            assert col == [qpoch_finite(a, n, ctx) for n in range(71)]

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

    @pytest.mark.parametrize("rate", [0.05, 0.45, 0.7, 0.95])
    def test_fitted_rate_of_a_geometric_sequence(self, rate):
        orders = fit_window(rate)
        assert fitted_rate(orders, [3.2 * rate ** n for n in orders]) == pytest.approx(rate,
                                                                                    rel=1e-12)

    def test_fitted_rate_is_the_least_squares_line(self):
        hypothesis = pytest.importorskip("hypothesis")
        st = pytest.importorskip("hypothesis.strategies")

        # judged against the exact slope of the same float logarithms: np.polyfit's
        # lstsq misses it by 1e-12 relative at the pinned example, fitted_rate by none
        @hypothesis.settings(max_examples=200, derandomize=True, database=None, deadline=None)
        @hypothesis.given(st.integers(0, 20),
                          st.lists(st.floats(1e-30, 1e30), min_size=2, max_size=12))
        @hypothesis.example(19, [2.22e-16, 8.37e23])
        def agrees(start, values):
            orders = list(range(start, start + len(values)))
            xs, ys = list(map(Fraction, orders)), [Fraction(math.log(v)) for v in values]
            x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
            slope = (sum((x - x_mean) * (y - y_mean) for x, y in zip(xs, ys))
                     / sum((x - x_mean) ** 2 for x in xs))
            assert fitted_rate(orders, values) == pytest.approx(math.exp(slope), rel=1e-12)

        agrees()

    @pytest.mark.parametrize("bad", [0.0, -0.5, math.nan, math.inf])
    def test_fitted_rate_names_a_value_off_the_log_line(self, bad):
        with pytest.raises(DomainError, match=rf"decay value {bad!r} at order 2 "):
            fitted_rate([1, 2, 3], np.array([1.0, bad, 0.5]))

    @pytest.mark.parametrize("orders", [[], [4], [4, 4, 4]])
    def test_fitted_rate_needs_two_distinct_orders(self, orders):
        with pytest.raises(DomainError, match="two distinct orders"):
            fitted_rate(orders, [0.5] * len(orders))


class TestQPochhammerMulti:
    """Products over parameter lists: of a qpoch_finite row, or one qpoch_groups group."""

    def test_empty_list(self, ctx):
        assert math.prod(qpoch_finite(np.array([]), 5, ctx).tolist()) == 1.0
        assert qpoch_groups([[]], ctx)[0] == 1.0

    def test_singleton_matches_finite(self, ctx):
        a = 0.6 - 0.2j
        assert qpoch_finite(np.array([a]), 7, ctx).tolist() == [qpoch_finite(a, 7, ctx)]

    def test_pair_factorwise(self, ctx, rng):
        a, b = sample_complex(rng), sample_complex(rng)
        lhs = qpoch_groups([[a, b]], ctx)[0]
        rhs = qpoch_infinite(a, ctx).value * qpoch_infinite(b, ctx).value
        assert abs(lhs - rhs) / abs(rhs) < 1e-12
        assert qpoch_infinite([a, b], ctx).tail_abs > 0.0


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

    def test_scale_is_the_largest_term(self):
        assert residual_and_scale(1.0, 2.0, -3.0) == (2.0 / 3.0, 3.0)
        assert residual_and_scale(0.0, 0.0j) == (0.0, 0.0)
        res, scale = residual_and_scale(np.array([1.0, 0.0, 4.0]), np.array([2.0, 0.0, 1.0]))
        assert res.tolist() == [0.5, 0.0, 0.75] and scale.tolist() == [2.0, 0.0, 4.0]
