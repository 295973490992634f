import math
import random

import pytest

from qtaylor import wpoperator
from qtaylor.errors import (DomainError, ExceptionalPoint, NearSingularPoint)
from qtaylor.qcore import POLE_MARGIN, QContext, qpoch_finite
from qtaylor.sampling import sample_basis_pair, sample_complex, sample_with
from qtaylor.taylor import (BasisPair, phi_basis, phi_combination, phi_function,
                            taylor_expand)
from qtaylor.wpoperator import (apply_Dcq, apply_Dq, apply_iterated, cooper_eval, cooper_rows,
                                grid_functional_weights)


def chebyshev_x(z):
    """(z + 1/z) / 2: the first Askey-Wilson coordinate."""
    return (z + 1 / z) / 2


def operator_point(rng, ctx):
    return sample_with(rng, lambda r: sample_complex(r, 0.85, 1.3),
                       lambda z: abs(z - 1 / z) > 0.25
                       and abs(abs(z) - 1 / math.sqrt(abs(ctx.q))) > 0.05)


def iterated_closed_form(pair, n, k, z, ctx):
    """The degree-lowering product formula, evaluated directly."""
    q, rq = ctx.q, ctx.sqrt_q
    a, c = pair.a, pair.c
    pref = ((-1) ** k * (2 * a) ** k * rq ** (k * (k - 1) // 2)
            * qpoch_finite(q, n, ctx) * qpoch_finite(c / a, k, ctx)
            * qpoch_finite(a * c * q ** (n - 1), k, ctx)
            / (qpoch_finite(q, n - k, ctx) * (1 - q) ** k))
    shifted = BasisPair(a * rq ** k, c * rq ** (3 * k))
    return pref * phi_basis(z, shifted, n - k, ctx)


def delta_scalar(pair, k, ctx):
    q, rq = ctx.q, ctx.sqrt_q
    a, c = pair.a, pair.c
    return ((-1) ** k * (2 * a) ** k * rq ** (k * (k - 1) // 2)
            * qpoch_finite(q, k, ctx) * qpoch_finite(c / a, k, ctx)
            * qpoch_finite(a * c * q ** (k - 1), k, ctx) / (1 - q) ** k)


class TestDividedDifference:
    def test_constant_annihilated(self, ctx):
        assert abs(apply_Dq(lambda z: 3.2 - 0.7j, 1.3 + 0.4j, ctx)) < 1e-15

    def test_first_chebyshev_coordinate(self, ctx, rng):
        for _ in range(5):
            z = operator_point(rng, ctx)
            assert apply_Dq(chebyshev_x, z, ctx) == pytest.approx(1.0, abs=1e-13)

    def test_monomial_with_zero_parameter(self, ctx, rng):
        # lowering law at c = 0: the Askey-Wilson monomial drops one degree
        a = sample_complex(rng, 0.4, 0.8)
        f = phi_function(BasisPair(a, 0.0), 1, ctx)
        z = operator_point(rng, ctx)
        assert apply_Dq(f, z, ctx) == pytest.approx(-2 * a, rel=1e-12)

    def test_near_singular_rejected(self, ctx):
        with pytest.raises(NearSingularPoint):
            apply_Dq(chebyshev_x, 1.0 + 1e-9j, ctx)

    def test_branch_invariance_odd_function(self, ctx, rng):

        def f(w):
            return ((w + 1 / w) / 2) ** 3 - (w + 1 / w)
        z = operator_point(rng, ctx)
        v1 = apply_Dq(f, z, ctx)
        v2 = apply_Dq(f, z, ctx, root=-ctx.sqrt_q)
        assert v1 == pytest.approx(v2, rel=1e-14)


class TestWellPoisedOperator:
    def test_reduces_to_plain_operator(self, ctx, rng):
        f = phi_combination(sample_basis_pair(rng), [0.5, 1.1, 0.9j], ctx)
        z = operator_point(rng, ctx)
        assert apply_Dcq(f, z, 0.0, ctx) == pytest.approx(apply_Dq(f, z, ctx),
                                                          rel=1e-13)

    def test_constant_annihilated(self, ctx):
        assert abs(apply_Dcq(lambda z: 1.5 + 0.5j, 1.2 + 0.3j, 0.4, ctx)) < 1e-14

    def test_lowering_first_basis_element(self, ctx, rng):
        pair = sample_basis_pair(rng)
        f = phi_function(pair, 1, ctx)
        want = -2 * pair.a * (1 - pair.c / pair.a) * (1 - pair.a * pair.c)
        for _ in range(3):
            z = operator_point(rng, ctx)
            assert apply_Dcq(f, z, pair.c, ctx) == pytest.approx(want, rel=1e-12)


class TestIteratedOperator:
    def test_depth_zero_identity(self, ctx, rng):
        f = phi_combination(sample_basis_pair(rng), [0.7, 0.4j], ctx)
        z = operator_point(rng, ctx)
        assert apply_iterated(f, z, 0.3, 0, ctx) == f(z)

    def test_depth_one_matches_single_step(self, ctx, rng):
        pair = sample_basis_pair(rng)
        f = phi_combination(pair, [0.7, 0.4j, 1.2], ctx)
        z = operator_point(rng, ctx)
        c = sample_complex(rng)
        got = apply_iterated(f, z, c, 1, ctx)
        assert got == pytest.approx(apply_Dcq(f, z, c, ctx), rel=1e-13)

    def test_negative_depth_rejected(self, ctx):
        with pytest.raises(DomainError):
            apply_iterated(chebyshev_x, 1.2 + 0.3j, 0.3, -1, ctx)

    def test_step_values_shift(self, ctx, rng):
        # level j applies the operator of parameter c q^{3(j-1)/2} to level j - 1
        f = phi_combination(sample_basis_pair(rng), [0.7, 0.4j, 1.2, 0.3], ctx)
        z, c, rq = operator_point(rng, ctx), 0.5, ctx.sqrt_q
        level1 = lambda w: apply_Dcq(f, w, c, ctx)  # noqa: E731
        level2 = lambda w: apply_Dcq(level1, w, c * rq ** 3, ctx)  # noqa: E731
        want = apply_Dcq(level2, z, c * rq ** 6, ctx)
        assert apply_iterated(f, z, c, 3, ctx) == pytest.approx(want, rel=1e-11)

    @pytest.mark.parametrize("n", [2, 3, 5])
    def test_matches_lowering_closed_form(self, n, ctx, rng):
        pair = sample_basis_pair(rng)
        f = phi_function(pair, n, ctx)
        z = operator_point(rng, ctx)
        for k in range(n + 1):
            got = apply_iterated(f, z, pair.c, k, ctx)
            want = iterated_closed_form(pair, n, k, z, ctx)
            assert abs(got - want) <= 1e-10 * max(abs(want), 1e-12)


class TestClosedFormOperator:
    def test_order_zero(self, ctx, rng):
        f = phi_combination(sample_basis_pair(rng), [0.7, 0.4j], ctx)
        z = operator_point(rng, ctx)
        assert cooper_eval(f, z, 0.3, 0, ctx) == f(z)

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_low_orders_match_recursion(self, m, ctx, rng):
        for _ in range(5):
            pair = sample_basis_pair(rng)
            f = phi_combination(pair, [sample_complex(rng, 0.5, 1.5)
                                       for _ in range(m + 3)], ctx)
            z = operator_point(rng, ctx)
            c = sample_complex(rng)
            v1 = cooper_eval(f, z, c, m, ctx)
            v2 = apply_iterated(f, z, c, m, ctx)
            assert abs(v1 - v2) <= 1e-10 * max(abs(v1), abs(v2))

    def test_delta_scalar_on_grid(self, ctx, rng):
        pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
        for m in range(1, 6):
            f = phi_function(pair, m, ctx)
            z = pair.a * ctx.sqrt_q ** m
            got = cooper_eval(f, z, pair.c, m, ctx)
            want = delta_scalar(pair, m, ctx)
            assert abs(got - want) <= 1e-10 * abs(want)

    def test_exceptional_point_rejected(self, ctx):
        z = 1 / ctx.sqrt_q  # z^2 = q^{-1}: a cardinal denominator vanishes
        with pytest.raises(ExceptionalPoint):
            cooper_eval(chebyshev_x, z, 0.3, 2, ctx)

    def test_branch_invariance_of_functional(self, ctx, rng):
        pair = sample_basis_pair(rng)
        f = phi_combination(pair, [0.7, 1.1 - 0.3j, 0.8j, 0.5], ctx)
        t, t_flipped = (taylor_expand(f, pair, 4, branch)
                        for branch in (ctx, ctx.other_branch()))
        for t1, t2 in zip(t, t_flipped):
            assert t1 == pytest.approx(t2, rel=1e-12, abs=1e-14)


class TestGridFunctional:
    def test_order_zero_single_weight(self, ctx):
        assert grid_functional_weights(0.6, 0.3, 0, ctx) == [1.0 + 0.0j]

    def test_order_one_against_linear_solve(self, ctx, rng):
        pair = sample_basis_pair(rng)
        a, c = pair.a, pair.c
        w = grid_functional_weights(a, c, 1, ctx)
        phi1 = phi_function(pair, 1, ctx)
        # conditions: annihilate constants, reproduce the lowering scalar;
        # phi_1 vanishes at the node a, so the 2x2 system is triangular
        scalar = delta_scalar(pair, 1, ctx)
        w1 = scalar / phi1(a * ctx.q)
        w0 = -w1
        assert w[0] == pytest.approx(w0, rel=1e-10)
        assert w[1] == pytest.approx(w1, rel=1e-10)

    def test_annihilates_grid_zero_functions(self, ctx):
        w = grid_functional_weights(0.55, 0.4, 3, ctx)
        assert sum(wi * 0.0 for wi in w) == 0.0

    def test_reproduces_coefficient_functional(self, ctx, rng):
        # the weights and cooper_eval are the same functional
        pair = sample_basis_pair(rng)
        f = phi_combination(pair, [0.9, 0.7 - 0.2j, 1.1, 0.3j], ctx)
        k = 3
        w = grid_functional_weights(pair.a, pair.c, k, ctx)
        direct = sum(wi * f(pair.a * ctx.q ** i) for i, wi in enumerate(w))
        via_cooper = cooper_eval(f, pair.a * ctx.sqrt_q ** k, pair.c, k, ctx)
        assert direct == pytest.approx(via_cooper, rel=1e-11)


def guarded_qpoch(a, n, ctx):
    value, x = 1.0 + 0.0j, complex(a)
    for _ in range(n):
        fac = 1.0 - x
        if abs(fac) <= POLE_MARGIN * max(1.0, abs(x)):
            raise ExceptionalPoint(f"cardinal denominator factor 1-({x}) within margin")
        value *= fac
        x *= ctx.q
    return value


def product_form_weights(z, c, m, ctx):
    """The per-weight product form the row builder replaces: O(m) fresh products
    for every weight of order m."""
    q, rq = ctx.q, ctx.sqrt_q
    pref = ((-2.0 * z) ** m * rq ** (m * (3 - m) // 2) / (1.0 - q) ** m
            * qpoch_finite(c * rq ** (m - 2) * z, m + 1, ctx)
            * qpoch_finite(c * rq ** (m - 2) / z, m + 1, ctx))
    weights = []
    z2 = z * z
    for r in range(m + 1):
        d1 = guarded_qpoch(q ** (m - 2 * r + 1) * z2, r, ctx)
        d2 = 1.0 + 0.0j
        for j in range(m - r):
            s = q ** (2 * r - m + 1 + j)
            fac = z2 - s
            if abs(fac) <= POLE_MARGIN * max(abs(z2), abs(s)):
                raise ExceptionalPoint("cardinal denominator z^2 - q^s within margin")
            d2 *= fac
        num = (qpoch_finite(c * rq ** (m - 2 * r) * z, m - 1, ctx)
               * qpoch_finite(c * rq ** (2 * r - m) / z, m - 1, ctx))
        binom = qpoch_finite(q ** (r + 1), m - r, ctx) / qpoch_finite(q, m - r, ctx)
        weights.append(pref * q ** (r * (m - r)) * binom * num / (d1 * d2))
    return weights


class TestWeightRows:
    """cooper_rows against the product-form loop, row by row."""

    # observed: at most ~60 eps of the reach up to order 20
    TOL = 256 * 2.0 ** -52

    @pytest.mark.parametrize("q", [0.2, 0.45, 0.7, -0.6, 0.5j, 0.9])
    @pytest.mark.parametrize("flip", [False, True])
    def test_rows_match_the_product_form(self, q, flip):
        ctx = QContext(q).other_branch() if flip else QContext(q)
        rng = random.Random(11)
        for _ in range(3):
            pair = sample_basis_pair(rng)
            z = operator_point(rng, ctx)
            # the Taylor grid of an expansion to order 20, and a generic point
            points = [(pair.a * ctx.sqrt_q ** m, m) for m in range(21)]
            points += [(z, m) for m in range(9)]
            for w, m in points:
                row = cooper_rows(pair.c, w, m, ctx)
                assert len(row) == m + 1
                want = product_form_weights(w, pair.c, m, ctx) if m else [1.0]
                reach = sum(map(abs, want))
                assert max(abs(a - b) for a, b in zip(row, want)) <= self.TOL * reach, (w, m)

    def test_functionals_read_the_builder(self, ctx, monkeypatch):
        calls = []
        real = wpoperator.cooper_rows
        monkeypatch.setattr(wpoperator, "cooper_rows",
                            lambda c, z, m, ctx: calls.append((z, m)) or real(c, z, m, ctx))
        z = 1.1 + 0.2j
        assert cooper_eval(chebyshev_x, z, 0.3, 2, ctx) == sum(
            u * chebyshev_x(ctx.sqrt_q ** (2 - 2 * r) * z)
            for r, u in enumerate(real(0.3, z, 2, ctx)))
        assert grid_functional_weights(0.6, 0.3, 3, ctx) == real(
            0.3, 0.6 * ctx.sqrt_q ** 3, 3, ctx)[::-1]
        assert calls == [(z, 2), (0.6 * ctx.sqrt_q ** 3, 3)]

    def test_negative_order_rejected(self, ctx):
        with pytest.raises(DomainError):
            cooper_rows(0.3, 1.1, -1, ctx)
