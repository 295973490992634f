import cmath
import math

import numpy as np
import pytest

from qtaylor.errors import PoleProximity, ZeroDenominator
from qtaylor.kernel import H_series_function
from qtaylor.qcore import QContext, qpoch_finite, qpoch_infinite
from qtaylor.sampling import (sample_basis_pair, sample_complex,
                              sample_profile_kernel_params, sample_z)
from qtaylor.taylor import (BasisPair, TaylorExpansion, _coeff_prefactor,
                            basis_limit_modulus, basis_sup_curve, basis_sup_estimate,
                            basis_terms, flatness_check, phi_basis, phi_combination,
                            phi_function, taylor_coefficient, taylor_expand,
                            taylor_sum_and_remainder)
from qtaylor.wpoperator import SymmetricFunction, cooper_eval, grid_functional_weights


class TestBasis:
    def test_order_zero(self, ctx):
        assert phi_basis(1.2 + 0.1j, BasisPair(0.5, 0.3), 0, ctx) == 1.0

    def test_vanishes_on_own_grid_anchor(self, ctx):
        pair = BasisPair(0.6 + 0.1j, 0.4)
        for k in (1, 2, 5):
            assert abs(phi_basis(pair.a, pair, k, ctx)) < 1e-14

    def test_zero_parameter_gives_monomial(self, ctx, rng):
        a = sample_complex(rng, 0.4, 0.8)
        z = sample_z(rng)
        pair = BasisPair(a, 0.0)
        for k in (1, 3):
            want = qpoch_finite(a * z, k, ctx) * qpoch_finite(a / z, k, ctx)
            assert phi_basis(z, pair, k, ctx) == pytest.approx(want, rel=1e-14)

    def test_pole_proximity_rejected(self, ctx):
        pair = BasisPair(0.6, 0.5)
        with pytest.raises(PoleProximity):
            phi_basis(1 / 0.5 + 1e-9, pair, 2, ctx)
        with pytest.raises(PoleProximity):
            TaylorExpansion(pair, (1, 1, 1)).sum_at(1 / pair.c, ctx)

    def test_basis_terms_match_finite_products(self, ctx, rng):
        pair = sample_basis_pair(rng)
        z = sample_z(rng)
        terms = basis_terms(z, pair, [1] * 13, ctx)
        for k, term in enumerate(terms):
            assert term == pytest.approx(phi_basis(z, pair, k, ctx), rel=1e-12)

    def test_symmetry(self, ctx, rng):
        pair = sample_basis_pair(rng)
        z = sample_z(rng)
        assert phi_basis(z, pair, 4, ctx) == pytest.approx(
            phi_basis(1 / z, pair, 4, ctx), rel=1e-12)


def _loop_basis_terms(z, pair, coeffs, ctx):
    """The one-order-at-a-time basis_terms that the running product replaced: the oracle."""
    q = ctx.q
    a, c = pair.a, pair.c
    terms = []
    basis = 1.0 + 0.0j
    x = 1.0 + 0.0j
    for k, u in enumerate(coeffs):
        if k:
            den = (1.0 - c * z * x) * (1.0 - c * x / z)
            if abs(den) <= ctx.pole_margin ** 2:
                raise PoleProximity(f"z = {z} within margin of the (c = {c}) basis pole set")
            basis *= (1.0 - a * z * x) * (1.0 - a * x / z) / den
            x *= q
        terms.append(u * basis)
    return terms


class TestBasisTermsOverPoints:
    """basis_terms over an ndarray of points against one call per point."""

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6, 0.3 + 0.5j])
    def test_scalar_point_matches_the_loop(self, rng, q):
        ctx = QContext(q)
        for _ in range(5):
            pair = sample_basis_pair(rng)
            z = sample_z(rng)
            coeffs = [sample_complex(rng, 0.5, 1.5) for _ in range(60)]
            got, want = basis_terms(z, pair, coeffs, ctx), _loop_basis_terms(z, pair, coeffs, ctx)
            # the same products, rounded by NumPy's loops: at most a few ulps per order
            assert all(abs(g - w) <= 4 * (k + 1) * 2.0 ** -52 * abs(w)
                       for k, (g, w) in enumerate(zip(got, want)))

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6, 0.3 + 0.5j])
    def test_array_of_points_matches_scalar_calls(self, rng, q):
        ctx = QContext(q)
        pair = sample_basis_pair(rng)
        coeffs = [sample_complex(rng, 0.5, 1.5) for _ in range(40)]
        zs = np.array([sample_z(rng) for _ in range(9)]).reshape(3, 3)
        terms = basis_terms(zs, pair, coeffs, ctx)
        assert terms.shape == (40, 3, 3)
        for idx in np.ndindex(zs.shape):
            one = np.array(basis_terms(complex(zs[idx]), pair, coeffs, ctx))
            # the same products, maybe rounded by another NumPy loop: a few ulps
            got = terms[(slice(None),) + idx]
            assert np.all(np.abs(got - one) <= 8 * 2.0 ** -52 * np.abs(one))

    def test_one_point_on_the_pole_set_raises(self, ctx, rng):
        pair = BasisPair(0.6, 0.5)
        zs = np.array([sample_z(rng) for _ in range(5)] + [1 / (pair.c * ctx.q ** 3)])
        with pytest.raises(PoleProximity):
            basis_terms(zs, pair, [1.0] * 6, ctx)
        # the pole factor enters Phi_4 first: shorter sums never meet it
        assert basis_terms(zs, pair, [1.0] * 4, ctx).shape == (4, 6)

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6])
    def test_sup_curve_equals_the_per_point_loop(self, rng, q):
        ctx = QContext(q)
        pair = BasisPair(sample_complex(rng, 0.4, 0.8), 0.5)
        annulus, k_max = (0.98, 1.02), 40
        radii = [annulus[0] * (annulus[1] / annulus[0]) ** (i / 2) for i in range(3)]
        sups = [0.0] * (k_max + 1)
        for r in radii:
            for j in range(48):
                z = r * cmath.exp(2j * math.pi * (j + 0.21) / 48)
                for k, phi in enumerate(basis_terms(z, pair, [1.0] * (k_max + 1), ctx)):
                    sups[k] = max(sups[k], abs(phi))
        curve = basis_sup_curve(pair, annulus, k_max, ctx)
        assert len(curve) == k_max + 1
        assert all(abs(a - b) <= 8 * 2.0 ** -52 * b for a, b in zip(curve, sups))


class TestCoefficientExtraction:
    def test_order_zero_evaluates_at_anchor(self, ctx, rng):
        pair = sample_basis_pair(rng)
        f = phi_combination(pair, [0.8, 0.5j, 1.1], ctx)
        t0 = taylor_coefficient(f, pair, 0, ctx)
        assert t0 == pytest.approx(f(pair.a), rel=1e-14)

    def test_delta_property(self, ctx, rng):
        pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
        for n in range(5):
            f = phi_function(pair, n, ctx)
            for k in range(5):
                t = taylor_coefficient(f, pair, k, ctx)
                assert abs(t - (1.0 if k == n else 0.0)) < 1e-10

    def test_first_reexpansion_closed_forms(self, ctx, rng):
        a = sample_complex(rng, 0.4, 0.85)
        c = sample_complex(rng, 0.35, 0.8)
        d = sample_complex(rng, 0.4, 0.85)
        pair = BasisPair(a, c)
        f = phi_function(BasisPair(d, c), 1, ctx)
        t0 = taylor_coefficient(f, pair, 0, ctx)
        t1 = taylor_coefficient(f, pair, 1, ctx)
        w0 = (1 - a * d) * (1 - d / a) / ((1 - a * c) * (1 - c / a))
        w1 = (d / a) * (1 - c / d) * (1 - c * d) / ((1 - c / a) * (1 - a * c))
        assert t0 == pytest.approx(w0, rel=1e-9)
        assert t1 == pytest.approx(w1, rel=1e-9)

    def test_recovers_combination_coefficients(self, ctx, rng):
        for _ in range(6):
            pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
            n = rng.randrange(1, 9)
            coeffs = [sample_complex(rng, 0.5, 1.5) for _ in range(n + 1)]
            f = phi_combination(pair, coeffs, ctx)
            for k in range(n + 1):
                t = taylor_coefficient(f, pair, k, ctx)
                assert abs(t - coeffs[k]) < 1e-8 * abs(coeffs[k])

    def test_linearity(self, ctx, rng):
        pair = sample_basis_pair(rng)
        f = phi_combination(pair, [1.0, 0.8 + 0.1j, 0.5], ctx)
        g = phi_combination(pair, [0.3, -0.6j, 0.9, 0.2], ctx)
        al, be = 1.3 - 0.2j, 0.7 + 0.4j
        h = SymmetricFunction(lambda z: al * f(z) + be * g(z))
        for k in range(4):
            lhs = taylor_coefficient(h, pair, k, ctx)
            rhs = (al * taylor_coefficient(f, pair, k, ctx)
                   + be * taylor_coefficient(g, pair, k, ctx))
            assert abs(lhs - rhs) <= 1e-10 * max(abs(lhs), abs(rhs), 1e-12)

    def test_degenerate_prefactor_rejected(self, ctx):
        pair = BasisPair(0.6, 0.6)  # c/a = 1 kills the prefactor denominator
        f = phi_function(pair, 1, ctx)
        with pytest.raises(ZeroDenominator):
            taylor_coefficient(f, pair, 1, ctx)


class TestSumsAndRemainders:
    def test_finite_combination_has_tiny_remainder(self, ctx, rng):
        pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
        coeffs = [0.9, 0.6 - 0.3j, 1.2, 0.4j]
        f = phi_combination(pair, coeffs, ctx)
        z = sample_z(rng)
        t, r = taylor_sum_and_remainder(f, pair, 3, z, ctx)
        assert abs(r) < 1e-9 * abs(f(z))

    def test_order_zero_remainder(self, ctx, rng):
        pair = sample_basis_pair(rng)
        f = phi_combination(pair, [0.8, 0.5j, 1.1], ctx)
        z = sample_z(rng)
        t, r = taylor_sum_and_remainder(f, pair, 0, z, ctx)
        assert t == pytest.approx(f(pair.a), rel=1e-13)
        assert r == pytest.approx(f(z) - f(pair.a), rel=1e-12)

    def test_pair_sums_to_value(self, ctx, rng):
        pair = sample_basis_pair(rng)
        f = phi_combination(pair, [0.8, 0.5j, 1.1, -0.4], ctx)
        z = sample_z(rng)
        t, r = taylor_sum_and_remainder(f, pair, 2, z, ctx)
        assert abs((t + r) - f(z)) <= 1e-15 * abs(f(z))

    def test_convergent_series_remainder_is_tail(self, ctx, rng):
        # f given by an absolutely convergent basis series with known u_k
        pair = sample_basis_pair(rng, lo=0.4, hi=0.8)
        depth = 40
        us = [(0.55 + 0.1j) ** k for k in range(depth)]
        f = phi_combination(pair, us, ctx)
        z = sample_z(rng)
        n = 5
        _, rem = taylor_sum_and_remainder(f, pair, n, z, ctx)
        tail = (f(z)
                - TaylorExpansion(pair, tuple(us[:n + 1])).sum_at(z, ctx))
        assert rem == pytest.approx(tail, rel=1e-8)
        # and the extracted coefficients identify the series coefficients
        exp = taylor_expand(f, pair, n, ctx)
        for k in range(n + 1):
            assert exp.coefficients[k] == pytest.approx(us[k], rel=1e-8)


def _assert_matches_per_order_route(f, pair, n, ctx):
    """taylor_expand against prefactor x cooper_eval at a q^{k/2}, order by order.

    Each order is allowed 1e-12 of the functional's reach
    sum_i |pref w_i f(a q^i)|: the two routes sum the same terms in another
    order, at nodes rounded differently.
    """
    got = taylor_expand(f, pair, n, ctx).coefficients
    assert len(got) == n + 1
    for k in range(n + 1):
        pref = _coeff_prefactor(pair, k, ctx)
        want = pref * cooper_eval(f, pair.a * ctx.sqrt_q ** k, pair.c, k, ctx)
        reach = sum(abs(pref * w * f(pair.a * ctx.q ** i))
                    for i, w in enumerate(grid_functional_weights(pair.a, pair.c, k, ctx)))
        assert abs(got[k] - want) <= 1e-12 * reach, (k, got[k], want, reach)


class TestSharedGrid:
    """An expansion samples f once per grid node and keeps every coefficient."""

    @pytest.mark.parametrize("n", [0, 1, 6, 20])
    def test_expansion_evaluates_each_node_once(self, ctx, n):
        pair = BasisPair(0.6 + 0.1j, 0.4)
        inner = phi_combination(BasisPair(0.5, 0.4), [1.0, 0.3j, 0.8], ctx)
        seen = []
        f = SymmetricFunction(lambda z: seen.append(z) or inner(z))
        taylor_expand(f, pair, n, ctx)
        assert len(seen) == n + 1

    @pytest.mark.parametrize("q", [0.45, -0.3, 0.5j, 0.7])
    @pytest.mark.parametrize("flip", [False, True])
    def test_matches_per_order_route(self, rng, q, flip):
        ctx = QContext(q).other_branch() if flip else QContext(q)
        for _ in range(3):
            pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
            n = rng.randrange(1, 9)
            f = phi_combination(pair, [sample_complex(rng, 0.5, 1.5) for _ in range(n + 1)],
                                ctx)
            _assert_matches_per_order_route(f, pair, n, ctx)

    @pytest.mark.parametrize("flip", [False, True])
    def test_kernel_H_to_order_20_matches_per_order_route(self, rng, flip):
        ctx = QContext(0.7).other_branch() if flip else QContext(0.7)
        kp = sample_profile_kernel_params(rng, ctx)
        _assert_matches_per_order_route(H_series_function(kp), kp.phi_pair, 20, ctx)


class TestFlatness:
    def test_grid_vanishing_product_is_flat(self, ctx, rng):
        pair = sample_basis_pair(rng, lo=0.4, hi=0.8)
        h = SymmetricFunction(
            lambda z: qpoch_infinite(pair.a * z, ctx).value
            * qpoch_infinite(pair.a / z, ctx).value)
        assert flatness_check(h, pair, 5, ctx) < 1e-8

    def test_grid_vanishing_times_bounded_is_flat(self, ctx, rng):
        pair = sample_basis_pair(rng, lo=0.4, hi=0.8)
        h = SymmetricFunction(
            lambda z: qpoch_infinite(pair.a * z, ctx).value
            * qpoch_infinite(pair.a / z, ctx).value
            * (1.3 + 0.5 * (z + 1 / z)))
        assert flatness_check(h, pair, 4, ctx) < 1e-8

    def test_basis_element_is_not_flat(self, ctx, rng):
        pair = sample_basis_pair(rng, lo=0.4, hi=0.8)
        f = phi_function(pair, 3, ctx)
        assert taylor_coefficient(f, pair, 3, ctx) == pytest.approx(1.0, rel=1e-9)
        assert flatness_check(f, pair, 4, ctx) > 1e-4


class TestBasisBoundedness:
    def test_unit_circle_plateau(self, ctx, rng):
        pair = BasisPair(sample_complex(rng, 0.4, 0.8), 0.5)
        sups = basis_sup_curve(pair, (0.98, 1.02), 40, ctx)
        assert sups[0] == 1.0
        assert max(sups) < math.inf
        plateau = max(sups[30:]) / max(sups[15:25])
        assert abs(plateau - 1.0) < 1e-4

    def test_estimate_matches_curve(self, ctx):
        pair = BasisPair(0.6, 0.45)
        est = basis_sup_estimate(pair, (0.98, 1.02), 25, ctx)
        assert est == max(basis_sup_curve(pair, (0.98, 1.02), 25, ctx))

    def test_large_order_limit(self, ctx):
        pair = BasisPair(0.6 + 0.2j, 0.45)
        z = 1.03 * cmath.exp(0.4j)
        lim = basis_limit_modulus(z, pair, ctx)
        assert abs(phi_basis(z, pair, 45, ctx)) == pytest.approx(lim, rel=1e-8)

    def test_pole_circle_rejected(self, ctx):
        pair = BasisPair(0.6, 0.5)
        with pytest.raises(PoleProximity):
            basis_sup_curve(pair, (1.9, 2.1), 10, ctx)  # crosses |z| = 1/c = 2
