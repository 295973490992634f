"""Rational bases Phi_k, coefficient extraction, Taylor sums and flatness.

An expansion to order n samples f once on the grid a q^i, i = 0..n, and
reads each coefficient t_k as its prefactored weight row (_coeff_row, the
closed-form grid functional) times those values; the literal operator
recursion stays available as an independent witness in the tests.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import DomainError, PoleProximity, ZeroDenominator
from .qcore import (QContext, factor_clearance, qpoch_finite, qpoch_infinite,
                    scaled_residual)
from .wpoperator import SymmetricFunction, grid_functional_weights


@dataclass(frozen=True)
class BasisPair:
    """A Taylor pair (a, c): grid parameter a, well-poised parameter c.

    The basis Phi_k(z; a, c) = (az, a/z;q)_k / (cz, c/z;q)_k has poles on
    {c q^m, q^m / c : m >= 0}; evaluation points must clear that set by the
    context pole margin.
    """

    a: complex
    c: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "c", complex(self.c))

    def check_admissible(self, z: complex, ctx: QContext) -> None:
        """Reject z within the pole margin of the basis pole set."""
        if z == 0:
            raise PoleProximity("z = 0 is never admissible")
        if self.c == 0:
            return
        if (factor_clearance(self.c * z, ctx) <= ctx.pole_margin
                or factor_clearance(self.c / z, ctx) <= ctx.pole_margin):
            raise PoleProximity(f"z = {z} within margin of the (c = {self.c}) pole set")


def phi_basis(z: complex, pair: BasisPair, k: int, ctx: QContext) -> complex:
    """Phi_k(z; a, c) = (az, a/z;q)_k / (cz, c/z;q)_k; Phi_0 = 1."""
    if k < 0:
        raise DomainError("basis index must be nonnegative")
    if k == 0:
        return 1.0 + 0.0j
    pair.check_admissible(z, ctx)
    a, c = pair.a, pair.c
    num = qpoch_finite(a * z, k, ctx) * qpoch_finite(a / z, k, ctx)
    den = qpoch_finite(c * z, k, ctx) * qpoch_finite(c / z, k, ctx)
    return num / den


def phi_function(pair: BasisPair, n: int, ctx: QContext) -> SymmetricFunction:
    """Phi_n(.; a, c) wrapped as a SymmetricFunction."""
    return SymmetricFunction(lambda z: phi_basis(z, pair, n, ctx),
                             name=f"phi_{n}")


def basis_terms(z: complex, pair: BasisPair, coeffs: Iterable[complex],
                ctx: QContext) -> list[complex]:
    """The terms [u_k Phi_k(z; a, c)] of a basis series, by ratio updates.

    Every basis denominator factor pair is checked against the pole margin
    before it divides, so a point on the pole set raises PoleProximity.
    """
    q = ctx.q
    a, c = pair.a, pair.c
    terms = []
    basis = 1.0 + 0.0j
    x = 1.0 + 0.0j
    for k, u in enumerate(coeffs):
        if k:
            den = (1.0 - c * z * x) * (1.0 - c * x / z)
            if abs(den) <= ctx.pole_margin ** 2:
                raise PoleProximity(f"z = {z} within margin of the (c = {c}) "
                                    "basis pole set")
            basis *= (1.0 - a * z * x) * (1.0 - a * x / z) / den
            x *= q
        terms.append(u * basis)
    return terms


def basis_sum(z: complex, pair: BasisPair, coeffs: Iterable[complex],
              ctx: QContext) -> complex:
    """sum_k u_k Phi_k(z; a, c) over the given coefficients."""
    return sum(basis_terms(z, pair, coeffs, ctx), 0.0 + 0.0j)


def phi_combination(pair: BasisPair, coeffs: Sequence[complex],
                    ctx: QContext) -> SymmetricFunction:
    """Finite combination sum_k u_k Phi_k(.; a, c) as a SymmetricFunction."""
    us = tuple(complex(u) for u in coeffs)
    return SymmetricFunction(lambda z: basis_sum(z, pair, us, ctx),
                             name="phi_combination")


def _coeff_prefactor(pair: BasisPair, k: int, ctx: QContext) -> complex:
    q, rq = ctx.q, ctx.sqrt_q
    a, c = pair.a, pair.c
    d1 = qpoch_finite(q, k, ctx)
    d2 = qpoch_finite(c / a, k, ctx)
    d3 = qpoch_finite(a * c * q ** (k - 1), k, ctx) if k > 0 else 1.0 + 0.0j
    for name, val in (("(q;q)_k", d1), ("(c/a;q)_k", d2), ("(acq^(k-1);q)_k", d3)):
        if abs(val) <= ctx.pole_margin:
            raise ZeroDenominator(f"degenerate coefficient prefactor: {name} ~ 0")
    sign = -1.0 if k % 2 else 1.0
    return (sign * rq ** (-k * (k - 1) // 2) * (1.0 - q) ** k
            / ((2.0 * a) ** k * d1 * d2 * d3))


def _coeff_row(pair: BasisPair, k: int, ctx: QContext) -> list[complex]:
    """Prefactored weights of t_k: t_k(f) = sum_i row_i f(a q^i), i = 0..k."""
    pref = _coeff_prefactor(pair, k, ctx)
    return [pref * w for w in grid_functional_weights(pair.a, pair.c, k, ctx)]


def _grid_sample(f, pair: BasisPair, n: int, ctx: QContext) -> list[complex]:
    """f at the grid nodes a q^i, i = 0..n."""
    return [f(pair.a * ctx.q ** i) for i in range(n + 1)]


def taylor_coefficient(f, pair: BasisPair, k: int, ctx: QContext) -> complex:
    """k-th well-poised Taylor coefficient of f relative to (a, c).

    The prefactored k-fold operator at z = a q^{k/2}: its weight row
    applied to f on the nodes a q^i, i <= k.
    """
    row = _coeff_row(pair, k, ctx)
    return sum(w * v for w, v in zip(row, _grid_sample(f, pair, k, ctx)))


def coefficient_gap(f, pair: BasisPair, expected: Sequence[complex],
                    ctx: QContext) -> float:
    """Max over k of |t_k(f) - expected_k|, relative to the larger of the two."""
    coeffs = taylor_expand(f, pair, len(expected) - 1, ctx).coefficients
    return max(map(scaled_residual, coeffs, expected), default=0.0)


@dataclass(frozen=True)
class TaylorExpansion:
    """Coefficients t_0..t_n of a function relative to a basis pair."""

    pair: BasisPair
    coefficients: tuple[complex, ...]

    def sum_at(self, z: complex, ctx: QContext) -> complex:
        return basis_sum(z, self.pair, self.coefficients, ctx)


def taylor_expand(f, pair: BasisPair, n: int, ctx: QContext) -> TaylorExpansion:
    """Coefficients 0..n from one sample of f on the nodes a q^i, i = 0..n."""
    values = _grid_sample(f, pair, n, ctx)
    coeffs = tuple(sum(w * v for w, v in zip(_coeff_row(pair, k, ctx), values))
                   for k in range(n + 1))
    return TaylorExpansion(pair, coeffs)


def taylor_sum_and_remainder(f, pair: BasisPair, n: int, z: complex,
                             ctx: QContext) -> tuple[complex, complex]:
    """(T_n f(z), f(z) - T_n f(z)); the pair sums to f(z) by construction."""
    if n < 0:
        raise DomainError("Taylor order must be nonnegative")
    expansion = taylor_expand(f, pair, n, ctx)
    t = expansion.sum_at(z, ctx)
    return t, f(z) - t


def flatness_check(h, pair: BasisPair, k_max: int, ctx: QContext) -> float:
    """Max over k <= k_max of |t_k(h)| relative to the functional's reach.

    The scale at order k is (sum_i |weight_i|) * max |h| sampled on the
    circle through the outer grid node: what the coefficient functional
    could produce from a function of h's magnitude.  A function vanishing
    on the grid therefore scores at rounding level, while a genuinely
    visible function scores far above it.
    """
    h_scale = max(abs(h(abs(pair.a) * cmath.exp(2j * math.pi * (j + 0.13) / 8)))
                  for j in range(8))
    if h_scale == 0.0:
        return 0.0
    values = _grid_sample(h, pair, k_max, ctx)
    worst = 0.0
    for k in range(k_max + 1):
        row = _coeff_row(pair, k, ctx)
        tk = sum(w * v for w, v in zip(row, values))
        worst = max(worst, abs(tk) / (sum(map(abs, row)) * h_scale))
    return worst


def basis_sup_estimate(pair: BasisPair, annulus: tuple[float, float], k_max: int,
                       ctx: QContext) -> float:
    """Empirical sup of |Phi_k| over sampled z in the annulus and k <= k_max.

    Evidence for uniform boundedness: the per-k sups plateau because the
    ratio of consecutive basis elements tends to 1.
    """
    return max(basis_sup_curve(pair, annulus, k_max, ctx))


def basis_sup_curve(pair: BasisPair, annulus: tuple[float, float], k_max: int,
                    ctx: QContext) -> list[float]:
    """Per-k sampled sups sup_z |Phi_k(z)| on the annulus (k = 0..k_max).

    The sample is 48 angles on each of 3 geometrically spaced radii.
    """
    r_lo, r_hi = annulus
    if not 0.0 < r_lo <= r_hi:
        raise DomainError("annulus radii must satisfy 0 < r_lo <= r_hi")
    for mod in _pole_circles(pair, ctx):
        if r_lo - ctx.pole_margin <= mod <= r_hi + ctx.pole_margin:
            raise PoleProximity(f"annulus [{r_lo}, {r_hi}] touches pole circle |z| = {mod:.4g}")
    radii = [r_lo * (r_hi / r_lo) ** (i / 2) for i in range(3)]
    sups = [0.0] * (k_max + 1)
    ones = [1.0] * (k_max + 1)
    for r in radii:
        for j in range(48):
            z = r * cmath.exp(2j * math.pi * (j + 0.21) / 48)
            for k, phi in enumerate(basis_terms(z, pair, ones, ctx)):
                sups[k] = max(sups[k], abs(phi))
    return sups


def basis_limit_modulus(z: complex, pair: BasisPair, ctx: QContext) -> float:
    """|(az, a/z;q)_inf / (cz, c/z;q)_inf|: the large-k limit of |Phi_k(z)|."""
    num = (qpoch_infinite(pair.a * z, ctx).value
           * qpoch_infinite(pair.a / z, ctx).value)
    den = (qpoch_infinite(pair.c * z, ctx).value
           * qpoch_infinite(pair.c / z, ctx).value)
    if abs(den) == 0.0:
        raise PoleProximity("z lies on the basis pole set")
    return abs(num / den)


def _pole_circles(pair: BasisPair, ctx: QContext) -> list[float]:
    mods = []
    if pair.c != 0:
        ac, aq = abs(pair.c), abs(ctx.q)
        m = 0
        while ac * aq ** m > 1e-12 and m < 64:
            mods.append(ac * aq ** m)
            mods.append(1.0 / (ac * aq ** m))
            m += 1
    return mods
