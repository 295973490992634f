"""The two quadratic one-family expansions and the folding identities.

Both products mix base q^2 (numerators) with base q (denominators); each
is evaluated under the squared context in one product call, a base-q
factor entering as (u;q)_inf = (u, uq;q^2)_inf.  The
expansions are genuinely one-family: their exact Taylor remainders are
convergent tails, so the decay checks here need no complementary term.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConvergenceRegionViolation, DomainError
from .hyper import VWPSpec, series_eval, series_sums, sum_through
from .qcore import (QContext, qpoch_finite, qpoch_groups, qpoch_infinite, qpoch_quotient,
                    require_clear)
from .taylor import BasisPair, basis_sum, basis_terms, taylor_expand


@dataclass(frozen=True)
class QuadraticParams:
    """Parameters of the two quadratic families with their evaluation context.

    (a, b) with |b/a| < 1 drives the Watson-type product; (alpha, d) with
    |alpha| < 1 drives the companion.  Pole circles: {b q^m, q^m / b} and
    {-alpha q^{m+1/2}, -q^{m-1/2}/alpha}.

    C_{a,b}, the companion constant and the adaptive h and r sums do not
    depend on z: each is computed once per instance, when first read (Cab,
    Cad, h_sum, r_sum), and h_terms(n), r_terms(n) read the sums.
    QuadraticParams.batch(draws) holds validated parameter sets as one: a, b,
    alpha, d are the ndarrays of their values (the last axis of every result
    is the draw), each constant of all draws comes from one qpoch_infinite
    call and each family from one series run.
    """

    a: complex
    b: complex
    alpha: complex
    d: complex
    ctx: QContext
    draws: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.draws:  # each draw was validated when it was built
            return
        for name in ("a", "b", "alpha", "d"):
            val = complex(getattr(self, name))
            object.__setattr__(self, name, val)
            if val == 0:
                raise DomainError(f"quadratic parameter {name} must be nonzero")
        if abs(self.b / self.a) >= 1.0:
            raise ConvergenceRegionViolation("first family requires |b/a| < 1")
        if abs(self.alpha) >= 1.0:
            raise ConvergenceRegionViolation("companion family requires |alpha| < 1")

    @classmethod
    def batch(cls, draws: Sequence[QuadraticParams]) -> QuadraticParams:
        """The draws (of one context) as one batch."""
        return cls(*(np.array([getattr(qp, p) for qp in draws]) for p in ("a", "b", "alpha", "d")),
                   draws[0].ctx, tuple(draws))

    @property
    def h_pair(self) -> BasisPair:
        return BasisPair(self.a, self.b)

    @property
    def r_pair(self) -> BasisPair:
        """The companion basis pair (q^{1/2}, -alpha q^{1/2})."""
        rq = self.ctx.sqrt_q
        return BasisPair(rq, -self.alpha * rq)

    @cached_property
    def Cab(self) -> complex:
        """C_{a,b}: the value Q(a), forced by the k = 0 coefficient."""
        a, b, q = self.a, self.b, self.ctx.q
        return qpoch_quotient([q, a * a * q, b * b, b * b / (a * a)],
                              [a * b, a * b * q, b / a, b * q / a], self.ctx.squared(),
                              "vanishing denominator in C_{a,b}")

    @cached_property
    def Cad(self) -> complex:
        """The companion constant (alpha d, alpha q/d;q)_inf / (-alpha, -alpha q;q)_inf."""
        al, d, q = self.alpha, self.d, self.ctx.q
        return qpoch_quotient([al * d, al * q / d], [-al, -al * q], self.ctx,
                              "vanishing denominator in the companion constant")

    @cached_property
    def h_sum(self):
        """The h family summed adaptively (for a batch, the SeriesSums of the draws)."""
        return self._family(h_spec, "h_sum")

    @cached_property
    def r_sum(self):
        """The r family summed adaptively (for a batch, the SeriesSums of the draws)."""
        return self._family(r_spec, "r_sum")

    def _family(self, spec, name: str):
        sums = series_sums([spec(qp) for qp in self.draws or (self,)], None, self.ctx)
        for qp, s in zip(self.draws, sums):  # its columns are each draw's own sums, bit for bit
            qp.__dict__.setdefault(name, s)
        return sums if self.draws else sums[0]

    def h_terms(self, n: int | None = None):
        """h_0..h_n (h_0 = 1), through the adaptive depth for None (for a batch, the list
        of each draw's adaptive terms)."""
        return self._terms(h_spec, self.h_sum, n)

    def r_terms(self, n: int | None = None):
        """r_0..r_n (r_0 = 1), through the adaptive depth for None (for a batch, the list
        of each draw's adaptive terms)."""
        return self._terms(r_spec, self.r_sum, n)

    def _terms(self, spec, sums, n):
        if n is None:
            return [s.terms for s in sums] if self.draws else sums.terms
        return sum_through([spec(self)], [n], self.ctx, [sums])[0].terms[:n + 1]


def quadratic_product(z, qp: QuadraticParams):
    """The Watson-type product: base-q^2 numerator over (bz, b/z;q)_inf (z maybe an ndarray)."""
    a, b, ctx = qp.a, qp.b, qp.ctx
    q = ctx.q
    require_clear(ctx, "z near the (b) pole set", b * z, b / z)
    return qpoch_quotient([a * z * q, a * q / z, b * b * z / a, b * b / (a * z)],
                          [b * z, b * z * q, b / z, b * q / z], ctx.squared(),
                          "z within margin of the (b) pole set")


def h_spec(qp: QuadraticParams) -> VWPSpec:
    """The Watson-type coefficients h_k as a very-well-poised summand.

    Leading parameter ab/q, parameters (b q^{-1/2}, -b q^{-1/2}, aq/b) and
    argument -b/a; the pair (az, a/z) of the full series is carried by the
    basis.
    """
    a, b = qp.a, qp.b
    q, rq = qp.ctx.q, qp.ctx.sqrt_q
    return VWPSpec(a * b / q, (b / rq, -b / rq, a * q / b), -b / a)


def quadratic_terms(z: complex, qp: QuadraticParams, n: int | None = None) -> tuple:
    """The additive terms Q(z) and C_{a,b} h_k Phi_k(z; a, b), k = 0..n.

    n defaults to the adaptive depth of the h family.  |Q(z)| is no scale:
    it can be far below the terms that sum to it.
    """
    terms = basis_terms(z, qp.h_pair, qp.h_terms(n), qp.ctx)
    return (quadratic_product(z, qp), *(qp.Cab * t for t in terms))


def quadratic_taylor_terms(qp: QuadraticParams, k_max: int) -> list[tuple[complex, complex]]:
    """The pairs (t_k(Q), C h_k), k <= k_max: the pipeline coefficient of Q for the pair
    (a, b) and its closed form."""
    closed = [qp.Cab * h for h in qp.h_terms(k_max)]
    return list(zip(taylor_expand(lambda z: quadratic_product(z, qp), qp.h_pair, k_max,
                                  qp.ctx), closed))


def quadratic_tail_curve(z: complex, qp: QuadraticParams, orders: list[int]) -> tuple:
    """|closed-form tail R_n(z)| / |Q(z)| for each n (remainders are tails), and the scales
    |Q(z)|.  The tails run through the adaptive depth of the h family."""
    lhs = abs(quadratic_product(z, qp))
    terms = basis_terms(z, qp.h_pair, qp.h_terms(), qp.ctx)
    return [abs(qp.Cab * sum(terms[n + 1:])) / lhs for n in orders], [lhs] * len(orders)


def companion_product(z, qp: QuadraticParams):
    """The companion product, base-q^2 numerator and half-integer shifts (z maybe an ndarray)."""
    al, d, ctx = qp.alpha, qp.d, qp.ctx
    q, rq = ctx.q, ctx.sqrt_q
    require_clear(ctx, "z near the companion pole set", -al * rq * z, -al * rq / z)
    return qpoch_quotient([al * d * rq * z, al * d * rq / z, al * rq * q * z / d,
                           al * rq * q / (d * z)],
                          [-al * rq * z, -al * rq * q * z, -al * rq / z, -al * rq * q / z],
                          ctx.squared(),
                          "z within margin of the companion pole set")


def r_spec(qp: QuadraticParams) -> VWPSpec:
    """The companion coefficients r_k as a very-well-poised summand.

    Leading parameter -alpha, parameters (alpha, -d, -q/d), argument alpha.
    """
    al, d = qp.alpha, qp.d
    return VWPSpec(-al, (al, -d, -qp.ctx.q / d), al)


def companion_terms(z: complex, qp: QuadraticParams, n: int | None = None) -> tuple:
    """The additive terms Q_companion(z) and C r_k basis_k(z), k = 0..n.

    n defaults to the adaptive depth of the r family.  The basis pair is
    (q^{1/2}, -alpha q^{1/2}).  At q = 0.9, seed 2, |Q_companion(z)| = 3.7e-9
    against terms of order 1.
    """
    terms = basis_terms(z, qp.r_pair, qp.r_terms(n), qp.ctx)
    return (companion_product(z, qp), *(qp.Cad * t for t in terms))


def companion_taylor_terms(qp: QuadraticParams, k_max: int) -> list[tuple[complex, complex]]:
    """The pairs (t_k, C r_k), k <= k_max: the pipeline coefficient of the companion
    product and its closed form."""
    closed = [qp.Cad * r for r in qp.r_terms(k_max)]
    return list(zip(taylor_expand(lambda z: companion_product(z, qp), qp.r_pair, k_max,
                                  qp.ctx), closed))


def companion_vwp_terms(z: complex, qp: QuadraticParams) -> tuple[complex, complex]:
    """The companion series as its very-well-poised specialisation and as a basis sum.

    The coefficient series, summed through the adaptive depth of the r
    family, equals the 8W7 evaluation of r_spec with the basis pair
    (q^{1/2} z, q^{1/2}/z) added to its parameter list."""
    spec, pair = r_spec(qp), qp.r_pair
    blist = (pair.a * z, pair.a / z) + spec.b_list
    series = series_eval(VWPSpec(spec.a, blist, spec.argument), None, qp.ctx).value
    return series, basis_sum(z, pair, qp.r_terms(), qp.ctx)


def folding_terms(x: complex, n: int, ctx: QContext) -> tuple[tuple, tuple]:
    """The two sides of (x,-x;q)_n = (x^2;q^2)_n and of its infinite form, a pair each.

    Both are exact rearrangements, so their residuals are pure rounding.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    ctx2 = ctx.squared()
    return ((qpoch_finite(x, n, ctx) * qpoch_finite(-x, n, ctx), qpoch_finite(x * x, n, ctx2)),
            (qpoch_groups([[x, -x]], ctx)[0], qpoch_infinite(x * x, ctx2).value))
