"""The two quadratic one-family expansions and the folding identities.

Both products mix base q^2 (numerators) with base q (denominators); each
is evaluated under the squared context in one product call, a base-q
factor entering as (u;q)_inf = (u, uq;q^2)_inf.  The
expansions are genuinely one-family: their exact Taylor remainders are
convergent tails, so the decay checks here need no complementary term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .errors import ConvergenceRegionViolation, DomainError, PoleProximity
from .hyper import VWPSpec, vwp_eval
from .qcore import (QContext, factor_clearance, qpoch_finite, qpoch_groups, qpoch_infinite,
                    qpoch_quotient, scaled_residual)
from .taylor import BasisPair, basis_sum, basis_terms, coefficient_gap
from .wpoperator import SymmetricFunction


@dataclass(frozen=True)
class QuadraticParams:
    """Parameters of the two quadratic families.

    (a, b) with |b/a| < 1 drives the Watson-type product; (alpha, d) with
    |alpha| < 1 drives the companion.  Pole circles: {b q^m, q^m / b} and
    {-alpha q^{m+1/2}, -q^{m-1/2}/alpha}.
    """

    a: complex
    b: complex
    alpha: complex
    d: complex

    def __post_init__(self) -> None:
        for name in ("a", "b", "alpha", "d"):
            val = complex(getattr(self, name))
            object.__setattr__(self, name, val)
            if val == 0:
                raise DomainError(f"quadratic parameter {name} must be nonzero")
        if abs(self.b / self.a) >= 1.0:
            raise ConvergenceRegionViolation("first family requires |b/a| < 1")
        if abs(self.alpha) >= 1.0:
            raise ConvergenceRegionViolation("companion family requires |alpha| < 1")


def quadratic_product(z: complex, qp: QuadraticParams, ctx: QContext) -> complex:
    """The Watson-type product: base-q^2 numerator over (bz, b/z;q)_inf."""
    a, b = qp.a, qp.b
    q = ctx.q
    if (factor_clearance(b * z, ctx) <= ctx.pole_margin
            or factor_clearance(b / z, ctx) <= ctx.pole_margin):
        raise PoleProximity("z within margin of the (b) pole set")
    return qpoch_quotient([a * z * q, a * q / z, b * b * z / a, b * b / (a * z)],
                          [b * z, b * z * q, b / z, b * q / z], ctx.squared(),
                          "z within margin of the (b) pole set")


def quadratic_constant(qp: QuadraticParams, ctx: QContext) -> complex:
    """C_{a,b}: the value Q(a), forced by the k = 0 coefficient."""
    a, b = qp.a, qp.b
    q = ctx.q
    return qpoch_quotient([q, a * a * q, b * b, b * b / (a * a)],
                          [a * b, a * b * q, b / a, b * q / a], ctx.squared(),
                          "vanishing denominator in C_{a,b}")


def h_spec(qp: QuadraticParams, ctx: QContext) -> VWPSpec:
    """The Watson-type coefficients h_k as a very-well-poised summand.

    Leading parameter ab/q, parameters (b q^{-1/2}, -b q^{-1/2}, aq/b) and
    argument -b/a; the pair (az, a/z) of the full series is carried by the
    basis.
    """
    a, b = qp.a, qp.b
    q, rq = ctx.q, ctx.sqrt_q
    return VWPSpec(a * b / q, (b / rq, -b / rq, a * q / b), -b / a)


def _summands(spec: VWPSpec, n: int | Sequence[complex], ctx: QContext) -> Sequence[complex]:
    """The summands t_0..t_n of spec, or n itself when it already holds them."""
    return vwp_eval(spec, n, ctx).terms if isinstance(n, int) else n


def _coefficient(spec: VWPSpec, k: int, ctx: QContext) -> complex:
    """t_k of spec; 0 past the first vanishing term of a terminating series."""
    terms = vwp_eval(spec, k, ctx).terms
    return terms[k] if k < len(terms) else 0.0 + 0.0j


def quadratic_coefficient(qp: QuadraticParams, k: int, ctx: QContext) -> complex:
    """h_k (h_0 = 1), by ratio updates of the h_spec summand."""
    return _coefficient(h_spec(qp, ctx), k, ctx)


def quadratic_residual(z: complex, qp: QuadraticParams, n_trunc: int | Sequence[complex],
                       ctx: QContext) -> float:
    """Residual of Q(z) = sum_{k<=n} C_{a,b} h_k Phi_k(z; a, b) over its largest term.

    n_trunc is n, or the coefficients h_0..h_n of one h_spec evaluation.
    |Q(z)| is no scale: it can be far below the terms that sum to it.
    """
    hs = _summands(h_spec(qp, ctx), n_trunc, ctx)
    cab = quadratic_constant(qp, ctx)
    terms = basis_terms(z, BasisPair(qp.a, qp.b), hs, ctx)
    return scaled_residual(quadratic_product(z, qp, ctx), *(cab * t for t in terms))


def quadratic_function(qp: QuadraticParams, ctx: QContext) -> SymmetricFunction:
    return SymmetricFunction(lambda z: quadratic_product(z, qp, ctx), name="Q")


def quadratic_taylor_identification(qp: QuadraticParams, k_max: int,
                                    ctx: QContext) -> float:
    """Max relative gap between pipeline t_k(Q) for the pair (a, b) and C h_k."""
    cab = quadratic_constant(qp, ctx)
    hs = vwp_eval(h_spec(qp, ctx), k_max, ctx).terms
    return coefficient_gap(quadratic_function(qp, ctx), BasisPair(qp.a, qp.b),
                           [cab * h for h in hs], ctx)


def quadratic_tail_curve(z: complex, qp: QuadraticParams, orders: list[int],
                         ctx: QContext) -> list[float]:
    """|closed-form tail R_n(z)| / |Q(z)| for each n (remainders are tails).

    The tails are summed through the adaptive depth of the h family.
    """
    lhs = abs(quadratic_product(z, qp, ctx))
    cab = quadratic_constant(qp, ctx)
    hs = vwp_eval(h_spec(qp, ctx), None, ctx).terms
    terms = basis_terms(z, BasisPair(qp.a, qp.b), hs, ctx)
    return [abs(cab * sum(terms[n + 1:])) / lhs for n in orders]


def companion_product(z: complex, qp: QuadraticParams, ctx: QContext) -> complex:
    """The companion product with base-q^2 numerator and half-integer shifts."""
    al, d = qp.alpha, qp.d
    q, rq = ctx.q, ctx.sqrt_q
    if (factor_clearance(-al * rq * z, ctx) <= ctx.pole_margin
            or factor_clearance(-al * rq / z, ctx) <= ctx.pole_margin):
        raise PoleProximity("z within margin of the companion pole set")
    return qpoch_quotient([al * d * rq * z, al * d * rq / z, al * rq * q * z / d,
                           al * rq * q / (d * z)],
                          [-al * rq * z, -al * rq * q * z, -al * rq / z, -al * rq * q / z],
                          ctx.squared(),
                          "z within margin of the companion pole set")


def companion_constant(qp: QuadraticParams, ctx: QContext) -> complex:
    al, d = qp.alpha, qp.d
    q = ctx.q
    return qpoch_quotient([al * d, al * q / d], [-al, -al * q], ctx,
                          "vanishing denominator in the companion constant")


def r_spec(qp: QuadraticParams, ctx: QContext) -> VWPSpec:
    """The companion coefficients r_k as a very-well-poised summand.

    Leading parameter -alpha, parameters (alpha, -d, -q/d), argument alpha.
    """
    al, d = qp.alpha, qp.d
    return VWPSpec(-al, (al, -d, -ctx.q / d), al)


def companion_coefficient(qp: QuadraticParams, k: int, ctx: QContext) -> complex:
    """r_k (r_0 = 1), by ratio updates of the r_spec summand."""
    return _coefficient(r_spec(qp, ctx), k, ctx)


def companion_residual(z: complex, qp: QuadraticParams, n_trunc: int | Sequence[complex],
                       ctx: QContext) -> float:
    """Residual of Q_companion(z) = sum_{k<=n} C r_k basis_k(z) over its largest term.

    n_trunc is n, or the coefficients r_0..r_n of one r_spec evaluation.
    The basis pair is (q^{1/2}, -alpha q^{1/2}).  At q = 0.9, seed 2,
    |Q_companion(z)| = 3.7e-9 against terms of order 1.
    """
    rs = _summands(r_spec(qp, ctx), n_trunc, ctx)
    cd = companion_constant(qp, ctx)
    terms = basis_terms(z, companion_pair(qp, ctx), rs, ctx)
    return scaled_residual(companion_product(z, qp, ctx), *(cd * t for t in terms))


def companion_function(qp: QuadraticParams, ctx: QContext) -> SymmetricFunction:
    return SymmetricFunction(lambda z: companion_product(z, qp, ctx), name="Qc")


def companion_pair(qp: QuadraticParams, ctx: QContext) -> BasisPair:
    rq = ctx.sqrt_q
    return BasisPair(rq, -qp.alpha * rq)


def companion_taylor_identification(qp: QuadraticParams, k_max: int,
                                    ctx: QContext) -> float:
    """Max relative gap between pipeline t_k of the companion and C r_k."""
    cd = companion_constant(qp, ctx)
    rs = vwp_eval(r_spec(qp, ctx), k_max, ctx).terms
    return coefficient_gap(companion_function(qp, ctx), companion_pair(qp, ctx),
                           [cd * r for r in rs], ctx)


def companion_series_vs_vwp(z: complex, qp: QuadraticParams, ctx: QContext) -> float:
    """Companion series against its very-well-poised specialisation.

    The coefficient series equals the 8W7 evaluation of r_spec with the
    basis pair (q^{1/2} z, q^{1/2}/z) added to its parameter list.
    """
    spec = r_spec(qp, ctx)
    pair = companion_pair(qp, ctx)
    blist = (pair.a * z, pair.a / z) + spec.b_list
    series = vwp_eval(VWPSpec(spec.a, blist, spec.argument), None, ctx).value
    rs = vwp_eval(spec, None, ctx).terms
    return scaled_residual(series, basis_sum(z, pair, rs, ctx))


def folding_identity_check(x: complex, n: int, ctx: QContext) -> float:
    """Residuals of (x,-x;q)_n = (x^2;q^2)_n, finite and infinite forms.

    Returns the larger of the two scale-relative residuals; both are exact
    rearrangements, so the result is pure rounding.
    """
    if n < 0:
        raise DomainError("n must be nonnegative")
    ctx2 = ctx.squared()
    res_fin = scaled_residual(qpoch_finite(x, n, ctx) * qpoch_finite(-x, n, ctx),
                              qpoch_finite(x * x, n, ctx2))
    res_inf = scaled_residual(qpoch_groups([[x, -x]], ctx)[0],
                              qpoch_infinite(x * x, ctx2).value)
    return max(res_fin, res_inf)
