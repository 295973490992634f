"""The two quadratic one-family expansions and the folding identities.

Both products mix base q^2 (numerators) with base q (denominators); the
base-q^2 factors reuse the core evaluations under a squared context.  The
expansions are genuinely one-family: their exact Taylor remainders are
convergent tails, so the decay checks here need no complementary term.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import ConvergenceRegionViolation, DomainError, PoleProximity
from .hyper import VWPSpec, vwp_eval, vwp_terms
from .qcore import QContext, _pinf, factor_clearance, qpoch_finite, scaled_residual
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
    ctx2 = ctx.squared()
    if (factor_clearance(b * z, ctx) <= ctx.pole_margin
            or factor_clearance(b / z, ctx) <= ctx.pole_margin):
        raise PoleProximity("z within margin of the (b) pole set")
    num = (_pinf(a * z * q, ctx2) * _pinf(a * q / z, ctx2)
           * _pinf(b * b * z / a, ctx2) * _pinf(b * b / (a * z), ctx2))
    return num / (_pinf(b * z, ctx) * _pinf(b / z, ctx))


def quadratic_constant(qp: QuadraticParams, ctx: QContext) -> complex:
    """C_{a,b}: the value Q(a), forced by the k = 0 coefficient."""
    a, b = qp.a, qp.b
    q = ctx.q
    ctx2 = ctx.squared()
    num = (_pinf(q, ctx2) * _pinf(a * a * q, ctx2) * _pinf(b * b, ctx2)
           * _pinf(b * b / (a * a), ctx2))
    return num / (_pinf(a * b, ctx) * _pinf(b / a, ctx))


def h_spec(qp: QuadraticParams, ctx: QContext) -> VWPSpec:
    """The Watson-type coefficients h_k as a very-well-poised summand.

    Leading parameter ab/q, parameters (b q^{-1/2}, -b q^{-1/2}, aq/b) and
    argument -b/a; the pair (az, a/z) of the full series is carried by the
    basis.
    """
    a, b = qp.a, qp.b
    q, rq = ctx.q, ctx.sqrt_q
    return VWPSpec(a * b / q, (b / rq, -b / rq, a * q / b), -b / a)


def quadratic_coefficient(qp: QuadraticParams, k: int, ctx: QContext) -> complex:
    """h_k (h_0 = 1), by ratio updates of the h_spec summand."""
    return list(vwp_terms(h_spec(qp, ctx), k, ctx))[k]


def quadratic_residual(z: complex, qp: QuadraticParams, n_trunc: int,
                       ctx: QContext) -> float:
    """|Q(z) - C_{a,b} sum_{k<=n} h_k Phi_k(z; a, b)| / |Q(z)|."""
    lhs = quadratic_product(z, qp, ctx)
    hs = vwp_terms(h_spec(qp, ctx), n_trunc, ctx)
    rhs = quadratic_constant(qp, ctx) * basis_sum(z, BasisPair(qp.a, qp.b), hs, ctx)
    return abs(lhs - rhs) / abs(lhs)


def quadratic_function(qp: QuadraticParams, ctx: QContext) -> SymmetricFunction:
    return SymmetricFunction(lambda z: quadratic_product(z, qp, ctx), name="Q")


def quadratic_taylor_identification(qp: QuadraticParams, k_max: int,
                                    ctx: QContext) -> float:
    """Max relative gap between pipeline t_k(Q) for the pair (a, b) and C h_k."""
    cab = quadratic_constant(qp, ctx)
    hs = vwp_terms(h_spec(qp, ctx), k_max, ctx)
    return coefficient_gap(quadratic_function(qp, ctx), BasisPair(qp.a, qp.b),
                           [cab * h for h in hs], ctx)


def quadratic_tail_curve(z: complex, qp: QuadraticParams, orders: list[int],
                         ctx: QContext) -> list[float]:
    """|closed-form tail R_n(z)| / |Q(z)| for each n (remainders are tails).

    The tails are summed through order 199.
    """
    lhs = abs(quadratic_product(z, qp, ctx))
    cab = quadratic_constant(qp, ctx)
    hs = vwp_terms(h_spec(qp, ctx), 199, ctx)
    terms = basis_terms(z, BasisPair(qp.a, qp.b), hs, ctx)
    out = []
    for n in orders:
        tail = cab * sum(terms[n + 1:])
        out.append(abs(tail) / lhs)
    return out


def companion_product(z: complex, qp: QuadraticParams, ctx: QContext) -> complex:
    """The companion product with base-q^2 numerator and half-integer shifts."""
    al, d = qp.alpha, qp.d
    q, rq = ctx.q, ctx.sqrt_q
    ctx2 = ctx.squared()
    if (factor_clearance(-al * rq * z, ctx) <= ctx.pole_margin
            or factor_clearance(-al * rq / z, ctx) <= ctx.pole_margin):
        raise PoleProximity("z within margin of the companion pole set")
    num = (_pinf(al * d * rq * z, ctx2) * _pinf(al * d * rq / z, ctx2)
           * _pinf(al * rq * q * z / d, ctx2) * _pinf(al * rq * q / (d * z), ctx2))
    return num / (_pinf(-al * rq * z, ctx) * _pinf(-al * rq / z, ctx))


def companion_constant(qp: QuadraticParams, ctx: QContext) -> complex:
    al, d = qp.alpha, qp.d
    q = ctx.q
    num = _pinf(al * d, ctx) * _pinf(al * q / d, ctx)
    return num / (_pinf(-al, ctx) * _pinf(-al * q, ctx))


def r_spec(qp: QuadraticParams, ctx: QContext) -> VWPSpec:
    """The companion coefficients r_k as a very-well-poised summand.

    Leading parameter -alpha, parameters (alpha, -d, -q/d), argument alpha.
    """
    al, d = qp.alpha, qp.d
    return VWPSpec(-al, (al, -d, -ctx.q / d), al)


def companion_coefficient(qp: QuadraticParams, k: int, ctx: QContext) -> complex:
    """r_k (r_0 = 1), by ratio updates of the r_spec summand."""
    return list(vwp_terms(r_spec(qp, ctx), k, ctx))[k]


def companion_residual(z: complex, qp: QuadraticParams, n_trunc: int,
                       ctx: QContext) -> float:
    """|Q_companion(z) - C sum_{k<=n} r_k basis_k(z)| / |Q_companion(z)|.

    The basis pair is (q^{1/2}, -alpha q^{1/2}).
    """
    lhs = companion_product(z, qp, ctx)
    rs = vwp_terms(r_spec(qp, ctx), n_trunc, ctx)
    rhs = companion_constant(qp, ctx) * basis_sum(z, companion_pair(qp, ctx), rs, ctx)
    return abs(lhs - rhs) / abs(lhs)


def companion_function(qp: QuadraticParams, ctx: QContext) -> SymmetricFunction:
    return SymmetricFunction(lambda z: companion_product(z, qp, ctx), name="Qc")


def companion_pair(qp: QuadraticParams, ctx: QContext) -> BasisPair:
    rq = ctx.sqrt_q
    return BasisPair(rq, -qp.alpha * rq)


def companion_taylor_identification(qp: QuadraticParams, k_max: int,
                                    ctx: QContext) -> float:
    """Max relative gap between pipeline t_k of the companion and C r_k."""
    cd = companion_constant(qp, ctx)
    rs = vwp_terms(r_spec(qp, ctx), k_max, ctx)
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
    return scaled_residual(series, basis_sum(z, pair, vwp_terms(spec, 199, ctx), ctx))


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
    res_inf = scaled_residual(_pinf(x, ctx) * _pinf(-x, ctx), _pinf(x * x, ctx2))
    return max(res_fin, res_inf)
