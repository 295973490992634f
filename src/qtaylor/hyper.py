"""Basic hypergeometric and very-well-poised series evaluation.

The very-well-poised summand is always evaluated through the ratio factor
(1 - a q^{2k})/(1 - a); no square root of `a` is ever materialised, so the
evaluation is branch-free.  Reference summations (the nonterminating 6W5
and the terminating 8W7) are exposed as scale-relative residuals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DivergenceSuspected, DomainError, ZeroDenominator
from .qcore import (TAIL_TARGET, QContext, TailBound, geometric_depth, qpoch_multi,
                    qpoch_quotient)


@dataclass(frozen=True)
class PhiSeriesSpec:
    """Parameters of an (r+1)phi_r series: a_0..a_r over b_1..b_r at argument z."""

    numerator_params: tuple[complex, ...]
    denominator_params: tuple[complex, ...]
    argument: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "numerator_params",
                           tuple(complex(a) for a in self.numerator_params))
        object.__setattr__(self, "denominator_params",
                           tuple(complex(b) for b in self.denominator_params))
        object.__setattr__(self, "argument", complex(self.argument))
        if len(self.denominator_params) != len(self.numerator_params) - 1:
            raise DomainError("need exactly one fewer denominator than numerator parameter")

    def ratio(self, ctx: QContext):
        """The term ratio: numerators a_i, denominators b_j."""
        return term_ratio(self.numerator_params, self.denominator_params, self.argument, ctx)


@dataclass(frozen=True)
class VWPSpec:
    """A very-well-poised (r+1)W_r series: leading parameter a, then b_1..b_{r-2}.

    The summand is encoded through (1 - a q^{2k})/(1 - a) times the ratio
    of shifted factorials with denominators a q / b_j.
    """

    a: complex
    b_list: tuple[complex, ...]
    argument: complex

    def __post_init__(self) -> None:
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "b_list", tuple(complex(b) for b in self.b_list))
        object.__setattr__(self, "argument", complex(self.argument))

    def ratio(self, ctx: QContext):
        """The term ratio: numerators (a, b_j), denominators a q / b_j, lead a."""
        a = self.a
        if abs(1.0 - a) <= ctx.pole_margin:
            raise DomainError("very-well-poised series requires a != 1")
        return term_ratio((a,) + self.b_list, tuple(a * ctx.q / b for b in self.b_list),
                          self.argument, ctx, lead=a)


@dataclass(frozen=True)
class SeriesSum(TailBound):
    """A series partial sum with the terms t_0 = 1, ..., t_N it added (N + 1 = terms_used)."""

    terms: tuple[complex, ...]


def vwp_expanded_spec(spec: VWPSpec, root: complex, ctx: QContext) -> PhiSeriesSpec:
    """Explicit (r+1)phi_r parameter list of a very-well-poised series.

    `root` must square to spec.a; used only to cross-check branch
    independence of the ratio-form evaluation.
    """
    a, q = spec.a, ctx.q
    nums = (a, q * root, -q * root) + spec.b_list
    dens = (root, -root) + tuple(a * q / b for b in spec.b_list)
    return PhiSeriesSpec(nums, dens, spec.argument)


def _series_sum(ratio, trunc: int | None, ctx: QContext) -> SeriesSum:
    """Shared partial sum of every series; returns the value with the terms it added.

    ratio(k) must return the multiplier taking term_k to term_{k+1}.
    Truncation: through index `trunc` when given, else after the first t_k
    with |t_k| / |partial sum| < TAIL_TARGET (1 - rate), rate being the last
    decreasing term ratio (at least |q|); geometric_depth(rate, lead) = 0 is
    that test, called only to enforce ctx.max_terms or reject a non-finite
    lead.  A vanishing term ends the sum exactly.  Adaptive mode raises
    DivergenceSuspected after 8 consecutive growing terms past
    geometric_depth(|q|), where the q-power factors of the ratio have settled.
    """
    q_rate = abs(ctx.q)
    settled = geometric_depth(q_rate) if trunc is None else 0
    rate = q_rate
    total = term = 1.0 + 0.0j
    terms = [term]
    k = grow_run = 0
    while term != 0 and (trunc is None or k < trunc):
        nxt = term * ratio(k)
        if abs(nxt) < abs(term):
            rate = max(abs(nxt) / abs(term), q_rate)
            grow_run = 0
        elif trunc is None and k >= settled:
            grow_run += 1
            if grow_run >= 8:
                raise DivergenceSuspected(f"8 consecutive growing terms at k={k + 1}")
        term = nxt
        terms.append(term)
        total += term
        k += 1
        if trunc is None and total:
            lead = abs(term) / abs(total)
            if (lead < TAIL_TARGET * (1.0 - rate) if ctx.max_terms is None and lead < math.inf
                    else geometric_depth(rate, lead, ctx.max_terms) == 0):
                break
    tail = abs(term) * rate / (1.0 - rate)
    return SeriesSum(total, tail, k + 1, tuple(terms))


def term_ratio(nums: tuple[complex, ...], dens: tuple[complex, ...], z: complex,
               ctx: QContext, lead: complex | None = None):
    """The term ratio t_{k+1} / t_k of a series, as ratio(k) for k = 0, 1, ...

    prod_i (1 - n_i q^k) z / ((1 - q^{k+1}) prod_j (1 - d_j q^k)), times
    (1 - lead q^{2k+2}) / (1 - lead q^{2k}) for a very-well-poised summand:
    the ratio of its (1 - a q^{2k}) factors is taken directly, so no square
    root of a appears.  q^k is the running product.  A denominator factor
    (lead or d_j) within the pole margin raises ZeroDenominator.
    """
    q, margin = ctx.q, ctx.pole_margin
    x = 1.0 + 0.0j

    def ratio(k: int) -> complex:
        nonlocal x
        if lead is not None:
            x2 = x * x
            lead_old = 1.0 - lead * x2
            if abs(lead_old) <= margin:
                raise ZeroDenominator("leading very-well-poised factor vanished")
            lead_ratio = (1.0 - lead * x2 * q * q) / lead_old
        num = 1.0 + 0.0j
        for a in nums:
            num *= 1.0 - a * x
        den = 1.0 - q * x  # the (q;q)_k factor advanced to index k+1
        for b in dens:
            fac = 1.0 - b * x
            if abs(fac) <= margin:
                raise ZeroDenominator(f"denominator parameter {b} hits q^(-{k}) within margin")
            den *= fac
        x *= q
        r = num / den
        return (r if lead is None else lead_ratio * r) * z

    return ratio


def phi_eval(spec: PhiSeriesSpec, trunc: int | None, ctx: QContext) -> SeriesSum:
    """Evaluate an (r+1)phi_r partial sum.

    Terminating series (some a_i = q^{-n}) are exact at n+1 terms; the
    sum stops at the first vanishing term.  Raises ZeroDenominator if a
    denominator factor falls within the pole margin, DivergenceSuspected
    after 8 consecutive growing terms past the settled depth.
    """
    return _series_sum(spec.ratio(ctx), trunc, ctx)


def vwp_eval(spec: VWPSpec, trunc: int | None, ctx: QContext) -> SeriesSum:
    """Evaluate a very-well-poised series through its ratio-form summand.

    `.terms` holds the summands t_0 = 1, ..., t_N that were added.
    """
    return _series_sum(spec.ratio(ctx), trunc, ctx)


def rogers_6w5_residual(a: complex, b: complex, c: complex, d: complex,
                        ctx: QContext) -> float:
    """Scale-relative residual of the nonterminating 6W5 summation.

    LHS: the 6W5 series at argument aq/(bcd); RHS: the four-factor
    infinite-product quotient.  Requires |aq/(bcd)| < 1.  The scale is the
    largest additive term entering the identity.
    """
    q = ctx.q
    arg = a * q / (b * c * d)
    if abs(arg) >= 1.0:
        raise DomainError(f"|aq/(bcd)| = {abs(arg):.3g} >= 1")
    spec = VWPSpec(a, (b, c, d), arg)
    tb = vwp_eval(spec, None, ctx)
    rhs = qpoch_quotient([a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)],
                         [a * q / b, a * q / c, a * q / d, arg], ctx,
                         "vanishing denominator product in 6W5 evaluation", ZeroDenominator)
    return abs(tb.value - rhs) / max(abs(tb.value), abs(rhs), *map(abs, tb.terms))


def jackson_8w7_residual(a: complex, b: complex, c: complex, d: complex,
                         n: int, ctx: QContext) -> float:
    """Scale-relative residual of the terminating 8W7 summation at depth n.

    The balancing parameter a^2 q^{n+1}/(bcd) and the terminating q^{-n}
    are substituted internally; the series is summed over its n+1 terms
    and the residual is relative to the largest summand.
    """
    if n < 0:
        raise DomainError("termination depth must be nonnegative")
    q = ctx.q
    e = a * a * q ** (n + 1) / (b * c * d)
    f = q ** (-n)
    spec = VWPSpec(a, (b, c, d, e, f), q)
    lhs = vwp_eval(spec, n, ctx)
    num = qpoch_multi([a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)],
                      n, ctx).value
    den = qpoch_multi([a * q / b, a * q / c, a * q / d, a * q / (b * c * d)],
                      n, ctx).value
    if abs(den) == 0.0:
        raise ZeroDenominator("vanishing denominator product in 8W7 evaluation")
    rhs = num / den
    return abs(lhs.value - rhs) / max(abs(lhs.value), abs(rhs), *map(abs, lhs.terms))


def well_poised_defect(spec: VWPSpec, ctx: QContext) -> float:
    """Max |a q - a_j b_j| over the expanded parameter pairing (0 by construction)."""
    a, q = spec.a, ctx.q
    return max((abs(a * q - b * (a * q / b)) for b in spec.b_list), default=0.0)
