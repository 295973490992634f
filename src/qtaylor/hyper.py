"""Basic hypergeometric and very-well-poised series evaluation.

The very-well-poised summand is always evaluated through the ratio factor
(1 - a q^{2k})/(1 - a); no square root of `a` is ever materialised, so the
evaluation is branch-free.  Reference summations (the nonterminating 6W5
and the terminating 8W7) are exposed as scale-relative residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from operator import mul
from typing import Iterator

from .errors import (DivergenceSuspected, DomainError, TruncationFailure,
                     ZeroDenominator)
from .qcore import QContext, TailBound, qpoch_multi


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


def vwp_expanded_spec(spec: VWPSpec, root: complex, ctx: QContext) -> PhiSeriesSpec:
    """Explicit (r+1)phi_r parameter list of a very-well-poised series.

    `root` must square to spec.a; used only to cross-check branch
    independence of the ratio-form evaluation.
    """
    a, q = spec.a, ctx.q
    nums = (a, q * root, -q * root) + spec.b_list
    dens = (root, -root) + tuple(a * q / b for b in spec.b_list)
    return PhiSeriesSpec(nums, dens, spec.argument)


def _series_sum(term_ratio, trunc: int | None, ctx: QContext) -> TailBound:
    """Shared partial-sum driver.

    term_ratio(k) must return the multiplier taking term_k to term_{k+1}.
    Truncation: through index `trunc` when given, else adaptive (stop when
    3 consecutive terms fall below eps_tail * |partial sum| and k >= 8).
    """
    total = 0.0 + 0.0j
    term = 1.0 + 0.0j
    k = 0
    small_run = 0
    grow_run = 0
    ratio_obs = abs(ctx.q)
    while True:
        total += term
        if trunc is not None and k >= trunc:
            break
        if term == 0:
            break  # a vanished numerator factor terminates the series exactly
        nxt = term * term_ratio(k)
        # divergence guard: adaptive mode only, and only once the term
        # ratio has settled (finite partial sums may grow transiently)
        significant = abs(nxt) > ctx.eps_tail * max(abs(total), 1e-300)
        if trunc is None and significant and abs(nxt) > abs(term) and k >= 16:
            grow_run += 1
            if grow_run >= 8:
                raise DivergenceSuspected(
                    f"8 consecutive growing terms at k={k + 1}")
        elif significant:
            grow_run = 0
        if abs(term) > 0:
            ratio_obs = min(abs(nxt) / abs(term), 0.999) if abs(nxt) < abs(term) else ratio_obs
        term = nxt
        k += 1
        if trunc is None:
            if abs(term) < ctx.eps_tail * abs(total):
                small_run += 1
            else:
                small_run = 0
            if small_run >= 3 and k >= 8:
                total += term
                k += 1
                break
            if k >= ctx.max_terms:
                raise TruncationFailure(f"series did not settle within {ctx.max_terms} terms")
    r = max(ratio_obs, abs(ctx.q))
    tail = abs(term) * r / (1.0 - r) if term != 0 else 0.0
    return TailBound(total, tail, k + 1 if trunc is not None else k)


def phi_eval(spec: PhiSeriesSpec, trunc: int | None, ctx: QContext) -> TailBound:
    """Evaluate an (r+1)phi_r partial sum.

    Terminating series (some a_i = q^{-n}) are exact at n+1 terms; the
    driver stops at the first vanishing term.  Raises ZeroDenominator if a
    denominator factor falls within the pole margin, DivergenceSuspected
    after 8 consecutive growing significant terms.
    """
    q, z = ctx.q, spec.argument
    qk = [1.0 + 0.0j]  # running power q^k, wrapped for closure mutation

    def ratio(k: int) -> complex:
        x = qk[0]
        num = 1.0 + 0.0j
        for a in spec.numerator_params:
            num *= 1.0 - a * x
        den = 1.0 - q * x  # the (q;q)_k factor advanced to index k+1
        for b in spec.denominator_params:
            fac = 1.0 - b * x
            if abs(fac) <= ctx.pole_margin:
                raise ZeroDenominator(
                    f"denominator parameter {b} hits q^(-{k}) within margin")
            den *= fac
        qk[0] = x * q
        return num / den * z

    return _series_sum(ratio, trunc, ctx)


def _vwp_ratio(spec: VWPSpec, ctx: QContext):
    """term_{k+1} / term_k of the very-well-poised summand, called for k = 0, 1, ...

    The ratio of the (1 - a q^{2k}) factors is taken directly, so no square
    root of a appears; a denominator factor within the pole margin raises.
    """
    a, q, z = spec.a, ctx.q, spec.argument
    if abs(1.0 - a) <= ctx.pole_margin:
        raise DomainError("very-well-poised series requires a != 1")
    qk = [1.0 + 0.0j]

    def ratio(k: int) -> complex:
        x = qk[0]
        x2 = x * x
        # ratio of the (1 - a q^{2k}) factors between indices k and k+1
        lead_old = 1.0 - a * x2
        lead_new = 1.0 - a * x2 * q * q
        if abs(lead_old) <= ctx.pole_margin:
            raise ZeroDenominator("leading very-well-poised factor vanished")
        num = 1.0 - a * x
        for b in spec.b_list:
            num *= 1.0 - b * x
        den = 1.0 - q * x
        for b in spec.b_list:
            fac = 1.0 - (a * q / b) * x
            if abs(fac) <= ctx.pole_margin:
                raise ZeroDenominator(
                    f"denominator parameter {a * q / b} hits q^(-{k}) within margin")
            den *= fac
        qk[0] = x * q
        return (lead_new / lead_old) * (num / den) * z

    return ratio


def vwp_terms(spec: VWPSpec, n: int, ctx: QContext) -> Iterator[complex]:
    """The summands t_0 = 1, t_1, ..., t_n of a very-well-poised series, lazily.

    A leading parameter a = 1 raises at the call; a denominator factor
    within the pole margin raises when its term is reached.
    """
    ratio = _vwp_ratio(spec, ctx)
    return accumulate((ratio(k) for k in range(n)), mul, initial=1.0 + 0.0j)


def vwp_eval(spec: VWPSpec, trunc: int | None, ctx: QContext) -> TailBound:
    """Evaluate a very-well-poised series through its ratio-form summand."""
    return _series_sum(_vwp_ratio(spec, ctx), trunc, ctx)


def vwp_peak_term(spec: VWPSpec, trunc: int, ctx: QContext) -> float:
    """Largest |summand| of the very-well-poised partial sum through trunc.

    Terminating sums cancel catastrophically by design, so residuals are
    reported relative to this peak, per the scale convention.
    """
    return max(abs(t) for t in vwp_terms(spec, trunc, ctx))


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
    num = qpoch_multi([a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)],
                      None, ctx).value
    den = qpoch_multi([a * q / b, a * q / c, a * q / d, arg], None, ctx).value
    if abs(den) == 0.0:
        raise ZeroDenominator("vanishing denominator product in 6W5 evaluation")
    rhs = num / den
    scale = max(abs(tb.value), abs(rhs), vwp_peak_term(spec, tb.terms_used, ctx))
    return abs(tb.value - rhs) / scale


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
    lhs = vwp_eval(spec, n, ctx).value
    num = qpoch_multi([a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)],
                      n, ctx).value
    den = qpoch_multi([a * q / b, a * q / c, a * q / d, a * q / (b * c * d)],
                      n, ctx).value
    if abs(den) == 0.0:
        raise ZeroDenominator("vanishing denominator product in 8W7 evaluation")
    rhs = num / den
    scale = max(abs(lhs), abs(rhs), vwp_peak_term(spec, n, ctx))
    return abs(lhs - rhs) / scale


def well_poised_defect(spec: VWPSpec, ctx: QContext) -> float:
    """Max |a q - a_j b_j| over the expanded parameter pairing (0 by construction)."""
    a, q = spec.a, ctx.q
    target = a * q
    defect = 0.0
    for b in spec.b_list:
        defect = max(defect, abs(target - b * (a * q / b)))
    return defect
