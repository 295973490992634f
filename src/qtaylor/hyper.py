"""Basic hypergeometric and very-well-poised series evaluation.

The very-well-poised summand is always evaluated through the ratio factor
(1 - a q^{2k})/(1 - a); no square root of `a` is ever materialised, so the
evaluation is branch-free.  Reference summations (the nonterminating 6W5
and the terminating 8W7) are exposed as scale-relative residuals.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DivergenceSuspected, DomainError, ZeroDenominator
from .qcore import (TAIL_TARGET, QContext, TailBound, geometric_depth, q_powers, qpoch_multi,
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


def _first(mask: np.ndarray) -> int:
    """Index of the first True entry of a nonempty mask, or its length when there is none."""
    i = int(mask.argmax())
    return i if mask[i] else mask.size


def _running_rate(abs_terms: np.ndarray, rate: float, q_rate: float):
    """Per step of |t|: did it decrease, and the rate after it (the last decreasing
    ratio, at least q_rate; `rate` before the first decrease)."""
    dec = abs_terms[1:] < abs_terms[:-1]
    last = np.maximum.accumulate(np.where(dec, np.arange(dec.size), -1))
    step = np.maximum(abs_terms[1:] / abs_terms[:-1], q_rate)
    return dec, np.where(last >= 0, step[last], rate)


def _series_sum(ratio, trunc: int | None, ctx: QContext,
                start: SeriesSum | None = None) -> SeriesSum:
    """Shared partial sum of every series; returns the value with the terms it added.

    ratio(k, x) (term_ratio) gives the multipliers t_i -> t_(i+1) at x = q^i,
    i = k, k+1, ..., and the block's first pole as (offset, error) or None.
    A first block of 2 geometric_depth(|q|) ratios and doubling blocks after
    it lie at fixed places; the terms and partial sums are
    np.multiply/np.add.accumulate, which associate as a loop over k does.  Nothing past the stop index raises or warns.
    Truncation: through index `trunc` when given, else after the first t_k
    with |t_k| / |partial sum| < TAIL_TARGET (1 - rate), rate being the last
    decreasing term ratio (at least |q|): geometric_depth(rate, lead) = 0,
    called only under ctx.max_terms or for a non-finite lead.  A vanishing
    term ends the sum.  Adaptive mode raises DivergenceSuspected after 8
    growing terms in a row past geometric_depth(|q|), where the q-power
    factors of the ratio have settled.  `start`, an earlier sum of the same
    series, is continued to `trunc`, bit for bit as one sum.
    """
    q_rate = abs(ctx.q)
    settled = geometric_depth(q_rate)
    terms = [1.0 + 0.0j] if start is None else list(start.terms)
    k = len(terms) - 1
    term, total, rate, grow = terms[-1], terms[0], q_rate, 0
    lo, size = 0, 2 * settled  # the block holding k: no ratio depends on where a sum starts
    while lo + size <= k:
        lo, size = lo + size, 2 * size
    x = q_powers(1.0, lo, ctx)[lo]
    with np.errstate(all="ignore"):  # entries past the stop may overflow or divide by 0
        if start is not None:  # the running sum and rate where `start` stopped
            total = start.value
            rate = float(_running_rate(np.abs(terms), rate, q_rate)[1][-1]) if k else rate
        while term != 0 and (trunc is None or k < trunc):
            xs = q_powers(x, size, ctx)
            x = xs[size]
            r, pole = ratio(lo, xs[:size])
            skip = k - lo
            n = size - skip if trunc is None else min(size - skip, trunc - k)
            # padded by one factor: NumPy multiplies a lone pair by a vectorised loop that
            # can round differently, so a block of one ratio would break bit-equality
            t = np.multiply.accumulate(np.concatenate(([term], r[skip:skip + n], [1.0])))[:-1]
            s = np.add.accumulate(np.concatenate(([total], t[1:])))[1:]
            at = np.abs(t)
            dec, rates = _running_rate(at, rate, q_rate)
            t, at = t[1:], at[1:]
            at_pole, diverge = (pole[0] - skip if pole else n), n
            stop = min(at_pole, _first(t == 0), n - 1 if k + n == trunc else n)
            if trunc is None:
                if k + n > settled:  # growth counts from the ratio at x = q^settled on
                    i = np.arange(n)
                    run = i - np.maximum.accumulate(np.where(dec | (i < settled - k), i,
                                                             -1 - grow))
                    diverge, grow = _first(run >= 8), int(run[-1])
                lead = at / np.abs(s)
                target = TAIL_TARGET * (1.0 - rates)
                stop = min(stop, diverge, _first(lead < target))
                if ctx.max_terms is not None or not np.isfinite(lead[:stop]).all():
                    # geometric_depth enforces the cap, or rejects the non-finite lead
                    stop = next((j for j in range(stop) if s[j] != 0 and geometric_depth(
                        float(rates[j]), float(lead[j]), ctx.max_terms) == 0), stop)
            if stop == at_pole < n:
                raise pole[1]
            if stop == diverge < n:
                raise DivergenceSuspected(f"8 consecutive growing terms at k={k + stop + 1}")
            last = min(stop, n - 1)
            terms.extend(t[:last + 1].tolist())
            term, total, rate = complex(t[last]), complex(s[last]), float(rates[last])
            k += last + 1
            if stop < n:
                break
            lo, size = lo + size, 2 * size
    return SeriesSum(total, abs(term) * rate / (1.0 - rate), k + 1, tuple(terms))


def term_ratio(nums: tuple[complex, ...], dens: tuple[complex, ...], z: complex,
               ctx: QContext, lead: complex | None = None):
    """The term ratios t_{k+1} / t_k of a series, as a block function ratio(k, x).

    At x = q^k, ..., q^(k+n-1): the ndarray of prod_i (1 - n_i q^k) z /
    ((1 - q^{k+1}) prod_j (1 - d_j q^k)), times (1 - lead q^{2k+2}) /
    (1 - lead q^{2k}) for a very-well-poised summand (no square root of a
    appears), each product in the order listed; and the first denominator
    factor (lead, then the d_j) within the pole margin as (offset,
    ZeroDenominator), or None.
    """
    q, margin, m = ctx.q, ctx.pole_margin, len(nums)
    params = np.array(tuple(nums) + (q,) + tuple(dens), dtype=complex)[:, None]

    def ratio(k: int, x: np.ndarray):
        facs = 1.0 - params * x
        r = np.multiply.reduce(facs[:m]) / np.multiply.reduce(facs[m:])
        gaps = np.abs(facs[m + 1:])
        if lead is not None:
            lx2 = lead * (x * x)
            lead_old = 1.0 - lx2
            r = (1.0 - lx2 * q * q) / lead_old * r
            gaps = np.concatenate((np.abs(lead_old)[None], gaps))
        if np.minimum.reduce(gaps, axis=None, initial=np.inf) > margin:
            return r * z, None
        near = gaps <= margin
        i = _first(near.any(axis=0))
        j = _first(near[:, i]) - (lead is not None)
        return r * z, (i, ZeroDenominator(
            f"leading very-well-poised factor vanished at k={k + i}" if j < 0 else
            f"denominator parameter {dens[j]} hits q^(-{k + i}) within margin"))

    return ratio


def series_eval(spec: PhiSeriesSpec | VWPSpec, trunc: int | None,
                ctx: QContext) -> SeriesSum:
    """Evaluate a series of either spec type through its term ratio.

    Adaptive for trunc None, else through index trunc; `.terms` holds the
    summands t_0 = 1, ..., t_N that were added.  Terminating series (some
    a_i = q^{-n}) are exact at n+1 terms; the sum stops at the first
    vanishing term.  Raises ZeroDenominator if a denominator factor falls
    within the pole margin, DivergenceSuspected after 8 consecutive growing
    terms past the settled depth.
    """
    return _series_sum(spec.ratio(ctx), trunc, ctx)


def sum_through(spec: PhiSeriesSpec | VWPSpec, n: int, ctx: QContext,
                start: SeriesSum) -> SeriesSum:
    """`start`, an earlier sum of spec, when it holds t_n; else `start` continued to n.

    The first n + 1 terms are those of series_eval(spec, n, ctx), bit for bit.
    """
    return start if n < start.terms_used else _series_sum(spec.ratio(ctx), n, ctx, start)


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
    tb = series_eval(spec, None, ctx)
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
    lhs = series_eval(spec, n, ctx)
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
