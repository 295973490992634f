"""Basic hypergeometric and very-well-poised series evaluation.

The very-well-poised summand is always evaluated through the ratio factor
(1 - a q^{2k})/(1 - a); no square root of `a` is ever materialised, so the
evaluation is branch-free.  Reference summations (the nonterminating 6W5
and the terminating 8W7) are exposed as scale-relative residuals.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import DivergenceSuspected, DomainError, TruncationFailure, ZeroDenominator
from .qcore import (POLE_MARGIN, TAIL_TARGET, QContext, TailBound, geometric_depth,
                    qpoch_multi, qpoch_quotient)


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

    def ratio_params(self, ctx: QContext) -> tuple:
        """The term_ratio arguments: numerators a_i, denominators b_j, no lead."""
        return self.numerator_params, self.denominator_params, self.argument, None


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

    def ratio_params(self, ctx: QContext) -> tuple:
        """The term_ratio arguments: numerators (a, b_j), denominators a q / b_j, lead a."""
        a = self.a
        if abs(1.0 - a) <= POLE_MARGIN:
            raise DomainError("very-well-poised series requires a != 1")
        return (a,) + self.b_list, tuple(a * ctx.q / b for b in self.b_list), self.argument, a


@dataclass(frozen=True)
class SeriesSum(TailBound):
    """A series partial sum with the terms t_0 = 1, ..., t_N it added (N + 1 = terms_used)."""

    terms: tuple[complex, ...]


class SeriesSums(tuple):
    """The SeriesSum of each column of a batch, in column order."""

    @property
    def terms_used(self) -> int:
        """The terms of every column, as the benchmark's hyper.terms counter reads them."""
        return sum(s.terms_used for s in self)


def vwp_expanded_spec(spec: VWPSpec, root: complex, ctx: QContext) -> PhiSeriesSpec:
    """Explicit (r+1)phi_r parameter list of a very-well-poised series.

    `root` must square to spec.a; used only to cross-check branch
    independence of the ratio-form evaluation.
    """
    a, q = spec.a, ctx.q
    nums = (a, q * root, -q * root) + spec.b_list
    dens = (root, -root) + tuple(a * q / b for b in spec.b_list)
    return PhiSeriesSpec(nums, dens, spec.argument)


def _first(mask: np.ndarray):
    """Index of the first True entry down the first axis of a nonempty mask (for each
    column), or the mask's length where there is none."""
    return np.where(mask.any(axis=0), mask.argmax(axis=0), len(mask))


def _running_rate(abs_terms: np.ndarray, rate, q_rate: float):
    """Per step of |t| down each column: did it decrease, and the rate after it (the
    last decreasing ratio, at least q_rate; `rate`, one per column, before the first
    decrease)."""
    dec = abs_terms[1:] < abs_terms[:-1]
    last = np.maximum.accumulate(np.where(dec, np.arange(1, len(abs_terms))[:, None], 0), axis=0)
    step = np.concatenate(([rate], np.maximum(abs_terms[1:] / abs_terms[:-1], q_rate)))
    return dec, step[last, np.arange(dec.shape[1])]


def _series_sum(ratio, truncs: list, ctx: QContext) -> SeriesSums:
    """Shared partial sum of every series: the SeriesSums of a list of columns, each
    with the terms it added from t_0 = 1 at k = 0.

    ratio(k, x) (term_ratio) gives the multipliers t_i -> t_(i+1) at x = q^i,
    i = k, k+1, ..., one column per series, and, when some column has a pole in the
    block, the list of each column's first one as (offset, error) or None.  A first
    block of 2 geometric_depth(|q|) q-powers and doubling blocks after it lie at fixed
    places, and every column still summing is at the start of the block; a block reads
    the ratios of all columns up to the last one any of them adds (at least 2: a lone
    one rounds apart) and keeps the columns still summing.  The terms and partial sums
    of every column are np.multiply/np.add.accumulate down the block, which associate
    as a loop over k does.  Nothing past a column's stop index raises or warns.
    truncs holds one truncation per column, each column with its own stop:
    through index n when given, else after the first t_k with
    |t_k| / |partial sum| < TAIL_TARGET (1 - rate), rate being the last
    decreasing term ratio (at least |q|): geometric_depth(rate, lead) = 0,
    called only under ctx.max_terms or for a non-finite lead.  A vanishing
    term ends the sum.  An adaptive column raises DivergenceSuspected after 8
    growing terms in a row past geometric_depth(|q|), where the q-power
    factors of the ratio have settled.  Column j is bit for bit the sum of its
    series alone (a batch of one).  When columns fail, the first of them raises
    its error once every column has stopped.  The first halt of every column is
    one array step.
    """
    q_rate = abs(ctx.q)
    settled = geometric_depth(q_rate)
    # per column: the terms, the last term and partial sum, the running rate, the
    # growing run and the error
    width = len(truncs)
    terms = [[1.0 + 0.0j] for _ in truncs]
    term, total, rate = [1.0 + 0.0j] * width, [1.0 + 0.0j] * width, [q_rate] * width
    grow, errors = [0] * width, [None] * width
    live = [c for c, n in enumerate(truncs) if n is None or n > 0]
    lo, size = 0, 2 * settled  # the block's first index and its length
    with np.errstate(all="ignore"):  # entries past a stop may overflow or divide by 0
        while live:
            n = [size if truncs[c] is None else min(size, truncs[c] - lo)
                 for c in live]  # the new terms of each column
            m = max(n)
            r, poles = ratio(lo, ctx.powers(lo + size)[lo:lo + max(m, 2)])
            r = r[:m, live] if len(live) < width else r[:m]
            i = np.arange(m)[:, None]
            # padded by one factor: NumPy multiplies a lone pair by a vectorised loop
            # that can round differently, so a block of one ratio would break bit-equality
            t = np.empty((m + 2, len(live)), dtype=complex)
            t[0], t[m + 1] = [term[c] for c in live], 1.0
            t[1:m + 1] = np.where(i < np.array(n), r, 1.0) if min(n) < m else r
            t = np.multiply.accumulate(t, axis=0)[:-1]
            s = np.empty((m + 1, len(live)), dtype=complex)
            s[0], s[1:] = [total[c] for c in live], t[1:]
            s = np.add.accumulate(s, axis=0)[1:]
            at = np.abs(t)
            dec, rates = _running_rate(at, [rate[c] for c in live], q_rate)
            t, at = t[1:], at[1:]
            # the first zero term of each column, or small term, or 8th growing term
            halt = t == 0
            adaptive = [truncs[c] is None for c in live]
            if any(adaptive):
                # growth counts from the ratio at x = q^settled on
                run = i - np.maximum.accumulate(np.where(
                    dec | (i < settled - lo), i, np.array([-1 - grow[c] for c in live])), axis=0)
                lead = at / np.abs(s)
                ends = (lead < TAIL_TARGET * (1.0 - rates)) | (run >= 8)
                halt |= ends if all(adaptive) else ends & np.array(adaptive)
                odd = ctx.max_terms is not None or not np.isfinite(lead).all()
            stops, ended = [], set()
            for j, (c, nc, first) in enumerate(zip(live, n, _first(halt).tolist())):
                stop, at_pole = min(first, nc - 1 if lo + nc == truncs[c] else nc), nc
                if poles and poles[c]:
                    at_pole = poles[c][0]
                    stop = min(stop, at_pole)
                if adaptive[j]:
                    if odd and (ctx.max_terms is not None
                                or not np.isfinite(lead[:stop, j]).all()):
                        # geometric_depth enforces the cap, or rejects the non-finite lead
                        try:
                            stop = next((h for h in range(stop) if s.item(h, j) != 0 and
                                         geometric_depth(rates.item(h, j), lead.item(h, j),
                                                         ctx.max_terms) == 0), stop)
                        except TruncationFailure as exc:
                            errors[c] = exc
                if errors[c] is None and stop == at_pole < nc:
                    errors[c] = poles[c][1]
                elif errors[c] is None and adaptive[j] and stop == first < nc \
                        and run.item(first, j) >= 8:
                    errors[c] = DivergenceSuspected(
                        f"8 consecutive growing terms at k={lo + stop + 1}")
                if errors[c] is not None or stop < nc:
                    ended.add(c)
                elif adaptive[j]:
                    grow[c] = run.item(nc - 1, j)
                stops.append(min(stop, nc - 1))
            # each column's terms from one list of the block, its sum and rate from one gather
            last = np.array(stops), np.arange(len(live))
            news = zip(t[:max(stops) + 1].T.tolist(), s[last].tolist(), rates[last].tolist())
            for c, stop, (added, sc, rc) in zip(live, stops, news):
                if errors[c] is None:
                    terms[c].extend(added[:stop + 1])
                    term[c], total[c], rate[c] = added[stop], sc, rc
            live = [c for c in live if c not in ended]
            lo, size = lo + size, 2 * size
    failed = [e for e in errors if e is not None]
    if failed:
        raise failed[0]
    return SeriesSums(SeriesSum(s, abs(t) * r / (1.0 - r), len(ts), tuple(ts))
                      for s, t, r, ts in zip(total, term, rate, terms))


def term_ratio(series: Sequence[tuple], ctx: QContext):
    """The term ratios t_{k+1} / t_k of a batch of series, as a block function
    ratio(k, x).

    Each series is one column, given as (nums, dens, z, lead) with the same
    numbers of parameters and a lead in all or none.  At x = q^k, ..., q^(k+n-1):
    the (n, columns) ndarray of prod_i (1 - n_i q^k) z / ((1 - q^{k+1})
    prod_j (1 - d_j q^k)), times (1 - lead q^{2k+2}) / (1 - lead q^{2k}) for a
    very-well-poised summand (no square root of a appears), each product in the
    order listed; and, when a denominator factor (lead, then the d_j) of some
    column is within the pole margin, the list over the columns of the first such
    factor as (offset, ZeroDenominator) or None (else None).
    """
    q, m = ctx.q, len(series[0][0])
    lead = series[0][3]
    # contiguous: NumPy may round a product of strided operands differently
    params = np.array([(*nums, q, *dens, z, 0.0 if lead is None else a)
                       for nums, dens, z, a in series], dtype=complex).T.copy()[:, None]
    params, z, lead_x = params[:-2], params[-2], params[-1]

    def ratio(k: int, x: np.ndarray):
        x = x[:, None]
        facs = np.multiply(params, x)
        np.subtract(1.0, facs, out=facs)
        r = np.multiply.reduce(facs[:m]) / np.multiply.reduce(facs[m:])
        gaps = np.abs(facs[m + 1:])
        if lead is not None:
            lx2 = lead_x * (x * x)
            lead_old = 1.0 - lx2
            r = (1.0 - lx2 * q * q) / lead_old * r
            gaps = np.concatenate((np.abs(lead_old)[None], gaps))
        if np.minimum.reduce(gaps, axis=None, initial=np.inf) > POLE_MARGIN:
            return r * z, None
        near = gaps <= POLE_MARGIN
        first = _first(near.any(axis=0))
        poles = [None] * len(first)
        for col in np.flatnonzero(first < len(x)):
            i = int(first[col])
            j = int(_first(near[:, i, col])) - (lead is not None)
            poles[col] = (i, ZeroDenominator(
                f"leading very-well-poised factor vanished at k={k + i}" if j < 0 else
                f"denominator parameter {complex(params[m + 1 + j, 0, col])} hits "
                f"q^(-{k + i}) within margin"))
        return r * z, poles

    return ratio


def series_eval(spec: PhiSeriesSpec | VWPSpec, trunc: int | None,
                ctx: QContext) -> SeriesSum:
    """Evaluate a series of either spec type through its term ratio: column 0 of
    series_sums([spec], trunc, ctx).

    Adaptive for trunc None, else through index trunc; `.terms` holds the
    summands t_0 = 1, ..., t_N that were added.  Terminating series (some
    a_i = q^{-n}) are exact at n+1 terms; the sum stops at the first
    vanishing term.  Raises ZeroDenominator if a denominator factor falls
    within the pole margin, DivergenceSuspected after 8 consecutive growing
    terms past the settled depth.
    """
    return series_sums([spec], trunc, ctx)[0]


def series_sums(specs: Sequence, trunc, ctx: QContext) -> SeriesSums:
    """Every spec (of one kind and arity) summed in one _series_sum run.

    trunc is one value for all or a list with one per spec.  Sum j equals
    series_eval(specs[j], trunc_j, ctx) bit for bit; when specs fail, the
    first of them raises its error.
    """
    truncs = trunc if isinstance(trunc, list) else [trunc] * len(specs)
    return _series_sum(term_ratio([spec.ratio_params(ctx) for spec in specs], ctx), truncs, ctx)


def sum_through(specs: Sequence, ns: Sequence[int], ctx: QContext,
                sums: Sequence[SeriesSum]) -> list[SeriesSum]:
    """For each spec its earlier sum when that holds t_n, else series_eval(spec, n, ctx),
    those that need more terms summed afresh to their depth n in one run.  The first
    n + 1 terms of each are those of series_eval(spec, n, ctx), bit for bit."""
    out = list(sums)
    todo = [j for j, (n, s) in enumerate(zip(ns, sums)) if n >= s.terms_used]
    if todo:
        for j, s in zip(todo, series_sums([specs[j] for j in todo], [ns[j] for j in todo], ctx)):
            out[j] = s
    return out


def _columns(*params) -> list[tuple]:
    """The draws of a batch as tuples of Python numbers, one per draw (one for numbers)."""
    return list(zip(*(np.ravel(p).tolist() for p in params)))


def _summation_terms(rhs, sums: Sequence[SeriesSum], batch: bool):
    """(rhs, t_0, ..., t_N) of a summation: a tuple for one draw, for a batch an ndarray of a
    row per term and a column per draw, the shorter columns padded with exact zeros."""
    if not batch:
        return (rhs, *sums[0].terms)
    depth = max(len(s.terms) for s in sums)
    return np.array([rhs, *zip(*(s.terms + (0.0,) * (depth - len(s.terms)) for s in sums))])


def rogers_6w5_terms(a, b, c, d, ctx: QContext):
    """The additive terms (rhs, t_0, ..., t_N) of the nonterminating 6W5 summation: the
    four-factor infinite-product quotient and the 6W5 series at argument aq/(bcd), which
    requires |aq/(bcd)| < 1.  ndarrays of draws give the table of _summation_terms, from
    one series and one product call."""
    q = ctx.q
    arg = a * q / (b * c * d)
    if np.any(abs(arg) >= 1.0):
        raise DomainError(f"|aq/(bcd)| = {np.max(abs(arg)):.3g} >= 1")
    sums = series_sums([VWPSpec(a_, (b_, c_, d_), a_ * q / (b_ * c_ * d_))
                        for a_, b_, c_, d_ in _columns(a, b, c, d)], None, ctx)
    rhs = qpoch_quotient([a * q, a * q / (b * c), a * q / (b * d), a * q / (c * d)],
                         [a * q / b, a * q / c, a * q / d, arg], ctx,
                         "vanishing denominator product in 6W5 evaluation", ZeroDenominator)
    return _summation_terms(rhs, sums, np.ndim(a) > 0)


def jackson_8w7_terms(a, b, c, d, n, ctx: QContext):
    """The additive terms (rhs, t_0, ..., t_n) of the terminating 8W7 summation at depth n:
    a quotient of finite products and the n+1 terms of the series, the balancing parameter
    a^2 q^{n+1}/(bcd) and the terminating q^{-n} substituted internally.  ndarrays of draws
    (each with its own n) give the table of _summation_terms, the series from one call."""
    if np.any(np.asarray(n) < 0):
        raise DomainError("termination depth must be nonnegative")
    q = ctx.q
    draws = _columns(a, b, c, d, n)
    lhs = series_sums([VWPSpec(a_, (b_, c_, d_, a_ * a_ * q ** (n_ + 1) / (b_ * c_ * d_),
                                    q ** (-n_)), q) for a_, b_, c_, d_, n_ in draws],
                      [n_ for *_, n_ in draws], ctx)
    rhs = []
    for a_, b_, c_, d_, n_ in draws:
        num = qpoch_multi([a_ * q, a_ * q / (b_ * c_), a_ * q / (b_ * d_), a_ * q / (c_ * d_)],
                          n_, ctx).value
        den = qpoch_multi([a_ * q / b_, a_ * q / c_, a_ * q / d_, a_ * q / (b_ * c_ * d_)],
                          n_, ctx).value
        if abs(den) == 0.0:
            raise ZeroDenominator("vanishing denominator product in 8W7 evaluation")
        rhs.append(num / den)
    return _summation_terms(rhs if np.ndim(a) else rhs[0], lhs, np.ndim(a) > 0)


def well_poised_defect(spec: VWPSpec, ctx: QContext) -> float:
    """Max |a q - a_j b_j| over the expanded parameter pairing (0 by construction)."""
    a, q = spec.a, ctx.q
    return max((abs(a * q - b * (a * q / b)) for b in spec.b_list), default=0.0)
