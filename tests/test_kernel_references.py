"""The product kernel and the series driver against reference copies in plain array form.

The references below are array forms of ``qcore._abs_max``, ``qcore.q_powers``,
``qcore.qpoch_infinite``, ``hyper.term_ratio`` and ``hyper._series_sum`` (with its helpers):
every decision there is an array operation, every power of q is read from one running
product q^j, every product starts from a row of ones and takes one vector multiply per
row, at any width, and every block of the driver evaluates the ratios of every column.
The kernels in ``src/`` may decide depths, stops and guards in Python and evaluate only
what a column reads, but every value must keep its bits: the tests require equal binary64
words, equal stops and depths, and the same first error, over generated inputs that cross
every size cut (a lone base and the product blocks of 2^14 entries) and hold NaN and inf
bases, poles, growing series and a depth cap.
"""

import cmath
import math
import random

import numpy as np
import pytest

from qtaylor import hyper, qcore
from qtaylor.errors import (DivergenceSuspected, QTaylorError, TruncationFailure,
                            ZeroDenominator)
from qtaylor.hyper import PhiSeriesSpec, SeriesSum, SeriesSums, VWPSpec
from qtaylor.qcore import POLE_MARGIN, TAIL_TARGET, QContext, TailBound, geometric_depth

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

BASES = [0.45, 0.5j, 0.3 + 0.5j]  # real, imaginary, and a q of two nonzero parts


def ref_powers(q, n):
    """q^0..q^n as the running product x *= q from 1."""
    xs = np.empty(n + 1, dtype=complex)
    xs[0], xs[1:] = 1.0, q
    return np.multiply.accumulate(xs)


def ref_q_powers(x0, n, ctx):
    """The rows q^j x0, j = 0..n, one vector multiply per row, the power first."""
    flat, powers = np.atleast_1d(np.asarray(x0, dtype=complex)).ravel(), ref_powers(ctx.q, n)
    xs = np.empty((n + 1, flat.size), dtype=complex)
    for row, power in zip(xs, powers):
        np.multiply(power, flat, out=row)
    return xs.reshape((n + 1,) + np.shape(x0))


def ref_abs_max(x):
    sizes = [abs(v) for v in x.tolist()]
    return next((s for s in sizes if math.isnan(s)), max(sizes, default=0.0))


def ref_qpoch_infinite(a, ctx):
    q = ctx.q
    x = np.asarray(a, dtype=complex)
    flat = x.ravel()
    n = geometric_depth(abs(q), ref_abs_max(flat), ctx.max_terms)
    xs = ref_q_powers(flat, n, ctx)
    value = np.ones_like(flat)
    for row in xs[:n]:
        value = value * np.subtract(1.0, row)  # a new array: NumPy reduces a lone x *= y
    r = ref_abs_max(flat) * abs(complex(ref_powers(q, n)[n]))
    tail = r / ((1.0 - abs(q)) * (1.0 - r))
    return TailBound(complex(value[0]) if x.ndim == 0 else value.reshape(x.shape),
                     tail, n * flat.size)


def ref_first(mask):
    return np.where(mask.any(axis=0), mask.argmax(axis=0), len(mask))


def ref_running_rate(abs_terms, rate, q_rate):
    dec = abs_terms[1:] < abs_terms[:-1]
    last = np.maximum.accumulate(np.where(dec, np.arange(1, len(abs_terms))[:, None], 0), axis=0)
    step = np.concatenate(([rate], np.maximum(abs_terms[1:] / abs_terms[:-1], q_rate)))
    return dec, step[last, np.arange(dec.shape[1])]


def ref_series_sum(ratio, truncs, ctx):
    q_rate = abs(ctx.q)
    settled = geometric_depth(q_rate)
    terms = [[1.0 + 0.0j] for _ in truncs]
    k, term = [0] * len(terms), [1.0 + 0.0j] * len(terms)
    total, rate = [1.0 + 0.0j] * len(terms), [q_rate] * len(terms)
    grow, errors = [0] * len(terms), [None] * len(terms)
    live = [n is None or n > 0 for n in truncs]
    lo, size = 0, 2 * settled
    with np.errstate(all="ignore"):
        while any(live):
            xs = ref_powers(ctx.q, lo + size)[lo:]
            block, m = lo, size
            lo, size = lo + size, 2 * size
            cols = [c for c, on in enumerate(live) if on and k[c] < lo]
            if not cols:
                continue
            r, poles = ratio(block, xs[:m])
            n = [m if truncs[c] is None else min(m, truncs[c] - k[c]) for c in cols]
            i = np.arange(m)[:, None]
            if len(cols) < r.shape[1]:
                r = r[:, cols]
            t = np.empty((m + 2, len(cols)), dtype=complex)
            t[0], t[m + 1] = [term[c] for c in cols], 1.0
            t[1:m + 1] = np.where(i < np.array(n), r, 1.0) if min(n) < m else r
            t = np.multiply.accumulate(t, axis=0)[:-1]
            s = np.empty((m + 1, len(cols)), dtype=complex)
            s[0], s[1:] = [total[c] for c in cols], t[1:]
            s = np.add.accumulate(s, axis=0)[1:]
            at = np.abs(t)
            dec, rates = ref_running_rate(at, [rate[c] for c in cols], q_rate)
            t, at = t[1:], at[1:]
            halt = t == 0
            adaptive = [truncs[c] is None for c in cols]
            if any(adaptive):
                run = i - np.maximum.accumulate(np.where(
                    dec | (i < np.array([settled - k[c] for c in cols])), i,
                    np.array([-1 - grow[c] for c in cols])), axis=0)
                lead = at / np.abs(s)
                ends = (lead < TAIL_TARGET * (1.0 - rates)) | (run >= 8)
                halt |= ends if all(adaptive) else ends & np.array(adaptive)
                odd = ctx.max_terms is not None or not np.isfinite(lead).all()
            for j, (c, nc, first) in enumerate(zip(cols, n, halt.argmax(axis=0).tolist())):
                first = first if halt.item(first, j) else m
                stop, at_pole = min(first, nc - 1 if k[c] + nc == truncs[c] else nc), nc
                if poles and poles[c]:
                    at_pole = poles[c][0]
                    stop = min(stop, at_pole)
                if adaptive[j]:
                    grow[c] = run.item(nc - 1, j)
                    if odd and (ctx.max_terms is not None
                                or not np.isfinite(lead[:stop, j]).all()):
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
                        f"8 consecutive growing terms at k={k[c] + stop + 1}")
                live[c] = errors[c] is None and stop >= nc
                if errors[c] is None:
                    last = min(stop, nc - 1)
                    terms[c].extend(t[:last + 1, j].tolist())
                    term[c], total[c] = t.item(last, j), s.item(last, j)
                    rate[c], k[c] = rates.item(last, j), k[c] + last + 1
    failed = [e for e in errors if e is not None]
    if failed:
        raise failed[0]
    return SeriesSums(SeriesSum(s, abs(t) * r / (1.0 - r), n + 1, tuple(ts))
                      for s, t, r, n, ts in zip(total, term, rate, k, terms))


def ref_term_ratio(series, ctx):
    q, margin, m = ctx.q, POLE_MARGIN, len(series[0][0])
    lead = series[0][3]
    params = np.array([(*nums, q, *dens, z, 0.0 if lead is None else a)
                       for nums, dens, z, a in series], dtype=complex).T.copy()[:, None]
    params, z, lead_x = params[:-2], params[-2], params[-1]

    def ratio(k, x):
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
        if np.minimum.reduce(gaps, axis=None, initial=np.inf) > margin:
            return r * z, None
        near = gaps <= margin
        first = ref_first(near.any(axis=0))
        poles = [None] * len(first)
        for col in np.flatnonzero(first < len(x)):
            i = int(first[col])
            j = int(ref_first(near[:, i, col])) - (lead is not None)
            poles[col] = (i, ZeroDenominator(
                f"leading very-well-poised factor vanished at k={k + i}" if j < 0 else
                f"denominator parameter {complex(params[m + 1 + j, 0, col])} hits "
                f"q^(-{k + i}) within margin"))
        return r * z, poles

    return ratio


def words(x) -> bytes:
    """The binary64 words of a number or an ndarray (NaN payloads and signed zeros count)."""
    return np.asarray(x, dtype=complex).tobytes()


def outcome(f, *args):
    """f(*args), or the type and text of the engine error it raised."""
    try:
        return f(*args)
    except QTaylorError as exc:
        return type(exc), str(exc)


SPECIAL = [complex(math.nan, 0.0), complex(0.3, math.nan), complex(math.inf, 0.0),
           complex(-0.2, -math.inf)]


@st.composite
def bases(draw, sizes):
    """An ndarray of complex bases of modulus up to 3 (from a seeded generator), maybe
    with a NaN or inf first, last or in the middle."""
    size = draw(sizes)
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    a = np.array([rng.uniform(0.0, 3.0) * cmath.exp(2j * math.pi * rng.random())
                  for _ in range(size)], dtype=complex)
    if size and draw(st.booleans()):
        a[draw(st.sampled_from([0, size - 1, size // 2]))] = draw(st.sampled_from(SPECIAL))
    return a


SMALL = settings(derandomize=True, max_examples=300, deadline=None, database=None)


@SMALL
@given(bases(st.integers(0, 64)))
def test_abs_max_is_the_array_form(a):
    assert words(qcore._abs_max(a)) == words(ref_abs_max(a))


@SMALL
@given(bases(st.integers(0, 64)), st.sampled_from(BASES), st.sampled_from([None, 16, 40]))
def test_small_products_are_the_array_form(a, q, cap):
    ctx = QContext(q, max_terms=cap)
    shapes = [a, a.reshape(-1, 1) if a.size % 2 else a.reshape(2, -1)]
    if a.size:  # a scalar base (the loop value *= 1 - x; x *= q), as a 0-d array and a complex
        shapes += [a[-1:].reshape(()), complex(a[-1])]
    for x in shapes:
        got, want = outcome(qcore.qpoch_infinite, x, ctx), outcome(ref_qpoch_infinite, x, ctx)
        if isinstance(want, tuple):
            assert got == want
        else:
            assert words(got.value) == words(want.value)
            assert np.shape(got.value) == np.shape(want.value)
            assert (words(got.tail_abs), got.terms_used) == (words(want.tail_abs),
                                                            want.terms_used)


@settings(derandomize=True, max_examples=12, deadline=None, database=None)
@given(bases(st.sampled_from([255, 256, 257, 400, 700, 1100])), st.sampled_from(BASES))
def test_wide_and_multi_block_products_are_the_array_form(a, q):
    # past 2^14 entries (here from about 340 bases at depth ~48) the product runs in
    # several blocks
    ctx = QContext(q)
    got, want = outcome(qcore.qpoch_infinite, a, ctx), outcome(ref_qpoch_infinite, a, ctx)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert words(got.value) == words(want.value)
        assert (words(got.tail_abs), got.terms_used) == (words(want.tail_abs), want.terms_used)


def test_generated_sizes_cross_every_size_cut():
    # from 400 bases a product at |q| >= 0.45 with a base of modulus 0.3 or more takes
    # more than one block of 2^14 entries
    assert 400 * geometric_depth(0.45, 0.3) > 2 ** 14


@st.composite
def series_batch(draw):
    """(specs, truncs, ctx): a batch of 1-24 series of one kind, with poles, growing
    columns, and adaptive and fixed depths.  The numbers of each column come from a seeded generator (a small example is one seed)."""
    q = draw(st.sampled_from(BASES))
    ctx = QContext(q, max_terms=draw(st.sampled_from([None, None, None, 24, 60])))
    width, vwp, arity = draw(st.integers(1, 24)), draw(st.booleans()), draw(st.integers(1, 3))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))

    def number(lo, hi):
        return rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())

    specs = []
    for _ in range(width):
        kind = rng.choice(["plain"] * 6 + ["pole", "grow", "zero", "huge"])
        z = number(1.05, 1.8) if kind == "grow" else number(0.05, 0.95)
        j = rng.randrange(71 if kind == "pole" else 31)
        if vwp:
            a = number(0.3, 0.9)
            bs = [number(0.3, 0.9) for _ in range(arity)]
            if kind == "pole":  # a denominator a q / b = q^-j, or a q^2k = 1
                if j % 2:
                    bs[0] = a * q * q ** j
                else:
                    a = q ** -j
            bs[-1] = q ** -j if kind == "zero" else 1e250 if kind == "huge" else bs[-1]
            specs.append(VWPSpec(a, tuple(bs), z))
        else:
            nums = [number(0.1, 1.5) for _ in range(arity + 1)]
            dens = [number(0.1, 1.5) for _ in range(arity)]
            dens[0] = q ** -j if kind == "pole" else dens[0]
            nums[0] = q ** -j if kind == "zero" else 1e250 if kind == "huge" else nums[0]
            specs.append(PhiSeriesSpec(nums, dens, z))
    truncs = [rng.choice([None, None, 0, 1, 3, 17, 40, 90, 250]) for _ in specs]
    return specs, truncs, ctx


def run_batch(series_sum, term_ratio, specs, truncs, ctx):
    """A batch summed by one driver."""
    try:
        params = [spec.ratio_params(ctx) for spec in specs]
    except QTaylorError as exc:
        return type(exc), str(exc)
    return outcome(series_sum, term_ratio(params, ctx), truncs, ctx)


def sum_words(sums):
    return [(words(s.value), words(s.tail_abs), s.terms_used, words(list(s.terms)))
            for s in sums]


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(series_batch())
def test_series_driver_is_the_array_form(batch):
    got = run_batch(hyper._series_sum, hyper.term_ratio, *batch)
    want = run_batch(ref_series_sum, ref_term_ratio, *batch)
    if not isinstance(want, SeriesSums):
        assert got == want
    else:
        assert type(got) is SeriesSums and sum_words(got) == sum_words(want)
        assert got.terms_used == want.terms_used


def test_series_batches_reach_every_stop():
    # the generator above meets each way a column stops: a pole, growth, the cap, a
    # vanishing term, a non-finite lead, a fixed depth and the tail test
    ctx, capped = QContext(0.45), QContext(0.45, max_terms=16)
    a = 0.55 + 0.2j
    cases = [
        ([VWPSpec(a, (a * 0.45 ** 6, 0.5), 0.45)], [None], ctx, ZeroDenominator),
        ([VWPSpec(a, (0.6, 0.5), 1.7)], [None], ctx, DivergenceSuspected),
        ([PhiSeriesSpec((0.9, 0.8), (0.1,), 0.99)], [None], capped, TruncationFailure),
        ([PhiSeriesSpec((1e250, 0.8), (0.1,), 0.5)], [None], ctx, TruncationFailure),
    ]
    for specs, truncs, c, error in cases:
        got = run_batch(hyper._series_sum, hyper.term_ratio, specs, truncs, c)
        assert got[0] is error
        assert got == run_batch(ref_series_sum, ref_term_ratio, specs, truncs, c)
    # at q = 0.5 the numerator q^-4 = 16 makes t_5 exactly 0: the sum ends there
    done = run_batch(hyper._series_sum, hyper.term_ratio,
                     [PhiSeriesSpec((16.0, 0.8), (0.3,), 0.5)] * 2, [None, 2], QContext(0.5))
    assert [s.terms_used for s in done] == [6, 3] and done[0].terms[-1] == 0
