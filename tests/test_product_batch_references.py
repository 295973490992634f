"""Grouped products and scalar judgements against reference forms.

``qcore.qpoch_groups`` evaluates all bases of its groups in one ``qpoch_infinite`` call and
splits the values back into the groups; each product must keep the bits of its bases' values
in that call, and the call must raise the kernel's error.  The generated groups cross
the product blocks of 2^14 entries; they hold one-base groups, empty
groups, ndarray bases and NaN and inf bases, under a depth cap or none.  ``Check.see`` and
``qcore.residual_and_scale`` judge Python numbers without NumPy; their references are the
NumPy forms they replaced.  A slow test runs the profiles suite with its list helpers and
with reference copies that evaluate one point at a time.
"""

import cmath
import json
import math
import operator
import random
from functools import reduce
from itertools import accumulate

import numpy as np
import pytest

from qtaylor import profiles, qcore
from qtaylor.errors import ConvergenceRegionViolation, DomainError, QTaylorError
from qtaylor.kernel import sym_bases
from qtaylor.qcore import QContext, geometric_depth
from qtaylor.suites import Check, SuiteConfig, run_suites

hypothesis = pytest.importorskip("hypothesis")
st = pytest.importorskip("hypothesis.strategies")
given, settings = hypothesis.given, hypothesis.settings

QS = [0.45, 0.5j, 0.3 + 0.5j, -0.6]
SPECIAL = [complex(math.nan, 0.0), complex(0.3, math.nan), complex(math.inf, 0.0),
           complex(-0.2, -math.inf)]


def words(x) -> bytes:
    """The binary64 words of a number or an ndarray (NaN payloads and signed zeros count)."""
    return np.asarray(x, dtype=complex).tobytes()


def outcome(f, *args):
    """f(*args), or the type and text of the engine error it raised."""
    try:
        return f(*args)
    except QTaylorError as exc:
        return type(exc), str(exc)


@st.composite
def group_lists(draw):
    """(groups, ctx): the 1-3 groups of bases of each of 1-300 calls, whose moduli stay below
    one of a few leads, with one-base calls, empty groups, an ndarray base now and then, NaN
    and inf bases, and maybe a depth cap.  The numbers come from a seeded generator (a small
    example is one seed)."""
    ctx = QContext(draw(st.sampled_from(QS)), max_terms=draw(st.sampled_from([None, None, 40])))
    rng = random.Random(draw(st.integers(0, 2 ** 32)))
    leads = [rng.uniform(0.05, 3.0) for _ in range(draw(st.integers(1, 4)))]
    special = draw(st.sampled_from([0.0, 0.0, 0.02]))

    def base(lead):
        value = rng.uniform(0.0, lead) * cmath.exp(2j * math.pi * rng.random())
        return rng.choice(SPECIAL) if rng.random() < special else value

    groups = []
    for _ in range(draw(st.sampled_from([1, 2, 7, 40, 120, 300]))):
        lead = rng.choice(leads)
        bases = [lead * cmath.exp(2j * math.pi * rng.random())]
        bases += [base(lead) for _ in range(rng.choice([0, 0, 1, 3, 7]))]
        rng.shuffle(bases)
        if rng.random() < 0.1:
            bases.insert(rng.randrange(len(bases) + 1),
                         np.array([base(lead) for _ in range(6)]).reshape(rng.choice([(6,), (2, 3)])))
        cuts = sorted(rng.randrange(len(bases) + 1) for _ in range(rng.randrange(3)))
        groups += [bases[lo:hi] for lo, hi in zip([0] + cuts, cuts + [len(bases)])]
    return groups, ctx


def ref_groups(groups, ctx):
    """qpoch_groups with each base's values looked up by its place in the one product call
    (the ndarrays' nodes first, then the scalars)."""
    bases = [a for group in groups for a in group]
    order = sorted(range(len(bases)), key=lambda i: not isinstance(bases[i], np.ndarray))
    flat = np.array([u for i in order for u in np.ravel(bases[i])], dtype=complex)
    values = qcore.qpoch_infinite(flat, ctx).value
    starts = dict(zip(order, accumulate(np.size(bases[i]) for i in order)))
    own = [values[starts[i] - a.size:starts[i]].reshape(a.shape) if isinstance(a, np.ndarray)
           else complex(values[starts[i] - 1]) for i, a in enumerate(bases)]
    ends = list(accumulate(map(len, groups), initial=0))
    return [math.prod(own[lo:hi]) for lo, hi in zip(ends, ends[1:])]


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(group_lists())
def test_groups_split_one_product_call(generated):
    groups, ctx = generated
    got, want = outcome(qcore.qpoch_groups, groups, ctx), outcome(ref_groups, groups, ctx)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert len(got) == len(want)
        assert all(words(x) == words(y) and np.shape(x) == np.shape(y)
                   for x, y in zip(got, want))


def test_generated_batches_cross_every_size_cut():
    # 300 calls hold about 900 bases: at a depth of 48 or more (any lead from 0.05 at
    # |q| >= 0.45) past one block of 2^14 entries
    assert 900 * geometric_depth(0.45, 0.05) > 2 ** 14


# ---------------------------------------------------------------- scalar judgements

NUMBERS = [0.0, -0.0, 5e-324, 1e-300, 0.25, 1.0, 3.5, math.inf, math.nan]


@st.composite
def numbers(draw, kinds=(float, np.float64)):
    return draw(st.sampled_from(kinds))(draw(st.sampled_from(NUMBERS)))


class RefCheck:
    """Check.see as NumPy judged its residuals."""

    def __init__(self):
        self.residual, self.scale = 0.0, None

    def see(self, *residuals, scale=1.0):
        worst = float(np.max(residuals))
        if (self.scale is None or worst > self.residual
                or math.isnan(worst) > math.isnan(self.residual)):
            self.residual, self.scale = worst, float(scale)


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(st.tuples(st.lists(numbers(), min_size=1, max_size=5), numbers()),
                min_size=1, max_size=6))
def test_see_judges_numbers_as_numpy_did(sights):
    got, want = Check([], SuiteConfig(), "suite", "check", "anchor", 1.0), RefCheck()
    for residuals, scale in sights:
        got.see(*residuals, scale=scale)
        want.see(*residuals, scale=scale)
        assert words(got.residual) == words(want.residual)
        assert type(got.residual) is float and type(got.scale) is float
        assert words(got.scale) == words(want.scale)


def ref_residual_and_scale(*terms):
    scale = reduce(np.maximum, map(abs, terms))
    diff = abs(reduce(operator.sub, terms))
    return (diff / scale if scale else 0.0), scale


TERMS = [0.0, -0.0, 1e-300, 0.7, -1.25, complex(0.3, -0.4), complex(-0.0, 0.0), complex(2.0, 1e-17),
         math.inf, complex(0.0, -math.inf), math.nan, complex(1.0, math.nan)]


@settings(derandomize=True, max_examples=400, deadline=None, database=None)
@given(st.lists(st.tuples(st.sampled_from(TERMS), st.sampled_from([complex, np.complex128, None])),
                min_size=1, max_size=5))
def test_residual_and_scale_judges_numbers_as_numpy_did(typed):
    terms = [value if kind is None else kind(value) for value, kind in typed]
    with np.errstate(all="ignore"):  # inf - inf and inf / inf in NumPy scalars
        got, want = qcore.residual_and_scale(*terms), ref_residual_and_scale(*terms)
    assert [words(x) for x in got] == [words(x) for x in want]


# ---------------------------------------------------------------- per-point profile loops

def ref_growth_point(lam, N, w, kp):
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    z = lam * q ** N * w
    monomial = q ** (-N * (N + 1)) * (b * c / (d * e * lam * lam * w * w)) ** N
    cde = c / (d * e)
    zval, cinf = qcore.qpoch_groups([sym_bases(z, b, cde),
                                     [b * z, cde * z, b / (lam * w), cde / (lam * w)]], ctx)
    cfac = (cinf * qcore.qpoch_finite(lam * w * q / b, N, ctx)
            * qcore.qpoch_finite(lam * w * q / cde, N, ctx))
    return profiles.CanonicalGrowth(zval, monomial, cfac)


def ref_limit_point(k, w, kp, lam, N):
    if not 0 <= k <= N:
        raise DomainError("need 0 <= k <= N")
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    z = lam * q ** N * w
    scale_pow = (b / c) ** (N - k)
    qk = q ** k

    def sym_quot(alpha, beta):
        qcore.require_clear(ctx, "profile quotient", beta * z, beta / z)
        return sym_bases(z, alpha), sym_bases(z, beta), "profile quotient: vanishing denominator"

    rk, sk, r_lim, s_lim = qcore.qpoch_quotients(
        [sym_quot(c * qk, b * qk), sym_quot(c * c * qk / (b * d * e), c * qk / (d * e)),
         profiles._L_quotient(w, c, b, lam, ctx),
         profiles._L_quotient(w, c * c / (b * d * e), c / (d * e), lam, ctx)], ctx)
    return profiles.ProfileLimitResiduals(
        *qcore.residual_and_scale(scale_pow * rk, r_lim),
        qcore.scaled_residual(scale_pow * sk, s_lim))


def ref_kernel_weight(u, j, alpha, beta, ctx):
    """(a/b;q)_u (a/b;q)_{j-u} / ((q;q)_u (q;q)_{j-u}) beta^u (q/alpha)^{j-u}, from four
    finite products."""
    q, rho = ctx.q, alpha / beta
    return (qcore.qpoch_finite(rho, u, ctx) * qcore.qpoch_finite(rho, j - u, ctx)
            / (qcore.qpoch_finite(q, u, ctx) * qcore.qpoch_finite(q, j - u, ctx))
            * beta ** u * (q / alpha) ** (j - u))


def ref_kernel_coefficient(j, w, alpha, beta, lam, ctx):
    if j < 0:
        raise DomainError("coefficient index must be nonnegative")
    total = sum((ref_kernel_weight(u, j, alpha, beta, ctx) for u in range(j + 1)),
                0.0 + 0.0j)
    return profiles.L_profile(w, alpha, beta, lam, ctx) * (lam * w) ** j * total


def ref_coefficient_point(j, w, kp, lam, moments):
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    t1 = sum(ref_kernel_coefficient(i, w, c / d, b, lam, ctx)
             * ref_kernel_coefficient(j - i, w, c / e, c / (d * e), lam, ctx)
             for i in range(j + 1))
    for u in range(j + 1):
        m = 2 * u - j
        if m not in moments:
            moments[m] = profiles.contiguous_moment(kp, m)
        if not moments[m].convergent:
            raise ConvergenceRegionViolation(f"moment m={m} outside its convergence region")

    def family_term(alpha0, beta0, pick):
        total = sum((ref_kernel_weight(u, j, alpha0, beta0, ctx) * pick(moments[2 * u - j])
                     for u in range(j + 1)), 0.0 + 0.0j)
        return profiles.L_profile(w, alpha0, beta0, lam, ctx) * (lam * w) ** j * total

    return (t1, kp.Hb * family_term(c, b, lambda mom: mom.F_m),
            kp.Kcde * family_term(c * c / (b * d * e), c / (d * e), lambda mom: mom.G_m))


def per_point_loops(monkeypatch):
    """Give the profiles module reference copies of its list helpers, a point at a time."""
    monkeypatch.setattr(profiles, "canonical_growth_profile", lambda lam, points, kp: [
        ref_growth_point(lam, N, w, kp) for N, w in points])
    monkeypatch.setattr(profiles, "exponential_profile_limit_residual", lambda k, points, lam: [
        ref_limit_point(k, w, kp, lam, N) for w, kp, N in points])
    monkeypatch.setattr(profiles, "profile_kernel_coefficients", lambda orders, *args: [
        ref_kernel_coefficient(j, *args) for j in orders])

    def coefficient_terms(points, kp, lam, moments=None):
        moments = {} if moments is None else moments
        return [ref_coefficient_point(j, w, kp, lam, moments) for j, w in points]
    monkeypatch.setattr(profiles, "profile_coefficient_terms", coefficient_terms)


@pytest.mark.slow
@pytest.mark.parametrize("q", [0.3 + 0.5j, 0.6 + 0.5j, 0.95, -0.8])
@pytest.mark.parametrize("seed", [None, 1, 2, 3])
def test_batched_profile_checks_keep_the_per_point_records(monkeypatch, q, seed):
    # where a q of two nonzero parts fuses complex multiplies, and where no stream pin looks
    cfg = SuiteConfig(suites=("profiles",), q=q)
    if seed is not None:
        cfg.seed = seed
    batched = [json.dumps(r.to_dict(), sort_keys=True) for r in run_suites(cfg).records]
    with monkeypatch.context() as patch:
        per_point_loops(patch)
        looped = [json.dumps(r.to_dict(), sort_keys=True) for r in run_suites(cfg).records]
    assert batched == looped
