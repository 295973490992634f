"""Complex arithmetic core: q-shifted factorials, theta products, addition residual.

All evaluations are plain binary64 complex arithmetic threaded through a
:class:`QContext`, which fixes the base q, the agreement tolerance, an
optional user cap on product and series depths, and the pole margin used
by every admissibility check.

Conventions
-----------
* ``(a;q)_n = prod_{j=0}^{n-1} (1 - a q^j)``, the empty product being 1.
* Every truncation depth follows one rule, :func:`geometric_depth`: a
  tail dominated by a geometric series ``lead * rate^N / (1 - rate)`` is
  cut off once that bound falls below ``TAIL_TARGET`` = 2^-55, a quarter
  of the binary64 unit roundoff (Gasper & Rahman, *Basic Hypergeometric
  Series*, 2nd ed., 2004, sec. 1.3).  Series apply it to their observed
  term ratio.
* One array kernel, :func:`qpoch_infinite`, evaluates every ``(a;q)_inf``;
  a product quotient passes all its bases in one call (:func:`qpoch_groups`,
  :func:`qpoch_quotient`), at the depth of the largest ``|a|`` and with a
  certified bound on the omitted log-factors.
* ``theta(u) = (u;q)_inf (q/u;q)_inf`` (multiplicative theta).
* Residuals of identities are always reported relative to the largest
  additive term of the identity ("scale"), never to the near-zero result:
  :func:`residual_and_scale` is that rule.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import DomainError, PoleProximity, QTaylorError, TruncationFailure


@dataclass(frozen=True)
class QContext:
    """Evaluation context: base, tolerance policy, depth cap.

    Parameters
    ----------
    q:
        The base, required to satisfy 0 < |q| < 1.
    eps_rel:
        Relative agreement tolerance used by consistency checks and as the
        stabilisation threshold of adaptive quadrature.  It does not set
        any truncation depth.
    max_terms:
        Optional user cap (None: no cap).  A depth derived by
        :func:`geometric_depth` beyond it raises TruncationFailure.
    pole_margin:
        Minimum admissible distance of any denominator factor from zero
        (the "delta" of the admissibility checks).
    """

    q: complex
    eps_rel: float = 1e-10
    max_terms: int | None = None
    pole_margin: float = 1e-6
    root_sign: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", complex(self.q))
        if not 0.0 < abs(self.q) < 1.0:
            raise DomainError(f"base must satisfy 0 < |q| < 1, got q={self.q}")
        if not 0.0 < self.eps_rel < math.inf:
            raise DomainError("eps_rel must be positive and finite")
        if self.max_terms is not None and self.max_terms < 16:
            raise DomainError("max_terms must be at least 16")
        if self.pole_margin <= 0.0:
            raise DomainError("pole_margin must be positive")
        if self.root_sign not in (1, -1):
            raise DomainError("root_sign selects a branch: +1 or -1")

    @property
    def sqrt_q(self) -> complex:
        """The selected branch of q^(1/2); principal (positive for real q) by default."""
        return self.root_sign * cmath.sqrt(self.q)

    def squared(self) -> "QContext":
        """Context with base q^2 (used by base-q^2 product evaluations)."""
        return replace(self, q=self.q * self.q)

    def other_branch(self) -> "QContext":
        """The same context with the opposite square-root branch."""
        return replace(self, root_sign=-self.root_sign)


TAIL_TARGET = 2.0 ** -55


def geometric_depth(rate: float, lead: float = 1.0, cap: int | None = None) -> int:
    """Smallest N >= 0 with lead * rate^N / (1 - rate) < TAIL_TARGET.

    That bounds a tail whose first term is at most lead * rate^N and whose
    terms shrink at least by the factor rate.  Raises TruncationFailure
    when rate is not in [0, 1) or lead is not finite, or when N > cap.
    """
    if not (0.0 <= rate < 1.0 and lead < math.inf):
        raise TruncationFailure(
            f"no geometric tail bound for rate {rate:.6g}, lead {lead:.3g}")
    target = TAIL_TARGET * (1.0 - rate)
    if lead < target:
        return 0
    if rate == 0.0:
        return 1
    n = math.floor(math.log(target / lead) / math.log(rate)) + 1
    # the logarithms may round across an integer: settle N exactly
    if lead * rate ** n >= target:
        n += 1
    elif lead * rate ** (n - 1) < target:
        n -= 1
    if cap is not None and n > cap:
        raise TruncationFailure(
            f"a tail of rate {rate:.3g} needs {n} terms, more than max_terms={cap}")
    return n


def fit_window(rate: float) -> list[int]:
    """Nine consecutive orders over which a decay like rate^n is fitted.

    The window starts at the first n with rate^n < 1e-2, where the decay
    has left its transient, but no later than order 12: the coefficients
    of the operator pipeline reach their rounding floor past order ~20.
    """
    start = min(max(1, math.floor(math.log(1e-2) / math.log(rate)) + 1), 12)
    return list(range(start, start + 9))


@dataclass(frozen=True)
class TailBound:
    """A truncated value together with a certificate for the omitted tail.

    ``tail_abs`` bounds the effect of the omitted factors/terms: for
    products it is the geometric bound
    ``sum_{j>=N} |a||q|^j / (1 - |a||q|^j)`` on the modulus of the
    omitted log-factors, for series an estimate of the omitted sum.
    """

    value: complex
    tail_abs: float
    terms_used: int


def qpoch_finite(a: complex, n: int, ctx: QContext) -> complex:
    """Finite q-shifted factorial (a;q)_n, exact product; (a;q)_0 = 1."""
    if n < 0:
        raise DomainError("qpoch_finite requires n >= 0")
    q = ctx.q
    value = 1.0 + 0.0j
    x = complex(a)
    for _ in range(n):
        value *= 1.0 - x
        x *= q
    return value


def q_powers(x0: complex, n: int, ctx: QContext) -> np.ndarray:
    """x0 q^j for j = 0..n as one running product: the loop ``x *= q``, bit for bit."""
    xs = np.full(n + 1, ctx.q)
    xs[0] = x0
    return np.multiply.accumulate(xs, out=xs)


def qpoch_infinite(a, ctx: QContext) -> TailBound:
    """Truncated infinite products (a;q)_inf with a certified tail bound.

    a is a scalar, a sequence or an ndarray of bases, and the value has its
    shape (a complex for a scalar).  Every base runs at the depth of the
    largest, N = geometric_depth(|q|, max|a|): with r = max|a q^N|, the
    omitted log-factors of each sum to at most r / ((1 - |q|)(1 - r)) <
    TAIL_TARGET (to first order), the certificate returned as tail_abs.
    One array kernel serves all bases: the block [a; q; ...; q] of N + 1
    rows, multiplied cumulatively down the rows, holds a q^j, and the value
    is the product of 1 - a q^j over its first N rows, in chunks of at most
    2^14 entries.  A scalar gives the loop ``value *= 1 - x; x *= q`` bit
    for bit.  terms_used counts the factors of every base.  Raises
    TruncationFailure when the depth exceeds the user cap ctx.max_terms.
    """
    q = ctx.q
    x = np.asarray(a, dtype=complex)
    flat = x.ravel()
    # Python's abs, as in the scalar loop (NumPy's may differ in the last bit)
    n = geometric_depth(abs(q), max(map(abs, flat.tolist()), default=0.0), ctx.max_terms)
    value = np.empty_like(flat)
    last = np.empty_like(flat)
    width = max(1, 2 ** 14 // (n + 1))
    for lo in range(0, flat.size, width):
        block = np.empty((n + 1, min(width, flat.size - lo)), dtype=complex)
        block[0] = flat[lo:lo + width]
        block[1:] = q
        np.multiply.accumulate(block, axis=0, out=block)
        last[lo:lo + width] = block[n]
        value[lo:lo + width] = np.prod(np.subtract(1.0, block[:n], out=block[:n]), axis=0)
    r = max(map(abs, last.tolist()), default=0.0)  # < TAIL_TARGET (1 - |q|)
    tail = r / ((1.0 - abs(q)) * (1.0 - r))
    return TailBound(complex(value[0]) if x.ndim == 0 else value.reshape(x.shape),
                     tail, n * flat.size)


def qpoch_groups(groups: Sequence[Sequence], ctx: QContext) -> list:
    """The product of (a;q)_inf over each group of bases, from one qpoch_infinite call.

    Bases are scalars or ndarrays that broadcast to one shape, each entering
    the call once; the products have that shape.  An empty group gives 1.
    """
    bases = [a for group in groups for a in group]
    if any(isinstance(a, np.ndarray) for a in bases):
        bases = [np.asarray(a, dtype=complex) for a in bases]
        values = qpoch_infinite(np.concatenate([a.ravel() for a in bases]), ctx).value
        rows, lo = [], 0
        for a in bases:
            rows.append(values[lo:lo + a.size].reshape(a.shape))
            lo += a.size
    else:
        rows = qpoch_infinite(bases, ctx).value.tolist()
    rows = iter(rows)
    return [math.prod(islice(rows, len(group))) for group in groups]


def qpoch_quotient(num: Sequence, den: Sequence, ctx: QContext, what: str,
                   error: type[QTaylorError] = PoleProximity):
    """prod (a;q)_inf over num / prod (b;q)_inf over den, from one qpoch_infinite call.

    Raises error(what) when the denominator vanishes at any point.
    """
    top, bottom = qpoch_groups([num, den], ctx)
    if np.any(bottom == 0):
        raise error(what)
    return top / bottom


def qpoch_multi(params: Sequence[complex], n: int | None, ctx: QContext) -> TailBound:
    """Product of q-shifted factorials over a parameter list.

    ``n=None`` means the infinite product, all factors from one
    qpoch_infinite call; the tail certificate of the largest factor bounds
    each one, and the bounds add in the log domain.  The empty list gives 1.
    """
    if n is None:
        tb = qpoch_infinite(params, ctx)
        value = math.prod(tb.value.tolist(), start=1.0 + 0.0j)
        return TailBound(value, tb.tail_abs * len(params), tb.terms_used)
    value = 1.0 + 0.0j
    for a in params:
        value *= qpoch_finite(a, n, ctx)
    return TailBound(value, 0.0, n * len(params))


def theta_bases(ctx: QContext, *us) -> list:
    """The bases u, q/u of theta(u) for each u: a theta product as one qpoch_groups group."""
    return [w for u in us for w in (u, ctx.q / u)]


def theta(u, ctx: QContext):
    """Multiplicative theta: theta(u) = (u;q)_inf (q/u;q)_inf.

    Satisfies theta(u) = theta(q/u) and vanishes at u = q^m, m in Z.
    An ndarray of u gives the array of values.
    """
    if np.any(u == 0):
        raise DomainError("theta requires u != 0")
    return qpoch_groups([theta_bases(ctx, u)], ctx)[0]


def weierstrass_terms(x, y, u, v, ctx: QContext) -> tuple:
    """The three additive terms of the theta addition formula.

    Returns (t1, t2, t3) with t1 - t2 - t3 = 0 as an identity:
    t1 = theta(xy, x/y, uv, u/v), t2 = theta(xv, x/v, uy, u/y),
    t3 = (u/y) theta(yv, y/v, xu, x/u), all from one qpoch_infinite call.
    Arrays of points give arrays of terms.
    """
    for name, w in (("x", x), ("y", y), ("u", u), ("v", v)):
        if np.any(w == 0):
            raise DomainError(f"weierstrass residual requires {name} != 0")
    t1, t2, t3 = qpoch_groups([theta_bases(ctx, x * y, x / y, u * v, u / v),
                               theta_bases(ctx, x * v, x / v, u * y, u / y),
                               theta_bases(ctx, y * v, y / v, x * u, x / u)], ctx)
    return t1, t2, (u / y) * t3


def residual_and_scale(*terms):
    """(|t_0 - t_1 - ...| / scale, scale) with scale = max |t_i|; 0.0 if every t_i is 0.

    The terms are subtracted in order, so the residual is bit-equal to the inline
    ``abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3))``.  Arrays give both at every point.
    """
    scale = reduce(np.maximum, map(abs, terms))
    diff = abs(reduce(operator.sub, terms))
    if np.ndim(scale):
        return np.divide(diff, scale, out=np.zeros_like(scale), where=scale > 0), scale
    return (diff / scale if scale else 0.0), scale


def scaled_residual(*terms):
    """The residual of :func:`residual_and_scale` alone."""
    return residual_and_scale(*terms)[0]


def factor_clearance(u: complex, ctx: QContext) -> float:
    """Minimum of |1 - u q^j| over j >= 0, scanned while a factor can be small.

    Once |u q^j| < 1 - pole_margin every remaining factor is safely away
    from zero, so the scan terminates after O(log |u|) steps.
    """
    if not cmath.isfinite(u):
        raise DomainError(f"factor clearance of a non-finite base {u}")
    q = ctx.q
    limit = 1.0 - ctx.pole_margin
    best = math.inf
    x = complex(u)
    while abs(x) >= limit:
        best = min(best, abs(1.0 - x))
        x *= q
    return best

