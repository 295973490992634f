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
  Series*, 2nd ed., 2004, sec. 1.3).  ``(a;q)_inf`` takes its depth from
  ``(|a|, |q|)`` and carries a certified bound on the omitted log-factors;
  series apply the rule to their observed term ratio.
* ``theta(u) = (u;q)_inf (q/u;q)_inf`` (multiplicative theta).
* Residuals of identities are always reported relative to the largest
  additive term of the identity ("scale"), never to the near-zero result:
  :func:`scaled_residual` is that rule.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from typing import Iterable, Sequence

from .errors import DomainError, TruncationFailure


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


def qpoch_infinite(a: complex, ctx: QContext) -> TailBound:
    """Truncated infinite product (a;q)_inf with a certified tail bound.

    The depth is geometric_depth(|q|, |a|): the omitted log-factors sum to
    at most |a||q|^N / ((1 - |q|)(1 - |a||q|^N)) < TAIL_TARGET (to first
    order), which is the certificate returned as tail_abs.  Raises
    TruncationFailure when the depth exceeds the user cap ctx.max_terms.
    """
    a = complex(a)
    if a == 0:
        return TailBound(1.0 + 0.0j, 0.0, 0)
    q = ctx.q
    n = geometric_depth(abs(q), abs(a), ctx.max_terms)
    value = 1.0 + 0.0j
    x = a
    for _ in range(n):
        value *= 1.0 - x
        x *= q
    r = abs(x)  # = |a||q|^n < TAIL_TARGET (1 - |q|)
    tail = r / ((1.0 - abs(q)) * (1.0 - r))
    return TailBound(value, tail, n)


def _pinf(a: complex, ctx: QContext) -> complex:
    """The value of (a;q)_inf, without its tail certificate."""
    return qpoch_infinite(a, ctx).value


def qpoch_multi(params: Sequence[complex], n: int | None, ctx: QContext) -> TailBound:
    """Product of q-shifted factorials over a parameter list.

    ``n=None`` means the infinite product; tail bounds of the factors
    accumulate additively in the log domain.  The empty list gives 1.
    """
    value = 1.0 + 0.0j
    tail = 0.0
    terms = 0
    for a in params:
        if n is None:
            tb = qpoch_infinite(a, ctx)
            value *= tb.value
            tail += tb.tail_abs
            terms += tb.terms_used
        else:
            value *= qpoch_finite(a, n, ctx)
            terms += n
    return TailBound(value, tail, terms)


def theta(u: complex, ctx: QContext) -> complex:
    """Multiplicative theta: theta(u) = (u;q)_inf (q/u;q)_inf.

    Satisfies theta(u) = theta(q/u) and vanishes at u = q^m, m in Z.
    """
    u = complex(u)
    if u == 0:
        raise DomainError("theta requires u != 0")
    return qpoch_infinite(u, ctx).value * qpoch_infinite(ctx.q / u, ctx).value


def theta_multi(us: Iterable[complex], ctx: QContext) -> complex:
    """Product of multiplicative thetas over a parameter list."""
    value = 1.0 + 0.0j
    for u in us:
        value *= theta(u, ctx)
    return value


def weierstrass_terms(x: complex, y: complex, u: complex, v: complex,
                      ctx: QContext) -> tuple[complex, complex, complex]:
    """The three additive terms of the theta addition formula.

    Returns (t1, t2, t3) with t1 - t2 - t3 = 0 as an identity:
    t1 = theta(xy, x/y, uv, u/v), t2 = theta(xv, x/v, uy, u/y),
    t3 = (u/y) theta(yv, y/v, xu, x/u).
    """
    for name, w in (("x", x), ("y", y), ("u", u), ("v", v)):
        if w == 0:
            raise DomainError(f"weierstrass residual requires {name} != 0")
    t1 = theta_multi([x * y, x / y, u * v, u / v], ctx)
    t2 = theta_multi([x * v, x / v, u * y, u / y], ctx)
    t3 = (u / y) * theta_multi([y * v, y / v, x * u, x / u], ctx)
    return t1, t2, t3


def scaled_residual(*terms: complex) -> float:
    """|t_0 - t_1 - t_2 - ...| over max |t_i|; 0.0 when every term is 0.

    The terms are subtracted in order, so the result is bit-equal to the
    inline ``abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3))``.
    """
    scale = max(abs(t) for t in terms)
    return abs(reduce(operator.sub, terms)) / scale if scale else 0.0


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

