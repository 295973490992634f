"""Complex arithmetic core: q-shifted factorials, theta products, addition residual.

All evaluations are plain binary64 complex arithmetic threaded through a
:class:`QContext`, which fixes the base q, the truncation policy for
infinite products, and the pole margin used by every admissibility check.

Conventions
-----------
* ``(a;q)_n = prod_{j=0}^{n-1} (1 - a q^j)``, the empty product being 1.
* ``(a;q)_inf`` is truncated at the first ``N >= 16`` with
  ``|a| |q|^N < eps_tail * eps_rel`` and carries a certified geometric
  bound on the omitted log-factors.
* ``theta(u) = (u;q)_inf (q/u;q)_inf`` (multiplicative theta).
* Residuals of identities are always reported relative to the largest
  additive term of the identity ("scale"), never to the near-zero result:
  :func:`scaled_residual` is that rule.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Iterable, Sequence

from .errors import DomainError, TruncationFailure


@dataclass(frozen=True)
class QContext:
    """Evaluation context: base, tolerance policy, truncation policy.

    Parameters
    ----------
    q:
        The base, required to satisfy 0 < |q| < 1.
    eps_rel:
        Relative agreement tolerance used by consistency checks and as the
        stabilisation threshold of adaptive quadrature.
    eps_tail:
        Tail target for truncated infinite products and series.
    max_terms:
        Hard cap on product factors / series terms.
    pole_margin:
        Minimum admissible distance of any denominator factor from zero
        (the "delta" of the admissibility checks).
    """

    q: complex
    eps_rel: float = 1e-10
    eps_tail: float = 1e-14
    max_terms: int = 512
    pole_margin: float = 1e-6
    root_sign: int = 1

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", complex(self.q))
        if not 0.0 < abs(self.q) < 1.0:
            raise DomainError(f"base must satisfy 0 < |q| < 1, got q={self.q}")
        if not (0.0 < self.eps_rel < math.inf and 0.0 < self.eps_tail < math.inf):
            raise DomainError("eps_rel and eps_tail must be positive and finite")
        if self.max_terms < 16:
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
        return QContext(self.q * self.q, self.eps_rel, self.eps_tail,
                        self.max_terms, self.pole_margin, self.root_sign)

    def with_tolerances(self, eps_rel: float | None = None,
                        max_terms: int | None = None) -> "QContext":
        return QContext(self.q,
                        self.eps_rel if eps_rel is None else eps_rel,
                        self.eps_tail,
                        self.max_terms if max_terms is None else max_terms,
                        self.pole_margin, self.root_sign)

    def other_branch(self) -> "QContext":
        """The same context with the opposite square-root branch."""
        return QContext(self.q, self.eps_rel, self.eps_tail, self.max_terms,
                        self.pole_margin, -self.root_sign)


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

    def __complex__(self) -> complex:
        return self.value


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

    The truncation index is the first N >= 16 with
    |a| |q|^N < eps_tail * eps_rel.  Raises TruncationFailure when that
    index would exceed ctx.max_terms.
    """
    a = complex(a)
    if a == 0:
        return TailBound(1.0 + 0.0j, 0.0, 0)
    q = ctx.q
    threshold = ctx.eps_tail * ctx.eps_rel
    value = 1.0 + 0.0j
    x = a
    n = 0
    while n < 16 or abs(x) >= threshold:
        if n >= ctx.max_terms:
            raise TruncationFailure(
                f"(a;q)_inf with |a|={abs(a):.3g}, |q|={abs(q):.3g} "
                f"needs more than {ctx.max_terms} factors")
        value *= 1.0 - x
        x *= q
        n += 1
    r = abs(x)  # = |a||q|^n < threshold <= eps_tail*eps_rel << 1
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
    q = ctx.q
    limit = 1.0 - ctx.pole_margin
    best = math.inf
    x = complex(u)
    for _ in range(4 * ctx.max_terms):
        if abs(x) < limit:
            return best
        best = min(best, abs(1.0 - x))
        x *= q
    raise TruncationFailure("factor clearance scan did not terminate")

