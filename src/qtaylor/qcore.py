"""Complex arithmetic core: q-shifted factorials, theta products, addition residual.

All evaluations are plain binary64 complex arithmetic threaded through a
:class:`QContext`, which fixes the base q, the agreement tolerance, an
optional user cap on product and series depths; one constant,
:data:`POLE_MARGIN`, is the margin of every admissibility check.

Conventions
-----------
* ``(a;q)_n = prod_{j=0}^{n-1} (1 - a q^j)``, the empty product being 1.
* Every truncation depth follows one rule, :func:`geometric_depth`: a
  tail dominated by a geometric series ``lead * rate^N / (1 - rate)`` is
  cut off once that bound falls below ``TAIL_TARGET`` = 2^-55, a quarter
  of the binary64 unit roundoff (Gasper & Rahman, *Basic Hypergeometric
  Series*, 2nd ed., 2004, sec. 1.3).  Series apply it to their observed
  term ratio.
* Every ``x q^j`` of a product is one vector multiply by ``q^j`` from the
  context's table of running powers (:meth:`QContext.powers`, :func:`q_powers`).
* One table, :func:`qpoch_table`, holds every ``(a;q)_n`` (:func:`qpoch_finite` reads it).
* One array kernel, :func:`qpoch_infinite`, evaluates every ``(a;q)_inf``;
  the quotients of an identity pass all their bases in one call
  (:func:`qpoch_groups`, :func:`qpoch_quotients`), at the depth of the
  largest ``|a|`` and with a certified bound on the omitted log-factors.
  A base rounds alike wherever it stands in a batch.
* ``theta(u) = (u;q)_inf (q/u;q)_inf`` (multiplicative theta).
* Residuals of identities are always reported relative to the largest
  additive term of the identity ("scale"), never to the near-zero result:
  :func:`residual_and_scale` is that rule.
"""

from __future__ import annotations

import cmath
import math
import operator
import sys
from copy import copy
from dataclasses import dataclass, field, replace
from functools import reduce
from itertools import accumulate, islice
from typing import Sequence

import numpy as np

from .errors import DomainError, PoleProximity, QTaylorError, TruncationFailure


@dataclass(frozen=True)
class QContext:
    """Evaluation context: base, tolerance policy, depth cap.

    Parameters
    ----------
    q:
        The base, required to satisfy 0 < |q| < 1 with |q|^2 a normal double.
    eps_rel:
        Relative agreement tolerance used by consistency checks and as the
        stabilisation threshold of adaptive quadrature.  It does not set
        any truncation depth.
    max_terms:
        Optional user cap (None: no cap).  A depth derived by
        :func:`geometric_depth` beyond it raises TruncationFailure.
    """

    q: complex
    eps_rel: float = 1e-10
    max_terms: int | None = None
    root_sign: int = 1
    _powers: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", complex(self.q))
        if not 0.0 < abs(self.q) < 1.0:
            raise DomainError(f"base must satisfy 0 < |q| < 1, got q={self.q}")
        if abs(self.q) ** 2 < sys.float_info.min:  # base-q^2 products would see q = 0
            raise DomainError(f"base must satisfy |q|^2 >= 2.2e-308, got |q| = {abs(self.q):.4g}")
        if not 0.0 < self.eps_rel < math.inf:
            raise DomainError("eps_rel must be positive and finite")
        if self.max_terms is not None and self.max_terms < 16:
            raise DomainError("max_terms must be at least 16")
        if self.root_sign not in (1, -1):
            raise DomainError("root_sign selects a branch: +1 or -1")

    @property
    def sqrt_q(self) -> complex:
        """The selected branch of q^(1/2); principal (positive for real q) by default."""
        return self.root_sign * cmath.sqrt(self.q)

    def squared(self) -> "QContext":
        """Context with base q^2 (used by base-q^2 product evaluations), a normal double
        (__post_init__), and no power table; no context is squared twice, so the square of
        q^2 goes unchecked."""
        squared = copy(self)
        object.__setattr__(squared, "q", self.q * self.q)
        object.__setattr__(squared, "_powers", None)
        return squared

    def powers(self, n: int) -> np.ndarray:
        """q^j for j = 0..n (read-only), sliced from the context's one table: the running
        product of q from 1, rebuilt at twice its length (at least n + 1) when too short."""
        table = self._powers
        if table is None or len(table) <= n:
            table = np.empty(max(2 * (0 if table is None else len(table)), n + 1), dtype=complex)
            table[0], table[1:] = 1.0, self.q
            np.multiply.accumulate(table, out=table)
            table.flags.writeable = False
            object.__setattr__(self, "_powers", table)
        return table[:n + 1]

    def other_branch(self) -> "QContext":
        """The same context with the opposite square-root branch."""
        return replace(self, root_sign=-self.root_sign)


TAIL_TARGET = 2.0 ** -55
# every pole guard admits a denominator factor 1 - u q^j only when |1 - u q^j| > POLE_MARGIN
POLE_MARGIN = 1e-6


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


def fitted_rate(orders: Sequence[int], values) -> float:
    """The rate r of a decay like r^n fitted to positive values at the orders: exp of
    the least-squares slope of log(values), in closed form over centred sums.

    Raises DomainError, naming the order and the value, at the first value that is
    not positive and finite (its logarithm has no place on the line), and when
    fewer than two distinct orders leave the slope undetermined.
    """
    xs, ys = [], []
    for n, v in zip(orders, values, strict=True):
        v = float(v)
        if not (math.isfinite(v) and v > 0):
            raise DomainError(f"decay value {v!r} at order {n} is not positive and finite")
        xs.append(float(n))
        ys.append(math.log(v))
    if len(set(xs)) < 2:
        raise DomainError(f"a decay rate needs two distinct orders, got {list(orders)}")
    x_mean, y_mean = sum(xs) / len(xs), sum(ys) / len(ys)
    dx = [x - x_mean for x in xs]
    return math.exp(sum(d * (y - y_mean) for d, y in zip(dx, ys)) / sum(d * d for d in dx))


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


def qpoch_finite(a, n, ctx: QContext):
    """Finite q-shifted factorial (a;q)_n, exact product; (a;q)_0 = 1: row n of one
    qpoch_table, a complex for numbers and (a;q)_n at each entry of an ndarray of a, n or
    both (of one shape)."""
    each = isinstance(n, np.ndarray)
    if (n.min(initial=0) if each else n) < 0:
        raise DomainError("qpoch_finite requires n >= 0")
    if each:
        a, n = np.broadcast_arrays(a, n)
        table = qpoch_table(a.ravel(), int(n.max(initial=0)), ctx)
        return table[n.ravel(), np.arange(n.size)].reshape(n.shape)
    if isinstance(a, np.ndarray):
        return qpoch_table(a.ravel(), n, ctx)[n].reshape(a.shape)
    return complex(qpoch_table([a], n, ctx)[n, 0])


def qpoch_table(params: Sequence[complex], n: int, ctx: QContext) -> np.ndarray:
    """(a;q)_j for j = 0..n down the rows, one column per base: the factors 1 - a q^j
    from q_powers, multiplied cumulatively down the rows (a column rounds alike in a
    batch of any width)."""
    if n < 0:
        raise DomainError("qpoch_table requires n >= 0")
    block = q_powers(np.asarray(params, dtype=complex), n, ctx)
    block[1:] = 1.0 - block[:n]
    block[0] = 1.0
    return np.multiply.accumulate(block, axis=0, out=block)


def q_powers(x0, n: int, ctx: QContext) -> np.ndarray:
    """x0 q^j for j = 0..n down the first axis, x0 a number or an ndarray of bases: one
    vector multiply of the context's q^j (ctx.powers) by x0, the power first, so a
    base rounds alike wherever it stands in a batch (Higham, Lemma 3.1: the table's
    q^j carries the same O(j u) error as a running product x *= q)."""
    return np.multiply.outer(ctx.powers(n), x0)


def _abs_max(x: np.ndarray) -> float:
    """max |x| in one vector pass, NaN if any entry is NaN: np.hypot is libm's hypot, as
    Python's complex abs (NumPy's abs may differ in the last bit)."""
    return float(np.maximum.reduce(np.hypot(x.real, x.imag), initial=0.0))


def qpoch_infinite(a, ctx: QContext) -> TailBound:
    """Truncated infinite products (a;q)_inf with a certified tail bound.

    a is a scalar, a sequence or an ndarray of bases, and the value has its
    shape (a complex for a scalar).  Every base runs at the depth of the
    largest, N = geometric_depth(|q|, max|a|): with r = max|a| |q^N|, the
    omitted log-factors of each sum to at most r / ((1 - |q|)(1 - r)) <
    TAIL_TARGET (to first order), the certificate returned as tail_abs.
    One array kernel serves all bases: the value is the product of 1 - a q^j
    over j < N, in blocks of at most 2^14 entries written into one buffer, the
    value row first and the factors 1 - q^j a (ctx.powers) below it, reduced
    down the rows into the value row.  Every base multiplies as NumPy's vector
    loop does, wherever it stands in the batch; a lone base is reduced beside a
    copy of itself, because a one-column reduce takes NumPy's scalar loop.
    terms_used counts the factors of every base.  Raises TruncationFailure
    when a base is not finite or the depth exceeds the user cap ctx.max_terms.
    """
    x = np.asarray(a, dtype=complex)
    flat = x.ravel()
    n = geometric_depth(abs(ctx.q), lead := _abs_max(flat), ctx.max_terms)
    powers = ctx.powers(n)
    bases = flat.repeat(2) if flat.size == 1 else flat
    rows = max(1, min(n, 2 ** 14 // max(bases.size, 1)))  # factor rows per block
    buffer = np.empty((rows + 1, bases.size), dtype=complex)
    value = np.ones(bases.size, dtype=complex)
    for j in range(0, n, rows):
        factors = buffer[1:min(rows, n - j) + 1]
        np.multiply.outer(powers[j:j + len(factors)], bases, out=factors)
        np.subtract(1.0, factors, out=factors)
        buffer[0] = value
        np.multiply.reduce(buffer[:len(factors) + 1], axis=0, out=value)
    r = lead * abs(complex(powers[n]))  # < TAIL_TARGET (1 - |q|)
    tail = r / ((1.0 - abs(ctx.q)) * (1.0 - r))
    return TailBound(complex(value[0]) if x.ndim == 0 else value[:flat.size].reshape(x.shape),
                     tail, n * flat.size)


def qpoch_groups(groups: Sequence[Sequence], ctx: QContext) -> list:
    """The product of (a;q)_inf over each group of bases, from one qpoch_infinite call: bases
    are scalars or ndarrays, the ndarrays flattened first, then each scalar; a product has
    the shape of its bases, and an empty group gives 1."""
    bases = [a for group in groups for a in group]
    arrays = [a for a in bases if isinstance(a, np.ndarray)]
    flat = np.concatenate([a.ravel() for a in arrays] + [np.array(
        [a for a in bases if not isinstance(a, np.ndarray)], dtype=complex)]
                          ) if arrays else np.array(bases, dtype=complex)
    values = qpoch_infinite(flat, ctx).value
    if arrays:  # the ndarrays' values first, then the scalars'
        ends = list(accumulate((a.size for a in arrays), initial=0))
        stacked = iter([values[lo:hi].reshape(a.shape)
                        for a, lo, hi in zip(arrays, ends, ends[1:])])
        single = iter(values[ends[-1]:].tolist())
        rows = iter([next(stacked) if isinstance(a, np.ndarray) else next(single)
                     for a in bases])
    else:
        rows = iter(values.tolist())
    return [math.prod(islice(rows, len(group))) for group in groups]


def qpoch_quotients(quotients: Sequence[tuple], ctx: QContext,
                    error: type[QTaylorError] = PoleProximity) -> list:
    """prod (a;q)_inf over num / prod (b;q)_inf over den for each (num, den, what), all
    from one qpoch_infinite call; raises error(what) when a denominator vanishes anywhere."""
    products = qpoch_groups([group for num, den, _ in quotients for group in (num, den)], ctx)
    for (_, _, what), bottom in zip(quotients, products[1::2]):
        if (bottom == 0).any() if isinstance(bottom, np.ndarray) else bottom == 0:
            raise error(what)
    return [top / bottom for top, bottom in zip(products[0::2], products[1::2])]


def qpoch_quotient(num: Sequence, den: Sequence, ctx: QContext, what: str,
                   error: type[QTaylorError] = PoleProximity):
    """The one quotient prod (a;q)_inf over num / prod (b;q)_inf over den (qpoch_quotients)."""
    return qpoch_quotients([(num, den, what)], ctx, error)[0]


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
    ``abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3))``: arrays give both at every point,
    broadcast to one stack and reduced down it in one call each; numbers are judged in
    Python, the scale NaN if any |t_i| is, as np.maximum gives it.
    """
    if any(isinstance(t, np.ndarray) and t.ndim for t in terms):
        stack = np.array(np.broadcast_arrays(*terms))
        diff, scale = abs(np.subtract.reduce(stack)), np.maximum.reduce(abs(stack))
        return np.divide(diff, scale, out=np.zeros_like(scale), where=scale > 0), scale
    sizes = list(map(abs, terms))
    scale = math.nan if any(size != size for size in sizes) else max(sizes)
    diff = abs(reduce(operator.sub, terms))
    return (diff / scale if scale else 0.0), scale


def scaled_residual(*terms):
    """The residual of :func:`residual_and_scale` alone."""
    return residual_and_scale(*terms)[0]


def sample(f, nodes) -> list:
    """f at the nodes, from one call of f on their ndarray (a constant f serves every node);
    nodes that are ndarrays of points give the ndarray of f, a row each."""
    values = f(np.array(nodes))
    if not isinstance(values, np.ndarray):
        return [values] * len(nodes)
    return values.tolist() if values.ndim == 1 else values


def draw_lists(*values) -> list[list]:
    """Each value as the list of its draws (Python numbers); a number serves every draw."""
    lists = [np.ravel(x).tolist() for x in values]
    size = max(map(len, lists))
    return [v * size if len(v) == 1 else v for v in lists]


def sample_columns(f, columns: Sequence[list]) -> list[list]:
    """f at each column of nodes (one list per draw), from one sample of f on the rows of a
    node of every draw; a short column repeats its last node.  Each column's values."""
    depth = max(map(len, columns))
    values = sample(f, [[col[min(i, len(col) - 1)] for col in columns] for i in range(depth)])
    table = values.T.tolist() if isinstance(values, np.ndarray) else [values] * len(columns)
    return [vals[:len(col)] for vals, col in zip(table, columns)]


def require_clear(ctx: QContext, what: str, *bases,
                  error: type[QTaylorError] = PoleProximity) -> None:
    """error (PoleProximity by default) if a base (any node of an ndarray) has a factor
    1 - u q^j, j >= 0, within POLE_MARGIN of zero: factor by factor, so that no quotient
    of very unequal products passes for a pole.  The nodes are checked in order, each
    scanned only when |u| >= 1 - POLE_MARGIN (a non-finite node raises DomainError)."""
    limit = 1.0 - POLE_MARGIN
    for u in bases:
        if isinstance(u, np.ndarray):
            require_clear(ctx, what, *u.ravel().tolist(), error=error)
        elif not abs(u) < limit and not factor_clearance(u, ctx) > POLE_MARGIN:
            raise error(f"{what}: denominator base {u} within pole margin")


def factor_clearance(u: complex, ctx: QContext) -> float:
    """Minimum of |1 - u q^j| over j >= 0, scanned while a factor can be small.

    Once |u q^j| < 1 - POLE_MARGIN every remaining factor is safely away
    from zero, so the scan terminates after O(log |u|) steps.
    """
    if not cmath.isfinite(u):
        raise DomainError(f"factor clearance of a non-finite base {u}")
    limit, q = 1.0 - POLE_MARGIN, ctx.q
    best = math.inf
    x = complex(u)
    while abs(x) >= limit:
        best = min(best, abs(1.0 - x))
        x *= q
    return best
