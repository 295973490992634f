"""Divided-difference operators on symmetric functions.

Implements the Askey-Wilson operator D_q, its well-poised extension
D_{c,q}, the iterated operator with the per-step shift c -> c q^{3(j-1)/2},
and the closed-form expression of the k-fold operator as a finite weighted
sum of grid evaluations ("cooper_eval").  The closed form and the literal
recursion are two independent computation paths; their agreement is the
check operator/closed-form-vs-recursion.  Coefficient extraction in taylor
applies the same closed form as weight rows (grid_functional_weights).

The square root of q is always the principal branch (ctx.sqrt_q); the
operators are branch-independent on symmetric functions and the tests
confirm this by negating the root.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from .errors import DomainError, ExceptionalPoint, NearSingularPoint
from .qcore import QContext, qpoch_finite


@dataclass
class SymmetricFunction:
    """An evaluation contract z -> f(z) with declared symmetry f(z) = f(1/z).

    Admissibility checks happen at the evaluation sites that need them.
    """

    fn: Callable[[complex], complex]
    name: str = ""
    symmetric: bool = True

    def __call__(self, z: complex) -> complex:
        return self.fn(z)


@dataclass(frozen=True)
class OperatorChainSpec:
    """Iteration plan: depth k with per-step parameters c q^{3(j-1)/2}, j = 1..k."""

    c: complex
    depth: int

    def __post_init__(self) -> None:
        if self.depth < 0:
            raise DomainError("iteration depth must be nonnegative")
        object.__setattr__(self, "c", complex(self.c))

    def step_values(self, ctx: QContext) -> tuple[complex, ...]:
        rq = ctx.sqrt_q
        return tuple(self.c * rq ** (3 * (j - 1)) for j in range(1, self.depth + 1))


def _check_point(z: complex, ctx: QContext) -> complex:
    w = z - 1.0 / z
    if abs(w) <= ctx.pole_margin * max(1.0, abs(z)):
        raise NearSingularPoint(f"z = {z} too close to a fixed point of z -> 1/z")
    return w


def apply_Dq(f, z: complex, ctx: QContext, *, root: complex | None = None) -> complex:
    """Askey-Wilson divided difference at z.

    [f(q^{1/2} z) - f(q^{-1/2} z)] / [(q^{1/2} - q^{-1/2}) (z - 1/z) / 2].
    `root` overrides the branch of q^{1/2} (branch-invariance testing only).
    """
    rq = ctx.sqrt_q if root is None else complex(root)
    w = _check_point(z, ctx)
    return (f(rq * z) - f(z / rq)) / ((rq - 1.0 / rq) * w / 2.0)


def _dcq_prefactor(z: complex, c: complex, rq: complex) -> complex:
    return ((1.0 - c * z / rq) * (1.0 - c * z * rq)
            * (1.0 - c / (z * rq)) * (1.0 - c * rq / z))


def apply_Dcq(f, z: complex, c: complex, ctx: QContext, *,
              root: complex | None = None) -> complex:
    """Well-poised operator: four linear prefactors times apply_Dq(f, z).

    Reduces to apply_Dq when c = 0.
    """
    rq = ctx.sqrt_q if root is None else complex(root)
    return _dcq_prefactor(z, c, rq) * apply_Dq(f, z, ctx, root=rq)


def apply_iterated(f, z: complex, chain: OperatorChainSpec, ctx: QContext) -> complex:
    """k-fold operator by literal recursion, memoised on the q^{1/2}-grid.

    Level j >= 1 applies the operator with parameter c q^{3(j-1)/2} to the
    level j-1 function.  Memoisation keys are (level, half-step index), so
    the naive 2^k leaf count collapses to O(k^2) evaluations of f.
    """
    rq = ctx.sqrt_q
    steps = chain.step_values(ctx)
    memo: dict[tuple[int, int], complex] = {}

    def level(j: int, m: int) -> complex:
        key = (j, m)
        if key in memo:
            return memo[key]
        point = z * rq ** m
        if j == 0:
            val = f(point)
        else:
            w = _check_point(point, ctx)
            upper = level(j - 1, m + 1)
            lower = level(j - 1, m - 1)
            val = (_dcq_prefactor(point, steps[j - 1], rq)
                   * (upper - lower) / ((rq - 1.0 / rq) * w / 2.0))
        memo[key] = val
        return val

    return level(chain.depth, 0)


def _guarded_qpoch(a: complex, n: int, ctx: QContext) -> complex:
    """(a;q)_n with an ExceptionalPoint on any factor within the pole margin."""
    q = ctx.q
    value = 1.0 + 0.0j
    x = complex(a)
    for _ in range(n):
        fac = 1.0 - x
        if abs(fac) <= ctx.pole_margin * max(1.0, abs(x)):
            raise ExceptionalPoint(f"cardinal denominator factor 1-({x}) within margin")
        value *= fac
        x *= q
    return value


def _cooper_weights(z: complex, c: complex, m: int, ctx: QContext) -> list[complex]:
    """Weights u_r with D^{(m)} f(z) = sum_r u_r f(q^{m/2-r} z), r = 0..m.

    The monomial z^{2(r-m)} of the cardinal factor is folded into its
    reciprocal-square denominator, z^{2(r-m)} / (q^{2r-m+1} z^{-2};q)_{m-r}
    = 1 / prod_j (z^2 - q^{2r-m+1+j}), so grid points deep on the q-grid
    do not overflow intermediate powers.
    """
    q, rq = ctx.q, ctx.sqrt_q
    pref = ((-2.0 * z) ** m * rq ** (m * (3 - m) // 2) / (1.0 - q) ** m
            * qpoch_finite(c * rq ** (m - 2) * z, m + 1, ctx)
            * qpoch_finite(c * rq ** (m - 2) / z, m + 1, ctx))
    weights: list[complex] = []
    z2 = z * z
    for r in range(m + 1):
        d1 = _guarded_qpoch(q ** (m - 2 * r + 1) * z2, r, ctx)
        d2 = 1.0 + 0.0j
        for j in range(m - r):
            s = q ** (2 * r - m + 1 + j)
            fac = z2 - s
            if abs(fac) <= ctx.pole_margin * max(abs(z2), abs(s)):
                raise ExceptionalPoint(
                    f"cardinal denominator z^2 - q^{2 * r - m + 1 + j} within margin")
            d2 *= fac
        num = (qpoch_finite(c * rq ** (m - 2 * r) * z, m - 1, ctx)
               * qpoch_finite(c * rq ** (2 * r - m) / z, m - 1, ctx))
        cmr = num / (d1 * d2)
        binom = qpoch_finite(q ** (r + 1), m - r, ctx) / qpoch_finite(q, m - r, ctx)
        weights.append(pref * q ** (r * (m - r)) * binom * cmr)
    return weights


def cooper_eval(f, z: complex, c: complex, m: int, ctx: QContext) -> complex:
    """Closed-form k-fold operator: finite weighted sum over the symmetric grid.

    Rejects z whose cardinal denominators (q^{m-2r+1} z^2;q)_r or
    (q^{2r-m+1} z^{-2};q)_{m-r} come within the pole margin of zero
    (ExceptionalPoint); such z are meant to be resampled by the caller.
    """
    if m < 0:
        raise DomainError("operator order must be nonnegative")
    if m == 0:
        return f(z)
    rq = ctx.sqrt_q
    weights = _cooper_weights(z, c, m, ctx)
    total = 0.0 + 0.0j
    for r, u in enumerate(weights):
        total += u * f(rq ** (m - 2 * r) * z)
    return total


def grid_functional_weights(a: complex, c: complex, j: int, ctx: QContext) -> list[complex]:
    """Weights w_0..w_j of the grid functional L_j(h) = sum_i w_i h(a q^i).

    L_j is the j-fold operator evaluated at z = a q^{j/2}; w_i multiplies
    the node a q^i.  For j = 0 the single weight is 1.
    """
    if j < 0:
        raise DomainError("functional order must be nonnegative")
    if j == 0:
        return [1.0 + 0.0j]
    z = a * ctx.sqrt_q ** j
    u = _cooper_weights(z, c, j, ctx)
    # node q^{j/2 - r} z = a q^{j - r}: weight index i = j - r
    return [u[j - i] for i in range(j + 1)]
