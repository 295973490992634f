"""Divided-difference operators on symmetric functions.

Implements the Askey-Wilson operator D_q, its well-poised extension
D_{c,q}, the iterated operator with the per-step shift c -> c q^{3(j-1)/2},
and the closed-form expression of the k-fold operator as a finite weighted
sum of grid evaluations ("cooper_eval").  The closed form and the literal
recursion are two independent computation paths; their agreement is the
check operator/closed-form-vs-recursion.  One builder, cooper_rows, gives the
weights of one order at one point (cooper_eval, grid_functional_weights).  Taken at
z = a q^(k/2) and times the prefactor of t_k, they are the ratio of q-shifted factorials
that taylor.coefficient_rows reads (derived in its docstring); the tests compare the two.
Every operator samples f once, on the ndarray of its nodes (qcore.sample), and takes
an ndarray z with a c (and an order) per draw, f taking the draws on the last
axis; the closed form and the recursion keep each draw's weights and
recursion in scalar Python, so each value is its scalar call's, bit for bit.

The square root of q is always the principal branch (ctx.sqrt_q); the
operators are branch-independent on symmetric functions and the tests
confirm this by negating the root.
"""

from __future__ import annotations

import math
import operator
from itertools import accumulate

import numpy as np

from .errors import DomainError, ExceptionalPoint, NearSingularPoint
from .qcore import QContext, draw_lists, sample, sample_columns


def _check_point(z, ctx: QContext):
    """z - 1/z once no point is within the pole margin of a fixed point of z -> 1/z (a
    number in Python arithmetic: the recursion checks one node at a time)."""
    w = z - 1.0 / z
    if isinstance(z, np.ndarray):
        near = abs(w) <= ctx.pole_margin * np.maximum(1.0, abs(z))
        if near.any():
            raise NearSingularPoint(f"z = {z[near][0]} too close to a fixed point of z -> 1/z")
    elif abs(w) <= ctx.pole_margin * max(1.0, abs(z)):
        raise NearSingularPoint(f"z = {z} too close to a fixed point of z -> 1/z")
    return w


def apply_Dq(f, z, ctx: QContext, *, root: complex | None = None):
    """Askey-Wilson divided difference at z (or at each point of an ndarray z).

    [f(q^{1/2} z) - f(q^{-1/2} z)] / [(q^{1/2} - q^{-1/2}) (z - 1/z) / 2].
    `root` overrides the branch of q^{1/2} (branch-invariance testing only).
    """
    rq = ctx.sqrt_q if root is None else complex(root)
    w = _check_point(z, ctx)
    upper, lower = sample(f, [rq * z, z / rq])
    return (upper - lower) / ((rq - 1.0 / rq) * w / 2.0)


def _dcq_prefactor(z: complex, c: complex, rq: complex) -> complex:
    return ((1.0 - c * z / rq) * (1.0 - c * z * rq)
            * (1.0 - c / (z * rq)) * (1.0 - c * rq / z))


def apply_Dcq(f, z, c, ctx: QContext):
    """Well-poised operator: four linear prefactors times apply_Dq(f, z).

    Reduces to apply_Dq when c = 0.  An ndarray z may carry a c per point.
    """
    return _dcq_prefactor(z, c, ctx.sqrt_q) * apply_Dq(f, z, ctx)


def apply_iterated(f, z, c, k, ctx: QContext):
    """k-fold operator by literal recursion, memoised on the q^{1/2}-grid.

    Level j >= 1 applies the operator with parameter c q^{3(j-1)/2} to the
    level j-1 function.  Memoisation keys are (level, half-step index), so
    the naive 2^k leaf count collapses to O(k^2) nodes; f is sampled once, on
    the ndarray of the k + 1 level-0 nodes of every draw.
    """
    rq = ctx.sqrt_q
    draws = draw_lists(z, np.asarray(c, dtype=complex), k)
    if min(draws[2]) < 0:
        raise DomainError("iteration depth must be nonnegative")
    grids = [range(-depth, depth + 1, 2) for depth in draws[2]]  # the half-steps of level 0
    level0 = sample_columns(f, [[w * rq ** m for m in grid] for w, grid in zip(draws[0], grids)])
    values = [_recursion(w, [step * rq ** (3 * j) for j in range(depth)],
                         dict(zip(((0, m) for m in grid), vals)), ctx)
              for w, step, depth, grid, vals in zip(*draws, grids, level0)]
    return np.array(values) if np.ndim(z) else values[0]


def _recursion(z: complex, steps: list, memo: dict, ctx: QContext) -> complex:
    """Level len(steps) at z, memo holding the level-0 values."""
    rq = ctx.sqrt_q

    def level(j: int, m: int) -> complex:
        key = (j, m)
        if key in memo:
            return memo[key]
        point = z * rq ** m
        w = _check_point(point, ctx)
        upper = level(j - 1, m + 1)
        lower = level(j - 1, m - 1)
        val = (_dcq_prefactor(point, steps[j - 1], rq)
               * (upper - lower) / ((rq - 1.0 / rq) * w / 2.0))
        memo[key] = val
        return val

    return level(len(steps), 0)


def cooper_rows(c: complex, z: complex, m: int, ctx: QContext) -> list[complex]:
    """Weights u_0..u_m with D^{(m)} f(z) = sum_r u_r f(q^{m/2-r} z).

    Each cardinal factor is formed once; a weight is a product over slices
    of the factor lists, never a division by a numerator factor.
    The denominators of u_r are 1 - q^s z^2, s = m-2r+1..m-r, and, with
    z^{2(r-m)} folded in so that deep grid points do not overflow,
    z^2 - q^s, s = 2r-m+1..r; its numerator takes 1 - c z q^{e/2} from
    e = m-2r and 1 - c q^{e/2} / z from e = 2r-m (m-1 factors each, e in
    steps of 2), the prefactor both from e = m-2 (m+1 each).  The
    q-binomials come from one (q;q)_j table.  ExceptionalPoint: a cardinal
    denominator factor within the pole margin of zero.
    """
    if m <= 0:
        if m < 0:
            raise DomainError("operator order must be nonnegative")
        return [1.0 + 0.0j]
    q, rq, margin = ctx.q, ctx.sqrt_q, ctx.pole_margin
    z2, qm = z * z, [q ** s for s in range(1 - m, m)]
    qq = list(accumulate([1.0 - q ** s for s in range(1, m + 1)], operator.mul, initial=1.0 + 0.0j))
    d1 = [1.0 - x * z2 for x in qm]
    d2 = [z2 - x for x in qm]
    # z^2 - q^s = -q^s (1 - q^-s z^2): the factors 1 - q^s z^2 guard both kinds.
    # |q^s| peaks at qm[0] = q^(1-m): below that bound no factor is within its margin
    if min(map(abs, d1)) <= margin * max(1.0, abs(qm[0] * z2)):
        for x in qm:
            if abs(1.0 - x * z2) <= margin * max(1.0, abs(x * z2)):
                raise ExceptionalPoint(f"cardinal denominator factor 1-({x * z2}) within margin")
    cz, cw, hm = c * z, c / z, [rq ** e for e in range(-m, 3 * m - 1, 2)]
    n1 = [1.0 - cz * h for h in hm]
    n2 = [1.0 - cw * h for h in hm]
    pref = ((-2.0 * z) ** m * rq ** (m * (3 - m) // 2) / (1.0 - q) ** m
            * math.prod(n1[m - 1:]) * math.prod(n2[m - 1:]))
    return [pref * q ** (r * (m - r)) * (qq[m] / (qq[r] * qq[m - r]))
            * (math.prod(n1[m - r:2 * m - r - 1]) * math.prod(n2[r:r + m - 1])
               / (math.prod(d1[2 * m - 2 * r:2 * m - r]) * math.prod(d2[2 * r:r + m])))
            for r in range(m + 1)]


def cooper_eval(f, z, c, m, ctx: QContext):
    """Closed-form k-fold operator: finite weighted sum over the symmetric grid.

    Rejects z whose cardinal denominators (q^{m-2r+1} z^2;q)_r or
    (q^{2r-m+1} z^{-2};q)_{m-r} come within the pole margin of zero
    (ExceptionalPoint); such z are meant to be resampled by the caller.
    Each draw has its own row; f is sampled once on every draw's nodes.
    """
    rq = ctx.sqrt_q
    draws = draw_lists(z, c, m)
    rows = [cooper_rows(cc, w, k, ctx) for w, cc, k in zip(*draws)]
    values = sample_columns(f, [[rq ** (k - 2 * r) * w for r in range(k + 1)]
                                for w, k in zip(draws[0], draws[2])])
    out = [sum(u * v for u, v in zip(row, vals)) for row, vals in zip(rows, values)]
    return np.array(out) if np.ndim(z) else out[0]


def grid_functional_weights(a: complex, c: complex, j: int, ctx: QContext) -> list[complex]:
    """Weights w_0..w_j of the grid functional L_j(h) = sum_i w_i h(a q^i).

    L_j is the j-fold operator evaluated at z = a q^{j/2}; w_i multiplies
    the node a q^i (the cooper_rows row reversed).  For j = 0 the single
    weight is 1.
    """
    return cooper_rows(c, a * ctx.sqrt_q ** j, j, ctx)[::-1]
