"""Rational bases Phi_k, coefficient extraction, Taylor sums and flatness.

An expansion to order n samples f once, on the ndarray of the grid nodes a q^i, i = 0..n
(a sampled f checks every node), and reads each t_k as one multiply-and-sum of its weight
row with those values.  At z = a q^(k/2) the Cooper weights of the k-fold operator times
the prefactor of t_k (Ismail & Stanton, J. Approx. Theory 123 (2003)) collapse into

    R[k, i] = q^(k-i) (c/a)^i (aq/c;q)_i (c/(aq);q)_(k-i) (1 - acq^(2k-1)) (acq^i;q)_(k-1)
              / [(q;q)_i (q;q)_(k-i) (a^2q^i;q)_(k+1) / (1 - a^2q^(2i))],

which coefficient_rows reads from one qpoch_table; the tests hold it against
wpoperator.cooper_rows and the literal recursion.  A batch of draws is a BasisPair of
ndarrays, with the draws on the last axis of the points.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, ExceptionalPoint, PoleProximity, ZeroDenominator
from .qcore import (POLE_MARGIN, QContext, draw_lists, qpoch_finite, qpoch_quotient,
                    qpoch_table, require_clear, sample, sample_columns)


@dataclass(frozen=True)
class BasisPair:
    """A Taylor pair (a, c): grid parameter a, well-poised parameter c.

    The basis Phi_k(z; a, c) = (az, a/z;q)_k / (cz, c/z;q)_k has poles on
    {c q^m, q^m / c : m >= 0}; evaluation points must clear that set by
    POLE_MARGIN.
    """

    a: complex
    c: complex

    def __post_init__(self) -> None:
        for name in "ac":  # a number, or an ndarray over the draws of a batch
            value = getattr(self, name)
            object.__setattr__(self, name, np.asarray(value, dtype=complex)
                               if isinstance(value, np.ndarray) else complex(value))

    @classmethod
    def batch(cls, pairs: Sequence[BasisPair]) -> BasisPair:
        """The pairs as one pair of ndarrays over the draws."""
        return cls(np.array([p.a for p in pairs]), np.array([p.c for p in pairs]))


def phi_basis(z, pair: BasisPair, k, ctx: QContext):
    """Phi_k(z; a, c) = (az, a/z;q)_k / (cz, c/z;q)_k, Phi_0 = 1; a scalar z as one node.
    k may hold an order per draw (the pole set is checked where k > 0)."""
    a, c, w = pair.a, pair.c, np.atleast_1d(z)
    each = isinstance(k, np.ndarray)
    if (k.min() if each else k) < 0:
        raise DomainError("basis index must be nonnegative")
    if each:  # the pole set depends on c alone: check where k > 0
        live = np.broadcast_to(k, w.shape) > 0
        _require_admissible(w[live], np.broadcast_to(c, w.shape)[live], ctx)
    elif k > 0:
        _require_admissible(w, c, ctx)
    az, aw, cz, cw = qpoch_finite(np.array([a * w, a / w, c * w, c / w]), k, ctx)
    phi = az * aw / (cz * cw)
    return phi if np.ndim(z) else complex(phi[0])


def _require_admissible(w: np.ndarray, c, ctx: QContext) -> None:
    """PoleProximity at a node of w near the basis pole set of c (one c, or one per node)."""
    if not w.all():
        raise PoleProximity("z = 0 is never admissible")
    require_clear(ctx, "z near the basis pole set", c * w, c / w)


def phi_function(pair: BasisPair, n: int, ctx: QContext) -> Callable:
    """Phi_n(.; a, c) as a function of z."""
    return lambda z: phi_basis(z, pair, n, ctx)


def basis_factors(z, pair: BasisPair, n, ctx: QContext):
    """(1 - a z q^k)(1 - a q^k/z) and (1 - c z q^k)(1 - c q^k/z), k = 0..n-1 on the
    first axis, z (maybe an ndarray of points) on the others; PoleProximity if a
    denominator factor is within POLE_MARGIN at any point.  For a batch (the last
    axis of z and the pair over its draws), n holds each draw's count: past it the
    factors are exactly 0 and 1, and no pole is sought there."""
    a, c, each = pair.a, pair.c, isinstance(n, np.ndarray)
    rows = max(int(n.max()) if each else n, 0)
    x = ctx.powers(rows)[:rows]
    x = x.reshape(x.shape + (1,) * (z.ndim if isinstance(z, np.ndarray) else 0))
    cz, cw = 1.0 - c * z * x, 1.0 - c * x / z
    num, den = (1.0 - a * z * x) * (1.0 - a * x / z), cz * cw
    near = np.minimum(np.abs(cz), np.abs(cw)) <= POLE_MARGIN
    if each:
        past = np.arange(rows).reshape(x.shape) >= n
        num, den, near = np.where(past, 0.0, num), np.where(past, 1.0, den), near & ~past
    if near.any():
        z, c = (np.broadcast_to(x, near.shape)[near][0] for x in (z, c))
        raise PoleProximity(f"z = {z} within margin of the (c = {c}) basis pole set")
    return num, den


def basis_terms(z, pair: BasisPair, coeffs: Sequence, ctx: QContext):
    """The terms [u_k Phi_k(z; a, c)] of a basis series, k = 0..n, Phi_k being one
    running product over the basis_factors ratios: for an ndarray of points an ndarray
    with k along the first axis, for a scalar z the list, computed as at one node.
    For a batch, coeffs holds one sequence per draw, padded with exact zeros to the
    longest."""
    nodes = np.atleast_1d(z)
    if len(coeffs) and not np.isscalar(coeffs[0]):
        sizes = np.array([len(u) for u in coeffs])
        us = np.zeros((sizes.max(), len(coeffs)), dtype=complex)
        for j, u in enumerate(coeffs):
            us[:len(u), j] = u
    else:
        us = np.asarray(coeffs, dtype=complex)
        sizes = us.shape[0]
    num, den = basis_factors(nodes, pair, sizes - 1, ctx)
    phi = np.multiply.accumulate(np.concatenate((np.ones((1,) + den.shape[1:]), num / den)))
    us = us.reshape(us.shape[:1] + (1,) * (nodes.ndim - us.ndim + 1) + us.shape[1:])
    terms = us * phi[:len(us)]
    return terms if isinstance(z, np.ndarray) else terms[:, 0].tolist()


def basis_sum(z: complex, pair: BasisPair, coeffs: Sequence[complex], ctx: QContext) -> complex:
    """sum_k u_k Phi_k(z; a, c) over the given coefficients."""
    return sum(basis_terms(z, pair, coeffs, ctx), 0.0 + 0.0j)


def phi_combination(pair: BasisPair, coeffs: Sequence, ctx: QContext) -> Callable:
    """Finite combination sum_k u_k Phi_k(.; a, c) as a function of z; for a batch, coeffs
    holds one sequence per draw (basis_terms)."""
    us = ([tuple(map(complex, u)) for u in coeffs] if len(coeffs) and not np.isscalar(coeffs[0])
          else tuple(map(complex, coeffs)))
    return lambda z: basis_sum(z, pair, us, ctx)


def lowered_terms(z, a, coeffs: Sequence, ctx: QContext):
    """The terms u_k lambda_k Phi_{k-1}(z; a q^{1/2}, 0), k = 1..n, of the lowering law D_q
    sum_k u_k Phi_k(.; a, 0) with lambda_k = -2a (1 - q^k) / (1 - q); batches as basis_terms."""
    q, us = ctx.q, np.asarray(coeffs, dtype=complex)
    lam = -2.0 * np.multiply.outer(a, 1.0 - q ** np.arange(1, us.shape[-1])) / (1.0 - q)
    return basis_terms(z, BasisPair(a * ctx.sqrt_q, 0.0), us[..., 1:] * lam, ctx)


def coefficient_rows(pair: BasisPair, n: int, ctx: QContext) -> np.ndarray:
    """The prefactored weights of t_0..t_n as one lower-triangular ndarray R (the module
    docstring): t_k(f) = sum_i R[k, i] f(a q^i), R[0, 0] = 1.  R[k, i] is the weight of
    wpoperator.cooper_rows at z = a q^(k/2), node a q^i, times the prefactor (-1)^k
    q^(-k(k-1)/4) (1-q)^k / ((2a)^k (q;q)_k (c/a;q)_k (acq^(k-1);q)_k): up to signs and
    powers of q, its factors 1 - cz q^(e/2) make (acq^i;q)_(k-1) (acq^(k-1);q)_(k+1), its
    1 - (c/z) q^(e/2), reversed (Gasper & Rahman, App. I), (c/a)^i (aq/c;q)_i
    (c/(aq);q)_(k-i) (c/a;q)_k, its cardinal factors (a^2q^i;q)_(k+1) / (1 - a^2q^(2i)),
    and the prefactor's products cancel.  One qpoch_table gives every factor, the cancelled
    one left out; (c/a)^i (aq/c;q)_i is the running product of c/a - q^j, regular at c = 0.

    ZeroDenominator: a factor of (q;q)_k, (c/a;q)_k or (acq^(k-1);q)_k within the pole
    margin at some k <= n (named for the lowest such k).  ExceptionalPoint: a cardinal
    factor 1 - a^2 q^t, t = 1..2n-1, within the margin, tested as cooper_rows tests it.
    """
    a, c = pair.a, pair.c
    x, ac, a2, q = c / a, a * c, a * a, ctx.powers(2 * n + 1)
    near = np.abs(1.0 - np.concatenate((q[1:n + 1], x * q[:n], ac * q[:max(2 * n - 1, 0)])))
    if (hit := np.flatnonzero(near <= POLE_MARGIN)).size:  # the order each factor enters at
        first = np.argmin(np.where(hit < 2 * n, hit % max(n, 1) + 1, (hit - 2 * n) // 2 + 1))
        name = ("(q;q)_k", "(c/a;q)_k", "(acq^(k-1);q)_k")[min(hit[first] // n, 2)]
        raise ZeroDenominator(f"degenerate coefficient prefactor: {name} ~ 0")
    cardinal = a2 * q[1:2 * n]
    near = np.abs(1.0 - cardinal) <= POLE_MARGIN * np.maximum(1.0, np.abs(cardinal))
    if (hit := np.flatnonzero(near)).size:
        raise ExceptionalPoint(
            f"cardinal denominator factor 1-({cardinal[hit[0]]}) within margin")
    table = qpoch_table(np.concatenate(((q[1], x / q[1]), ac * q[:n + 1], a2 * q[:n + 1],
                                        a2 * q[1:2 * n + 2:2])), n, ctx)
    qq, down = table[:, 0], table[:, 1]
    rising, lower, upper = (table[:, 2 + j * (n + 1):2 + (j + 1) * (n + 1)] for j in range(3))
    left = (np.multiply.accumulate(np.concatenate(((1.0,), x - q[1:n + 1])))
            / (qq * lower.diagonal()))
    right = q[:n + 1] * down / qq
    k, i = (index[1:] for index in np.nonzero(np.tri(n + 1, dtype=bool)))
    rows = np.eye(n + 1, dtype=complex)  # R[0, 0] = 1; every other diagonal entry is set
    rows[k, i] = (left[i] * right[k - i] * (1.0 - ac * q[2 * k - 1]) * rising[k - 1, i]
                  / upper[k - i, i])
    return rows


def taylor_expand(f, pair: BasisPair, n, ctx: QContext):
    """The coefficients t_0..t_n of f relative to the pair, from one sample of f on the
    nodes a q^i, i = 0..n.  A batch (n an order per draw, or one) gives each draw's
    coefficients, from one sample on the nodes of every draw and the rows of each."""
    draws = list(zip(*draw_lists(pair.a, pair.c, n)))
    values = sample_columns(f, [[a * ctx.q ** i for i in range(m + 1)] for a, _, m in draws])
    rows = {d: coefficient_rows(BasisPair(*d[:2]), d[2], ctx)
            for d in dict.fromkeys(draws)}  # once per distinct draw
    coeffs = [tuple((rows[d] * vals).sum(axis=1).tolist()) for d, vals in zip(draws, values)]
    return coeffs if isinstance(pair.a, np.ndarray) else coeffs[0]


def taylor_sum_and_remainder(f, pair: BasisPair, n: int, z: complex,
                             ctx: QContext) -> tuple[complex, complex]:
    """(T_n f(z), f(z) - T_n f(z)); the pair sums to f(z) by construction."""
    if n < 0:
        raise DomainError("Taylor order must be nonnegative")
    t = basis_sum(z, pair, taylor_expand(f, pair, n, ctx), ctx)
    return t, f(z) - t


def flatness_check(h, pair: BasisPair, k_max: int, ctx: QContext) -> float:
    """Max over k <= k_max of |t_k(h)| relative to the functional's reach.

    The scale at order k is (sum_i |weight_i|) * max |h| sampled on the
    circle through the outer grid node: what the coefficient functional
    could produce from a function of h's magnitude.  A function vanishing
    on the grid therefore scores at rounding level, while a genuinely
    visible function scores far above it.
    """
    circle = [abs(pair.a) * cmath.exp(2j * math.pi * (j + 0.13) / 8) for j in range(8)]
    h_scale = max(map(abs, sample(h, circle)))
    if h_scale == 0.0:
        return 0.0
    values = sample(h, [pair.a * ctx.q ** i for i in range(k_max + 1)])
    rows = coefficient_rows(pair, k_max, ctx)
    reach = np.abs(rows).sum(axis=1) * h_scale
    return float(np.max(np.abs((rows * values).sum(axis=1)) / reach))


def basis_sup_curve(pair: BasisPair, annulus: tuple[float, float], k_max: int,
                    ctx: QContext) -> list[float]:
    """Per-k sampled sups sup_z |Phi_k(z)| on the annulus (k = 0..k_max).

    The sample is 48 angles on each of 3 geometrically spaced radii.  Evidence
    for uniform boundedness: the sups plateau because the ratio of consecutive
    basis elements tends to 1.
    """
    r_lo, r_hi = annulus
    if not 0.0 < r_lo <= r_hi:
        raise DomainError("annulus radii must satisfy 0 < r_lo <= r_hi")
    for mod in _pole_circles(pair, ctx):
        if r_lo - POLE_MARGIN <= mod <= r_hi + POLE_MARGIN:
            raise PoleProximity(f"annulus [{r_lo}, {r_hi}] touches pole circle |z| = {mod:.4g}")
    radii = [r_lo * (r_hi / r_lo) ** (i / 2) for i in range(3)]
    zs = np.array([r * cmath.exp(2j * math.pi * (j + 0.21) / 48)
                   for r in radii for j in range(48)])
    return np.abs(basis_terms(zs, pair, [1.0] * (k_max + 1), ctx)).max(axis=1).tolist()


def basis_limit_modulus(z: complex, pair: BasisPair, ctx: QContext) -> float:
    """|(az, a/z;q)_inf / (cz, c/z;q)_inf|: the large-k limit of |Phi_k(z)|."""
    return abs(qpoch_quotient([pair.a * z, pair.a / z], [pair.c * z, pair.c / z], ctx,
                              "z lies on the basis pole set"))


def _pole_circles(pair: BasisPair, ctx: QContext) -> list[float]:
    """|c q^m| and 1/|c q^m| for each m < 64 with |c q^m| > 1e-12 (none when c = 0)."""
    mods = [abs(pair.c) * abs(ctx.q) ** m for m in range(64)]
    return [r for mod in mods if mod > 1e-12 for r in (mod, 1.0 / mod)]
