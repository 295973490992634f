"""Rational bases Phi_k, coefficient extraction, Taylor sums and flatness.

An expansion to order n samples f once, on the ndarray of the grid nodes
a q^i, i = 0..n (a sampled f checks every node), and reads each coefficient
t_k as its prefactored weight row times those values; coefficient_rows
builds the rows 0..n in one pass (the closed-form grid functional of
wpoperator.cooper_rows).  The literal operator recursion stays available
as an independent witness in the tests.  A batch of draws is a BasisPair of
ndarrays, with the draws on the last axis of the points.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, PoleProximity, ZeroDenominator
from .qcore import (QContext, draw_lists, qpoch_finite, qpoch_quotient, qpoch_table,
                    require_clear, sample, sample_columns)
from .wpoperator import cooper_rows


@dataclass(frozen=True)
class BasisPair:
    """A Taylor pair (a, c): grid parameter a, well-poised parameter c.

    The basis Phi_k(z; a, c) = (az, a/z;q)_k / (cz, c/z;q)_k has poles on
    {c q^m, q^m / c : m >= 0}; evaluation points must clear that set by the
    context pole margin.
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

    def check_admissible(self, z, ctx: QContext) -> None:
        """Reject z (any node of an ndarray) within the pole margin of the basis pole set."""
        if np.any(z == 0):
            raise PoleProximity("z = 0 is never admissible")
        if np.any(self.c != 0):
            require_clear(ctx, "z near the basis pole set", self.c * z, self.c / z)


def phi_basis(z, pair: BasisPair, k, ctx: QContext):
    """Phi_k(z; a, c) = (az, a/z;q)_k / (cz, c/z;q)_k, Phi_0 = 1; a scalar z as one node.
    k may hold an order per draw (the pole set is checked where k > 0)."""
    a, c, w = pair.a, pair.c, np.atleast_1d(z)
    if np.min(k) < 0:
        raise DomainError("basis index must be nonnegative")
    if isinstance(k, np.ndarray):  # the pole set depends on c alone: check where k > 0
        live = np.broadcast_to(k, w.shape) > 0
        BasisPair(0.0, np.broadcast_to(c, w.shape)[live]).check_admissible(w[live], ctx)
    elif k > 0:
        pair.check_admissible(w, ctx)
    bases = np.array([a * w, a / w, c * w, c / w])
    az, aw, cz, cw = qpoch_finite(bases, k, ctx)
    phi = az * aw / (cz * cw)
    return phi if np.ndim(z) else complex(phi[0])


def phi_function(pair: BasisPair, n: int, ctx: QContext) -> Callable:
    """Phi_n(.; a, c) as a function of z."""
    return lambda z: phi_basis(z, pair, n, ctx)


def basis_factors(z, pair: BasisPair, n, ctx: QContext):
    """(1 - a z q^k)(1 - a q^k/z) and (1 - c z q^k)(1 - c q^k/z), k = 0..n-1 on the
    first axis, z (maybe an ndarray of points) on the others; PoleProximity if a
    denominator pair is within the pole margin at any point.  For a batch (the last
    axis of z and the pair over its draws), n holds each draw's count: past it the
    factors are exactly 0 and 1, and no pole is sought there."""
    a, c, each = pair.a, pair.c, isinstance(n, np.ndarray)
    rows = max(int(n.max()) if each else n, 0)
    x = ctx.powers(rows)[:rows]
    x = x.reshape(x.shape + (1,) * (z.ndim if isinstance(z, np.ndarray) else 0))
    num, den = (1.0 - a * z * x) * (1.0 - a * x / z), (1.0 - c * z * x) * (1.0 - c * x / z)
    if each:
        past = np.arange(rows).reshape(x.shape) >= n
        num, den = np.where(past, 0.0, num), np.where(past, 1.0, den)
    near = np.abs(den) <= ctx.pole_margin ** 2
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


def basis_sum(z: complex, pair: BasisPair, coeffs: Sequence[complex],
              ctx: QContext) -> complex:
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


def _pole_factor(u: complex, n: int, ctx: QContext) -> int:
    """The first j < n with |1 - u q^j| within the pole margin, else n (a factor of (u;q)_n;
    none is when |u| < 1 - pole_margin, as for factor_clearance)."""
    scan = range(n if abs(u) >= 1.0 - ctx.pole_margin else 0)
    return next((j for j in scan if abs(1.0 - u * ctx.q ** j) <= ctx.pole_margin), n)


def _coeff_prefactors(pair: BasisPair, orders: Sequence[int], ctx: QContext) -> list[complex]:
    """The prefactor of t_k for each k in orders; (q;q)_k, (c/a;q)_k and (acq^(k-1);q)_k for
    every order are read from the columns of one qpoch_table, qpoch_finite bit for
    bit.  The denominators are guarded factor by factor, as KernelParams guards its bases:
    (q;q)_8 ~ 7.8e-7 at q = 0.95 is small but far from any pole."""
    q, rq = ctx.q, ctx.sqrt_q
    a, c = pair.a, pair.c
    shifted = [a * c * q ** (k - 1) for k in orders]
    table = qpoch_table([q, c / a, *shifted], max(orders, default=0), ctx).tolist()
    poles = (_pole_factor(q, len(table) - 1, ctx), _pole_factor(c / a, len(table) - 1, ctx))
    prefs = []
    for column, (k, u) in enumerate(zip(orders, shifted), 2):
        for name, j in zip(("(q;q)_k", "(c/a;q)_k", "(acq^(k-1);q)_k"),
                           poles + (_pole_factor(u, k, ctx),)):
            if j < k:
                raise ZeroDenominator(f"degenerate coefficient prefactor: {name} ~ 0")
        sign = -1.0 if k % 2 else 1.0
        prefs.append(sign * rq ** (-k * (k - 1) // 2) * (1.0 - q) ** k
                     / ((2.0 * a) ** k * table[k][0] * table[k][1] * table[k][column]))
    return prefs


def coefficient_rows(pair: BasisPair, orders: Sequence[int], ctx: QContext) -> list[list[complex]]:
    """Prefactored weights of t_k for each k in orders: t_k(f) = sum_i row_i f(a q^i),
    i = 0..k; the grid functional rows of all orders come from one cooper_rows call."""
    prefs = _coeff_prefactors(pair, orders, ctx)
    rows = cooper_rows(pair.c, [(pair.a * ctx.sqrt_q ** k, k) for k in orders], ctx)
    return [[pref * w for w in reversed(row)] for pref, row in zip(prefs, rows)]


def taylor_expand(f, pair: BasisPair, n, ctx: QContext):
    """The coefficients t_0..t_n of f relative to the pair, from one sample of f on the
    nodes a q^i, i = 0..n.  A batch (n an order per draw, or one) gives each draw's
    coefficients, from one sample on the nodes of every draw and the rows of each."""
    draws = list(zip(*draw_lists(pair.a, pair.c, n)))
    values = sample_columns(f, [[a * ctx.q ** i for i in range(m + 1)] for a, _, m in draws])
    rows = {d: coefficient_rows(BasisPair(*d[:2]), range(d[2] + 1), ctx)
            for d in dict.fromkeys(draws)}  # once per distinct draw
    coeffs = [tuple(sum(map(operator.mul, row, vals)) for row in rows[d])
              for d, vals in zip(draws, values)]
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
    rows = coefficient_rows(pair, range(k_max + 1), ctx)
    return max((abs(sum(w * v for w, v in zip(row, values))) / (sum(map(abs, row)) * h_scale)
                for row in rows), default=0.0)


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
        if r_lo - ctx.pole_margin <= mod <= r_hi + ctx.pole_margin:
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
    mods = []
    if pair.c != 0:
        ac, aq = abs(pair.c), abs(ctx.q)
        m = 0
        while ac * aq ** m > 1e-12 and m < 64:
            mods.append(ac * aq ** m)
            mods.append(1.0 / (ac * aq ** m))
            m += 1
    return mods
