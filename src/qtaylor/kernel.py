"""The two-basis kernel: products, involution, coefficient families, identity terms.

The kernel F(z) factors as F = A*H = B*K where H and K are the two
normalised kernels.  H expands in the rational basis Phi_k(z; b, c) with
coefficients H(b) f_k, K in the transformed basis Psi_k = Phi_k(z; c/de,
c^2/bde) with coefficients K(c/de) g_k, and the two-basis identity states
that F is the sum of the two prefactored series.  Each identity is
returned as its additive terms, for the caller to judge against the
largest; the pole-cleared residual E, its truncations, grid zeros and
Laurent-coefficient cancellations provide the independent routes through
the same identity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from functools import cached_property, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (DomainError, PoleProximity, QuadratureNonConvergence,
                     TruncationFailure, ZeroDenominator)
from .hyper import SeriesSum, VWPSpec, series_sums, sum_through
# qpoch_infinite stays bound here: bench/test_bench.py checks this import site
from .qcore import (TAIL_TARGET, QContext, qpoch_groups, qpoch_infinite,  # noqa: F401
                    qpoch_quotients, qpoch_table, require_clear, residual_and_scale)
from .taylor import BasisPair, basis_factors, basis_sum, basis_terms, taylor_expand
from .wpoperator import apply_Dcq


def sym_bases(z, *alphas) -> list:
    """The bases alpha z, alpha / z of (alpha z, alpha / z;q)_inf for each alpha."""
    return [w for alpha in alphas for w in (alpha * z, alpha / z)]


@dataclass(frozen=True)
class KernelParams:
    """The parameter quadruple (b, c, d, e) with its evaluation context.

    Construction enforces the genericity the closed formulas assume: every
    parameter-level denominator base stays clear of the set {q^-j} by
    POLE_MARGIN, which also keeps the two Taylor grids b q^m and
    (c/de) q^m from colliding.

    H(b), K(c/de) and the coefficient families do not depend on z: each is
    computed once per instance, when first read (Hb and Kcde from one
    qpoch_infinite call, series_depth, family_terms), and an equal quadruple
    built separately computes its own.  KernelParams.batch(draws) holds
    validated quadruples as one: b, c, d, e are the ndarrays of their values
    (the last axis of every result is the draw), H(b) and K(c/de) of all come
    from one qpoch_infinite call and their families from one series run.
    """

    b: complex
    c: complex
    d: complex
    e: complex
    ctx: QContext
    draws: tuple = field(default=(), repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.draws:  # each draw was validated when it was built
            return
        for name in "bcde":
            val = complex(getattr(self, name))
            object.__setattr__(self, name, val)
            if val == 0:
                raise DomainError(f"kernel parameter {name} must be nonzero")
        require_clear(self.ctx, "kernel genericity violated", *self.denominator_bases(),
                      error=ZeroDenominator)

    @classmethod
    def batch(cls, draws: Sequence[KernelParams]) -> KernelParams:
        """The draws (of one context) as one batch."""
        return cls(*(np.array([getattr(kp, p) for kp in draws]) for p in "bcde"),
                   draws[0].ctx, tuple(draws))

    def denominator_bases(self) -> list[complex]:
        """bc, c/b, bc/de, c/bde, bde/c, c^3/bd^2e^2, bc/d, bc/e, bdeq/c, bc/q, c^2/de^2,
        c^2/d^2e, cq/bde and c^3/bd^2e^2q."""
        b, c, d, e = self.b, self.c, self.d, self.e
        q = self.ctx.q
        return [b * c, c / b, b * c / (d * e), c / (b * d * e), b * d * e / c,
                c ** 3 / (b * d ** 2 * e ** 2), b * c / d, b * c / e, b * d * e * q / c,
                b * c / q, c ** 2 / (d * e ** 2), c ** 2 / (d ** 2 * e), c * q / (b * d * e),
                c ** 3 / (b * d ** 2 * e ** 2 * q)]

    @property
    def phi_pair(self) -> BasisPair:
        return BasisPair(self.b, self.c)

    @property
    def psi_pair(self) -> BasisPair:
        return BasisPair(self.c / (self.d * self.e),
                         self.c ** 2 / (self.b * self.d * self.e))

    @cached_property
    def _zeroth(self) -> list[complex]:
        b, c, d, e = self.b, self.c, self.d, self.e
        return qpoch_quotients(
            [([b * c / d, c / (b * d), b * c / e, c / (b * e)],
              [b * c, c / b, b * c / (d * e), c / (b * d * e)], "vanishing denominator in H(b)"),
             ([c * c / (d * d * e), e, c * c / (d * e * e), d],
              [b * c / (d * e), b * d * e / c, c ** 3 / (b * d ** 2 * e ** 2), c / b],
              "vanishing denominator in K(c/de)")], self.ctx, ZeroDenominator)

    Hb = property(lambda self: self._zeroth[0], doc="H(b)")
    Kcde = property(lambda self: self._zeroth[1], doc="K(c/de)")

    @cached_property
    def _sums(self) -> tuple[list, list[SeriesSum], list[int]]:
        """The specs and sums of f (one per draw) then g, through series_depth N of
        each draw, and each draw's N: the families are summed adaptively in one run,
        and the one that stopped earlier is summed afresh to depth N in a second run."""
        draws = self.draws or (self,)
        specs = [f_spec(kp) for kp in draws] + [g_spec(kp) for kp in draws]
        sums = series_sums(specs, None, self.ctx)
        half = len(draws)
        depths = [max(f.terms_used, g.terms_used) - 1 for f, g in zip(sums[:half], sums[half:])]
        sums = sum_through(specs, depths * 2, self.ctx, sums)
        for i, kp in enumerate(self.draws):  # its columns are each draw's own sums, bit for bit
            kp.__dict__.setdefault("_sums", (specs[i::half], sums[i::half], depths[i:i + 1]))
        return specs, sums, depths

    @property
    def series_depth(self):
        """The larger adaptive depth (last index kept) of the f and g families; for a
        batch, the ndarray of each draw's."""
        depths = self._sums[2]
        return np.array(depths) if self.draws else depths[0]

    def family_terms(self, n) -> tuple:
        """(f_0..f_n, g_0..g_n): sliced from the cached sums, summed afresh to n past
        series_depth.  For a batch, n is one depth per draw and each family the list of the
        draws' terms."""
        specs, sums, _ = self._sums
        ns = np.ravel(n).tolist() * 2
        got = [s.terms[:m + 1] for s, m in zip(sum_through(specs, ns, self.ctx, sums), ns)]
        half = len(got) // 2
        return (got[:half], got[half:]) if self.draws else tuple(got)


def involute(kp: KernelParams) -> KernelParams:
    """The parameter involution (b,c,d,e) -> (c/de, c^2/bde, c/be, c/bd).

    Applying it twice returns the original quadruple; it exchanges the two
    bases, the two prefactors and the two normalised kernels.  A batch gives
    the batch of its involuted draws.
    """
    if kp.draws:
        return KernelParams.batch([involute(draw) for draw in kp.draws])
    b, c, d, e = kp.b, kp.c, kp.d, kp.e
    return KernelParams(c / (d * e), c * c / (b * d * e), c / (b * e), c / (b * d), kp.ctx)


@dataclass(frozen=True)
class KernelFactors:
    F: complex
    A: complex
    B: complex
    H: complex
    K: complex


def kernel_quotient(name: str, z, kp: KernelParams, **shifted) -> tuple[list, list, str]:
    """The (num, den, what) bases of the kernel product name (F, A, B, H or K) at z, for
    qpoch_quotients; keyword overrides of b, c, d, e give the shifted kernels."""
    b, c, d, e = (shifted.get(p, getattr(kp, p)) for p in "bcde")
    num, den = {"F": lambda: ((c / d, c / e), (c, c * c / (b * d * e))),
                "A": lambda: ((c / (d * e),), (c * c / (b * d * e),)),
                "B": lambda: ((b,), (c,)), "H": lambda: ((c / d, c / e), (c, c / (d * e))),
                "K": lambda: ((c / d, c / e), (b, c * c / (b * d * e)))}[name]()
    return sym_bases(z, *num), sym_bases(z, *den), f"z on a pole of {name}"


def kernel_products(z, kp: KernelParams, names: str) -> list:
    """The kernel products named by the letters of names at z, from one qpoch_infinite call."""
    return qpoch_quotients([kernel_quotient(name, z, kp) for name in names], kp.ctx)


def kernel_factors(z, kp: KernelParams) -> KernelFactors:
    """All five kernel products at z, with F = A*H = B*K enforced (at every point and
    draw of an ndarray z and a batch)."""
    F, A, B, H, K = kernel_products(z, kp, "FABHK")
    tol = kp.ctx.eps_rel * abs(F)
    if np.any(abs(F - A * H) > 100 * tol) or np.any(abs(F - B * K) > 100 * tol):
        raise PoleProximity(
            "kernel factorisation inconsistent at z (precision lost near a pole)")
    return KernelFactors(F, A, B, H, K)


def _closed_family(x: complex, nums: list, bases: tuple, n: int, ctx: QContext,
                   name: str) -> list[complex]:
    """(1 - x q^{2k}) / (1 - x) (x, nums;q)_k / (q, bases;q)_k q^k, k = 0..n, in closed
    product form: every (u;q)_k from one qpoch_table, the products over the
    parameters and the rest in Python scalar arithmetic, as qpoch_multi does."""
    q = ctx.q
    # guard each factor: the product (q;q)_40 alone is 1.5e-6 at q = 0.9
    require_clear(ctx, f"vanishing denominator in {name}", *bases, error=ZeroDenominator)
    top = 1 + len(nums)
    table = qpoch_table([x, *nums, q, *bases], n, ctx).tolist()
    return [1.0 + 0.0j] + [(1.0 - x * q ** (2 * k)) / (1.0 - x)
                           * math.prod(row[:top], start=1.0 + 0.0j)
                           / math.prod(row[top:], start=1.0 + 0.0j) * q ** k
                           for k, row in enumerate(table[1:], 1)]


def fk_coefficients(kp: KernelParams, n: int) -> list[complex]:
    """The first family f_0..f_n (very-well-poised summands, q^k included)."""
    b, c, d, e, q = kp.b, kp.c, kp.d, kp.e, kp.ctx.q
    return _closed_family(b * c / q, [d, e, c * c / (d * e * q)],
                          (b * c / d, b * c / e, b * d * e * q / c), n, kp.ctx, "f_k")


def gk_coefficients(kp: KernelParams, n: int) -> list[complex]:
    """The second family g_0..g_n (the involuted f_k, in closed form)."""
    b, c, d, e, q = kp.b, kp.c, kp.d, kp.e, kp.ctx.q
    return _closed_family(c ** 3 / (b * d ** 2 * e ** 2 * q),
                          [c / (b * d), c / (b * e), c * c / (d * e * q)],
                          (c * c / (d * e * e), c * c / (d * d * e), c * q / (b * d * e)),
                          n, kp.ctx, "g_k")


def f_spec(kp: KernelParams) -> VWPSpec:
    """f_k as the summand of a very-well-poised series.

    Leading parameter bc/q, parameters (d, e, c^2/deq), argument q: the
    8W7 of Bailey's nonterminating 8phi7 without the basis pair (bz, b/z).
    """
    b, c, d, e = kp.b, kp.c, kp.d, kp.e
    q = kp.ctx.q
    return VWPSpec(b * c / q, (d, e, c * c / (d * e * q)), q)


def g_spec(kp: KernelParams) -> VWPSpec:
    """g_k as a very-well-poised summand: f_spec of the involuted quadruple."""
    b, c, d, e = kp.b, kp.c, kp.d, kp.e
    q = kp.ctx.q
    return VWPSpec(c ** 3 / (b * d ** 2 * e ** 2 * q),
                   (c / (b * d), c / (b * e), c * c / (d * e * q)), q)


def kernel_taylor_terms(kp: KernelParams, k_max: int) -> list[tuple[complex, complex]]:
    """The pairs (t_k(H), H(b) f_k), k <= k_max, of the operator pipeline and the closed
    form; the same call on involute(kp) pairs t_k(K) with K(c/de) g_k."""
    closed = [kp.Hb * f for f in fk_coefficients(kp, k_max)]
    return list(zip(taylor_expand(lambda z: kernel_products(z, kp, "H")[0], kp.phi_pair,
                                  k_max, kp.ctx), closed))


def two_basis_terms(z, kp: KernelParams, n_trunc: int, *, force_unit_Hb: bool = False,
                    force_unit_Kcde: bool = False) -> tuple:
    """The three additive terms (F, A H(b) S_f, B K(c/de) S_g) of the identity at z, a
    point or an ndarray of points: F, A and B from one qpoch_infinite call.

    The identity is judged against its largest term, not |F|: near a zero of F the
    two series contributions dwarf the kernel value and cancel.  The force_unit_*
    switches are the negative controls: dropping either zeroth Taylor value must
    destroy the identity.
    """
    ctx = kp.ctx
    F, A, B = kernel_products(z, kp, "FAB")
    hb = 1.0 + 0.0j if force_unit_Hb else kp.Hb
    kc = 1.0 + 0.0j if force_unit_Kcde else kp.Kcde
    fs, gs = kp.family_terms(n_trunc)
    sf = basis_sum(z, kp.phi_pair, fs, ctx)
    sg = basis_sum(z, kp.psi_pair, gs, ctx)
    return F, A * hb * sf, B * kc * sg


def remainder_gap_curve(z: complex, kp: KernelParams,
                        orders: Sequence[int]) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """The gaps |A R_n H(z) - B K(c/de) S_g| / scale at the orders, R_n via the operator
    pipeline, and their scales, the larger side (residual_and_scale)."""
    ctx = kp.ctx
    sample, at_z = _sampler("H", kp, [kernel_quotient(name, z, kp) for name in "ABH"])
    coeffs = taylor_expand(sample, kp.phi_pair, max(orders), ctx)
    A, B, hkz = at_z
    target = B * kp.Kcde * basis_sum(z, kp.psi_pair, kp.family_terms(kp.series_depth)[1], ctx)
    terms = basis_terms(z, kp.phi_pair, coeffs, ctx)
    return tuple(zip(*(residual_and_scale(A * (hkz - sum(terms[:n + 1], 0.0 + 0.0j)), target)
                       for n in orders)))


def _sampler(name: str, kp: KernelParams, extra: list) -> tuple[Callable, list]:
    """A sampler of the kernel product name that evaluates the quotients extra in the same
    qpoch_infinite call, and the list their values land in."""
    values = []

    def sample(nodes):
        first, *values[:] = qpoch_quotients([kernel_quotient(name, nodes, kp), *extra], kp.ctx)
        return first
    return sample, values


def M_clearing(z: complex, kp: KernelParams) -> complex:
    """The pole-clearing product M(z) = (cz, c/z, c^2 z/bde, c^2/bdez;q)_inf."""
    return qpoch_groups([sym_bases(z, kp.c, kp.c ** 2 / (kp.b * kp.d * kp.e))], kp.ctx)[0]


def _cleared_family_sum(z, pair: BasisPair, coeffs: Sequence[complex], tail,
                        ctx: QContext):
    """sum_k u_k (az, a/z;q)_k (czq^k, cq^k/z;q)_inf for the pair (a, c), z maybe an
    ndarray of points.  The given tail = (cz, c/z;q)_inf is divided down one factor
    pair per order (np.divide.accumulate), so the sum carries no basis denominators."""
    us = np.asarray(coeffs, dtype=complex)
    num, den = basis_factors(z, pair, us.size - 1, ctx)
    first = np.ones((1,) + den.shape[1:])
    fins = np.multiply.accumulate(np.concatenate((first, num)))
    tails = np.divide.accumulate(np.concatenate((tail * first, den)))
    return sum(us.reshape(us.shape + (1,) * np.ndim(z)) * fins * tails, 0.0 + 0.0j)


def E_groups(z, kp: KernelParams) -> list:
    """The product groups of the terms of E(z): F's numerator, two outer products, two tails."""
    if np.any(z == 0):
        raise DomainError("E is defined on the punctured plane")
    return [sym_bases(z, kp.c / kp.d, kp.c / kp.e), sym_bases(z, kp.psi_pair.a),
            sym_bases(z, kp.b), sym_bases(z, kp.c), sym_bases(z, kp.psi_pair.c)]


def pole_cleared_E_terms(z, kp: KernelParams, n_trunc: int, products=None) -> tuple:
    """The three additive terms of the pole-cleared residual E(z).

    E = t1 - t2 - t3 where t1 is the numerator product of F and t2, t3
    are the pole-cleared coefficient sums; each infinite product is
    truncated with a certified tail, all in one qpoch_infinite call (or
    products, the values of E_groups in a caller's call).  z may be an
    ndarray of points (the terms are then arrays): the coefficients, H(b)
    and K(c/de) are read from kp's caches.
    """
    ctx = kp.ctx
    phi, psi = kp.phi_pair, kp.psi_pair
    fs, gs = kp.family_terms(n_trunc)
    t1, outer_f, outer_g, tail_f, tail_g = products or qpoch_groups(E_groups(z, kp), ctx)
    # first family: (cz/de, c/dez;q)_inf sum_k f_k (bz, b/z;q)_k (c z q^k, c q^k/z;q)_inf
    t2 = kp.Hb * outer_f * _cleared_family_sum(z, phi, fs, tail_f, ctx)
    # second family: (bz, b/z;q)_inf sum_k g_k (cz/de, c/dez;q)_k (c^2 z q^k/bde, ...)_inf
    t3 = kp.Kcde * outer_g * _cleared_family_sum(z, psi, gs, tail_g, ctx)
    return t1, t2, t3


def trapezoid_coefficients(values: np.ndarray, ns: Iterable[int],
                           radius: float) -> list[complex]:
    """The m-point trapezoid rule's [z^{-n}] from the values d_k at z_k = r w^k.

    With w = exp(2 pi i / m), [z^{-n}] = r^n (1/m) sum_k d_k w^((n mod m) k)
    (Trefethen & Weideman, SIAM Rev. 56, 2014).  Only the requested
    coefficients are summed, each directly from one table of the m-th roots of
    unity.
    """
    m, k = len(values), np.arange(len(values))
    roots = np.exp(2j * np.pi * k / m)
    return [radius ** n * complex((values * roots[(n % m) * k % m]).sum()) / m for n in ns]


def laurent_coefficient_detail(G: Callable[[np.ndarray], Sequence],
                               ns: Iterable[int], radius: float,
                               ctx: QContext) -> list[tuple[complex, float, int]]:
    """Trapezoid contour coefficients [z^{-n}] of G = t_0 - t_1 - ... on |z| = radius.

    G receives an ndarray of nodes and returns the additive terms
    (t_0, t_1, ...), each an array over those nodes.  One sample of G on m
    equispaced nodes serves every n: trapezoid_coefficients of the values
    t_0 - t_1 - ... at the nodes.
    The sample starts at 64 nodes and doubles, keeping the earlier nodes
    and calling G once on the batch of half-offset nodes (so at most five
    calls), until every coefficient changes by at most eps_rel * scale;
    scale is r^n times the largest sampled |t_i|, because G itself may be
    a near-cancelling identity residual.  Returns (coefficient, scale,
    nodes) for each n; QuadratureNonConvergence past 1024 nodes.
    """
    ns = list(ns)

    def sample(m: int, offset: float) -> np.ndarray:
        nodes = radius * np.exp(2j * np.pi * (np.arange(m) + offset) / m)
        return np.stack(G(nodes), axis=1)

    terms = sample(64, 0.0)
    prev = None
    while True:
        m = len(terms)
        coefficients = trapezoid_coefficients(reduce(operator.sub, terms.T), ns, radius)
        peak = float(np.abs(terms).max())
        out = [(c, radius ** n * peak, m) for c, n in zip(coefficients, ns)]
        if prev is not None and all(abs(c - p) <= ctx.eps_rel * scale
                                    for (c, scale, _), (p, _, _) in zip(out, prev)):
            return out
        if m == 1024:
            raise QuadratureNonConvergence(
                f"contour coefficient did not stabilise by {m} nodes")
        doubled = np.empty((2 * m, terms.shape[1]), dtype=complex)
        doubled[0::2] = terms
        doubled[1::2] = sample(m, 0.5)
        terms, prev = doubled, out


def E_contour_coefficient(kp: KernelParams,
                          ns: Iterable[int]) -> list[tuple[complex, float, int]]:
    """[z^{-n}] of the pole-cleared residual on |z| = 1, for each n in ns.

    Returns (coefficient, term_scale, nodes) per n; the scale is the largest
    additive term of E on the contour, because E itself vanishes identically.
    """
    return laurent_coefficient_detail(lambda z: pole_cleared_E_terms(z, kp, kp.series_depth),
                                      ns, 1.0, kp.ctx)


def _closed_rows(u: complex, k_trunc: int, ctx: QContext, finite: bool = False) -> np.ndarray:
    """Rows k = 0..k_trunc of the coefficients v_i in t of (u q^k t;q)_inf (Euler:
    e_i(u) q^(ik), e_i(u) = (-u)^i q^(i(i-1)/2) / (q;q)_i the running product of its
    ratios) or with finite of (ut;q)_k (q-binomial: e_i(u) (q;q)_k / (q;q)_(k-i)).  A row
    ends at the first i >= 1 where geometric_depth(|v_i / v_(i-1)|, |v_i| / max |v_0..v_i|,
    max_terms) is 0; the columns double from 32 until every row ends."""
    k, m, ends = np.arange(k_trunc + 1)[:, None], 16, np.zeros((1, 1), dtype=bool)
    while not ends.any(axis=1).all():  # double the columns until every row ends
        m, i = 2 * m, np.arange(2 * m)
        qs = ctx.powers(max(m, k_trunc + 1))
        steps = np.concatenate(([1.0], -u * qs[:m - 1] / (1.0 - qs[1:m])))
        if finite:
            poch = qpoch_table([ctx.q], k_trunc, ctx)[:, 0]
            weights = np.where(i <= k, poch[k] / poch[np.maximum(k - i, 0)], 0.0)
            rates = np.abs(steps) * np.abs(1.0 - qs[np.maximum(k - i + 1, 0)])
        else:
            weights = np.multiply.accumulate(np.where(i > 0, qs[k], 1.0), axis=1)
            rates = np.abs(steps) * np.abs(qs[k])
        values = np.multiply.accumulate(steps) * weights
        size = np.abs(values)
        if not np.isfinite(size).all():
            raise TruncationFailure("no geometric tail bound: a coefficient overflowed")
        lead = size / np.maximum.accumulate(size, axis=1)
        target = TAIL_TARGET * (1.0 - rates)
        ends = (rates < 1.0) & (lead < target)
    stop, cap = ends.argmax(axis=1)[:, None], ctx.max_terms
    shrinking = (0 < i) & (i < stop) & (rates < 1.0)  # each i the cap is checked at
    if cap is not None and np.any(shrinking & (lead * np.minimum(rates, 1.0) ** cap >= target)):
        raise TruncationFailure(f"a coefficient tail needs more than max_terms={cap} terms")
    return np.where(i <= stop, values, 0.0)[:, :int(stop.max()) + 1]


def _convolve_rows(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Each row of x convolved with the same row of y (a single row of x broadcasts): per
    column of y, one multiply-add of x over the rows where that column is nonzero."""
    nonzero = y != 0
    lo, hi = nonzero.argmax(axis=0).tolist(), (len(y) - nonzero[::-1].argmax(axis=0)).tolist()
    out = np.zeros((len(y), x.shape[1] + y.shape[1] - 1), dtype=complex)
    for j, (a, b) in enumerate(zip(lo, hi)):
        out[a:b, j:j + x.shape[1]] += (x if len(x) == 1 else x[a:b]) * y[a:b, j, None]
    return out


def calP_quadruple(alpha: complex, beta: complex, gamma: complex, delta: complex,
                   n: int, ctx: QContext) -> complex:
    """[z^{-n}] (alpha z, beta/z, gamma z, delta/z;q)_inf by the quadruple sum.

    The four Euler expansions are convolved; the quadratic q-powers make
    every slice absolutely convergent, so a relative cutoff suffices.
    """
    ea, eb, eg, ed = (_closed_rows(u, 0, ctx)[0] for u in (alpha, beta, gamma, delta))
    return complex(laurent_pair(np.convolve(ea, eg), np.convolve(eb, ed), n))


def calP_tables(kp: KernelParams, k_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tables of the two cleared family products, rows k = 0..k_trunc.

    Row k of the first table holds the coefficients in z of
    (cz/de;q)_inf (bz;q)_k (czq^k;q)_inf, row k of the second those of
    (bz;q)_inf (cz/de;q)_k (c^2 zq^k/bde;q)_inf.  The 1/z side of each
    product carries the same bases, so laurent_pair(table, table, n)[k] is
    P1_{n,k} = [z^{-n}] (cz/de, c/dez;q)_inf (bz, b/z;q)_k (czq^k, cq^k/z;q)_inf,
    resp. P2_{n,k}, for every n.  The factors' rows are in closed form and cut where
    their tails are negligible (_closed_rows), so a table is as wide as three rows, not
    k_trunc: two convolutions batched over the rows (_convolve_rows).
    """
    def table(outer: complex, pair: BasisPair) -> np.ndarray:
        inner = _convolve_rows(_closed_rows(outer, 0, kp.ctx),
                               _closed_rows(pair.c, k_trunc, kp.ctx))
        return _convolve_rows(_closed_rows(pair.a, k_trunc, kp.ctx, finite=True), inner)
    return table(kp.psi_pair.a, kp.phi_pair), table(kp.phi_pair.a, kp.psi_pair)


def laurent_pair(pos: np.ndarray, neg: np.ndarray, n: int) -> np.ndarray:
    """[z^{-n}] of P(z) N(1/z) = sum_i pos_i neg_{i+n}, along the last axis."""
    if n < 0:
        pos, neg, n = neg, pos, -n
    m = max(min(pos.shape[-1], neg.shape[-1] - n), 0)
    return (pos[..., :m] * neg[..., n:n + m]).sum(axis=-1)


def structured_E_terms(kp: KernelParams, n: int, tables: tuple[np.ndarray, np.ndarray],
                       routes: Iterable[tuple[Sequence, Sequence]]) -> list[tuple]:
    """[z^{-n}] of the three additive terms of E by the structured sums, for each route.

    P_n(c/d, c/d, c/e, c/e), H(b) sum_k f_k P1_{n,k} and K(c/de) sum_k g_k P2_{n,k}: P_n
    and P1, P2 (from calP_tables) once, f_k, g_k from each route (fs, gs), k below the
    table rows.  Structured sums only, independent of the contour oracle; E vanishes
    identically, so the terms cancel at every order n.
    """
    c, d, e = kp.c, kp.d, kp.e
    quadruple = calP_quadruple(c / d, c / d, c / e, c / e, n, kp.ctx)
    p1, p2 = (laurent_pair(table, table, n) for table in tables)
    return [(quadruple, kp.Hb * complex((np.array(fs, dtype=complex) * p1[:len(fs)]).sum()),
             kp.Kcde * complex((np.array(gs, dtype=complex) * p2[:len(gs)]).sum()))
            for fs, gs in routes]


def _lowering_terms(name: str, z: complex, kp: KernelParams, c_op: complex,
                   pref: complex, **shifted) -> tuple[complex, complex]:
    """(D_{c_op,q} X(z), pref X(z; shifted)), X the kernel product name: the operator's
    nodes and the shifted kernel come from one qpoch_infinite call."""
    sample, at_z = _sampler(name, kp, [kernel_quotient(name, z, kp, **shifted)])
    return apply_Dcq(sample, z, c_op, kp.ctx), pref * at_z[0]


def H_lowering_terms(z: complex, kp: KernelParams) -> tuple[complex, complex]:
    """The two sides of the lowering law for H under the well-poised operator.

    D_{c,q} H(z) = [2c(1-d)(1-e)(1-c^2/deq) / (de(1-q))] H(z; cq^{3/2}, dq, eq).
    The involuted law (the lowering of K) is this same call on involute(kp).
    """
    c, d, e, q, rq = kp.c, kp.d, kp.e, kp.ctx.q, kp.ctx.sqrt_q
    pref = (2.0 * c * (1.0 - d) * (1.0 - e) * (1.0 - c * c / (d * e * q))
            / (d * e * (1.0 - q)))
    return _lowering_terms("H", z, kp, c, pref, c=c * rq ** 3, d=d * q, e=e * q)


def K_lowering_terms(z: complex, kp: KernelParams) -> tuple[complex, complex]:
    """The two sides of the lowering law for K, stated with unprimed parameters.

    D_{c^2/bde,q} K(z) = [2b(1-c/be)(1-c/bd)(1-c^2/deq) / (1-q)]
                         K(z; b q^{-1/2}, c q^{1/2}, d, e).
    """
    b, c, d, e, q, rq = kp.b, kp.c, kp.d, kp.e, kp.ctx.q, kp.ctx.sqrt_q
    pref = (2.0 * b * (1.0 - c / (b * e)) * (1.0 - c / (b * d))
            * (1.0 - c * c / (d * e * q)) / (1.0 - q))
    return _lowering_terms("K", z, kp, c * c / (b * d * e), pref, b=b / rq, c=c * rq)


def bailey_terms(kp: KernelParams, z) -> tuple:
    """The three additive terms of the kernel identity with both series as 8W7 sums.

    Each coefficient series becomes one very-well-poised series: its
    coefficient spec (f_spec, g_spec) with the basis pair (az, a/z) appended
    to the parameter list.  The terms are (F, A H(b) W1, B K(c/de) W2).  For a
    batch, z holds points on its last axis, the draw: every W from one series
    run, F, A and B from one qpoch_infinite call.
    """
    draws = kp.draws or (kp,)
    specs = []
    for family, pair in ((f_spec, lambda d: d.phi_pair.a), (g_spec, lambda d: d.psi_pair.a)):
        for row in np.reshape(z, (-1, len(draws))).tolist():
            for d, w in zip(draws, row):
                spec, a = family(d), pair(d)
                specs.append(VWPSpec(spec.a, spec.b_list + (a * w, a / w), spec.argument))
    values = [s.value for s in series_sums(specs, None, kp.ctx)]
    half = len(values) // 2
    w1, w2 = (np.reshape(v, np.shape(z)) if np.ndim(z) else v[0]
              for v in (values[:half], values[half:]))
    F, A, B = kernel_products(z, kp, "FAB")
    return F, A * kp.Hb * w1, B * kp.Kcde * w2
