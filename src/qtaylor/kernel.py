"""The two-basis kernel: products, involution, coefficient families, residuals.

The kernel F(z) factors as F = A*H = B*K where H and K are the two
normalised kernels.  H expands in the rational basis Phi_k(z; b, c) with
coefficients H(b) f_k, K in the transformed basis Psi_k = Phi_k(z; c/de,
c^2/bde) with coefficients K(c/de) g_k, and the two-basis identity states
that F is the sum of the two prefactored series.  Everything here is
evaluated numerically with scale-relative residuals; the pole-cleared
residual E, its truncations, grid zeros and Laurent-coefficient
cancellations provide the independent routes through the same identity.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from functools import cached_property, reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (DomainError, PoleProximity, QuadratureNonConvergence,
                     ZeroDenominator)
from .hyper import SeriesSum, VWPSpec, series_eval, sum_through
# qpoch_infinite stays bound here: bench/test_bench.py checks this import site
from .qcore import (QContext, factor_clearance, geometric_depth, qpoch_groups,
                    qpoch_infinite, qpoch_quotient, qpoch_table, scaled_residual)  # noqa: F401
from .taylor import (BasisPair, basis_factors, basis_sum, basis_terms, coefficient_gap,
                     taylor_expand)
from .wpoperator import apply_Dcq


def sym_bases(z, *alphas) -> list:
    """The bases alpha z, alpha / z of (alpha z, alpha / z;q)_inf for each alpha."""
    return [w for alpha in alphas for w in (alpha * z, alpha / z)]


@dataclass(frozen=True)
class KernelParams:
    """The parameter quadruple (b, c, d, e) with its evaluation context.

    Construction enforces the genericity the closed formulas assume: every
    parameter-level denominator base stays clear of the set {q^-j} by the
    context pole margin, which also keeps the two Taylor grids b q^m and
    (c/de) q^m from colliding.

    H(b), K(c/de) and the coefficient families do not depend on z: each is
    computed once per instance, when first read (Hb, Kcde, series_depth,
    family_terms), and an equal quadruple built separately computes its own.
    """

    b: complex
    c: complex
    d: complex
    e: complex
    ctx: QContext

    def __post_init__(self) -> None:
        for name in "bcde":
            val = complex(getattr(self, name))
            object.__setattr__(self, name, val)
            if val == 0:
                raise DomainError(f"kernel parameter {name} must be nonzero")
        margin = self.ctx.pole_margin
        for name, base in self.denominator_bases():
            if factor_clearance(base, self.ctx) <= margin:
                raise ZeroDenominator(
                    f"kernel genericity violated: base {name} = {base} "
                    f"within margin of q^-j")

    def denominator_bases(self) -> list[tuple[str, complex]]:
        b, c, d, e = self.b, self.c, self.d, self.e
        q = self.ctx.q
        return [
            ("bc", b * c), ("c/b", c / b), ("bc/de", b * c / (d * e)),
            ("c/bde", c / (b * d * e)), ("bde/c", b * d * e / c),
            ("c3/bd2e2", c ** 3 / (b * d ** 2 * e ** 2)),
            ("bc/d", b * c / d), ("bc/e", b * c / e),
            ("bdeq/c", b * d * e * q / c), ("bc/q", b * c / q),
            ("c2/de2", c ** 2 / (d * e ** 2)), ("c2/d2e", c ** 2 / (d ** 2 * e)),
            ("cq/bde", c * q / (b * d * e)),
            ("c3/bd2e2q", c ** 3 / (b * d ** 2 * e ** 2 * q)),
        ]

    @property
    def phi_pair(self) -> BasisPair:
        return BasisPair(self.b, self.c)

    @property
    def psi_pair(self) -> BasisPair:
        return BasisPair(self.c / (self.d * self.e),
                         self.c ** 2 / (self.b * self.d * self.e))

    @cached_property
    def Hb(self) -> complex:
        b, c, d, e = self.b, self.c, self.d, self.e
        return qpoch_quotient([b * c / d, c / (b * d), b * c / e, c / (b * e)],
                              [b * c, c / b, b * c / (d * e), c / (b * d * e)], self.ctx,
                              "vanishing denominator in H(b)", ZeroDenominator)

    @cached_property
    def Kcde(self) -> complex:
        b, c, d, e = self.b, self.c, self.d, self.e
        return qpoch_quotient([c * c / (d * d * e), e, c * c / (d * e * e), d],
                              [b * c / (d * e), b * d * e / c,
                               c ** 3 / (b * d ** 2 * e ** 2), c / b], self.ctx,
                              "vanishing denominator in K(c/de)", ZeroDenominator)

    @cached_property
    def _sums(self) -> tuple[SeriesSum, ...]:
        """The f and g sums through series_depth N: each family is summed
        adaptively, and the one that stopped earlier is continued to N."""
        specs = (f_spec(self), g_spec(self))
        sums = [series_eval(spec, None, self.ctx) for spec in specs]
        n = max(s.terms_used for s in sums) - 1
        return tuple(sum_through(spec, n, self.ctx, s) for spec, s in zip(specs, sums))

    @property
    def series_depth(self) -> int:
        """The larger adaptive depth (last index kept) of the f and g families."""
        return max(s.terms_used for s in self._sums) - 1

    def family_terms(self, n: int) -> tuple[tuple[complex, ...], ...]:
        """(f_0..f_n, g_0..g_n): sliced from the cached sums, continued past series_depth."""
        return tuple(sum_through(spec, n, self.ctx, s).terms[:n + 1]
                     for spec, s in zip((f_spec(self), g_spec(self)), self._sums))


def involute(kp: KernelParams) -> KernelParams:
    """The parameter involution (b,c,d,e) -> (c/de, c^2/bde, c/be, c/bd).

    Applying it twice returns the original quadruple; it exchanges the two
    bases, the two prefactors and the two normalised kernels.
    """
    b, c, d, e = kp.b, kp.c, kp.d, kp.e
    return KernelParams(c / (d * e), c * c / (b * d * e), c / (b * e), c / (b * d), kp.ctx)


@dataclass(frozen=True)
class KernelFactors:
    F: complex
    A: complex
    B: complex
    H: complex
    K: complex


def kernel_F(z: complex, kp: KernelParams) -> complex:
    b, c, d, e = kp.b, kp.c, kp.d, kp.e
    return qpoch_quotient(sym_bases(z, c / d, c / e), sym_bases(z, c, c * c / (b * d * e)),
                          kp.ctx, "z on a pole of F")


def kernel_A(z: complex, kp: KernelParams) -> complex:
    b, c, d, e = kp.b, kp.c, kp.d, kp.e
    return qpoch_quotient(sym_bases(z, c / (d * e)), sym_bases(z, c * c / (b * d * e)),
                          kp.ctx, "z on a pole of A")


def kernel_B(z: complex, kp: KernelParams) -> complex:
    return qpoch_quotient(sym_bases(z, kp.b), sym_bases(z, kp.c), kp.ctx, "z on a pole of B")


def kernel_H(z: complex, kp: KernelParams, *, c: complex | None = None,
             d: complex | None = None, e: complex | None = None) -> complex:
    """H(z; c, d, e); keyword overrides evaluate the shifted kernels."""
    c = kp.c if c is None else c
    d = kp.d if d is None else d
    e = kp.e if e is None else e
    return qpoch_quotient(sym_bases(z, c / d, c / e), sym_bases(z, c, c / (d * e)),
                          kp.ctx, "z on a pole of H")


def kernel_K(z: complex, kp: KernelParams, *, b: complex | None = None,
             c: complex | None = None, d: complex | None = None,
             e: complex | None = None) -> complex:
    """K(z; b, c, d, e); keyword overrides evaluate the shifted kernels."""
    b = kp.b if b is None else b
    c = kp.c if c is None else c
    d = kp.d if d is None else d
    e = kp.e if e is None else e
    return qpoch_quotient(sym_bases(z, c / d, c / e), sym_bases(z, b, c * c / (b * d * e)),
                          kp.ctx, "z on a pole of K")


def kernel_factors(z: complex, kp: KernelParams) -> KernelFactors:
    """All five kernel products at z, with F = A*H = B*K enforced."""
    F = kernel_F(z, kp)
    A = kernel_A(z, kp)
    B = kernel_B(z, kp)
    H = kernel_H(z, kp)
    K = kernel_K(z, kp)
    tol = kp.ctx.eps_rel * abs(F)
    if abs(F - A * H) > 100 * tol or abs(F - B * K) > 100 * tol:
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
    if min(factor_clearance(u, ctx) for u in bases) <= ctx.pole_margin:
        raise ZeroDenominator(f"vanishing denominator in {name}")
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


def kernel_taylor_crosscheck(kp: KernelParams, k_max: int) -> float:
    """Max relative gap between operator-pipeline t_k(H) and H(b) f_k, k <= k_max.

    Connects the divided-difference pipeline to the closed-form
    coefficients; the involuted statement is the same call on
    involute(kp), which compares t_k(K) against K(c/de) g_k.
    """
    expected = [kp.Hb * f for f in fk_coefficients(kp, k_max)]
    return coefficient_gap(lambda z: kernel_H(z, kp), kp.phi_pair, expected, kp.ctx)


def two_basis_terms(z: complex, kp: KernelParams, n_trunc: int, *,
                    force_unit_Hb: bool = False,
                    force_unit_Kcde: bool = False) -> tuple[complex, complex, complex]:
    """The three additive terms (F, A H(b) S_f, B K(c/de) S_g) of the identity."""
    ctx = kp.ctx
    F = kernel_F(z, kp)
    A = kernel_A(z, kp)
    B = kernel_B(z, kp)
    hb = 1.0 + 0.0j if force_unit_Hb else kp.Hb
    kc = 1.0 + 0.0j if force_unit_Kcde else kp.Kcde
    fs, gs = kp.family_terms(n_trunc)
    sf = basis_sum(z, kp.phi_pair, fs, ctx)
    sg = basis_sum(z, kp.psi_pair, gs, ctx)
    return F, A * hb * sf, B * kc * sg


def two_basis_residual(z: complex, kp: KernelParams, n_trunc: int, *,
                       force_unit_Hb: bool = False,
                       force_unit_Kcde: bool = False) -> float:
    """Scale-relative residual of F = A H(b) S_f + B K(c/de) S_g at n_trunc.

    The scale is the largest of the three additive terms: near a zero of F
    the two series contributions dwarf the kernel value and cancel, so
    relative-to-F scaling would only measure that cancellation's
    conditioning.  The force_unit_* switches implement the negative
    controls: dropping either zeroth Taylor value must destroy the
    identity.
    """
    return scaled_residual(*two_basis_terms(z, kp, n_trunc, force_unit_Hb=force_unit_Hb,
                                            force_unit_Kcde=force_unit_Kcde))


def remainder_gap_curve(z: complex, kp: KernelParams,
                        orders: Sequence[int]) -> list[float]:
    """Gap |A R_n H(z) - B K(c/de) S_g| / scale at each order, R_n via the operator pipeline."""
    ctx = kp.ctx
    n_max = max(orders)
    expansion = taylor_expand(lambda w: kernel_H(w, kp), kp.phi_pair, n_max, ctx)
    A = kernel_A(z, kp)
    B = kernel_B(z, kp)
    hkz = kernel_H(z, kp)
    target = B * kp.Kcde * basis_sum(z, kp.psi_pair, kp.family_terms(kp.series_depth)[1], ctx)
    terms = basis_terms(z, expansion.pair, expansion.coefficients, ctx)
    return [scaled_residual(A * (hkz - sum(terms[:n + 1], 0.0 + 0.0j)), target) for n in orders]


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


def pole_cleared_E_terms(z, kp: KernelParams, n_trunc: int) -> tuple:
    """The three additive terms of the pole-cleared residual E(z).

    E = t1 - t2 - t3 where t1 is the numerator product of F and t2, t3
    are the pole-cleared coefficient sums; each infinite product is
    truncated with a certified tail, all in one qpoch_infinite call.  z may
    be an ndarray of points (the terms are then arrays): the coefficients,
    H(b) and K(c/de) are read from kp's caches.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    if np.any(z == 0):
        raise DomainError("E is defined on the punctured plane")
    phi, psi = kp.phi_pair, kp.psi_pair
    fs, gs = kp.family_terms(n_trunc)
    t1, outer_f, outer_g, tail_f, tail_g = qpoch_groups(
        [sym_bases(z, c / d, c / e), sym_bases(z, psi.a), sym_bases(z, b),
         sym_bases(z, phi.c), sym_bases(z, psi.c)], ctx)
    # first family: (cz/de, c/dez;q)_inf sum_k f_k (bz, b/z;q)_k (c z q^k, c q^k/z;q)_inf
    t2 = kp.Hb * outer_f * _cleared_family_sum(z, phi, fs, tail_f, ctx)
    # second family: (bz, b/z;q)_inf sum_k g_k (cz/de, c/dez;q)_k (c^2 z q^k/bde, ...)_inf
    t3 = kp.Kcde * outer_g * _cleared_family_sum(z, psi, gs, tail_g, ctx)
    return t1, t2, t3


def laurent_coefficient_detail(G: Callable[[np.ndarray], Sequence],
                               ns: Iterable[int], radius: float,
                               ctx: QContext) -> list[tuple[complex, float, int]]:
    """Trapezoid contour coefficients [z^{-n}] of G = t_0 - t_1 - ... on |z| = radius.

    G receives an ndarray of nodes and returns the additive terms
    (t_0, t_1, ...), each an array over those nodes.  One sample of G on m
    equispaced nodes serves every n: [z^{-n}] = r^n ifft(values)[n mod m],
    values being t_0 - t_1 - ... at the nodes (the trapezoid rule, see
    Trefethen & Weideman, SIAM Rev. 56, 2014).
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
        values = np.fft.ifft(reduce(operator.sub, terms.T))
        peak = float(np.abs(terms).max())
        out = [(complex(radius ** n * values[n % m]), radius ** n * peak, m)
               for n in ns]
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


def _euler_coeffs(u: complex, ctx: QContext) -> np.ndarray:
    """Series coefficients of (u t;q)_inf in powers of t (Euler expansion).

    The ratios e_i / e_(i-1) = -u q^(i-1) / (1 - q^i) shrink like |q|^i, so
    the list stops at the first e_i whose geometric tail at the current
    ratio is negligible against the largest coefficient.
    """
    q = ctx.q
    coeffs = [1.0 + 0.0j]
    peak = 1.0
    qi = 1.0 + 0.0j  # q^(i-1)
    while True:
        ratio = -u * qi / (1.0 - qi * q)
        coeffs.append(coeffs[-1] * ratio)
        peak = max(peak, abs(coeffs[-1]))
        qi *= q
        if abs(ratio) < 1.0 and geometric_depth(abs(ratio), abs(coeffs[-1]) / peak,
                                                ctx.max_terms) == 0:
            return np.asarray(coeffs, dtype=complex)


def calP_quadruple(alpha: complex, beta: complex, gamma: complex, delta: complex,
                   n: int, ctx: QContext) -> complex:
    """[z^{-n}] (alpha z, beta/z, gamma z, delta/z;q)_inf by the quadruple sum.

    The four Euler expansions are convolved; the quadratic q-powers make
    every slice absolutely convergent, so a relative cutoff suffices.
    """
    pos = np.convolve(_euler_coeffs(alpha, ctx), _euler_coeffs(gamma, ctx))
    neg = np.convolve(_euler_coeffs(beta, ctx), _euler_coeffs(delta, ctx))
    return complex(laurent_pair(pos, neg, n))


def calP_tables(kp: KernelParams, k_trunc: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficient tables of the two cleared family products, rows k = 0..k_trunc.

    Row k of the first table holds the coefficients in z of
    (cz/de;q)_inf (bz;q)_k (czq^k;q)_inf, row k of the second those of
    (bz;q)_inf (cz/de;q)_k (c^2 zq^k/bde;q)_inf.  The 1/z side of each
    product carries the same bases, so laurent_pair(table, table, n)[k] is
    P1_{n,k} = [z^{-n}] (cz/de, c/dez;q)_inf (bz, b/z;q)_k (czq^k, cq^k/z;q)_inf,
    resp. P2_{n,k}, for every n.
    """
    return (_calP_table(kp.psi_pair.a, kp.phi_pair, k_trunc, kp.ctx),
            _calP_table(kp.phi_pair.a, kp.psi_pair, k_trunc, kp.ctx))


def _calP_table(outer: complex, pair: BasisPair, k_trunc: int,
                ctx: QContext) -> np.ndarray:
    """Rows (outer z;q)_inf (az;q)_k (czq^k;q)_inf for k = 0..k_trunc, zero-padded.

    The Euler factor of `outer` is expanded once and (az;q)_k grows by one
    factor per row.
    """
    q = ctx.q
    euler = _euler_coeffs(outer, ctx)
    finite = np.ones(1, dtype=complex)
    x = complex(pair.a)
    rows = []
    for k in range(k_trunc + 1):
        rows.append(np.convolve(np.convolve(euler, _euler_coeffs(pair.c * q ** k, ctx)),
                                finite))
        finite = np.append(finite, 0.0) - x * np.append(0.0, finite)
        x *= q
    width = max(map(len, rows))
    return np.array([np.pad(row, (0, width - len(row))) for row in rows])


def laurent_pair(pos: np.ndarray, neg: np.ndarray, n: int) -> np.ndarray:
    """[z^{-n}] of P(z) N(1/z) = sum_i pos_i neg_{i+n}, along the last axis."""
    if n < 0:
        pos, neg, n = neg, pos, -n
    m = max(min(pos.shape[-1], neg.shape[-1] - n), 0)
    return (pos[..., :m] * neg[..., n:n + m]).sum(axis=-1)


def structured_E_terms(kp: KernelParams, n: int, tables: tuple[np.ndarray, np.ndarray],
                       fs: Iterable[complex], gs: Iterable[complex]
                       ) -> tuple[complex, complex, complex]:
    """[z^{-n}] of the three additive terms of E by the structured sums.

    P_n(c/d, c/d, c/e, c/e), H(b) sum_k f_k P1_{n,k} and
    K(c/de) sum_k g_k P2_{n,k}, with P1, P2 read from calP_tables and the
    coefficients f_k, g_k supplied by the caller (k below the table rows).
    """
    c, d, e = kp.c, kp.d, kp.e

    def family(table: np.ndarray, coeffs: Iterable[complex]) -> complex:
        u = np.array(list(coeffs), dtype=complex)
        rows = table[:len(u)]
        return complex(u @ laurent_pair(rows, rows, n))

    return (calP_quadruple(c / d, c / d, c / e, c / e, n, kp.ctx),
            kp.Hb * family(tables[0], fs),
            kp.Kcde * family(tables[1], gs))


def cancellation_identity_residual(kp: KernelParams, n: int,
                                   tables: tuple[np.ndarray, np.ndarray]) -> float:
    """Residual of the Laurent-coefficient cancellation at order n >= 1.

    |P_n(c/d, c/d, c/e, c/e) - H(b) sum_k f_k P1_{n,k} - K(c/de) sum_k g_k P2_{n,k}|
    over the largest term magnitude, summed over k = 0..k_trunc with
    tables = calP_tables(kp, k_trunc) and the very-well-poised summands
    f_k, g_k; structured sums only, independent of the contour oracle.
    """
    if n < 1:
        raise DomainError("the cancellation family starts at n = 1")
    return scaled_residual(*structured_E_terms(kp, n, tables,
                                               *kp.family_terms(len(tables[0]) - 1)))


def H_lowering_residual(z: complex, kp: KernelParams) -> float:
    """Residual of the lowering law for H under the well-poised operator.

    D_{c,q} H(z) = [2c(1-d)(1-e)(1-c^2/deq) / (de(1-q))] H(z; cq^{3/2}, dq, eq).
    The involuted law (the lowering of K) is this same check on involute(kp).
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q, rq = ctx.q, ctx.sqrt_q
    lhs = apply_Dcq(lambda w: kernel_H(w, kp), z, c, ctx)
    pref = (2.0 * c * (1.0 - d) * (1.0 - e) * (1.0 - c * c / (d * e * q))
            / (d * e * (1.0 - q)))
    rhs = pref * kernel_H(z, kp, c=c * rq ** 3, d=d * q, e=e * q)
    return scaled_residual(lhs, rhs)


def K_lowering_residual(z: complex, kp: KernelParams) -> float:
    """Residual of the lowering law for K, stated with unprimed parameters.

    D_{c^2/bde,q} K(z) = [2b(1-c/be)(1-c/bd)(1-c^2/deq) / (1-q)]
                         K(z; b q^{-1/2}, c q^{1/2}, d, e).
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q, rq = ctx.q, ctx.sqrt_q
    cprime = c * c / (b * d * e)
    lhs = apply_Dcq(lambda w: kernel_K(w, kp), z, cprime, ctx)
    pref = (2.0 * b * (1.0 - c / (b * e)) * (1.0 - c / (b * d))
            * (1.0 - c * c / (d * e * q)) / (1.0 - q))
    rhs = pref * kernel_K(z, kp, b=b / rq, c=c * rq, d=d, e=e)
    return scaled_residual(lhs, rhs)


def bailey_crosscheck(kp: KernelParams, z: complex) -> float:
    """Residual of the kernel identity with both series evaluated as 8W7 sums.

    Each coefficient series becomes one very-well-poised series: its
    coefficient spec (f_spec, g_spec) with the basis pair (az, a/z) appended
    to the parameter list.  Then F = A H(b) W1 + B K(c/de) W2 is tested.
    """
    ctx = kp.ctx

    def w_series(spec: VWPSpec, pair: BasisPair) -> complex:
        blist = spec.b_list + (pair.a * z, pair.a / z)
        return series_eval(VWPSpec(spec.a, blist, spec.argument), None, ctx).value

    w1 = w_series(f_spec(kp), kp.phi_pair)
    w2 = w_series(g_spec(kp), kp.psi_pair)
    t1 = kernel_F(z, kp)
    t2 = kernel_A(z, kp) * kp.Hb * w1
    t3 = kernel_B(z, kp) * kp.Kcde * w2
    return scaled_residual(t1, t2, t3)
