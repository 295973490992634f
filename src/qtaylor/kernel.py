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

import cmath
import math
import operator
from dataclasses import dataclass
from functools import reduce
from typing import Callable, Iterable, Sequence

import numpy as np

from .errors import (DomainError, PoleProximity, QuadratureNonConvergence,
                     ZeroDenominator)
from .hyper import VWPSpec, vwp_depth, vwp_eval, vwp_terms
from .qcore import (QContext, factor_clearance, geometric_depth, qpoch_infinite,
                    qpoch_multi, scaled_residual)
from .taylor import (BasisPair, basis_sum, basis_terms, coefficient_gap,
                     taylor_expand)
from .wpoperator import SymmetricFunction, apply_Dcq


def _sym_inf(alpha: complex, z: complex, ctx: QContext) -> complex:
    """(alpha z; q)_inf (alpha / z; q)_inf."""
    return qpoch_infinite(alpha * z, ctx).value * qpoch_infinite(alpha / z, ctx).value


@dataclass(frozen=True)
class KernelParams:
    """The parameter quadruple (b, c, d, e) with its evaluation context.

    Construction enforces the genericity the closed formulas assume: every
    parameter-level denominator base stays clear of the set {q^-j} by the
    context pole margin, which also keeps the two Taylor grids b q^m and
    (c/de) q^m from colliding.
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

    def involuted(self) -> "KernelParams":
        b, c, d, e = self.b, self.c, self.d, self.e
        return KernelParams(c / (d * e), c * c / (b * d * e),
                            c / (b * e), c / (b * d), self.ctx)


def involute(kp: KernelParams) -> KernelParams:
    """The parameter involution (b,c,d,e) -> (c/de, c^2/bde, c/be, c/bd).

    Applying it twice returns the original quadruple; it exchanges the two
    bases, the two prefactors and the two normalised kernels.
    """
    return kp.involuted()


@dataclass(frozen=True)
class KernelFactors:
    F: complex
    A: complex
    B: complex
    H: complex
    K: complex


def kernel_F(z: complex, kp: KernelParams) -> complex:
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    num = _sym_inf(c / d, z, ctx) * _sym_inf(c / e, z, ctx)
    den = _sym_inf(c, z, ctx) * _sym_inf(c * c / (b * d * e), z, ctx)
    if abs(den) == 0.0:
        raise PoleProximity("z on a pole of F")
    return num / den


def kernel_A(z: complex, kp: KernelParams) -> complex:
    c, ctx = kp.c, kp.ctx
    den = _sym_inf(c * c / (kp.b * kp.d * kp.e), z, ctx)
    if abs(den) == 0.0:
        raise PoleProximity("z on a pole of A")
    return _sym_inf(c / (kp.d * kp.e), z, ctx) / den


def kernel_B(z: complex, kp: KernelParams) -> complex:
    den = _sym_inf(kp.c, z, kp.ctx)
    if abs(den) == 0.0:
        raise PoleProximity("z on a pole of B")
    return _sym_inf(kp.b, z, kp.ctx) / den


def kernel_H(z: complex, kp: KernelParams, *, c: complex | None = None,
             d: complex | None = None, e: complex | None = None) -> complex:
    """H(z; c, d, e); keyword overrides evaluate the shifted kernels."""
    ctx = kp.ctx
    c = kp.c if c is None else c
    d = kp.d if d is None else d
    e = kp.e if e is None else e
    num = _sym_inf(c / d, z, ctx) * _sym_inf(c / e, z, ctx)
    den = _sym_inf(c, z, ctx) * _sym_inf(c / (d * e), z, ctx)
    if abs(den) == 0.0:
        raise PoleProximity("z on a pole of H")
    return num / den


def kernel_K(z: complex, kp: KernelParams, *, b: complex | None = None,
             c: complex | None = None, d: complex | None = None,
             e: complex | None = None) -> complex:
    """K(z; b, c, d, e); keyword overrides evaluate the shifted kernels."""
    ctx = kp.ctx
    b = kp.b if b is None else b
    c = kp.c if c is None else c
    d = kp.d if d is None else d
    e = kp.e if e is None else e
    num = _sym_inf(c / d, z, ctx) * _sym_inf(c / e, z, ctx)
    den = _sym_inf(b, z, ctx) * _sym_inf(c * c / (b * d * e), z, ctx)
    if abs(den) == 0.0:
        raise PoleProximity("z on a pole of K")
    return num / den


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


def H_at_b(kp: KernelParams) -> complex:
    """Zeroth Taylor value H(b) in closed product form."""
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    num = qpoch_multi([b * c / d, c / (b * d), b * c / e, c / (b * e)], None, ctx).value
    den = qpoch_multi([b * c, c / b, b * c / (d * e), c / (b * d * e)], None, ctx).value
    if abs(den) == 0.0:
        raise ZeroDenominator("vanishing denominator in H(b)")
    return num / den


def K_at_cde(kp: KernelParams) -> complex:
    """Zeroth Taylor value K(c/de) in closed product form."""
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    num = qpoch_multi([c * c / (d * d * e), e, c * c / (d * e * e), d], None, ctx).value
    den = qpoch_multi([b * c / (d * e), b * d * e / c,
                       c ** 3 / (b * d ** 2 * e ** 2), c / b], None, ctx).value
    if abs(den) == 0.0:
        raise ZeroDenominator("vanishing denominator in K(c/de)")
    return num / den


def fk_coefficient(kp: KernelParams, k: int) -> complex:
    """Coefficient f_k of the first family (very-well-poised summand, q^k included)."""
    if k == 0:
        return 1.0 + 0.0j
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    bcq = b * c / q
    lead = (1.0 - bcq * q ** (2 * k)) / (1.0 - bcq)
    num = qpoch_multi([bcq, d, e, c * c / (d * e * q)], k, ctx).value
    den = qpoch_multi([q, b * c / d, b * c / e, b * d * e * q / c], k, ctx).value
    if abs(den) <= ctx.pole_margin:
        raise ZeroDenominator("vanishing denominator in f_k")
    return lead * num / den * q ** k


def gk_coefficient(kp: KernelParams, k: int) -> complex:
    """Coefficient g_k of the second family (the involuted f_k, in closed form)."""
    if k == 0:
        return 1.0 + 0.0j
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    xq = c ** 3 / (b * d ** 2 * e ** 2 * q)
    lead = (1.0 - xq * q ** (2 * k)) / (1.0 - xq)
    num = qpoch_multi([xq, c / (b * d), c / (b * e), c * c / (d * e * q)],
                      k, ctx).value
    den = qpoch_multi([q, c * c / (d * e * e), c * c / (d * d * e),
                       c * q / (b * d * e)], k, ctx).value
    if abs(den) <= ctx.pole_margin:
        raise ZeroDenominator("vanishing denominator in g_k")
    return lead * num / den * q ** k


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


def H_series_function(kp: KernelParams) -> SymmetricFunction:
    """H as a SymmetricFunction of z (for the operator pipeline)."""
    return SymmetricFunction(lambda z: kernel_H(z, kp), name="H")


def kernel_taylor_crosscheck(kp: KernelParams, k_max: int) -> float:
    """Max relative gap between operator-pipeline t_k(H) and H(b) f_k, k <= k_max.

    Connects the divided-difference pipeline to the closed-form
    coefficients; the involuted statement is the same call on
    involute(kp), which compares t_k(K) against K(c/de) g_k.
    """
    hb = H_at_b(kp)
    expected = [hb * fk_coefficient(kp, k) for k in range(k_max + 1)]
    return coefficient_gap(H_series_function(kp), kp.phi_pair, expected, kp.ctx)


def two_basis_terms(z: complex, kp: KernelParams, n_trunc: int, *,
                    force_unit_Hb: bool = False,
                    force_unit_Kcde: bool = False) -> tuple[complex, complex, complex]:
    """The three additive terms (F, A H(b) S_f, B K(c/de) S_g) of the identity."""
    ctx = kp.ctx
    F = kernel_F(z, kp)
    A = kernel_A(z, kp)
    B = kernel_B(z, kp)
    hb = 1.0 + 0.0j if force_unit_Hb else H_at_b(kp)
    kc = 1.0 + 0.0j if force_unit_Kcde else K_at_cde(kp)
    sf = basis_sum(z, kp.phi_pair, vwp_terms(f_spec(kp), n_trunc, ctx), ctx)
    sg = basis_sum(z, kp.psi_pair, vwp_terms(g_spec(kp), n_trunc, ctx), ctx)
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


def complementary_remainder_gap(z: complex, kp: KernelParams, n: int) -> float:
    """Gap |A R_n H(z) - B K(c/de) S_g| / scale, R_n via the operator pipeline."""
    return remainder_gap_curve(z, kp, [n])[0]


def remainder_gap_curve(z: complex, kp: KernelParams,
                        orders: Sequence[int]) -> list[float]:
    """complementary_remainder_gap at several orders, sharing the coefficients."""
    ctx = kp.ctx
    n_max = max(orders)
    expansion = taylor_expand(H_series_function(kp), kp.phi_pair, n_max, ctx)
    A = kernel_A(z, kp)
    B = kernel_B(z, kp)
    hkz = kernel_H(z, kp)
    kc = K_at_cde(kp)
    gs = vwp_terms(g_spec(kp), adaptive_series_depth(kp), ctx)
    sg = basis_sum(z, kp.psi_pair, gs, ctx)
    target = B * kc * sg
    terms = basis_terms(z, expansion.pair, expansion.coefficients, ctx)
    gaps = []
    for n in orders:
        lhs = A * (hkz - sum(terms[:n + 1], 0.0 + 0.0j))
        gaps.append(scaled_residual(lhs, target))
    return gaps


def adaptive_series_depth(kp: KernelParams) -> int:
    """Truncation depth of both coefficient families: the larger vwp_depth of f, g."""
    return max(vwp_depth(f_spec(kp), kp.ctx), vwp_depth(g_spec(kp), kp.ctx))


def M_clearing(z: complex, kp: KernelParams) -> complex:
    """The pole-clearing product M(z) = (cz, c/z, c^2 z/bde, c^2/bdez;q)_inf."""
    return (_sym_inf(kp.c, z, kp.ctx)
            * _sym_inf(kp.c ** 2 / (kp.b * kp.d * kp.e), z, kp.ctx))


def _cleared_family_sum(z: complex, pair: BasisPair, coeffs: Iterable[complex],
                        ctx: QContext) -> complex:
    """sum_k u_k (az, a/z;q)_k (czq^k, cq^k/z;q)_inf for the pair (a, c).

    The infinite tail product is evaluated once and divided down one factor
    pair per order, so the sum carries no basis denominators.
    """
    q = ctx.q
    a, c = pair.a, pair.c
    tail = _sym_inf(c, z, ctx)
    fin = 1.0 + 0.0j
    total = 0.0 + 0.0j
    x = 1.0 + 0.0j
    for k, u in enumerate(coeffs):
        if k:
            div = (1.0 - c * z * x) * (1.0 - c * x / z)
            if abs(div) <= ctx.pole_margin ** 2:
                raise PoleProximity(f"tail-product update within margin (c = {c})")
            tail /= div
            fin *= (1.0 - a * z * x) * (1.0 - a * x / z)
            x *= q
        total += u * fin * tail
    return total


def pole_cleared_E_terms(z: complex, kp: KernelParams,
                         n_trunc: int) -> tuple[complex, complex, complex]:
    """The three additive terms of the pole-cleared residual E(z).

    E = t1 - t2 - t3 where t1 is the numerator product of F and t2, t3
    are the pole-cleared coefficient sums; each infinite product is
    truncated with a certified tail.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    if z == 0:
        raise DomainError("E is defined on the punctured plane")
    phi, psi = kp.phi_pair, kp.psi_pair
    t1 = _sym_inf(c / d, z, ctx) * _sym_inf(c / e, z, ctx)
    # first family: (cz/de, c/dez;q)_inf sum_k f_k (bz, b/z;q)_k (c z q^k, c q^k/z;q)_inf
    t2 = (H_at_b(kp) * _sym_inf(psi.a, z, ctx)
          * _cleared_family_sum(z, phi, vwp_terms(f_spec(kp), n_trunc, ctx), ctx))
    # second family: (bz, b/z;q)_inf sum_k g_k (cz/de, c/dez;q)_k (c^2 z q^k/bde, ...)_inf
    t3 = (K_at_cde(kp) * _sym_inf(b, z, ctx)
          * _cleared_family_sum(z, psi, vwp_terms(g_spec(kp), n_trunc, ctx), ctx))
    return t1, t2, t3


def laurent_coefficient_detail(G: Callable[[complex], Sequence[complex]],
                               ns: Iterable[int], radius: float,
                               ctx: QContext) -> list[tuple[complex, float, int]]:
    """Trapezoid contour coefficients [z^{-n}] of G = t_0 - t_1 - ... on |z| = radius.

    G(z) returns the additive terms (t_0, t_1, ...).  One sample of G on m
    equispaced nodes serves every n: [z^{-n}] = r^n ifft(values)[n mod m],
    values being t_0 - t_1 - ... at the nodes (the trapezoid rule, see
    Trefethen & Weideman, SIAM Rev. 56, 2014).
    The sample starts at 64 nodes and doubles, keeping the earlier nodes,
    until every coefficient changes by at most eps_rel * scale; scale is
    r^n times the largest sampled |t_i|, because G itself may be a
    near-cancelling identity residual.  Returns (coefficient, scale, nodes)
    for each n; QuadratureNonConvergence past 1024 nodes.
    """
    ns = list(ns)

    def sample(m: int, offset: float) -> np.ndarray:
        return np.array([G(radius * cmath.exp(2j * math.pi * (j + offset) / m))
                         for j in range(m)], dtype=complex)

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
    n_trunc = adaptive_series_depth(kp)
    return laurent_coefficient_detail(lambda z: pole_cleared_E_terms(z, kp, n_trunc),
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


def _gauss_coeffs(u: complex, k: int, ctx: QContext) -> np.ndarray:
    """Polynomial coefficients of (u t;q)_k in powers of t."""
    q = ctx.q
    poly = np.zeros(k + 1, dtype=complex)
    poly[0] = 1.0
    x = complex(u)
    for j in range(k):
        shifted = np.zeros(k + 1, dtype=complex)
        shifted[1:j + 2] = poly[:j + 1] * (-x)
        poly = poly + shifted
        x *= q
    return poly


def calP_quadruple(alpha: complex, beta: complex, gamma: complex, delta: complex,
                   n: int, ctx: QContext) -> complex:
    """[z^{-n}] (alpha z, beta/z, gamma z, delta/z;q)_inf by the quadruple sum.

    The four Euler expansions are convolved; the quadratic q-powers make
    every slice absolutely convergent, so a relative cutoff suffices.
    """
    pos = np.convolve(_euler_coeffs(alpha, ctx), _euler_coeffs(gamma, ctx))
    neg = np.convolve(_euler_coeffs(beta, ctx), _euler_coeffs(delta, ctx))
    return _laurent_pair(pos, neg, n)


def calP1(kp: KernelParams, n: int, k: int) -> complex:
    """[z^{-n}] (cz/de, c/dez;q)_inf (bz, b/z;q)_k (czq^k, cq^k/z;q)_inf.

    The z and 1/z directions carry the same parameter bases, so a single
    coefficient array serves both sides of the convolution.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    pos = np.convolve(np.convolve(_euler_coeffs(c / (d * e), ctx),
                                  _euler_coeffs(c * q ** k, ctx)),
                      _gauss_coeffs(b, k, ctx))
    return _laurent_pair(pos, pos, n)


def calP2(kp: KernelParams, n: int, k: int) -> complex:
    """[z^{-n}] (bz, b/z;q)_inf (cz/de, c/dez;q)_k (c^2 zq^k/bde, c^2 q^k/bdez;q)_inf."""
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    c2 = c * c / (b * d * e)
    pos = np.convolve(np.convolve(_euler_coeffs(b, ctx),
                                  _euler_coeffs(c2 * q ** k, ctx)),
                      _gauss_coeffs(c / (d * e), k, ctx))
    return _laurent_pair(pos, pos, n)


def _laurent_pair(pos: np.ndarray, neg: np.ndarray, n: int) -> complex:
    total = 0.0 + 0.0j
    for i, p in enumerate(pos):
        j = i + n
        if 0 <= j < len(neg):
            total += p * neg[j]
    return total


def cancellation_identity_residual(kp: KernelParams, n: int, k_trunc: int) -> float:
    """Residual of the Laurent-coefficient cancellation at order n >= 1.

    |P_n(c/d, c/d, c/e, c/e) - H(b) sum_k f_k P1_{n,k} - K(c/de) sum_k g_k P2_{n,k}|
    over the largest of the three term magnitudes; all pieces via the
    structured sums, independent of the contour quadrature oracle.
    """
    if n < 1:
        raise DomainError("the cancellation family starts at n = 1")
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    lhs = calP_quadruple(c / d, c / d, c / e, c / e, n, ctx)
    fs = vwp_terms(f_spec(kp), k_trunc, ctx)
    gs = vwp_terms(g_spec(kp), k_trunc, ctx)
    t2 = H_at_b(kp) * sum((f * calP1(kp, n, k) for k, f in enumerate(fs)), 0.0 + 0.0j)
    t3 = K_at_cde(kp) * sum((g * calP2(kp, n, k) for k, g in enumerate(gs)), 0.0 + 0.0j)
    return scaled_residual(lhs, t2, t3)


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
        return vwp_eval(VWPSpec(spec.a, blist, spec.argument), None, ctx).value

    w1 = w_series(f_spec(kp), kp.phi_pair)
    w2 = w_series(g_spec(kp), kp.psi_pair)
    t1 = kernel_F(z, kp)
    t2 = kernel_A(z, kp) * H_at_b(kp) * w1
    t3 = kernel_B(z, kp) * K_at_cde(kp) * w2
    return scaled_residual(t1, t2, t3)
