"""Annular analysis of the pole-cleared residual.

Everything here lives on shrinking annuli z = lambda q^N w.  The
reciprocal-product factorisation is exact; normalised kernel quotients
have theta-quotient limits ("profiles"); the scaled residual quotient has
a generating function in the annular scaling variable s whose Taylor
coefficients are governed by finitely many contiguous moments of the two
coefficient families.  The global statement is that the generating
function vanishes identically; the suite checks it at finite (s, w) grids,
coefficient by coefficient, and against the kernel-module computation of
E/Z through the exact bridge relation.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass, replace
from functools import reduce
from typing import Sequence

import numpy as np

from .errors import (ConvergenceRegionViolation, DomainError, PoleProximity)
from .hyper import VWPSpec, _series_sum, vwp_eval
from .kernel import (KernelParams, H_at_b, K_at_cde, adaptive_series_depth, f_spec,
                     g_spec, pole_cleared_E_terms, sym_bases)
from .qcore import (QContext, factor_clearance, qpoch_finite, qpoch_groups, qpoch_quotient,
                    scaled_residual, theta_bases)


def _require_clear(ctx: QContext, what: str, *bases: complex) -> None:
    """Reject denominator product bases with a factor inside the pole margin.

    Clearance is tested factor by factor, so quotients whose numerator and
    denominator legitimately differ by many orders of magnitude are not
    misdiagnosed as poles.  An ndarray base is judged by its worst node.
    """
    for base in bases:
        for u in np.ravel(base):
            if factor_clearance(u, ctx) <= ctx.pole_margin:
                raise PoleProximity(f"{what}: denominator base {u} within pole margin")


@dataclass(frozen=True)
class AnnulusSpec:
    """Annular layer z = anchor * q^N * w with r <= |w| <= R."""

    anchor: complex
    r: float
    R: float
    N: int

    def __post_init__(self) -> None:
        if not 0.0 < self.r < self.R:
            raise DomainError("annulus radii must satisfy 0 < r < R")
        if self.N < 0:
            raise DomainError("layer index must be nonnegative")
        object.__setattr__(self, "anchor", complex(self.anchor))

    def z_of(self, w: complex, ctx: QContext) -> complex:
        return self.anchor * ctx.q ** self.N * w

    def w_grid(self, count: int) -> list[complex]:
        """Deterministic sample of w values spread over the annulus."""
        out = []
        for i in range(count):
            rad = self.r * (self.R / self.r) ** ((i % 3) / 2 if count > 2 else 0.5)
            out.append(rad * cmath.exp(2j * math.pi * (i + 0.31) / count))
        return out

    def validate_against(self, zero_moduli: Sequence[float], ctx: QContext) -> None:
        """Reject the annulus when a declared zero circle crosses it."""
        for mod in zero_moduli:
            if self.r - ctx.pole_margin <= mod <= self.R + ctx.pole_margin:
                raise PoleProximity(
                    f"annulus [{self.r}, {self.R}] touches zero circle |w| = {mod:.4g}")


def annular_factorization_residual(lam: complex, N: int, w: complex,
                                   ctx: QContext) -> float:
    """Residual of the exact reciprocal-product factorisation on the layer.

    (lam/z;q)_inf = (-lam/z)^N q^{N(N-1)/2} (wq;q)_N (1/w;q)_inf at
    z = lam q^N w; an algebraic identity, so the scale-relative residual
    is pure rounding.  The prefactor is formed as the one power product
    (-1)^N w^{-N} q^{-N(N+1)/2}: at q = 0.1 and N = 20 it is about 1e210,
    where (-lam/z)^N alone would overflow.
    """
    if lam == 0 or w == 0:
        raise DomainError("anchor and w must be nonzero")
    q = ctx.q
    if factor_clearance(1.0 / w, ctx) <= ctx.pole_margin:
        raise PoleProximity("w within margin of a zero of (1/w;q)_inf")
    z = lam * q ** N * w
    lhs, inf_w = qpoch_groups([[lam / z], [1.0 / w]], ctx)
    rhs = ((-1) ** N * w ** -N * q ** -(N * (N + 1) // 2)
           * qpoch_finite(w * q, N, ctx) * inf_w)
    return scaled_residual(lhs, rhs)


def L_profile(w: complex, alpha: complex, beta: complex, lam: complex,
              ctx: QContext) -> complex:
    """The limiting profile quotient theta(alpha/lam w)/theta(beta/lam w).

    Computed as the four-product quotient
    (lam w q/alpha, alpha/lam w;q)_inf / (lam w q/beta, beta/lam w;q)_inf.
    """
    t = lam * w
    _require_clear(ctx, "L profile", t * ctx.q / beta, beta / t)
    return qpoch_quotient([t * ctx.q / alpha, alpha / t], [t * ctx.q / beta, beta / t], ctx,
                          "L profile: vanishing denominator")


@dataclass(frozen=True)
class ProfileClosedForms:
    """Scalar profile sums with their product and theta-quotient evaluations."""

    F_star_series: complex
    F_star_product: complex
    G_star_series: complex
    G_star_product: complex
    Hb_F_star_theta: complex
    Kcde_G_star_theta: complex
    Hb: complex
    Kcde: complex


def _scalar_profile_sum(spec: VWPSpec, weight: complex, ctx: QContext) -> complex:
    """sum_k u_k weight^k over the summands u_k of spec, adaptively truncated.

    weight^k is absorbed into the argument, so the terms are the summands of
    one very-well-poised series.
    """
    return vwp_eval(replace(spec, argument=spec.argument * weight), None, ctx).value


def profile_sums_and_closed_forms(kp: KernelParams) -> ProfileClosedForms:
    """F_* and G_* by summation, by product evaluation, and as theta quotients.

    Requires |bq/c| < 1 for the direct summations.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    weight = b / c
    if abs(weight * q) >= 1.0:
        raise ConvergenceRegionViolation(
            f"|bq/c| = {abs(weight * q):.3g} >= 1: profile sums diverge")
    f_series = _scalar_profile_sum(f_spec(kp), weight, ctx)
    g_series = _scalar_profile_sum(g_spec(kp), weight, ctx)
    f_num, f_den, g_num, g_den, hf_num, hf_den, kg_num, kg_den = qpoch_groups(
        [[b * c, b * c / (d * e), b * e * q / c, b * d * q / c],
         [b * c / d, b * c / e, b * d * e * q / c, b * q / c],
         [c ** 3 / (b * d * d * e * e), b * c / (d * e), q / e, q / d],
         [c * c / (d * e * e), c * c / (d * d * e), c * q / (b * d * e), b * q / c],
         theta_bases(ctx, c / (b * d), c / (b * e)), theta_bases(ctx, c / b, c / (b * d * e)),
         theta_bases(ctx, d, e), theta_bases(ctx, b * d * e / c, c / b)], ctx)
    return ProfileClosedForms(f_series, f_num / f_den, g_series, g_num / g_den,
                              hf_num / hf_den, kg_num / kg_den, H_at_b(kp), K_at_cde(kp))


def leading_profile_terms(w: complex, kp: KernelParams, lam: complex,
                          closed: ProfileClosedForms | None = None
                          ) -> tuple[complex, complex, complex]:
    """The three additive terms of the leading annular profile identity."""
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    if closed is None:
        closed = profile_sums_and_closed_forms(kp)
    t1 = (L_profile(w, c / d, b, lam, ctx) * L_profile(w, c / e, c / (d * e), lam, ctx))
    t2 = closed.Hb * closed.F_star_product * L_profile(w, c, b, lam, ctx)
    t3 = (closed.Kcde * closed.G_star_product
          * L_profile(w, c * c / (b * d * e), c / (d * e), lam, ctx))
    return t1, t2, t3


def leading_profile_residual(w: complex, kp: KernelParams, lam: complex) -> float:
    """Scale-relative residual of the leading profile cancellation."""
    return scaled_residual(*leading_profile_terms(w, kp, lam))


def leading_profile_theta_residual(t: complex, kp: KernelParams) -> float:
    """Degree-two theta form of the leading cancellation, in t = 1/(lam w).

    theta(ct/d) theta(ct/e) = H(b)F_* theta(ct) theta(ct/de)
                              + K(c/de)G_* theta(bt) theta(c^2 t/bde).
    At the anchors t = 1/b and t = de/c one side collapses to the
    theta-quotient evaluations of the scalar sums.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    closed = profile_sums_and_closed_forms(kp)
    lhs, theta_f, theta_g = qpoch_groups(
        [theta_bases(ctx, c * t / d, c * t / e), theta_bases(ctx, c * t, c * t / (d * e)),
         theta_bases(ctx, b * t, c * c * t / (b * d * e))], ctx)
    return scaled_residual(lhs, closed.Hb * closed.F_star_product * theta_f,
                           closed.Kcde * closed.G_star_product * theta_g)


def _validate_s_disc(s, w: complex, alpha: complex, beta: complex,
                     lam: complex, ctx: QContext) -> None:
    """Reject s (at its worst node, for an ndarray) outside the validated disc."""
    t = lam * w
    s_max = float(np.max(np.abs(s)))
    worst = max(abs(s_max * alpha * t), abs(s_max * beta * t),
                abs(s_max * t * ctx.q / alpha), abs(s_max * t * ctx.q / beta))
    if worst >= 0.5:
        raise ConvergenceRegionViolation(
            f"|s| = {s_max:.3g} outside the validated disc (arg bound {worst:.3g})")


def profile_kernel_P(s, w: complex, alpha: complex, beta: complex,
                     lam: complex, ctx: QContext):
    """The profile kernel: a four-quotient product, holomorphic in s near 0.

    P(0, w) is the limiting profile L_{alpha,beta}(w); at s = q^N the
    kernel reproduces the exactly rescaled product quotient on layer N.
    An ndarray of s (contour nodes) gives the array of values.
    """
    _validate_s_disc(s, w, alpha, beta, lam, ctx)
    t = lam * w
    q = ctx.q
    _require_clear(ctx, "profile kernel", beta * t * s, t * q / beta,
                   t * q * s / alpha, beta / t)
    n1, d1, n2, d2, n3, d3, n4, d4 = qpoch_groups(
        [[alpha * t * s], [beta * t * s], [t * q / alpha], [t * q / beta],
         [t * q * s / beta], [t * q * s / alpha], [alpha / t], [beta / t]], ctx)
    return (n1 / d1) * (n2 / d2) * (n3 / d3) * (n4 / d4)


def profile_kernel_coefficient(j: int, w: complex, alpha: complex, beta: complex,
                               lam: complex, ctx: QContext) -> complex:
    """Closed-form j-th Taylor coefficient of the profile kernel in s.

    L_{alpha,beta}(w) (lam w)^j sum_{u=0}^j
    (a/b;q)_u (a/b;q)_{j-u} / ((q;q)_u (q;q)_{j-u}) beta^u (q/alpha)^{j-u}.
    """
    if j < 0:
        raise DomainError("coefficient index must be nonnegative")
    total = sum((_kernel_weight(u, j, alpha, beta, ctx) for u in range(j + 1)), 0.0 + 0.0j)
    return L_profile(w, alpha, beta, lam, ctx) * (lam * w) ** j * total


def _kernel_weight(u: int, j: int, alpha: complex, beta: complex, ctx: QContext) -> complex:
    """(a/b;q)_u (a/b;q)_{j-u} / ((q;q)_u (q;q)_{j-u}) beta^u (q/alpha)^{j-u}."""
    q, rho = ctx.q, alpha / beta
    return (qpoch_finite(rho, u, ctx) * qpoch_finite(rho, j - u, ctx)
            / (qpoch_finite(q, u, ctx) * qpoch_finite(q, j - u, ctx))
            * beta ** u * (q / alpha) ** (j - u))


def _profile_ratio_step(alpha: np.ndarray, beta: np.ndarray, t: complex, s: complex,
                        ctx: QContext):
    """P_{alpha q, beta q}(s, w) / P_{alpha, beta}(s, w) (one-factor updates) at arrays
    alpha, beta, and the first pole within the margin as (index, PoleProximity)."""
    num = ((1.0 - beta * t * s) * (1.0 - t / alpha)
           * (1.0 - t * s / beta) * (1.0 - beta / t))
    facs = np.array([1.0 - alpha * t * s, 1.0 - t / beta,
                     1.0 - t * s / alpha, 1.0 - alpha / t])
    hit = (np.abs(facs) <= ctx.pole_margin).any(axis=0)
    pole = (int(hit.argmax()), PoleProximity("profile kernel shift update within margin"))
    return num / np.prod(facs, axis=0), pole if hit.any() else None


def generating_Q_terms(s: complex, w: complex, kp: KernelParams, lam: complex
                       ) -> tuple[complex, complex, complex]:
    """The three additive terms of the scaled profile-generating residual."""
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    t = lam * w
    t1 = (profile_kernel_P(s, w, c / d, b, lam, ctx)
          * profile_kernel_P(s, w, c / e, c / (d * e), lam, ctx))

    def family_sum(alpha: complex, beta: complex, spec: VWPSpec) -> complex:
        """sum_k u_k P_{alpha q^k, beta q^k}(s, w), summed by its term ratio."""
        coeff_ratio = spec.ratio(ctx)

        def ratio(k: int, x: np.ndarray):
            (r, pole), (step, step_pole) = (coeff_ratio(k, x),
                                            _profile_ratio_step(alpha * x, beta * x, t, s, ctx))
            return r * step, min(filter(None, (pole, step_pole)), key=lambda p: p[0],
                                 default=None)

        return (profile_kernel_P(s, w, alpha, beta, lam, ctx)
                * _series_sum(ratio, None, ctx).value)

    t2 = H_at_b(kp) * family_sum(c, b, f_spec(kp))
    t3 = K_at_cde(kp) * family_sum(c * c / (b * d * e), c / (d * e), g_spec(kp))
    return t1, t2, t3


@dataclass(frozen=True)
class ProfileMoments:
    """Contiguous moments F_m, G_m of the two coefficient families."""

    m: int
    F_m: complex
    G_m: complex
    convergent: bool


def contiguous_moment(kp: KernelParams, m: int) -> ProfileMoments:
    """F_m = sum f_k (b/c)^k q^{mk} and its g-family analogue.

    The convergence predicate is the term-ratio bound |b/c| |q|^{m+1} < 1;
    a failing predicate yields convergent = False with NaN values, no
    analytic continuation is attempted.
    """
    b, c, ctx = kp.b, kp.c, kp.ctx
    q = ctx.q
    if abs(b / c) * abs(q) ** (m + 1) >= 1.0:
        nan = complex(math.nan, math.nan)
        return ProfileMoments(m, nan, nan, False)
    weight = (b / c) * q ** m
    fm = _scalar_profile_sum(f_spec(kp), weight, ctx)
    gm = _scalar_profile_sum(g_spec(kp), weight, ctx)
    return ProfileMoments(m, fm, gm, True)


def profile_coefficient_terms(j: int, w: complex, kp: KernelParams, lam: complex
                              ) -> tuple[complex, complex, complex]:
    """The three additive terms of [s^j] of the generating residual.

    Assembled from the closed kernel coefficients and the moment window
    F_m, G_m with m = 2u - j, |m| <= j: the quasi-periodicity of the
    profile quotients turns the k-sums into contiguous moments.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    t1 = sum(profile_kernel_coefficient(i, w, c / d, b, lam, ctx)
             * profile_kernel_coefficient(j - i, w, c / e, c / (d * e), lam, ctx)
             for i in range(j + 1))

    moments = {}
    for u in range(j + 1):
        m = 2 * u - j
        if m not in moments:
            mom = contiguous_moment(kp, m)
            if not mom.convergent:
                raise ConvergenceRegionViolation(
                    f"moment m={m} outside its convergence region")
            moments[m] = mom

    def family_term(alpha0: complex, beta0: complex, pick) -> complex:
        total = sum((_kernel_weight(u, j, alpha0, beta0, ctx) * pick(moments[2 * u - j])
                     for u in range(j + 1)), 0.0 + 0.0j)
        return L_profile(w, alpha0, beta0, lam, ctx) * (lam * w) ** j * total

    t2 = H_at_b(kp) * family_term(c, b, lambda mom: mom.F_m)
    t3 = K_at_cde(kp) * family_term(c * c / (b * d * e), c / (d * e),
                                    lambda mom: mom.G_m)
    return t1, t2, t3


def profile_coefficient_residual(j: int, w: complex, kp: KernelParams,
                                 lam: complex) -> float:
    """Scale-relative residual of the order-j profile coefficient identity."""
    return scaled_residual(*profile_coefficient_terms(j, w, kp, lam))


@dataclass(frozen=True)
class ProfileLimitResiduals:
    """Scale-relative distances of the normalised quotients to their limits."""

    r_residual: float
    s_residual: float
    q0_residual: float


def exponential_profile_limit_residual(k: int, w: complex, kp: KernelParams,
                                       lam: complex, N: int) -> ProfileLimitResiduals:
    """Distance of (b/c)^{N-k} R_k, (b/c)^{N-k} S_k and (b/c)^N Q_0 to their limits.

    The limits are the theta-quotient profiles L_{c,b}, L_{c^2/bde, c/de}
    and L_{c/d,b} L_{c/e,c/de}; convergence is geometric in N at fixed k.
    """
    if not 0 <= k <= N:
        raise DomainError("need 0 <= k <= N")
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    z = lam * q ** N * w
    scale_pow = (b / c) ** (N - k)
    qk = q ** k

    def sym_quot(alpha: complex, beta: complex) -> complex:
        _require_clear(ctx, "profile quotient", beta * z, beta / z)
        return qpoch_quotient(sym_bases(z, alpha), sym_bases(z, beta), ctx,
                              "profile quotient: vanishing denominator")

    rk = scale_pow * sym_quot(c * qk, b * qk)
    r_lim = L_profile(w, c, b, lam, ctx)
    sk = scale_pow * sym_quot(c * c * qk / (b * d * e), c * qk / (d * e))
    s_lim = L_profile(w, c * c / (b * d * e), c / (d * e), lam, ctx)
    q0 = ((b / c) ** N * sym_quot(c / d, b) * sym_quot(c / e, c / (d * e)))
    q0_lim = (L_profile(w, c / d, b, lam, ctx)
              * L_profile(w, c / e, c / (d * e), lam, ctx))
    return ProfileLimitResiduals(scaled_residual(rk, r_lim), scaled_residual(sk, s_lim),
                                 scaled_residual(q0, q0_lim))


@dataclass(frozen=True)
class CanonicalGrowth:
    """Canonical two-grid product split into monomial growth and bounded factor."""

    Z_value: complex
    extracted_monomial: complex
    C_factor: complex


def canonical_Z(z: complex, kp: KernelParams) -> complex:
    """Z(z) = (bz, b/z, cz/de, c/dez;q)_inf, the two-grid canonical product."""
    return qpoch_groups([sym_bases(z, kp.b, kp.c / (kp.d * kp.e))], kp.ctx)[0]


def canonical_growth_profile(lam: complex, N: int, w: complex,
                             kp: KernelParams) -> CanonicalGrowth:
    """Z on layer N split as C_{lam,N}(w) q^{-N(N+1)} (bc/(de lam^2 w^2))^N.

    The C factor is computed from its own product expression; the record
    therefore certifies the split rather than defining C as a quotient.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    z = lam * q ** N * w
    monomial = q ** (-N * (N + 1)) * (b * c / (d * e * lam * lam * w * w)) ** N
    cde = c / (d * e)
    zval, cinf = qpoch_groups([sym_bases(z, b, cde),
                               [b * z, cde * z, b / (lam * w), cde / (lam * w)]], ctx)
    cfac = (cinf * qpoch_finite(lam * w * q / b, N, ctx)
            * qpoch_finite(lam * w * q / cde, N, ctx))
    return CanonicalGrowth(zval, monomial, cfac)


def bridge_residual(N: int, w: complex, kp: KernelParams, lam: complex) -> float:
    """Gap between the generating residual at s = q^N and (b/c)^N E/Z on layer N.

    Exact identity; both sides are near zero, so the gap is reported
    relative to the largest additive term of the generating residual.
    """
    b, c, ctx = kp.b, kp.c, kp.ctx
    q = ctx.q
    terms = generating_Q_terms(q ** N, w, kp, lam)
    z = lam * q ** N * w
    e_terms = pole_cleared_E_terms(z, kp, adaptive_series_depth(kp))
    rhs = (b / c) ** N * reduce(operator.sub, e_terms) / canonical_Z(z, kp)
    return abs(reduce(operator.sub, terms) - rhs) / max(abs(t) for t in terms)
