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

import math
import operator
from dataclasses import dataclass, replace
from functools import reduce

import numpy as np

from .errors import (ConvergenceRegionViolation, DomainError, PoleProximity)
from .hyper import _first, _series_sum, series_sums, term_ratio
from .kernel import E_groups, KernelParams, f_spec, g_spec, pole_cleared_E_terms, sym_bases
from .qcore import (QContext, factor_clearance, qpoch_finite, qpoch_groups, qpoch_groups_each,
                    qpoch_quotients, qpoch_quotients_each, require_clear, scaled_residual,
                    theta_bases)


def _profile_pairs(kp: KernelParams) -> tuple:  # (alpha, beta) of the four profiles
    b, c, d, e = kp.b, kp.c, kp.d, kp.e
    return (c / d, b), (c / e, c / (d * e)), (c, b), (c * c / (b * d * e), c / (d * e))


def annular_factorization_terms(lam: complex, N, w, ctx: QContext) -> tuple:
    """The two sides of the exact reciprocal-product factorisation on the layer.

    (lam/z;q)_inf = (-lam/z)^N q^{N(N-1)/2} (wq;q)_N (1/w;q)_inf at
    z = lam q^N w; an algebraic identity, so the scale-relative residual
    is pure rounding.  The prefactor is formed as the one power product
    (-1)^N w^{-N} q^{-N(N+1)/2}: at q = 0.1 and N = 20 it is about 1e210,
    where (-lam/z)^N alone would overflow.  N and w are scalars or ndarrays
    of one shape: the sides at every point (N, w), from one qpoch_infinite call.
    """
    if lam == 0 or np.any(w == 0):
        raise DomainError("anchor and w must be nonzero")
    q = ctx.q
    if np.any(factor_clearance(1.0 / w, ctx) <= ctx.pole_margin):
        raise PoleProximity("w within margin of a zero of (1/w;q)_inf")
    z = lam * q ** N * w
    lhs, inf_w = qpoch_groups([[lam / z], [1.0 / w]], ctx)
    rhs = ((-1) ** N * w ** -N * q ** -(N * (N + 1) // 2)
           * qpoch_finite(w * q, N, ctx) * inf_w)
    return lhs, rhs


def L_profile(w: complex, alpha: complex, beta: complex, lam: complex,
              ctx: QContext) -> complex:
    """The limiting profile quotient theta(alpha/lam w)/theta(beta/lam w).

    Computed as the four-product quotient
    (lam w q/alpha, alpha/lam w;q)_inf / (lam w q/beta, beta/lam w;q)_inf.
    """
    return qpoch_quotients([_L_quotient(w, alpha, beta, lam, ctx)], ctx)[0]


def _L_quotient(w: complex, alpha: complex, beta: complex, lam: complex,
                ctx: QContext) -> tuple:
    """The (num, den, what) bases of L_{alpha,beta}(w), each denominator factor cleared."""
    t = lam * w
    require_clear(ctx, "L profile", t * ctx.q / beta, beta / t)
    return ([t * ctx.q / alpha, alpha / t], [t * ctx.q / beta, beta / t],
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


def _profile_sums(kp: KernelParams, weight: complex) -> list[complex]:
    """sum_k u_k weight^k over the summands u_k of f_spec and of g_spec, adaptively
    truncated, in one series run.

    weight^k is absorbed into the argument, so the terms are the summands of
    one very-well-poised series.
    """
    return [tb.value for tb in series_sums([replace(spec, argument=spec.argument * weight)
                                            for spec in (f_spec(kp), g_spec(kp))], None, kp.ctx)]


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
    f_series, g_series = _profile_sums(kp, weight)
    f_num, f_den, g_num, g_den, hf_num, hf_den, kg_num, kg_den = qpoch_groups(
        [[b * c, b * c / (d * e), b * e * q / c, b * d * q / c],
         [b * c / d, b * c / e, b * d * e * q / c, b * q / c],
         [c ** 3 / (b * d * d * e * e), b * c / (d * e), q / e, q / d],
         [c * c / (d * e * e), c * c / (d * d * e), c * q / (b * d * e), b * q / c],
         theta_bases(ctx, c / (b * d), c / (b * e)), theta_bases(ctx, c / b, c / (b * d * e)),
         theta_bases(ctx, d, e), theta_bases(ctx, b * d * e / c, c / b)], ctx)
    return ProfileClosedForms(f_series, f_num / f_den, g_series, g_num / g_den,
                              hf_num / hf_den, kg_num / kg_den, kp.Hb, kp.Kcde)


def leading_profile_terms(w, kp: KernelParams, lam: complex,
                          closed: ProfileClosedForms | None = None) -> tuple:
    """The three additive terms of the leading annular profile identity at w, a point or
    an ndarray of points: the four profiles at every point from one qpoch_infinite call,
    the closed forms computed unless given."""
    closed = closed or profile_sums_and_closed_forms(kp)
    l1, l2, lf, lg = qpoch_quotients([_L_quotient(w, al, be, lam, kp.ctx)
                                      for al, be in _profile_pairs(kp)], kp.ctx)
    return (l1 * l2, closed.Hb * closed.F_star_product * lf,
            closed.Kcde * closed.G_star_product * lg)


def leading_profile_theta_terms(t: complex, kp: KernelParams,
                                closed: ProfileClosedForms | None = None
                                ) -> tuple[complex, complex, complex]:
    """The three additive terms of the leading cancellation's theta form, t = 1/(lam w).

    theta(ct/d) theta(ct/e) = H(b)F_* theta(ct) theta(ct/de)
                              + K(c/de)G_* theta(bt) theta(c^2 t/bde).
    At the anchors t = 1/b and t = de/c one side collapses to the
    theta-quotient evaluations of the scalar sums.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    closed = closed or profile_sums_and_closed_forms(kp)
    lhs, theta_f, theta_g = qpoch_groups(
        [theta_bases(ctx, c * t / d, c * t / e), theta_bases(ctx, c * t, c * t / (d * e)),
         theta_bases(ctx, b * t, c * c * t / (b * d * e))], ctx)
    return (lhs, closed.Hb * closed.F_star_product * theta_f,
            closed.Kcde * closed.G_star_product * theta_g)


def _disc_args(s, w, alpha: complex, beta: complex, lam: complex, ctx: QContext) -> list:
    """|s alpha t|, |s beta t|, |s t q/alpha| and |s t q/beta| (t = lam w) at each point
    (s, w): the validated disc of P_{alpha, beta} keeps them below 1/2."""
    s_abs, t = abs(s), lam * w
    return [abs(s_abs * alpha * t), abs(s_abs * beta * t),
            abs(s_abs * t * ctx.q / alpha), abs(s_abs * t * ctx.q / beta)]


def _validate_s_disc(s, w, alpha: complex, beta: complex, lam: complex,
                     ctx: QContext) -> None:
    """Reject the first point (s, w), in order, outside the validated disc."""
    worst = np.maximum.reduce(_disc_args(s, w, alpha, beta, lam, ctx))
    if np.any(worst >= 0.5):
        i = np.argmax(worst >= 0.5)
        raise ConvergenceRegionViolation(
            f"|s| = {np.broadcast_to(abs(s), worst.shape).flat[i]:.3g} outside the "
            f"validated disc (arg bound {worst.flat[i]:.3g})")


def in_generating_disc(kp: KernelParams, lam: complex, s, w) -> bool:
    """Whether the point (s, w) is in the validated disc of every profile kernel of the
    generating residual (that residual raises ConvergenceRegionViolation elsewhere)."""
    return all(max(_disc_args(s, w, al, be, lam, kp.ctx)) < 0.5 for al, be in _profile_pairs(kp))


def profile_kernel_P(s, w, alpha: complex, beta: complex, lam: complex, ctx: QContext):
    """The profile kernel: a four-quotient product, holomorphic in s near 0.

    P(0, w) is the limiting profile L_{alpha,beta}(w); at s = q^N the
    kernel reproduces the exactly rescaled product quotient on layer N.
    ndarrays of s (contour nodes) or of s and w give the array of values.
    """
    return math.prod(qpoch_quotients(_P_quotients(s, w, alpha, beta, lam, ctx), ctx))


def _P_quotients(s, w, alpha: complex, beta: complex, lam: complex,
                 ctx: QContext) -> list[tuple]:
    """The four one-factor quotients whose product is P_{alpha,beta}(s, w) (exactly 1 at
    alpha = beta), s in the validated disc and each denominator factor cleared."""
    _validate_s_disc(s, w, alpha, beta, lam, ctx)
    t, q = lam * w, ctx.q
    dens = [beta * t * s, t * q / beta, t * q * s / alpha, beta / t]
    require_clear(ctx, "profile kernel", *dens)
    return [([n], [d], "profile kernel: vanishing denominator")
            for n, d in zip([alpha * t * s, t * q / alpha, t * q * s / beta, alpha / t], dens)]


def profile_kernel_coefficients(orders, w: complex, alpha: complex, beta: complex,
                                lam: complex, ctx: QContext) -> list[complex]:
    """Closed-form j-th Taylor coefficient of the profile kernel in s, for each j in orders.

    L_{alpha,beta}(w) (lam w)^j sum_{u=0}^j
    (a/b;q)_u (a/b;q)_{j-u} / ((q;q)_u (q;q)_{j-u}) beta^u (q/alpha)^{j-u}.
    """
    if min(orders, default=0) < 0:
        raise DomainError("coefficient index must be nonnegative")
    return _kernel_coefficients(L_profile(w, alpha, beta, lam, ctx), orders, w, alpha, beta,
                                lam, ctx)


def _kernel_coefficients(profile: complex, orders, w: complex, alpha: complex, beta: complex,
                         lam: complex, ctx: QContext) -> list[complex]:
    """The coefficients of profile_kernel_coefficients, given the profile L_{alpha,beta}(w)."""
    return [profile * (lam * w) ** j * sum((_kernel_weight(u, j, alpha, beta, ctx)
                                            for u in range(j + 1)), 0.0 + 0.0j) for j in orders]


def _kernel_weight(u: int, j: int, alpha: complex, beta: complex, ctx: QContext) -> complex:
    """(a/b;q)_u (a/b;q)_{j-u} / ((q;q)_u (q;q)_{j-u}) beta^u (q/alpha)^{j-u}."""
    q, rho = ctx.q, alpha / beta
    return (qpoch_finite(rho, u, ctx) * qpoch_finite(rho, j - u, ctx)
            / (qpoch_finite(q, u, ctx) * qpoch_finite(q, j - u, ctx))
            * beta ** u * (q / alpha) ** (j - u))


def _profile_ratio_step(alpha: np.ndarray, beta: np.ndarray, t: np.ndarray, s: np.ndarray,
                        ctx: QContext):
    """P_{alpha q, beta q}(s, w) / P_{alpha, beta}(s, w) (one-factor updates) on (rows x
    columns) ndarrays alpha, beta and a t = lam w, s per column; and, when a factor is
    within the margin, each column's first pole as (row, PoleProximity) or None."""
    num = ((1.0 - beta * t * s) * (1.0 - t / alpha)
           * (1.0 - t * s / beta) * (1.0 - beta / t))
    facs = np.array([1.0 - alpha * t * s, 1.0 - t / beta,
                     1.0 - t * s / alpha, 1.0 - alpha / t])
    hit = (np.abs(facs) <= ctx.pole_margin).any(axis=0)
    poles = hit.any() and [(i, PoleProximity("profile kernel shift update within margin"))
                           if i < len(hit) else None for i in _first(hit).tolist()]
    return num / np.prod(facs, axis=0), poles or None


def generating_Q_terms(s, w, kp: KernelParams, lam: complex, products=None) -> tuple:
    """The three additive terms of the scaled profile-generating residual at the points
    (s, w), scalars or ndarrays of one shape: the profile kernels of every point from one
    qpoch_infinite call (or products, _generating_quotients' values), and the two family
    sums of every point from one series run."""
    products = products or qpoch_quotients(_generating_quotients(s, w, kp, lam), kp.ctx)
    p1, p2, pf, pg = (math.prod(products[i:i + 4]) for i in range(0, 16, 4))
    sf, sg = _family_sums(*np.broadcast_arrays(s, w), kp, lam)
    return p1 * p2, kp.Hb * (pf * sf), kp.Kcde * (pg * sg)


def _family_sums(s: np.ndarray, w: np.ndarray, kp: KernelParams, lam: complex) -> np.ndarray:
    """sum_k u_k P_{alpha q^k, beta q^k}(s, w) / P_{alpha, beta}(s, w) at every point, by its
    term ratio, for the f family (alpha, beta = c, b) and then the g family (c^2/bde, c/de):
    one _series_sum run, with a column per family and point, each with its own stop."""
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    n = s.size
    coeff_ratio = term_ratio([f_spec(kp).ratio_params(ctx), g_spec(kp).ratio_params(ctx)], ctx)
    alpha = np.repeat([c, c * c / (b * d * e)], n)
    beta = np.repeat([b, c / (d * e)], n)
    t, s_col = np.tile((lam * w).ravel(), 2), np.tile(s.ravel(), 2)
    family = np.repeat([0, 1], n)  # the family of each column

    def ratio(k: int, x: np.ndarray):
        (r, poles), (step, step_poles) = (coeff_ratio(k, x), _profile_ratio_step(
            alpha * x[:, None], beta * x[:, None], t, s_col, ctx))
        if poles or step_poles:  # each column's first pole, of its coefficients or its kernel
            poles = [min(filter(None, (poles and poles[f], step_poles and step_poles[j])),
                         key=lambda p: p[0], default=None) for j, f in enumerate(family.tolist())]
        return r.take(family, axis=1) * step, poles

    sums = _series_sum(ratio, [None] * (2 * n), ctx)
    return np.array([tb.value for tb in sums]).reshape((2,) + s.shape)


def _generating_quotients(s, w, kp: KernelParams, lam: complex) -> list:
    return [quot for al, be in _profile_pairs(kp)
            for quot in _P_quotients(s, w, al, be, lam, kp.ctx)]


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
    return ProfileMoments(m, *_profile_sums(kp, (b / c) * q ** m), True)


def profile_coefficient_terms(points, kp: KernelParams, lam: complex,
                              moments: dict | None = None) -> list[tuple]:
    """The three additive terms of [s^j] of the generating residual at each point (j, w).

    Assembled from the closed kernel coefficients and the moment window
    F_m, G_m with m = 2u - j, |m| <= j: the quasi-periodicity of the
    profile quotients turns the k-sums into contiguous moments (kept in moments).
    """
    ctx, pairs = kp.ctx, _profile_pairs(kp)
    moments = {} if moments is None else moments
    drawn = []

    def calls():  # in the order of a loop over the points, which raises the same first error
        for j, w in points:
            drawn.append((j, w))
            yield from ([_L_quotient(w, al, be, lam, ctx)] for al, be in pairs[:2])
            for m in range(-j, j + 1, 2):
                if m not in moments:
                    moments[m] = contiguous_moment(kp, m)
                if not moments[m].convergent:
                    raise ConvergenceRegionViolation(f"moment m={m} outside its convergence region")
            yield from ([_L_quotient(w, al, be, lam, ctx)] for al, be in pairs[2:])

    values = iter(qpoch_quotients_each(calls(), ctx))  # each distinct profile once
    out = []
    for j, w in drawn:
        f1, f2 = (_kernel_coefficients(next(values)[0], range(j + 1), w, al, be, lam, ctx)
                  for al, be in pairs[:2])

        def family_term(alpha0: complex, beta0: complex, pick) -> complex:
            total = sum((_kernel_weight(u, j, alpha0, beta0, ctx) * pick(moments[2 * u - j])
                         for u in range(j + 1)), 0.0 + 0.0j)
            return next(values)[0] * (lam * w) ** j * total

        out.append((sum(map(operator.mul, f1, reversed(f2))),
                    kp.Hb * family_term(*pairs[2], lambda mom: mom.F_m),
                    kp.Kcde * family_term(*pairs[3], lambda mom: mom.G_m)))
    return out


@dataclass(frozen=True)
class ProfileLimitResiduals:
    """Scale-relative distances of the normalised quotients to their limits."""

    r_residual: float
    s_residual: float
    q0_residual: float


def exponential_profile_limit_residual(k: int, points, lam: complex
                                       ) -> list[ProfileLimitResiduals]:
    """Distance of (b/c)^{N-k} R_k, (b/c)^{N-k} S_k and (b/c)^N Q_0 to their limits at each
    point (w, kp, N) of a sequence (kernels of one context).

    The limits are the theta-quotient profiles L_{c,b}, L_{c^2/bde, c/de}
    and L_{c/d,b} L_{c/e,c/de}; convergence is geometric in N at fixed k.
    The eight quotients of every point come from qpoch_quotients_each.
    """
    drawn = []

    def calls():  # in the order of a loop over the points, which raises the same first error
        for w, kp, N in points:
            if not 0 <= k <= N:
                raise DomainError("need 0 <= k <= N")
            b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
            z, qk, pairs = lam * ctx.q ** N * w, ctx.q ** k, _profile_pairs(kp)
            drawn.append(((b / c) ** (N - k), (b / c) ** N))
            quotients = []
            for al, be in [(c * qk, b * qk), (c * c * qk / (b * d * e), c * qk / (d * e)),
                           *pairs[:2]]:
                require_clear(ctx, "profile quotient", be * z, be / z)
                quotients.append((sym_bases(z, al), sym_bases(z, be),
                                  "profile quotient: vanishing denominator"))
            yield quotients + [_L_quotient(w, al, be, lam, ctx) for al, be in pairs]

    return [ProfileLimitResiduals(scaled_residual(scale_pow * rk, r_lim),
                                  scaled_residual(scale_pow * sk, s_lim),
                                  scaled_residual(layer_pow * qd * qe, ld * le))
            for (scale_pow, layer_pow), (rk, sk, qd, qe, ld, le, r_lim, s_lim)
            in zip(drawn, qpoch_quotients_each(calls(), points[0][1].ctx))]


@dataclass(frozen=True)
class CanonicalGrowth:
    """Canonical two-grid product split into monomial growth and bounded factor."""

    Z_value: complex
    extracted_monomial: complex
    C_factor: complex


def canonical_growth_profile(lam: complex, points, kp: KernelParams) -> list[CanonicalGrowth]:
    """The two-grid canonical product Z(z) = (bz, b/z, cz/de, c/dez;q)_inf on layer N split
    as C_{lam,N}(w) q^{-N(N+1)} (bc/(de lam^2 w^2))^N, at each point (N, w).

    The C factor is computed from its own product expression; the record
    therefore certifies the split rather than defining C as a quotient.
    The infinite products of every point come from qpoch_groups_each.
    """
    b, c, d, e, ctx = kp.b, kp.c, kp.d, kp.e, kp.ctx
    q = ctx.q
    cde = c / (d * e)
    drawn = []

    def calls():  # in the order of a loop over the points, which raises the same first error
        for N, w in points:
            z = lam * q ** N * w
            drawn.append((N, w, q ** (-N * (N + 1)) * (b * c / (d * e * lam * lam * w * w)) ** N))
            yield [sym_bases(z, b, cde), [b * z, cde * z, b / (lam * w), cde / (lam * w)]]

    return [CanonicalGrowth(zval, monomial, cinf * qpoch_finite(lam * w * q / b, N, ctx)
                            * qpoch_finite(lam * w * q / cde, N, ctx))
            for (N, w, monomial), (zval, cinf) in zip(drawn, qpoch_groups_each(calls(), ctx))]


def bridge_residual(N, w, kp: KernelParams, lam: complex):
    """Gap between the generating residual at s = q^N and (b/c)^N E/Z on layer N.

    Exact identity; both sides are near zero, so the gap is reported
    relative to the largest additive term of the generating residual.
    N and w are scalars or ndarrays of one shape: the gap at every point
    (N, w), all products from one qpoch_infinite call.
    """
    b, c, ctx = kp.b, kp.c, kp.ctx
    s = ctx.q ** N
    z = lam * s * w
    products = qpoch_quotients(
        [*((group, [], "") for group in E_groups(z, kp)),
         (sym_bases(z, b, c / (kp.d * kp.e)), [], ""),
         *_generating_quotients(s, w, kp, lam)], ctx)
    terms = generating_Q_terms(s, w, kp, lam, products[6:])
    e_terms = pole_cleared_E_terms(z, kp, kp.series_depth, products[:5])
    rhs = (b / c) ** N * reduce(operator.sub, e_terms) / products[5]
    return abs(reduce(operator.sub, terms) - rhs) / reduce(np.maximum, map(abs, terms))
