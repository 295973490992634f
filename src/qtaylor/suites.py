"""Check catalog for the verification suites.

Each check evaluates one identity family at seeded draws and emits a
CheckRecord carrying the draw parameters, the worst residual, its scale,
the tolerance and the verdict.  Records are deterministic functions of
(config, seed): suite RNGs are derived from the master seed by fixed
offsets, never from global state.

Every check is a ``with check(name, anchor, tol, **params) as c:`` block
(:class:`Check`) that keeps its worst residual.  ``scale`` is what that
residual was divided by: the largest |t_i| of an identity t_0 = t_1 + ...
judged by ``c.terms`` (``qcore.residual_and_scale``), |ref| of a relative
error judged by ``c.rel``, and 1.0 for a residual passed to ``c.see``
as is.  A ``QTaylorError`` or ``ArithmeticError`` raised inside a block
fails that check alone, with residual inf and ``"<Type>: message"`` in
``detail``.  Draws and values that several checks share are made before
the first of them opens; an error there, such as a sampler that runs out
of tries, aborts the suite as one ``suite-abort`` record.

Anchor strings are stable identity labels used for traceability in
reports; check ids are unique within a suite.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import asdict, dataclass, field
from functools import partial

import numpy as np

from . import hyper, kernel, profiles, qcore, quadratic, taylor, wpoperator
from .errors import ConfigError, DomainError, QTaylorError
from .qcore import QContext, residual_and_scale, scaled_residual
from .sampling import (sample_basis_pair, sample_complex, sample_kernel_params,
                       sample_kernel_z, sample_on_circle,
                       sample_profile_kernel_params, sample_quadratic_params,
                       sample_with, sample_z)

SUITE_NAMES = ("qcore", "hyper", "operator", "taylor", "kernel", "laurent",
               "profiles", "quadratic")
_SUITE_OFFSET = {name: 1000 + 17 * i for i, name in enumerate(SUITE_NAMES)}


def format_complex(z: complex) -> str:
    """Round-trip text form 're+imi' (imaginary part omitted when zero)."""
    z = complex(z)
    if z.imag == 0:
        return repr(z.real)
    sign = "+" if z.imag >= 0 else "-"
    return f"{z.real!r}{sign}{abs(z.imag)!r}i"


def parse_complex(text: str) -> complex:
    """Parse the 're+imi' convention (also accepts plain reals and 'j')."""
    s = text.strip().replace(" ", "")
    if not s:
        raise ConfigError("empty complex literal")
    if s.endswith("i") and not s.endswith("j"):
        s = s[:-1] + "j"
    try:
        if s.endswith("j"):
            return complex(s)
        return complex(float(s), 0.0)
    except ValueError as exc:
        raise ConfigError(f"bad complex literal {text!r}") from exc


def kernel_params_from_config(entry, ctx: QContext) -> kernel.KernelParams:
    """Build a kernel quadruple from a config record {b, c, d, e}."""
    if not isinstance(entry, dict) or not set("bcde") <= entry.keys():
        raise ConfigError("explicit kernel entries must be objects with fields "
                          f"b, c, d, e; got {entry!r}")
    return kernel.KernelParams(*(parse_complex(str(entry[k])) for k in "bcde"), ctx)


@dataclass
class CheckRecord:
    """One verified identity family: parameters, residual, verdict."""

    suite: str
    check: str
    anchor: str
    params: dict
    residual: float
    scale: float
    tol: float
    passed: bool
    detail: str = ""

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass
class SuiteConfig:
    """Everything a run needs; the seed fixes every sampled quantity."""

    suites: tuple[str, ...] = SUITE_NAMES
    q: complex = 0.45
    seed: int = 20240901
    draws: int = 12
    modulus_lo: float = 0.3
    modulus_hi: float = 0.9
    eps_rel: float | None = None
    max_terms: int | None = None
    negative_controls: bool = False
    explicit_kernel: tuple = ()

    def context(self) -> QContext:
        if self.eps_rel is None:
            return QContext(self.q, max_terms=self.max_terms)
        return QContext(self.q, self.eps_rel, self.max_terms)

    def rng_for(self, suite: str) -> random.Random:
        return random.Random(self.seed + _SUITE_OFFSET[suite])


@dataclass
class VerificationReport:
    records: list = field(default_factory=list)
    config_echo: dict = field(default_factory=dict)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def summary(self) -> dict:
        per_suite: dict = {}
        for r in self.records:
            entry = per_suite.setdefault(r.suite, {"checks": 0, "failures": 0,
                                                   "max_residual": 0.0})
            entry["checks"] += 1
            entry["failures"] += 0 if r.passed else 1
            if math.isfinite(r.residual):
                entry["max_residual"] = max(entry["max_residual"], r.residual)
        return {"config": self.config_echo, "suites": per_suite,
                "passed": self.all_passed}


def _clean(v):
    """A JSON-ready parameter value; complex numbers in 're+imi' form."""
    if isinstance(v, complex):
        return format_complex(v)
    return v.item() if isinstance(v, np.generic) else v


class Check:
    """One check of a suite: a ``with`` block that writes its record on exit.

    The record slot in ``records`` is reserved when the block opens, so
    records keep the order in which their checks opened.
    """

    def __init__(self, records: list, suite: str, check: str, anchor: str,
                 tol: float, **params):
        self._records = records
        self.suite, self.check, self.anchor, self.tol = suite, check, anchor, tol
        self.params = params
        self.residual, self.scale, self.detail = 0.0, 1.0, ""

    def see(self, *residuals, scale=1.0) -> None:
        """Keep the largest residual and the scale it was divided by; a NaN sticks."""
        worst = float(np.max(residuals))
        if not (worst < self.residual or math.isnan(self.residual)):
            self.residual, self.scale = worst, float(scale)

    def rel(self, value, ref) -> None:
        """Judge value against a reference value: |value - ref| / |ref|."""
        self.see(abs(value - ref) / abs(ref), scale=abs(ref))

    def terms(self, *terms) -> None:
        """Judge t_0 = t_1 + ... by residual_and_scale at a point or an array of points."""
        res, scale = map(np.ravel, residual_and_scale(*terms))
        i = np.argmax(res)
        self.see(res[i], scale=scale[i])

    def __enter__(self) -> Check:
        self._slot = len(self._records)
        self._records.append(None)
        return self

    def __exit__(self, kind, exc, tb) -> bool:
        if exc is not None:
            if (isinstance(exc, ConfigError)
                    or not isinstance(exc, (QTaylorError, ArithmeticError))):
                return False
            self.residual, self.scale = math.inf, 1.0
            self.detail = f"{kind.__name__}: {exc}"
        self._records[self._slot] = CheckRecord(
            self.suite, self.check, self.anchor,
            {k: _clean(v) for k, v in self.params.items()}, self.residual,
            self.scale, float(self.tol),
            bool(math.isfinite(self.residual) and self.residual < self.tol),
            self.detail)
        return True


# ---------------------------------------------------------------- qcore

def run_qcore(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, rng, out = cfg.context(), cfg.rng_for("qcore"), []
    check = partial(Check, out, "qcore")
    q = ctx.q

    with check("recurrence", "qpoch-def", 1e-13, draws=32) as c:
        for _ in range(32):
            a = sample_complex(rng, 0.1, 1.4)
            n = rng.randrange(0, 32)
            c.terms(qcore.qpoch_finite(a, n + 1, ctx),
                    qcore.qpoch_finite(a, n, ctx) * (1 - a * q ** n))

    with check("infinite-shift", "qpoch-infinite-split", 1e-12, draws=cfg.draws) as c:
        for _ in range(cfg.draws):
            a = sample_complex(rng, 0.2, 0.95)
            k = rng.randrange(0, 9)
            c.terms(qcore.qpoch_infinite(a, ctx).value,
                    qcore.qpoch_finite(a, k, ctx)
                    * qcore.qpoch_infinite(a * q ** k, ctx).value)

    a, b = sample_complex(rng), sample_complex(rng)
    with check("multi-factorwise", "qpoch-multi", 1e-12, a=a, b=b) as c:
        c.rel(qcore.qpoch_multi([a, b], None, ctx).value,
              qcore.qpoch_infinite(a, ctx).value * qcore.qpoch_infinite(b, ctx).value)

    u = np.array([sample_complex(rng, 0.3, 1.6) for _ in range(200)])
    with check("theta-symmetry", "theta-def", 1e-12, draws=200) as c:
        c.terms(qcore.theta(u, ctx), qcore.theta(q / u, ctx))

    with check("theta-grid-zero", "theta-def", 1e-12) as c:
        zero_dev = max(abs(qcore.theta(1.0, ctx)), abs(qcore.theta(q, ctx)))
        scale = abs(qcore.theta(-1.0, ctx))
        c.see(zero_dev / scale, scale=scale)

    x, y, u, v = np.array([[sample_complex(rng, 0.5, 1.5) for _ in range(4)]
                           for _ in range(200)]).T
    with check("weierstrass-addition", "weierstrass-addition", 1e-12, draws=200) as c:
        c.terms(*qcore.weierstrass_terms(x, y, u, v, ctx))
    return out


# ---------------------------------------------------------------- hyper

def _rogers_draw(rng, ctx):
    while True:
        a = sample_complex(rng, 0.2, 0.9)
        b, c, d = (sample_complex(rng, 0.35, 0.95) for _ in range(3))
        if abs(a * ctx.q / (b * c * d)) <= 0.7:
            return a, b, c, d


def run_hyper(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, rng, out = cfg.context(), cfg.rng_for("hyper"), []
    check = partial(Check, out, "hyper")
    q = ctx.q

    with check("phi-z0", "basic-hypergeometric-def", 1e-15) as c:
        spec = hyper.PhiSeriesSpec((0.4 + 0.1j, 0.3), (0.5 - 0.2j,), 0.0)
        c.see(abs(hyper.phi_eval(spec, None, ctx).value - 1.0))

    with check("phi-terminating", "basic-hypergeometric-def", 1e-13, n=1) as c:
        spec = hyper.PhiSeriesSpec((1 / q, 0.4), (0.6,), 0.3 + 0.2j)
        exact = hyper.phi_eval(spec, 1, ctx).value
        c.rel(hyper.phi_eval(spec, 9, ctx).value, exact)

    with check("phi-vs-long-sum", "basic-hypergeometric-def", 1e-12,
               draws=cfg.draws) as c:
        for _ in range(cfg.draws):
            nums = tuple(sample_complex(rng, 0.2, 0.9) for _ in range(3))
            dens = tuple(sample_complex(rng, 0.3, 0.9) for _ in range(2))
            z = sample_complex(rng, 0.1, 0.5)
            spec = hyper.PhiSeriesSpec(nums, dens, z)
            c.rel(hyper.phi_eval(spec, None, ctx).value, hyper.phi_eval(spec, 220, ctx).value)

    k = 9
    with check("vwp-telescoping", "W-summand", 1e-14, k=k) as c:
        vspec = hyper.VWPSpec(0.55, (0.6 + 0.2j, 0.7, 0.4 - 0.3j), 0.3 + 0.1j)
        s8 = hyper.vwp_eval(vspec, 8, ctx).value
        s9 = hyper.vwp_eval(vspec, 9, ctx).value
        # the k=9 summand rebuilt from shifted factorial products
        a0 = vspec.a
        summand = ((1 - a0 * q ** (2 * k)) / (1 - a0)
                   * qcore.qpoch_finite(a0, k, ctx)
                   * qcore.qpoch_multi(vspec.b_list, k, ctx).value
                   / (qcore.qpoch_finite(q, k, ctx)
                      * qcore.qpoch_multi([a0 * q / b for b in vspec.b_list], k, ctx).value)
                   * vspec.argument ** k)
        c.see(abs((s9 - s8) - summand) / max(abs(s9), abs(summand)))

    with check("vwp-expanded-roots", "W-notation", 1e-12, draws=6) as c:
        for _ in range(6):
            a = rng.uniform(0.3, 0.8)  # real positive: explicit root exists
            root = math.sqrt(a)
            blist = tuple(sample_complex(rng, 0.4, 0.9) for _ in range(2))
            z = sample_complex(rng, 0.1, 0.4)
            vs = hyper.VWPSpec(a, blist, z)
            v1 = hyper.vwp_eval(vs, 24, ctx).value
            for r in (root, -root):
                c.rel(hyper.phi_eval(hyper.vwp_expanded_spec(vs, r, ctx), 24, ctx).value, v1)
            c.see(hyper.well_poised_defect(vs, ctx))

    with check("rogers-summation", "rogers-6w5", 1e-9, draws=cfg.draws) as c:
        for _ in range(cfg.draws):
            c.see(hyper.rogers_6w5_residual(*_rogers_draw(rng, ctx), ctx))
        # a = 0.018/|q| holds |aq/(bcd)| at 0.55 for every base (a = 0.04 at q = 0.45)
        c.see(hyper.rogers_6w5_residual(0.018 / abs(q), 0.8, 0.05 + 0.01j, 0.8, ctx))

    with check("jackson-summation", "jackson-8w7", 1e-10, draws=cfg.draws,
               n_max=12) as ch:
        for _ in range(cfg.draws):
            a, b, c, d = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
            n = rng.randrange(0, 13)
            ch.see(hyper.jackson_8w7_residual(a, b, c, d, n, ctx))
    return out


# ---------------------------------------------------------------- operator

def _sample_operator_point(rng, ctx):
    def ok(z):
        return abs(z - 1 / z) > 0.2 and abs(abs(z) - 1.0 / math.sqrt(abs(ctx.q))) > 0.05
    return sample_with(rng, lambda r: sample_z(r), ok)


def _random_phi_function(rng, ctx, degree):
    pair = sample_basis_pair(rng)
    coeffs = [sample_complex(rng, 0.5, 1.5) for _ in range(degree + 1)]
    return taylor.phi_combination(pair, coeffs, ctx)


def run_operator(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, rng, out = cfg.context(), cfg.rng_for("operator"), []
    check = partial(Check, out, "operator")
    q = ctx.q
    rq = ctx.sqrt_q

    z = _sample_operator_point(rng, ctx)
    with check("dq-basics", "Dq", 1e-13, z=z) as c:
        const = wpoperator.SymmetricFunction(lambda _: 2.7 - 0.4j)
        xfun = wpoperator.SymmetricFunction(lambda w: (w + 1 / w) / 2)
        c.see(abs(wpoperator.apply_Dq(const, z, ctx)),
              abs(wpoperator.apply_Dq(xfun, z, ctx) - 1.0))

    with check("dcq-c0-reduction", "Dcq", 1e-13, draws=cfg.draws) as c:
        for _ in range(cfg.draws):
            f = _random_phi_function(rng, ctx, 3)
            z = _sample_operator_point(rng, ctx)
            c.terms(wpoperator.apply_Dcq(f, z, 0.0, ctx), wpoperator.apply_Dq(f, z, ctx))

    pair = sample_basis_pair(rng)
    with check("phi1-lowering", "lowering-Phi", 1e-12, a=pair.a, c=pair.c) as c:
        f1 = taylor.phi_function(pair, 1, ctx)
        want = -2 * pair.a * (1 - pair.c / pair.a) * (1 - pair.a * pair.c)
        for _ in range(4):
            z = _sample_operator_point(rng, ctx)
            c.rel(wpoperator.apply_Dcq(f1, z, pair.c, ctx), want)

    with check("iterated-lowering", "iterated-lowering", 1e-9, n_max=5) as ch:
        for n in range(1, 6):
            pair = sample_basis_pair(rng)
            fn = taylor.phi_function(pair, n, ctx)
            z = _sample_operator_point(rng, ctx)
            for k in range(n + 1):
                got = wpoperator.apply_iterated(fn, z, wpoperator.OperatorChainSpec(pair.c, k), ctx)
                a, c = pair.a, pair.c
                pref = ((-1) ** k * (2 * a) ** k * rq ** (k * (k - 1) // 2)
                        * qcore.qpoch_finite(q, n, ctx) * qcore.qpoch_finite(c / a, k, ctx)
                        * qcore.qpoch_finite(a * c * q ** (n - 1), k, ctx)
                        / (qcore.qpoch_finite(q, n - k, ctx) * (1 - q) ** k))
                shifted = taylor.BasisPair(a * rq ** k, c * rq ** (3 * k))
                want = pref * taylor.phi_basis(z, shifted, n - k, ctx)
                ch.see(abs(got - want) / max(abs(want), 1e-30))

    with check("closed-form-vs-recursion", "p0-cooper", 1e-8, draws=cfg.draws,
               m_max=6) as ch:
        for _ in range(cfg.draws):
            f = _random_phi_function(rng, ctx, 8)
            z = _sample_operator_point(rng, ctx)
            m = rng.randrange(0, 7)
            c = sample_complex(rng)
            ch.terms(wpoperator.cooper_eval(f, z, c, m, ctx),
                     wpoperator.apply_iterated(f, z, wpoperator.OperatorChainSpec(c, m), ctx))

    pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
    with check("delta-property", "delta-property", 1e-8, a=pair.a, c=pair.c,
               order=6) as c:
        for n in range(7):
            expansion = taylor.taylor_expand(taylor.phi_function(pair, n, ctx), pair, 6, ctx)
            for k, t in enumerate(expansion.coefficients):
                c.see(abs(t - (1.0 if k == n else 0.0)))

    # negating the root reflects the evaluation point; the divided
    # difference of an odd symmetric function and the full coefficient
    # functional of any symmetric function are branch-free
    z = _sample_operator_point(rng, ctx)
    with check("branch-invariance", "Dq", 1e-10, z=z) as c:
        g_odd = wpoperator.SymmetricFunction(
            lambda w: ((w + 1 / w) / 2) ** 3 + 2.0 * (w + 1 / w) / 2)
        c.terms(wpoperator.apply_Dq(g_odd, z, ctx),
                wpoperator.apply_Dq(g_odd, z, ctx, root=-ctx.sqrt_q))
        pair = sample_basis_pair(rng)
        f = taylor.phi_combination(pair, [0.7, 1.1 - 0.3j, 0.8j, 0.5], ctx)
        t, t_flipped = (taylor.taylor_expand(f, pair, 3, branch).coefficients
                        for branch in (ctx, ctx.other_branch()))
        for k in range(4):
            c.terms(t[k], t_flipped[k])

    pair = sample_basis_pair(rng)
    with check("grid-functional-weights", "finite-grid-functional", 1e-10, j=1) as ch:
        a, c = pair.a, pair.c
        w = wpoperator.grid_functional_weights(a, c, 1, ctx)
        phi1 = taylor.phi_function(pair, 1, ctx)
        scalar = w[0] * phi1(a) + w[1] * phi1(a * q)
        want = -2 * a * (1 - c / a) * (1 - a * c)  # order-1 lowering value
        # the weights annihilate constants
        ch.see(abs(w[0] + w[1]) / max(abs(w[0]), abs(w[1])), abs(scalar - want) / abs(want))
    return out


# ---------------------------------------------------------------- taylor

def run_taylor(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, rng, out = cfg.context(), cfg.rng_for("taylor"), []
    check = partial(Check, out, "taylor")
    q = ctx.q

    with check("coefficient-recovery", "finite-coeff", 1e-8, n_max=8) as c:
        for _ in range(max(cfg.draws // 2, 4)):
            pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
            n = rng.randrange(1, 9)
            coeffs = [sample_complex(rng, 0.5, 1.5) for _ in range(n + 1)]
            f = taylor.phi_combination(pair, coeffs, ctx)
            for t, want in zip(taylor.taylor_expand(f, pair, n, ctx).coefficients, coeffs):
                c.rel(t, want)

    a, c, d = sample_complex(rng, 0.4, 0.85), sample_complex(rng, 0.35, 0.8), \
        sample_complex(rng, 0.4, 0.85)
    with check("first-reexpansion", "first-reexpansion", 1e-9, a=a, c=c, d=d) as ch:
        pair = taylor.BasisPair(a, c)
        f = taylor.phi_function(taylor.BasisPair(d, c), 1, ctx)
        t0, t1 = taylor.taylor_expand(f, pair, 1, ctx).coefficients
        w0 = (1 - a * d) * (1 - d / a) / ((1 - a * c) * (1 - c / a))
        w1 = (d / a) * (1 - c / d) * (1 - c * d) / ((1 - c / a) * (1 - a * c))
        ch.rel(t0, w0)
        ch.rel(t1, w1)

    pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
    f = taylor.phi_combination(pair, [1.0, 0.8 + 0.1j, 0.5], ctx)
    g = taylor.phi_combination(pair, [0.3, -0.6j, 0.9, 0.2], ctx)
    al, be = sample_complex(rng, 0.5, 1.5), sample_complex(rng, 0.5, 1.5)
    with check("linearity", "taylor-coeff-finite", 1e-10) as c:
        h = wpoperator.SymmetricFunction(lambda z: al * f(z) + be * g(z))
        th, tf, tg = (taylor.taylor_expand(fn, pair, 3, ctx).coefficients
                      for fn in (h, f, g))
        for k in range(4):
            c.terms(th[k], al * tf[k] + be * tg[k])

    z = sample_z(rng)
    with check("remainder-consistency", "T-and-R", 1e-15, z=z) as c:
        t_sum, remainder = taylor.taylor_sum_and_remainder(f, pair, 2, z, ctx)
        c.rel(t_sum + remainder, f(z))
        c.detail = "T_n + R_n reproduces f(z) to rounding"

    pair = sample_basis_pair(rng, lo=0.4, hi=0.8)
    with check("flat-function", "flat-functions", 1e-8, a=pair.a, c=pair.c) as c:
        flat = wpoperator.SymmetricFunction(
            lambda z: qcore.qpoch_groups([kernel.sym_bases(z, pair.a)], ctx)[0])
        # depth where the rounding floor of near-grid cofactors stays harmless
        k_flat = 3
        while k_flat < 6 and abs(q) ** (-(k_flat + 1) * (k_flat + 2) / 2) < 1e6:
            k_flat += 1
        c.see(taylor.flatness_check(flat, pair, k_flat, ctx))
        bfac = wpoperator.SymmetricFunction(lambda z: flat(z) * (1.3 + 0.5 * (z + 1 / z)))
        c.see(taylor.flatness_check(bfac, pair, k_flat - 1, ctx))
        bumpy = taylor.flatness_check(taylor.phi_function(pair, 3, ctx), pair, 4, ctx)
        c.see(0.0 if bumpy > 1e-4 else math.inf)
        c.detail = f"negative control (phi_3) flatness={bumpy:.3e}"

    pair = taylor.BasisPair(sample_complex(rng, 0.4, 0.8), 0.5)
    with check("basis-boundedness", "basis-bounded", 1e-4, a=pair.a, c=pair.c) as c:
        sups = taylor.basis_sup_curve(pair, (0.95, 1.05), 40, ctx)
        est = taylor.basis_sup_estimate(pair, (0.95, 1.05), 40, ctx)
        plateau = max(sups[30:]) / max(sups[15:25])
        z0 = 1.02 + 0.0j
        lim = taylor.basis_limit_modulus(z0, pair, ctx)
        tail_dev = abs(abs(taylor.phi_basis(z0, pair, 40, ctx)) - lim) / lim
        c.see(abs(plateau - 1.0), tail_dev, abs(sups[0] - 1.0), abs(est - max(sups)))
        c.detail = f"sampled sup={est:.4g}"
    return out


# ---------------------------------------------------------------- kernel

def run_kernel(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, rng, out = cfg.context(), cfg.rng_for("kernel"), []
    check = partial(Check, out, "kernel")
    q = ctx.q
    n_half = max(cfg.draws // 2, 4)

    points = [(sample_kernel_params(rng, ctx, lo=cfg.modulus_lo, hi=cfg.modulus_hi),
               sample_z(rng)) for _ in range(n_half)]
    with check("factorisation", "A-B", 1e-12, draws=n_half) as c:
        for kp, z in points:
            kf = kernel.kernel_factors(z, kp)
            c.rel(kf.A * kf.H, kf.F)
            c.rel(kf.B * kf.K, kf.F)

    with check("involution", "involution", 1e-12, draws=n_half) as c:
        for kp, z in points:
            ip = kernel.involute(kp)
            iip = kernel.involute(ip)
            c.see(abs(iip.b - kp.b), abs(iip.c - kp.c), abs(iip.d - kp.d),
                  abs(iip.e - kp.e))
            c.rel(kernel.kernel_H(z, ip), kernel.kernel_K(z, kp))
            c.rel(taylor.phi_basis(z, ip.phi_pair, 5, ctx),
                  taylor.phi_basis(z, kp.psi_pair, 5, ctx))

    kp = sample_kernel_params(rng, ctx)
    with check("g-equals-involuted-f", "g-coeff", 1e-12, k_max=12) as c:
        for k in range(13):
            g = kernel.gk_coefficient(kp, k)
            fi = kernel.fk_coefficient(kernel.involute(kp), k)
            c.see(abs(g - fi) / max(abs(g), 1e-30))

    with check("f-ratio-geometric", "f-coeff", 0.10, k="20..40") as c:
        for k in range(20, 40):
            ratio = kernel.fk_coefficient(kp, k + 1) / kernel.fk_coefficient(kp, k)
            c.rel(abs(ratio), abs(q))

    kp = sample_kernel_params(rng, ctx, lo=0.35, hi=0.85)
    with check("taylor-crosscheck", "f-coeff-taylor", 1e-7, k_max=6) as c:
        c.see(kernel.kernel_taylor_crosscheck(kp, 6),
              kernel.kernel_taylor_crosscheck(kernel.involute(kp), 6))

    quadruples = [kernel_params_from_config(entry, ctx)
                  for entry in cfg.explicit_kernel]
    n_draws = len(quadruples) or cfg.draws
    first = None
    with check("two-basis-identity", "two-basis-identity", 1e-7, draws=n_draws,
               trunc=0, explicit=bool(quadruples)) as c:
        for i in range(n_draws):
            kp = (quadruples[i] if quadruples
                  else sample_kernel_params(rng, ctx, lo=cfg.modulus_lo,
                                            hi=cfg.modulus_hi))
            z = sample_kernel_z(rng, kp)
            depth = kernel.adaptive_series_depth(kp)
            c.params["trunc"] = max(c.params["trunc"], depth)
            r = kernel.two_basis_residual(z, kp, depth)
            first = first or (z, kp, depth, r)
            c.see(r, kernel.two_basis_residual(1 / z, kp, depth))

    with check("negative-control-Hb", "two-basis-identity", 1e-6) as c:
        if first is None:
            raise DomainError("two-basis-identity evaluated no draw to degrade")
        z, kp, depth, r = first
        c.params["z"] = z
        ratio = kernel.two_basis_residual(z, kp, depth, force_unit_Hb=True) / max(r, 1e-300)
        c.see(1.0 / ratio)
        c.detail = f"degradation {ratio:.3e}x"

    kp = sample_profile_kernel_params(rng, ctx)
    z = sample_z(rng)
    orders = qcore.fit_window(abs(q))
    with check("remainder-gap-ratio", "R-H-limit", 0.30,
               orders=f"{orders[0]}..{orders[-1]}") as c:
        for key, kq in (("fit", kp), ("fit_involuted", kernel.involute(kp))):
            gaps = kernel.remainder_gap_curve(z, kq, orders)
            c.params[key] = math.exp(np.polyfit(orders, np.log(gaps), 1)[0])
            c.rel(c.params[key], abs(q))

    with check("lowering-laws", "H-lowering", 1e-8, draws=n_half) as c:
        for _ in range(n_half):
            kp = sample_kernel_params(rng, ctx)
            z = sample_z(rng)
            c.see(kernel.H_lowering_residual(z, kp),
                  kernel.H_lowering_residual(z, kernel.involute(kp)),
                  kernel.K_lowering_residual(z, kp))

    kp = sample_kernel_params(rng, ctx)
    depth = kernel.adaptive_series_depth(kp)
    with check("E-grid-zeros", "E-grid-zeros", 1e-7, grid_powers="0..10",
               depth=depth) as c:
        grid = np.array([z0 for m in range(11)
                         for z0 in (kp.b * q ** m, kp.c / (kp.d * kp.e) * q ** m)])
        c.terms(*kernel.pole_cleared_E_terms(grid, kp, depth))

    z = sample_z(rng)
    with check("pole-clearing-paths", "M-pole-clear", 1e-8, z=z) as c:
        m_val = kernel.M_clearing(z, kp)
        t1, t2, t3 = kernel.two_basis_terms(z, kp, depth)
        e_terms = kernel.pole_cleared_E_terms(z, kp, depth)
        e_direct = e_terms[0] - e_terms[1] - e_terms[2]
        # both routes are near-cancelling sums: scale by their largest additive term
        scale = max(abs(t) for t in (m_val * t1, m_val * t2, m_val * t3) + e_terms)
        c.see(abs(m_val * (t1 - t2 - t3) - e_direct) / scale, scale=scale)

    N = 5
    with check("truncated-flatness", "finite-grid-zeros", 1e-7, N=N) as c:
        grid = kp.b * q ** np.array([*range(N + 1), N + 3])
        *flat, beyond = scaled_residual(*kernel.pole_cleared_E_terms(grid, kp, N))
        c.see(*flat, 0.0 if beyond > 1e-5 else math.inf)
        c.detail = f"beyond-depth residual {beyond:.3e} (not flat)"

    n_third = max(cfg.draws // 3, 3)
    with check("vwp-rewriting", "deduce-bailey-8phi7", 1e-7, draws=n_third) as c:
        for _ in range(n_third):
            kp = sample_kernel_params(rng, ctx)
            c.see(kernel.bailey_crosscheck(kp, sample_kernel_z(rng, kp)),
                  kernel.bailey_crosscheck(kp, sample_on_circle(rng)))
    return out


# ---------------------------------------------------------------- laurent

def run_laurent(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, rng, out = cfg.context(), cfg.rng_for("laurent"), []
    check = partial(Check, out, "laurent")

    with check("monomial", "laurent-criterion", 1e-12) as c:
        (v1, _, _), (v2, _, _) = kernel.laurent_coefficient_detail(
            lambda z: (z ** 5,), (-5, 2), 1.0, ctx)
        c.see(abs(v1 - 1.0), abs(v2))

    with check("quadruple-vs-contour", "calP-quadruple", 1e-8, draws=3) as c:
        for _ in range(3):
            al, be, ga, de = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
            n = rng.randrange(0, 4)
            qd = kernel.calP_quadruple(al, be, ga, de, n, ctx)

            def g(z, al=al, be=be, ga=ga, de=de):
                return (qcore.qpoch_groups([[al * z, be / z, ga * z, de / z]], ctx)[0],)

            [(ct, _, _)] = kernel.laurent_coefficient_detail(g, [n], 1.0, ctx)
            c.terms(qd, ct)

    kp = sample_kernel_params(rng, ctx)
    e_coeffs = kernel.E_contour_coefficient(kp, range(1, 7))
    with check("E-negative-coefficients", "coefficient-cancellation", 1e-6,
               n="1..6") as c:
        for coeff, scale, _ in e_coeffs:
            c.see(abs(coeff) / scale, scale=scale)

    with check("structured-cancellation", "coefficient-cancellation", 1e-6,
               n="1,2") as c:
        depth = c.params["k_trunc"] = kernel.adaptive_series_depth(kp)
        tables = kernel.calP_tables(kp, depth)
        fs = [kernel.fk_coefficient(kp, k) for k in range(depth + 1)]
        gs = [kernel.gk_coefficient(kp, k) for k in range(depth + 1)]
        for n, (coeff, scale, _) in zip((1, 2), e_coeffs):
            t1, t2, t3 = kernel.structured_E_terms(kp, n, tables, fs, gs)
            c.see(kernel.cancellation_identity_residual(kp, n, tables))
            c.see(abs(t1 - t2 - t3 - coeff) / scale, scale=scale)
        not_small = abs(kernel.laurent_pair(tables[0][0], tables[0][0], 1))
        c.see(0.0 if not_small > 1e-3 else math.inf)
        c.detail = f"individual |P1_(1,0)|={not_small:.3e} (not small)"
    return out


# ---------------------------------------------------------------- profiles

def run_profiles(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, rng, out = cfg.context(), cfg.rng_for("profiles"), []
    check = partial(Check, out, "profiles")
    q = ctx.q

    lam = sample_complex(rng, 0.4, 0.8)
    with check("annular-factorisation", "q-annular-factorization", 1e-10,
               N_max=20) as c:
        for N in (0, 5, 10, 20):
            w = sample_z(rng, 0.9, 1.15)
            c.see(profiles.annular_factorization_residual(lam, N, w, ctx))

    al, be = sample_complex(rng, 0.4, 0.9), sample_complex(rng, 0.4, 0.9)
    w = sample_z(rng, 0.9, 1.2)
    with check("profile-quotient", "L-alpha-beta", 1e-12, w=w) as c:
        c.rel(profiles.L_profile(w, al, be, lam, ctx),
              qcore.theta(al / (lam * w), ctx) / qcore.theta(be / (lam * w), ctx))
        c.see(abs(profiles.L_profile(w, al, al, lam, ctx) - 1.0))

    kp = sample_profile_kernel_params(rng, ctx)
    lam = kp.b
    cf = profiles.profile_sums_and_closed_forms(kp)
    with check("scalar-profile-sums", "Fstar-eval", 1e-9, b=kp.b, c=kp.c) as c:
        c.rel(cf.F_star_series, cf.F_star_product)
        c.rel(cf.G_star_series, cf.G_star_product)
        c.rel(cf.Hb * cf.F_star_product, cf.Hb_F_star_theta)
        c.rel(cf.Kcde * cf.G_star_product, cf.Kcde_G_star_theta)
        cfi = profiles.profile_sums_and_closed_forms(kernel.involute(kp))
        c.rel(cfi.F_star_product, cf.G_star_product)

    with check("leading-profile", "first-profile-identity", 1e-8, draws=cfg.draws) as c:
        for _ in range(cfg.draws):
            w = sample_z(rng, 0.8, 1.25)
            c.see(profiles.leading_profile_residual(w, kp, lam))
        t_anchor = max(profiles.leading_profile_theta_residual(1 / kp.b, kp),
                       profiles.leading_profile_theta_residual(kp.d * kp.e / kp.c, kp))
        c.see(profiles.leading_profile_theta_residual(0.9 + 0.3j, kp))
        c.detail = f"interpolation anchors residual {t_anchor:.3e}"

    al, be = kp.c / kp.d, kp.b
    w = sample_z(rng, 0.9, 1.15)
    with check("profile-kernel", "P-exact-scaling", 1e-12, w=w) as c:
        c.see(abs(profiles.profile_kernel_P(0.0, w, al, be, lam, ctx)
                  - profiles.L_profile(w, al, be, lam, ctx)))
        for N in (4, 7):
            z = lam * q ** N * w
            quot = (be / al) ** N * qcore.qpoch_quotient(
                kernel.sym_bases(z, al), kernel.sym_bases(z, be), ctx, "z on a pole")
            c.rel(profiles.profile_kernel_P(q ** N, w, al, be, lam, ctx), quot)
        c.see(abs(profiles.profile_kernel_P(q ** 4, w, al, al, lam, ctx) - 1.0))

    with check("kernel-coefficients", "P-coeff-general", 1e-8, j_max=4) as c:
        contour = kernel.laurent_coefficient_detail(
            lambda s: (profiles.profile_kernel_P(s, w, al, be, lam, ctx),),
            [-j for j in range(5)], min(0.3, 0.4 / abs(lam * w)), ctx)
        for j, (coeff, _, _) in enumerate(contour):
            c.terms(profiles.profile_kernel_coefficient(j, w, al, be, lam, ctx), coeff)

    with check("generating-residual", "global-Q-zero", 1e-7, s="0,q^8,q^6,q^4") as c:
        for s in (0.0, q ** 8, q ** 6, q ** 4):
            for _ in range(3):
                w = sample_z(rng, 0.85, 1.2)
                c.terms(*profiles.generating_Q_terms(s, w, kp, lam))

    with check("bridge-identity", "scaled-Q-equals-profile-generator", 1e-6,
               N="4..10") as c:
        for N in range(4, 11):
            w = sample_z(rng, 0.9, 1.15)
            c.see(profiles.bridge_residual(N, w, kp, lam))

    with check("contiguous-moments", "profile-moments", 1e-12) as c:
        mom0 = profiles.contiguous_moment(kp, 0)
        mom1 = profiles.contiguous_moment(kp, 1)
        c.rel(mom0.F_m, cf.F_star_series)
        boundary = profiles.contiguous_moment(kp, -12)
        flags_ok = mom0.convergent and mom1.convergent and not boundary.convergent
        c.see(0.0 if flags_ok else math.inf)
        c.detail = "m=-12 correctly flagged nonconvergent"

    with check("coefficient-hierarchy", "first-correction-target", 1e-6, j="0,1") as c:
        for j in (0, 1):
            w = sample_z(rng, 0.9, 1.15)
            c.see(profiles.profile_coefficient_residual(j, w, kp, lam))
        j0 = profiles.profile_coefficient_residual(0, w, kp, lam)
        lead = profiles.leading_profile_residual(w, kp, lam)
        c.detail = f"j=0 vs leading gap {abs(j0 - lead):.2e}"

    w = sample_z(rng, 0.9, 1.15)
    with check("exponential-profile-limits", "R-profile-limit", 0.25, k=2) as c:
        errs = [profiles.exponential_profile_limit_residual(2, w, kp, lam, N).r_residual
                for N in (6, 8, 10, 12)]
        trend = c.params["trend"] = math.exp(np.polyfit([6, 8, 10, 12], np.log(errs), 1)[0])
        res9 = profiles.exponential_profile_limit_residual(2, w, kp, lam, 9)
        res9i = profiles.exponential_profile_limit_residual(2, w, kernel.involute(kp), lam, 9)
        c.rel(trend, abs(q))
        c.rel(res9i.r_residual, res9.s_residual)

    # radius in the widest gap between the zero circles of the split's
    # bounded factor (anchor b: circles at |w| = 1, q^{-1}, |c/bde| q^j);
    # the plateau evidence is uniformity in N at each fixed grid point
    radius = _clear_w_radius(kp)
    with check("canonical-growth", "canonical-product-annular-growth", 1e-10,
               N="4..12", radius=radius) as c:
        spread = 1.0
        for t in range(4):
            w = radius * cmath.exp(2j * math.pi * (t + 0.13) / 4)
            mags = []
            for N in range(4, 13):
                cg = profiles.canonical_growth_profile(lam, N, w, kp)
                mags.append(abs(cg.C_factor))
                c.rel(cg.extracted_monomial * cg.C_factor, cg.Z_value)
            spread = max(spread, max(mags) / min(mags))
        c.params["spread"] = spread
        c.see(0.0 if spread < 10.0 else math.inf)
        if spread >= 10.0:
            c.detail = f"C-factor spread {spread:.3g} >= 10 at radius {radius:.3g}"
    return out


def _clear_w_radius(kp) -> float:
    """A w-radius maximally clear of the canonical split's zero circles."""
    aq = abs(kp.ctx.q)
    circles = [1.0, 1.0 / aq]
    m = abs(kp.c / (kp.b * kp.d * kp.e))
    while m > 0.7:
        m *= aq
    while m < 2.6:
        if m > 0.7:
            circles.append(m)
        m /= aq
    grid = [0.98 + 0.02 * i for i in range(1, 40)]
    return max(grid, key=lambda r: min(abs(math.log(r / c)) for c in circles))


# ---------------------------------------------------------------- quadratic

def run_quadratic(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, rng, out = cfg.context(), cfg.rng_for("quadratic"), []
    check = partial(Check, out, "quadratic")

    points = [(sample_quadratic_params(rng), sample_z(rng)) for _ in range(cfg.draws)]
    summed = {}  # the h and r terms of the first draw, reused by the tail checks
    for name, anchor, spec, residual in (
            ("watson-type-expansion", "quadratic-bailey", quadratic.h_spec,
             quadratic.quadratic_residual),
            ("companion-expansion", "quadratic-companion-bailey", quadratic.r_spec,
             quadratic.companion_residual)):
        with check(name, anchor, 1e-8, draws=cfg.draws) as c:
            sums = [hyper.vwp_eval(spec(qp, ctx), None, ctx) for qp, _ in points]
            summed[spec] = sums[0].terms
            c.params["trunc"] = max(s.terms_used for s in sums) - 1
            for (qp, z), s in zip(points, sums):
                c.see(residual(z, qp, s.terms, ctx))

    qp0 = points[0][0]
    with check("unit-leading-coefficients", "quadratic-coeff", 1e-15) as c:
        c.see(abs(quadratic.quadratic_coefficient(qp0, 0, ctx) - 1),
              abs(quadratic.companion_coefficient(qp0, 0, ctx) - 1))

    with check("coefficient-decay", "quadratic-coeff", 0.10, k=30) as c:
        for spec, ratio in ((quadratic.h_spec, qp0.b / qp0.a),
                            (quadratic.r_spec, qp0.alpha)):
            *_, u30, u31 = hyper.vwp_eval(spec(qp0, ctx), 31, ctx).terms
            c.rel(abs(u31 / u30), abs(ratio))

    with check("taylor-identification", "quadratic-taylor-coeff", 1e-7, k_max=6) as c:
        c.see(quadratic.quadratic_taylor_identification(qp0, 6, ctx),
              quadratic.companion_taylor_identification(qp0, 6, ctx))

    z = sample_z(rng)
    orders = qcore.fit_window(abs(qp0.b / qp0.a))
    with check("tail-decay", "quadratic-remainder-tail", 0.10,
               orders=f"{orders[0]}..{orders[-1]}") as c:
        tails = quadratic.quadratic_tail_curve(z, qp0, orders, ctx, summed.get(quadratic.h_spec))
        fit = c.params["fit"] = math.exp(np.polyfit(orders, np.log(tails), 1)[0])
        c.rel(fit, abs(qp0.b / qp0.a))

    with check("companion-vwp-form", "quadratic-companion-bailey", 1e-10, z=z) as c:
        c.see(quadratic.companion_series_vs_vwp(z, qp0, ctx, summed.get(quadratic.r_spec)))

    x = sample_complex(rng, 0.3, 0.9)
    with check("folding", "folding-identities", 1e-10, x=x) as c:
        c.see(quadratic.folding_identity_check(x, 5, ctx),
              quadratic.folding_identity_check(0.9, 0, ctx))
    return out


_RUNNERS = {
    "qcore": run_qcore,
    "hyper": run_hyper,
    "operator": run_operator,
    "taylor": run_taylor,
    "kernel": run_kernel,
    "laurent": run_laurent,
    "profiles": run_profiles,
    "quadratic": run_quadratic,
}


def run_suites(cfg: SuiteConfig) -> VerificationReport:
    """Execute the selected suites; an error fails the check that raised it."""
    report = VerificationReport(config_echo={
        "q": format_complex(cfg.q), "seed": cfg.seed, "draws": cfg.draws,
        "suites": list(cfg.suites), "negative_controls": cfg.negative_controls,
    })
    for name in cfg.suites:
        if name not in _RUNNERS:
            raise ConfigError(f"unknown suite {name!r}")
        try:
            records = _RUNNERS[name](cfg)
        except QTaylorError as exc:  # outside every check, or a ConfigError
            records = [CheckRecord(name, "suite-abort", "runner", {}, math.inf,
                                   0.0, 0.0, False, f"{type(exc).__name__}: {exc}")]
        if cfg.negative_controls and name == "kernel":
            _sabotaged_kernel_check(cfg, records)
        report.records.extend(records)
    return report


def _sabotaged_kernel_check(cfg: SuiteConfig, records: list) -> None:
    """Negative-control path: H(b) forced to 1 must be reported as a failure."""
    ctx, rng = cfg.context(), cfg.rng_for("kernel")
    kp = sample_kernel_params(rng, ctx)
    z = sample_z(rng)
    # evaluated outside the block: an error must escape, not pass for the designed failure
    res = kernel.two_basis_residual(z, kp, kernel.adaptive_series_depth(kp),
                                    force_unit_Hb=True)
    with Check(records, "kernel", "two-basis-identity-sabotaged", "two-basis-identity",
               1e-7, z=z, forced_unit_Hb=True) as c:
        c.see(res)
        c.detail = "expected failure: zeroth Taylor value dropped"


# ---------------------------------------------------------------- decay CSV

DECAY_TARGETS = ("two_basis_tail", "remainder_gap", "quadratic_tail",
                 "profile_scaling")


def decay_rows(cfg: SuiteConfig, target: str) -> list[tuple[int, float, float, float]]:
    """Rows (order, residual, scale, fitted_ratio) for a decay target."""
    ctx = cfg.context()
    rng = cfg.rng_for("kernel")
    if target == "two_basis_tail":
        kp = sample_kernel_params(rng, ctx)
        z = sample_z(rng)
        orders = list(range(0, 29, 2))
        res = [kernel.two_basis_residual(z, kp, n) for n in orders]
    elif target == "remainder_gap":
        kp = sample_profile_kernel_params(rng, ctx)
        z = sample_z(rng)
        orders = list(range(4, 11))
        res = kernel.remainder_gap_curve(z, kp, orders)
    elif target == "quadratic_tail":
        rng = cfg.rng_for("quadratic")
        qp = sample_quadratic_params(rng)
        z = sample_z(rng)
        orders = list(range(4, 16))
        res = quadratic.quadratic_tail_curve(z, qp, orders, ctx)
    elif target == "profile_scaling":
        rng = cfg.rng_for("profiles")
        kp = sample_profile_kernel_params(rng, ctx)
        w = sample_z(rng, 0.9, 1.15)
        orders = list(range(4, 14))
        res = [profiles.exponential_profile_limit_residual(2, w, kp, kp.b, N).r_residual
               for N in orders]
    else:
        raise ConfigError(f"unknown decay target {target!r}; "
                          f"choose one of {DECAY_TARGETS}")
    tail_orders = [n for n, r in zip(orders, res) if r > 0][2:]
    tail_res = [r for r in res if r > 0][2:]
    if len(tail_res) >= 2:
        fitted = math.exp(np.polyfit(tail_orders, np.log(tail_res), 1)[0])
    else:
        fitted = math.nan
    return [(n, r, 1.0, fitted) for n, r in zip(orders, res)]


def emit_decay_csv(cfg: SuiteConfig, target: str, path) -> int:
    """Write a decay curve (order, residual, scale, fitted_ratio) as CSV.

    Returns the number of data rows written.
    """
    from pathlib import Path as _Path
    rows = decay_rows(cfg, target)
    lines = ["order,residual,scale,fitted_ratio"]
    lines += [f"{n},{r!r},{s!r},{f!r}" for n, r, s, f in rows]
    _Path(path).write_text("\n".join(lines) + "\n")
    return len(rows)
