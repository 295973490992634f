"""Check catalog for the verification suites.

Each check evaluates one identity family at seeded draws and emits a
CheckRecord carrying the draw parameters, the worst scale-relative
residual, the tolerance it was judged against and the verdict.  Records
are deterministic functions of (config, seed): suite RNGs are derived
from the master seed by fixed offsets, never from global state.

Anchor strings are stable identity labels used for traceability in
reports; check ids are unique within a suite.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass, field

import numpy as np

from . import hyper, kernel, profiles, qcore, quadratic, taylor, wpoperator
from .errors import ConfigError, QTaylorError
from .qcore import QContext, scaled_residual
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


def kernel_params_from_config(entry: dict, ctx: QContext):
    """Build a kernel quadruple from a config record {b, c, d, e}."""
    from .kernel import KernelParams
    try:
        return KernelParams(*(parse_complex(str(entry[k])) for k in "bcde"),
                            ctx)
    except KeyError as exc:
        raise ConfigError(f"explicit kernel entry missing field {exc}") from exc


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
    terms: int | None = None
    detail: str = ""

    def to_dict(self) -> dict:
        return {
            "suite": self.suite, "check": self.check, "anchor": self.anchor,
            "params": self.params, "residual": self.residual, "scale": self.scale,
            "tol": self.tol, "passed": self.passed, "terms": self.terms,
            "detail": self.detail,
        }


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


def _rec(suite, check, anchor, params, residual, tol, *, scale=1.0, terms=None,
         detail="") -> CheckRecord:
    residual = float(residual)
    ok = bool(math.isfinite(residual) and residual < tol)

    def clean(v):
        if isinstance(v, bool):
            return v
        if isinstance(v, complex):
            return format_complex(v)
        if isinstance(v, (np.floating, float)):
            return float(v)
        if isinstance(v, (np.integer, int)):
            return int(v)
        return v

    return CheckRecord(suite, check, anchor,
                       {k: clean(v) for k, v in params.items()},
                       residual, float(scale), float(tol), ok, terms, detail)


# ---------------------------------------------------------------- qcore

def run_qcore(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx = cfg.context()
    rng = cfg.rng_for("qcore")
    out = []
    q = ctx.q

    worst = 0.0
    for _ in range(32):
        a = sample_complex(rng, 0.1, 1.4)
        n = rng.randrange(0, 32)
        lhs = qcore.qpoch_finite(a, n + 1, ctx)
        rhs = qcore.qpoch_finite(a, n, ctx) * (1 - a * q ** n)
        worst = max(worst, scaled_residual(lhs, rhs))
    out.append(_rec("qcore", "recurrence", "qpoch-def", {"draws": 32}, worst, 1e-13))

    worst = 0.0
    for _ in range(cfg.draws):
        a = sample_complex(rng, 0.2, 0.95)
        k = rng.randrange(0, 9)
        lhs = qcore.qpoch_infinite(a, ctx).value
        rhs = qcore.qpoch_finite(a, k, ctx) * qcore.qpoch_infinite(a * q ** k, ctx).value
        worst = max(worst, scaled_residual(lhs, rhs))
    out.append(_rec("qcore", "infinite-shift", "qpoch-infinite-split",
                    {"draws": cfg.draws}, worst, 1e-12))

    a, b = sample_complex(rng), sample_complex(rng)
    lhs = qcore.qpoch_multi([a, b], None, ctx).value
    rhs = qcore.qpoch_infinite(a, ctx).value * qcore.qpoch_infinite(b, ctx).value
    out.append(_rec("qcore", "multi-factorwise", "qpoch-multi",
                    {"a": a, "b": b}, abs(lhs - rhs) / abs(rhs), 1e-12))

    worst = 0.0
    for _ in range(200):
        u = sample_complex(rng, 0.3, 1.6)
        worst = max(worst, scaled_residual(qcore.theta(u, ctx), qcore.theta(q / u, ctx)))
    out.append(_rec("qcore", "theta-symmetry", "theta-def", {"draws": 200},
                    worst, 1e-12))

    zero_dev = max(abs(qcore.theta(1.0, ctx)), abs(qcore.theta(q, ctx)))
    scale = abs(qcore.theta(-1.0, ctx))
    out.append(_rec("qcore", "theta-grid-zero", "theta-def", {}, zero_dev / scale,
                    1e-12, scale=scale))

    worst = 0.0
    for _ in range(200):
        x, y, u, v = (sample_complex(rng, 0.5, 1.5) for _ in range(4))
        worst = max(worst, scaled_residual(*qcore.weierstrass_terms(x, y, u, v, ctx)))
    out.append(_rec("qcore", "weierstrass-addition", "weierstrass-addition",
                    {"draws": 200}, worst, 1e-12))
    return out


# ---------------------------------------------------------------- hyper

def _rogers_draw(rng, ctx):
    while True:
        a = sample_complex(rng, 0.2, 0.9)
        b, c, d = (sample_complex(rng, 0.35, 0.95) for _ in range(3))
        if abs(a * ctx.q / (b * c * d)) <= 0.7:
            return a, b, c, d


def run_hyper(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx = cfg.context()
    rng = cfg.rng_for("hyper")
    q = ctx.q
    out = []

    spec = hyper.PhiSeriesSpec((0.4 + 0.1j, 0.3), (0.5 - 0.2j,), 0.0)
    val = hyper.phi_eval(spec, None, ctx).value
    out.append(_rec("hyper", "phi-z0", "basic-hypergeometric-def", {},
                    abs(val - 1.0), 1e-15))

    spec = hyper.PhiSeriesSpec((1 / q, 0.4), (0.6,), 0.3 + 0.2j)
    exact = hyper.phi_eval(spec, 1, ctx).value
    longer = hyper.phi_eval(spec, 9, ctx).value
    out.append(_rec("hyper", "phi-terminating", "basic-hypergeometric-def",
                    {"n": 1}, abs(exact - longer) / abs(exact), 1e-13))

    worst = 0.0
    for _ in range(cfg.draws):
        nums = tuple(sample_complex(rng, 0.2, 0.9) for _ in range(3))
        dens = tuple(sample_complex(rng, 0.3, 0.9) for _ in range(2))
        z = sample_complex(rng, 0.1, 0.5)
        spec = hyper.PhiSeriesSpec(nums, dens, z)
        adaptive = hyper.phi_eval(spec, None, ctx).value
        brute = hyper.phi_eval(spec, 220, ctx).value
        worst = max(worst, abs(adaptive - brute) / abs(brute))
    out.append(_rec("hyper", "phi-vs-long-sum", "basic-hypergeometric-def",
                    {"draws": cfg.draws}, worst, 1e-12))

    vspec = hyper.VWPSpec(0.55, (0.6 + 0.2j, 0.7, 0.4 - 0.3j), 0.3 + 0.1j)
    s8 = hyper.vwp_eval(vspec, 8, ctx).value
    s9 = hyper.vwp_eval(vspec, 9, ctx).value
    # the k=9 summand rebuilt from shifted factorial products
    k = 9
    a0 = vspec.a
    summand = ((1 - a0 * q ** (2 * k)) / (1 - a0)
               * qcore.qpoch_finite(a0, k, ctx)
               * qcore.qpoch_multi(vspec.b_list, k, ctx).value
               / (qcore.qpoch_finite(q, k, ctx)
                  * qcore.qpoch_multi([a0 * q / b for b in vspec.b_list], k, ctx).value)
               * vspec.argument ** k)
    out.append(_rec("hyper", "vwp-telescoping", "W-summand", {"k": k},
                    abs((s9 - s8) - summand) / max(abs(s9), abs(summand)), 1e-14))

    worst = 0.0
    for _ in range(6):
        a = rng.uniform(0.3, 0.8)  # real positive: explicit root exists
        root = math.sqrt(a)
        blist = tuple(sample_complex(rng, 0.4, 0.9) for _ in range(2))
        z = sample_complex(rng, 0.1, 0.4)
        vs = hyper.VWPSpec(a, blist, z)
        v1 = hyper.vwp_eval(vs, 24, ctx).value
        v2 = hyper.phi_eval(hyper.vwp_expanded_spec(vs, root, ctx), 24, ctx).value
        v3 = hyper.phi_eval(hyper.vwp_expanded_spec(vs, -root, ctx), 24, ctx).value
        worst = max(worst, abs(v1 - v2) / abs(v1), abs(v1 - v3) / abs(v1))
        worst = max(worst, hyper.well_poised_defect(vs, ctx))
    out.append(_rec("hyper", "vwp-expanded-roots", "W-notation", {"draws": 6},
                    worst, 1e-12))

    worst = 0.0
    for _ in range(cfg.draws):
        a, b, c, d = _rogers_draw(rng, ctx)
        worst = max(worst, hyper.rogers_6w5_residual(a, b, c, d, ctx))
    small_c = hyper.rogers_6w5_residual(0.04, 0.8, 0.05 + 0.01j, 0.8, ctx)
    worst = max(worst, small_c)
    out.append(_rec("hyper", "rogers-summation", "rogers-6w5", {"draws": cfg.draws},
                    worst, 1e-9))

    worst = 0.0
    for _ in range(cfg.draws):
        a, b, c, d = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
        n = rng.randrange(0, 13)
        worst = max(worst, hyper.jackson_8w7_residual(a, b, c, d, n, ctx))
    out.append(_rec("hyper", "jackson-summation", "jackson-8w7",
                    {"draws": cfg.draws, "n_max": 12}, worst, 1e-10))
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
    ctx = cfg.context()
    rng = cfg.rng_for("operator")
    out = []

    z = _sample_operator_point(rng, ctx)
    const = wpoperator.SymmetricFunction(lambda _: 2.7 - 0.4j)
    xfun = wpoperator.SymmetricFunction(lambda w: (w + 1 / w) / 2)
    dev = abs(wpoperator.apply_Dq(const, z, ctx))
    dev = max(dev, abs(wpoperator.apply_Dq(xfun, z, ctx) - 1.0))
    out.append(_rec("operator", "dq-basics", "Dq", {"z": z}, dev, 1e-13))

    worst = 0.0
    for _ in range(cfg.draws):
        f = _random_phi_function(rng, ctx, 3)
        z = _sample_operator_point(rng, ctx)
        v1 = wpoperator.apply_Dcq(f, z, 0.0, ctx)
        v2 = wpoperator.apply_Dq(f, z, ctx)
        worst = max(worst, scaled_residual(v1, v2))
    out.append(_rec("operator", "dcq-c0-reduction", "Dcq", {"draws": cfg.draws},
                    worst, 1e-13))

    pair = sample_basis_pair(rng)
    f1 = taylor.phi_function(pair, 1, ctx)
    want = -2 * pair.a * (1 - pair.c / pair.a) * (1 - pair.a * pair.c)
    worst = 0.0
    for _ in range(4):
        z = _sample_operator_point(rng, ctx)
        worst = max(worst, abs(wpoperator.apply_Dcq(f1, z, pair.c, ctx) - want) / abs(want))
    out.append(_rec("operator", "phi1-lowering", "lowering-Phi",
                    {"a": pair.a, "c": pair.c}, worst, 1e-12))

    worst = 0.0
    q = ctx.q
    rq = ctx.sqrt_q
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
            worst = max(worst, abs(got - want) / max(abs(want), 1e-30))
    out.append(_rec("operator", "iterated-lowering", "iterated-lowering",
                    {"n_max": 5}, worst, 1e-9))

    worst = 0.0
    for _ in range(cfg.draws):
        f = _random_phi_function(rng, ctx, 8)
        z = _sample_operator_point(rng, ctx)
        m = rng.randrange(0, 7)
        c = sample_complex(rng)
        try:
            v1 = wpoperator.cooper_eval(f, z, c, m, ctx)
            v2 = wpoperator.apply_iterated(f, z, wpoperator.OperatorChainSpec(c, m), ctx)
        except QTaylorError:
            continue
        worst = max(worst, scaled_residual(v1, v2))
    out.append(_rec("operator", "closed-form-vs-recursion", "p0-cooper",
                    {"draws": cfg.draws, "m_max": 6}, worst, 1e-8))

    pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
    worst = 0.0
    for n in range(7):
        fn = taylor.phi_function(pair, n, ctx)
        for k in range(7):
            t = taylor.taylor_coefficient(fn, pair, k, ctx)
            worst = max(worst, abs(t - (1.0 if k == n else 0.0)))
    out.append(_rec("operator", "delta-property", "delta-property",
                    {"a": pair.a, "c": pair.c, "order": 6}, worst, 1e-8))

    # negating the root reflects the evaluation point; the divided
    # difference of an odd symmetric function and the full coefficient
    # functional of any symmetric function are branch-free
    g_odd = wpoperator.SymmetricFunction(
        lambda w: ((w + 1 / w) / 2) ** 3 + 2.0 * (w + 1 / w) / 2)
    z = _sample_operator_point(rng, ctx)
    v1 = wpoperator.apply_Dq(g_odd, z, ctx)
    v2 = wpoperator.apply_Dq(g_odd, z, ctx, root=-ctx.sqrt_q)
    dev = scaled_residual(v1, v2)
    pair = sample_basis_pair(rng)
    f = taylor.phi_combination(pair, [0.7, 1.1 - 0.3j, 0.8j, 0.5], ctx)
    flipped = ctx.other_branch()
    for k in range(4):
        dev = max(dev, scaled_residual(taylor.taylor_coefficient(f, pair, k, ctx),
                                       taylor.taylor_coefficient(f, pair, k, flipped)))
    out.append(_rec("operator", "branch-invariance", "Dq", {"z": z}, dev, 1e-10))

    pair = sample_basis_pair(rng)
    a, c = pair.a, pair.c
    w = wpoperator.grid_functional_weights(a, c, 1, ctx)
    phi1 = taylor.phi_function(pair, 1, ctx)
    scalar = w[0] * phi1(a) + w[1] * phi1(a * q)
    want = -2 * a * (1 - c / a) * (1 - a * c)  # order-1 lowering value
    dev = abs(w[0] + w[1])  # annihilates constants
    dev = max(dev / max(abs(w[0]), abs(w[1])), abs(scalar - want) / abs(want))
    out.append(_rec("operator", "grid-functional-weights", "finite-grid-functional",
                    {"j": 1}, dev, 1e-10))
    return out


# ---------------------------------------------------------------- taylor

def run_taylor(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx = cfg.context()
    rng = cfg.rng_for("taylor")
    q = ctx.q
    out = []

    worst = 0.0
    for _ in range(max(cfg.draws // 2, 4)):
        pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
        n = rng.randrange(1, 9)
        coeffs = [sample_complex(rng, 0.5, 1.5) for _ in range(n + 1)]
        f = taylor.phi_combination(pair, coeffs, ctx)
        for k in range(n + 1):
            t = taylor.taylor_coefficient(f, pair, k, ctx)
            worst = max(worst, abs(t - coeffs[k]) / abs(coeffs[k]))
    out.append(_rec("taylor", "coefficient-recovery", "finite-coeff",
                    {"n_max": 8}, worst, 1e-8))

    a, c, d = sample_complex(rng, 0.4, 0.85), sample_complex(rng, 0.35, 0.8), \
        sample_complex(rng, 0.4, 0.85)
    pair = taylor.BasisPair(a, c)
    f = taylor.phi_function(taylor.BasisPair(d, c), 1, ctx)
    t0 = taylor.taylor_coefficient(f, pair, 0, ctx)
    t1 = taylor.taylor_coefficient(f, pair, 1, ctx)
    w0 = (1 - a * d) * (1 - d / a) / ((1 - a * c) * (1 - c / a))
    w1 = (d / a) * (1 - c / d) * (1 - c * d) / ((1 - c / a) * (1 - a * c))
    dev = max(abs(t0 - w0) / abs(w0), abs(t1 - w1) / abs(w1))
    out.append(_rec("taylor", "first-reexpansion", "first-reexpansion",
                    {"a": a, "c": c, "d": d}, dev, 1e-9))

    pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
    f = taylor.phi_combination(pair, [1.0, 0.8 + 0.1j, 0.5], ctx)
    g = taylor.phi_combination(pair, [0.3, -0.6j, 0.9, 0.2], ctx)
    al, be = sample_complex(rng, 0.5, 1.5), sample_complex(rng, 0.5, 1.5)
    h = wpoperator.SymmetricFunction(lambda z: al * f(z) + be * g(z))
    worst = 0.0
    for k in range(4):
        lhs = taylor.taylor_coefficient(h, pair, k, ctx)
        rhs = (al * taylor.taylor_coefficient(f, pair, k, ctx)
               + be * taylor.taylor_coefficient(g, pair, k, ctx))
        worst = max(worst, scaled_residual(lhs, rhs))
    out.append(_rec("taylor", "linearity", "taylor-coeff-finite", {}, worst, 1e-10))

    z = sample_z(rng)
    t_sum, remainder = taylor.taylor_sum_and_remainder(f, pair, 2, z, ctx)
    out.append(_rec("taylor", "remainder-consistency", "T-and-R", {"z": z},
                    abs((t_sum + remainder) - f(z)) / abs(f(z)), 1e-15,
                    detail="T_n + R_n reproduces f(z) to rounding"))

    pair = sample_basis_pair(rng, lo=0.4, hi=0.8)
    flat = wpoperator.SymmetricFunction(
        lambda z: qcore.qpoch_infinite(pair.a * z, ctx).value
        * qcore.qpoch_infinite(pair.a / z, ctx).value)
    # depth where the rounding floor of near-grid cofactors stays harmless
    k_flat = 3
    while k_flat < 6 and abs(q) ** (-(k_flat + 1) * (k_flat + 2) / 2) < 1e6:
        k_flat += 1
    flat_dev = taylor.flatness_check(flat, pair, k_flat, ctx)
    bfac = wpoperator.SymmetricFunction(
        lambda z: qcore.qpoch_infinite(pair.a * z, ctx).value
        * qcore.qpoch_infinite(pair.a / z, ctx).value
        * (1.3 + 0.5 * (z + 1 / z)))
    flat_dev = max(flat_dev, taylor.flatness_check(bfac, pair, k_flat - 1, ctx))
    bumpy = taylor.flatness_check(taylor.phi_function(pair, 3, ctx), pair, 4, ctx)
    dev = flat_dev if bumpy > 1e-4 else math.inf
    out.append(_rec("taylor", "flat-function", "flat-functions",
                    {"a": pair.a, "c": pair.c}, dev, 1e-8,
                    detail=f"negative control (phi_3) flatness={bumpy:.3e}"))

    pair = taylor.BasisPair(sample_complex(rng, 0.4, 0.8), 0.5)
    sups = taylor.basis_sup_curve(pair, (0.95, 1.05), 40, ctx)
    est = taylor.basis_sup_estimate(pair, (0.95, 1.05), 40, ctx)
    plateau = max(sups[30:]) / max(sups[15:25])
    z0 = 1.02 + 0.0j
    lim = taylor.basis_limit_modulus(z0, pair, ctx)
    tail_dev = abs(abs(taylor.phi_basis(z0, pair, 40, ctx)) - lim) / lim
    dev = max(abs(plateau - 1.0), tail_dev, abs(sups[0] - 1.0),
              abs(est - max(sups)))
    out.append(_rec("taylor", "basis-boundedness", "basis-bounded",
                    {"a": pair.a, "c": pair.c}, dev, 1e-4,
                    detail=f"sampled sup={est:.4g}"))
    return out


# ---------------------------------------------------------------- kernel

def run_kernel(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx = cfg.context()
    rng = cfg.rng_for("kernel")
    q = ctx.q
    out = []
    n_trunc = kernel.adaptive_series_depth

    worst_fact = worst_inv = 0.0
    for _ in range(max(cfg.draws // 2, 4)):
        kp = sample_kernel_params(rng, ctx, lo=cfg.modulus_lo, hi=cfg.modulus_hi)
        z = sample_z(rng)
        kf = kernel.kernel_factors(z, kp)
        worst_fact = max(worst_fact,
                         abs(kf.F - kf.A * kf.H) / abs(kf.F),
                         abs(kf.F - kf.B * kf.K) / abs(kf.F))
        ip = kernel.involute(kp)
        iip = kernel.involute(ip)
        dev = max(abs(iip.b - kp.b), abs(iip.c - kp.c), abs(iip.d - kp.d),
                  abs(iip.e - kp.e))
        dev = max(dev, abs(kernel.kernel_H(z, ip) - kernel.kernel_K(z, kp))
                  / abs(kernel.kernel_K(z, kp)))
        dev = max(dev, abs(taylor.phi_basis(z, ip.phi_pair, 5, ctx)
                           - taylor.phi_basis(z, kp.psi_pair, 5, ctx))
                  / abs(taylor.phi_basis(z, kp.psi_pair, 5, ctx)))
        worst_inv = max(worst_inv, dev)
    out.append(_rec("kernel", "factorisation", "A-B", {"draws": cfg.draws // 2},
                    worst_fact, 1e-12))
    out.append(_rec("kernel", "involution", "involution", {"draws": cfg.draws // 2},
                    worst_inv, 1e-12))

    kp = sample_kernel_params(rng, ctx)
    worst = 0.0
    for k in range(13):
        g = kernel.gk_coefficient(kp, k)
        fi = kernel.fk_coefficient(kernel.involute(kp), k)
        worst = max(worst, abs(g - fi) / max(abs(g), 1e-30))
    out.append(_rec("kernel", "g-equals-involuted-f", "g-coeff", {"k_max": 12},
                    worst, 1e-12))

    ratios = [abs(kernel.fk_coefficient(kp, k + 1) / kernel.fk_coefficient(kp, k))
              for k in range(20, 40)]
    dev = max(abs(r - abs(q)) / abs(q) for r in ratios)
    out.append(_rec("kernel", "f-ratio-geometric", "f-coeff", {"k": "20..40"},
                    dev, 0.10))

    kp = sample_kernel_params(rng, ctx, lo=0.35, hi=0.85)
    dev = kernel.kernel_taylor_crosscheck(kp, 6)
    dev_inv = kernel.kernel_taylor_crosscheck(kernel.involute(kp), 6)
    out.append(_rec("kernel", "taylor-crosscheck", "f-coeff-taylor",
                    {"k_max": 6}, max(dev, dev_inv), 1e-7))

    worst = 0.0
    trunc = 0
    base_res = None
    quadruples = [kernel_params_from_config(entry, ctx)
                  for entry in cfg.explicit_kernel]
    n_draws = len(quadruples) or cfg.draws
    for i in range(n_draws):
        kp = (quadruples[i] if quadruples
              else sample_kernel_params(rng, ctx, lo=cfg.modulus_lo,
                                        hi=cfg.modulus_hi))
        z = sample_kernel_z(rng, kp)
        depth = n_trunc(kp)
        r = kernel.two_basis_residual(z, kp, depth)
        if base_res is None:
            base_res = (z, kp, depth, r)
        trunc = max(trunc, depth)
        worst = max(worst, r, kernel.two_basis_residual(1 / z, kp, depth))
    out.append(_rec("kernel", "two-basis-identity", "two-basis-identity",
                    {"draws": n_draws, "trunc": trunc,
                     "explicit": bool(quadruples)}, worst, 1e-7))

    z, kp, depth, r = base_res
    neg = kernel.two_basis_residual(z, kp, depth, force_unit_Hb=True)
    ratio = neg / max(r, 1e-300)
    out.append(_rec("kernel", "negative-control-Hb", "two-basis-identity",
                    {"z": z}, 1.0 / ratio, 1e-6,
                    detail=f"degradation {ratio:.3e}x"))

    kp = sample_profile_kernel_params(rng, ctx)
    z = sample_z(rng)
    orders = qcore.fit_window(abs(q))
    gaps = kernel.remainder_gap_curve(z, kp, orders)
    fit = math.exp(np.polyfit(orders, np.log(gaps), 1)[0])
    dev = abs(fit - abs(q)) / abs(q)
    single = kernel.complementary_remainder_gap(z, kp, orders[2])
    dev = max(dev, abs(single - gaps[2]) / gaps[2])
    gaps_i = kernel.remainder_gap_curve(z, kernel.involute(kp), orders)
    fit_i = math.exp(np.polyfit(orders, np.log(gaps_i), 1)[0])
    dev = max(dev, abs(fit_i - abs(q)) / abs(q))
    out.append(_rec("kernel", "remainder-gap-ratio", "R-H-limit",
                    {"orders": f"{orders[0]}..{orders[-1]}", "fit": fit,
                     "fit_involuted": fit_i},
                    dev, 0.30))

    worst = 0.0
    for _ in range(max(cfg.draws // 2, 4)):
        kp = sample_kernel_params(rng, ctx)
        z = sample_z(rng)
        worst = max(worst, kernel.H_lowering_residual(z, kp))
        worst = max(worst, kernel.H_lowering_residual(z, kernel.involute(kp)))
        worst = max(worst, kernel.K_lowering_residual(z, kp))
    out.append(_rec("kernel", "lowering-laws", "H-lowering",
                    {"draws": cfg.draws // 2}, worst, 1e-8))

    kp = sample_kernel_params(rng, ctx)
    depth = n_trunc(kp)
    worst = 0.0
    for m in range(11):
        for z0 in (kp.b * q ** m, kp.c / (kp.d * kp.e) * q ** m):
            worst = max(worst, scaled_residual(*kernel.pole_cleared_E_terms(z0, kp, depth)))
    out.append(_rec("kernel", "E-grid-zeros", "E-grid-zeros", {"depth": 10},
                    worst, 1e-7))

    z = sample_z(rng)
    m_val = kernel.M_clearing(z, kp)
    t1, t2, t3 = kernel.two_basis_terms(z, kp, depth)
    e_terms = kernel.pole_cleared_E_terms(z, kp, depth)
    e_direct = e_terms[0] - e_terms[1] - e_terms[2]
    # both routes are near-cancelling sums: scale by their largest additive term
    scale = max(abs(t) for t in (m_val * t1, m_val * t2, m_val * t3) + e_terms)
    dev = abs(m_val * (t1 - t2 - t3) - e_direct) / scale
    out.append(_rec("kernel", "pole-clearing-paths", "M-pole-clear", {"z": z},
                    dev, 1e-8))

    N = 5
    worst = 0.0
    for m in range(N + 1):
        worst = max(worst, scaled_residual(*kernel.pole_cleared_E_terms(kp.b * q ** m, kp, N)))
    beyond = scaled_residual(*kernel.pole_cleared_E_terms(kp.b * q ** (N + 3), kp, N))
    dev = worst if beyond > 1e-5 else math.inf
    out.append(_rec("kernel", "truncated-flatness", "finite-grid-zeros",
                    {"N": N}, dev, 1e-7,
                    detail=f"beyond-depth residual {beyond:.3e} (not flat)"))

    worst = 0.0
    for _ in range(max(cfg.draws // 3, 3)):
        kp = sample_kernel_params(rng, ctx)
        worst = max(worst, kernel.bailey_crosscheck(kp, sample_kernel_z(rng, kp)))
        worst = max(worst, kernel.bailey_crosscheck(kp, sample_on_circle(rng)))
    out.append(_rec("kernel", "vwp-rewriting", "deduce-bailey-8phi7",
                    {"draws": cfg.draws // 3}, worst, 1e-7))
    return out


# ---------------------------------------------------------------- laurent

def run_laurent(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx = cfg.context()
    rng = cfg.rng_for("laurent")
    out = []

    (v1, _, _), (v2, _, _) = kernel.laurent_coefficient_detail(
        lambda z: (z ** 5,), (-5, 2), 1.0, ctx)
    out.append(_rec("laurent", "monomial", "laurent-criterion", {},
                    max(abs(v1 - 1.0), abs(v2)), 1e-12))

    worst = 0.0
    for _ in range(3):
        al, be, ga, de = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
        n = rng.randrange(0, 4)
        qd = kernel.calP_quadruple(al, be, ga, de, n, ctx)

        def g(z, al=al, be=be, ga=ga, de=de):
            return (qcore.qpoch_infinite(al * z, ctx).value
                    * qcore.qpoch_infinite(be / z, ctx).value
                    * qcore.qpoch_infinite(ga * z, ctx).value
                    * qcore.qpoch_infinite(de / z, ctx).value,)

        [(ct, _, _)] = kernel.laurent_coefficient_detail(g, [n], 1.0, ctx)
        worst = max(worst, scaled_residual(qd, ct))
    out.append(_rec("laurent", "quadruple-vs-contour", "calP-quadruple",
                    {"draws": 3}, worst, 1e-8))

    kp = sample_kernel_params(rng, ctx)
    e_coeffs = kernel.E_contour_coefficient(kp, range(1, 7))
    worst = max(abs(coeff) / scale for coeff, scale, _ in e_coeffs)
    out.append(_rec("laurent", "E-negative-coefficients",
                    "coefficient-cancellation", {"n": "1..6"}, worst, 1e-6))

    depth = kernel.adaptive_series_depth(kp)
    worst = 0.0
    cross = 0.0
    for n, (coeff, scale, _) in zip((1, 2), e_coeffs):
        worst = max(worst, kernel.cancellation_identity_residual(kp, n, depth))
        structured = (kernel.calP_quadruple(kp.c / kp.d, kp.c / kp.d,
                                            kp.c / kp.e, kp.c / kp.e, n, ctx)
                      - kernel.H_at_b(kp) * sum(
                          kernel.fk_coefficient(kp, k) * kernel.calP1(kp, n, k)
                          for k in range(depth))
                      - kernel.K_at_cde(kp) * sum(
                          kernel.gk_coefficient(kp, k) * kernel.calP2(kp, n, k)
                          for k in range(depth)))
        cross = max(cross, abs(structured - coeff) / scale)
    not_small = abs(kernel.calP1(kp, 1, 0))
    dev = max(worst, cross) if not_small > 1e-3 else math.inf
    out.append(_rec("laurent", "structured-cancellation",
                    "coefficient-cancellation", {"n": "1,2", "k_trunc": depth},
                    dev, 1e-6,
                    detail=f"individual |P1_(1,0)|={not_small:.3e} (not small)"))
    return out


# ---------------------------------------------------------------- profiles

def run_profiles(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx = cfg.context()
    rng = cfg.rng_for("profiles")
    q = ctx.q
    out = []

    lam = sample_complex(rng, 0.4, 0.8)
    worst = 0.0
    for N in (0, 5, 10, 20):
        w = sample_z(rng, 0.9, 1.15)
        worst = max(worst, profiles.annular_factorization_residual(lam, N, w, ctx))
    out.append(_rec("profiles", "annular-factorisation", "q-annular-factorization",
                    {"N_max": 20}, worst, 1e-10))

    al, be = sample_complex(rng, 0.4, 0.9), sample_complex(rng, 0.4, 0.9)
    w = sample_z(rng, 0.9, 1.2)
    lp = profiles.L_profile(w, al, be, lam, ctx)
    th = qcore.theta(al / (lam * w), ctx) / qcore.theta(be / (lam * w), ctx)
    dev = abs(lp - th) / abs(th)
    dev = max(dev, abs(profiles.L_profile(w, al, al, lam, ctx) - 1.0))
    out.append(_rec("profiles", "profile-quotient", "L-alpha-beta", {"w": w},
                    dev, 1e-12))

    kp = sample_profile_kernel_params(rng, ctx)
    lam = kp.b
    cf = profiles.profile_sums_and_closed_forms(kp)
    dev = max(
        abs(cf.F_star_series - cf.F_star_product) / abs(cf.F_star_product),
        abs(cf.G_star_series - cf.G_star_product) / abs(cf.G_star_product),
        abs(cf.Hb * cf.F_star_product - cf.Hb_F_star_theta) / abs(cf.Hb_F_star_theta),
        abs(cf.Kcde * cf.G_star_product - cf.Kcde_G_star_theta) / abs(cf.Kcde_G_star_theta))
    cfi = profiles.profile_sums_and_closed_forms(kernel.involute(kp))
    dev = max(dev, abs(cf.G_star_product - cfi.F_star_product) / abs(cf.G_star_product))
    out.append(_rec("profiles", "scalar-profile-sums", "Fstar-eval",
                    {"b": kp.b, "c": kp.c}, dev, 1e-9))

    worst = 0.0
    for _ in range(cfg.draws):
        w = sample_z(rng, 0.8, 1.25)
        worst = max(worst, profiles.leading_profile_residual(w, kp, lam))
    t_anchor = max(profiles.leading_profile_theta_residual(1 / kp.b, kp),
                   profiles.leading_profile_theta_residual(kp.d * kp.e / kp.c, kp))
    worst_theta = profiles.leading_profile_theta_residual(0.9 + 0.3j, kp)
    out.append(_rec("profiles", "leading-profile", "first-profile-identity",
                    {"draws": cfg.draws}, max(worst, worst_theta), 1e-8,
                    detail=f"interpolation anchors residual {t_anchor:.3e}"))

    al, be = kp.c / kp.d, kp.b
    w = sample_z(rng, 0.9, 1.15)
    dev = abs(profiles.profile_kernel_P(0.0, w, al, be, lam, ctx)
              - profiles.L_profile(w, al, be, lam, ctx))
    for N in (4, 7):
        z = lam * q ** N * w
        quot = ((be / al) ** N
                * qcore.qpoch_infinite(al * z, ctx).value
                * qcore.qpoch_infinite(al / z, ctx).value
                / (qcore.qpoch_infinite(be * z, ctx).value
                   * qcore.qpoch_infinite(be / z, ctx).value))
        dev = max(dev, abs(profiles.profile_kernel_P(q ** N, w, al, be, lam, ctx) - quot)
                  / abs(quot))
    dev = max(dev, abs(profiles.profile_kernel_P(q ** 4, w, al, al, lam, ctx) - 1.0))
    out.append(_rec("profiles", "profile-kernel", "P-exact-scaling", {"w": w},
                    dev, 1e-12))

    contour = kernel.laurent_coefficient_detail(
        lambda s: (profiles.profile_kernel_P(s, w, al, be, lam, ctx),),
        [-j for j in range(5)], min(0.3, 0.4 / abs(lam * w)), ctx)
    worst = max(scaled_residual(profiles.profile_kernel_coefficient(j, w, al, be, lam, ctx),
                                coeff) for j, (coeff, _, _) in enumerate(contour))
    out.append(_rec("profiles", "kernel-coefficients", "P-coeff-general",
                    {"j_max": 4}, worst, 1e-8))

    worst = 0.0
    for s in (0.0, q ** 8, q ** 6, q ** 4):
        for _ in range(3):
            w = sample_z(rng, 0.85, 1.2)
            worst = max(worst, scaled_residual(
                *profiles.generating_Q_terms(s, w, kp, lam)))
    out.append(_rec("profiles", "generating-residual", "global-Q-zero",
                    {"s": "0,q^8,q^6,q^4"}, worst, 1e-7))

    worst = 0.0
    for N in range(4, 11):
        w = sample_z(rng, 0.9, 1.15)
        worst = max(worst, profiles.bridge_residual(N, w, kp, lam))
    out.append(_rec("profiles", "bridge-identity",
                    "scaled-Q-equals-profile-generator", {"N": "4..10"},
                    worst, 1e-6))

    mom0 = profiles.contiguous_moment(kp, 0)
    mom1 = profiles.contiguous_moment(kp, 1)
    dev = abs(mom0.F_m - cf.F_star_series) / abs(cf.F_star_series)
    flag_ok = mom0.convergent and mom1.convergent
    boundary = profiles.contiguous_moment(kp, -12)
    dev = dev if (flag_ok and not boundary.convergent) else math.inf
    out.append(_rec("profiles", "contiguous-moments", "profile-moments", {},
                    dev, 1e-12,
                    detail="m=-12 correctly flagged nonconvergent"))

    worst = 0.0
    for j in (0, 1):
        w = sample_z(rng, 0.9, 1.15)
        worst = max(worst, profiles.profile_coefficient_residual(j, w, kp, lam))
    j0 = profiles.profile_coefficient_residual(0, w, kp, lam)
    lead = profiles.leading_profile_residual(w, kp, lam)
    out.append(_rec("profiles", "coefficient-hierarchy", "first-correction-target",
                    {"j": "0,1"}, worst, 1e-6,
                    detail=f"j=0 vs leading gap {abs(j0 - lead):.2e}"))

    w = sample_z(rng, 0.9, 1.15)
    errs = []
    for N in (6, 8, 10, 12):
        res = profiles.exponential_profile_limit_residual(2, w, kp, lam, N)
        errs.append(res.r_residual)
    trend = math.exp(np.polyfit([6, 8, 10, 12], np.log(errs), 1)[0])
    res9 = profiles.exponential_profile_limit_residual(2, w, kp, lam, 9)
    res9i = profiles.exponential_profile_limit_residual(2, w, kernel.involute(kp), lam, 9)
    dev = max(abs(trend - abs(q)) / abs(q),
              abs(res9.s_residual - res9i.r_residual) / res9.s_residual)
    out.append(_rec("profiles", "exponential-profile-limits", "R-profile-limit",
                    {"k": 2, "trend": trend}, dev, 0.25))

    # radius in the widest gap between the zero circles of the split's
    # bounded factor (anchor b: circles at |w| = 1, q^{-1}, |c/bde| q^j);
    # the plateau evidence is uniformity in N at each fixed grid point
    radius = _clear_w_radius(kp)
    w_grid = [radius * cmath.exp(2j * math.pi * (t + 0.13) / 4) for t in range(4)]
    spread = 1.0
    reassembly = 0.0
    for w in w_grid:
        mags = []
        for N in range(4, 13):
            cg = profiles.canonical_growth_profile(lam, N, w, kp)
            mags.append(abs(cg.C_factor))
            reassembly = max(reassembly,
                             abs(cg.Z_value - cg.extracted_monomial * cg.C_factor)
                             / abs(cg.Z_value))
        spread = max(spread, max(mags) / min(mags))
    dev = reassembly if spread < 10.0 else math.inf
    out.append(_rec("profiles", "canonical-growth", "canonical-product-annular-growth",
                    {"N": "4..12", "radius": radius, "spread": spread}, dev, 1e-10))
    return out


def _clear_w_radius(kp) -> float:
    """A w-radius maximally clear of the canonical split's zero circles."""
    aq = abs(kp.ctx.q)
    circles = [1.0, 1.0 / aq]
    for base in (abs(kp.c / (kp.b * kp.d * kp.e)),):
        m = base
        while m > 0.7:
            m *= aq
        while m < 2.6:
            if 0.7 < m < 2.6:
                circles.append(m)
            m /= aq
    grid = [0.98 + 0.02 * i for i in range(1, 40)]
    return max(grid, key=lambda r: min(abs(math.log(r / c)) for c in circles))


# ---------------------------------------------------------------- quadratic

def run_quadratic(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx = cfg.context()
    rng = cfg.rng_for("quadratic")
    out = []

    worst = worst_c = 0.0
    trunc = trunc_c = 0
    qp0 = None
    for _ in range(cfg.draws):
        qp = sample_quadratic_params(rng)
        qp0 = qp0 or qp
        z = sample_z(rng)
        depth = hyper.vwp_depth(quadratic.h_spec(qp, ctx), ctx)
        depth_c = hyper.vwp_depth(quadratic.r_spec(qp, ctx), ctx)
        trunc, trunc_c = max(trunc, depth), max(trunc_c, depth_c)
        worst = max(worst, quadratic.quadratic_residual(z, qp, depth, ctx))
        worst_c = max(worst_c, quadratic.companion_residual(z, qp, depth_c, ctx))
    out.append(_rec("quadratic", "watson-type-expansion", "quadratic-bailey",
                    {"draws": cfg.draws, "trunc": trunc}, worst, 1e-8))
    out.append(_rec("quadratic", "companion-expansion", "quadratic-companion-bailey",
                    {"draws": cfg.draws, "trunc": trunc_c}, worst_c, 1e-8))

    h0 = quadratic.quadratic_coefficient(qp0, 0, ctx)
    r0 = quadratic.companion_coefficient(qp0, 0, ctx)
    out.append(_rec("quadratic", "unit-leading-coefficients", "quadratic-coeff",
                    {}, max(abs(h0 - 1), abs(r0 - 1)), 1e-15))

    hr = abs(quadratic.quadratic_coefficient(qp0, 31, ctx)
             / quadratic.quadratic_coefficient(qp0, 30, ctx))
    rr = abs(quadratic.companion_coefficient(qp0, 31, ctx)
             / quadratic.companion_coefficient(qp0, 30, ctx))
    dev = max(abs(hr - abs(qp0.b / qp0.a)) / abs(qp0.b / qp0.a),
              abs(rr - abs(qp0.alpha)) / abs(qp0.alpha))
    out.append(_rec("quadratic", "coefficient-decay", "quadratic-coeff",
                    {"k": 30}, dev, 0.10))

    dev = max(quadratic.quadratic_taylor_identification(qp0, 6, ctx),
              quadratic.companion_taylor_identification(qp0, 6, ctx))
    out.append(_rec("quadratic", "taylor-identification", "quadratic-taylor-coeff",
                    {"k_max": 6}, dev, 1e-7))

    z = sample_z(rng)
    orders = qcore.fit_window(abs(qp0.b / qp0.a))
    tails = quadratic.quadratic_tail_curve(z, qp0, orders, ctx)
    fit = math.exp(np.polyfit(orders, np.log(tails), 1)[0])
    dev = abs(fit - abs(qp0.b / qp0.a)) / abs(qp0.b / qp0.a)
    out.append(_rec("quadratic", "tail-decay", "quadratic-remainder-tail",
                    {"orders": f"{orders[0]}..{orders[-1]}", "fit": fit}, dev, 0.10))

    dev = quadratic.companion_series_vs_vwp(z, qp0, ctx)
    out.append(_rec("quadratic", "companion-vwp-form", "quadratic-companion-bailey",
                    {"z": z}, dev, 1e-10))

    x = sample_complex(rng, 0.3, 0.9)
    dev = max(quadratic.folding_identity_check(x, 5, ctx),
              quadratic.folding_identity_check(0.9, 0, ctx))
    out.append(_rec("quadratic", "folding", "folding-identities", {"x": x},
                    dev, 1e-10))
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
    """Execute the selected suites; check errors become failed records."""
    report = VerificationReport(config_echo={
        "q": format_complex(cfg.q), "seed": cfg.seed, "draws": cfg.draws,
        "suites": list(cfg.suites), "negative_controls": cfg.negative_controls,
    })
    for name in cfg.suites:
        if name not in _RUNNERS:
            raise ConfigError(f"unknown suite {name!r}")
        runner = _RUNNERS[name]
        try:
            records = runner(cfg)
        except QTaylorError as exc:
            records = [CheckRecord(name, "suite-abort", "runner", {}, math.inf,
                                   0.0, 0.0, False, None,
                                   f"{type(exc).__name__}: {exc}")]
        if cfg.negative_controls and name == "kernel":
            records.append(_sabotaged_kernel_check(cfg))
        report.records.extend(records)
    return report


def _sabotaged_kernel_check(cfg: SuiteConfig) -> CheckRecord:
    """Negative-control path: H(b) forced to 1 must be reported as a failure."""
    ctx = cfg.context()
    rng = cfg.rng_for("kernel")
    kp = sample_kernel_params(rng, ctx)
    z = sample_z(rng)
    res = kernel.two_basis_residual(z, kp, kernel.adaptive_series_depth(kp),
                                    force_unit_Hb=True)
    return _rec("kernel", "two-basis-identity-sabotaged", "two-basis-identity",
                {"z": z, "forced_unit_Hb": True}, res, 1e-7,
                detail="expected failure: zeroth Taylor value dropped")


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
