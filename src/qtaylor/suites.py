"""Check catalog for the verification suites.

Each check evaluates one identity family at seeded draws and emits a
CheckRecord carrying the draw parameters, the worst residual, its scale, the
tolerance and the verdict.  Each check draws from a stream of its own,
``c.rng``, seeded by the string "seed:suite:check", and a draw that several
checks read from a named stream "seed:suite:name".  No stream depends on global
state, on PYTHONHASHSEED (a string seed is hashed by SHA-512) or on what
another check drew.

Every check is a ``with check(name, anchor, tol, **params) as c:`` block
(:class:`Check`) that keeps the first of its largest residuals.  ``scale`` is
what that residual was divided by: the largest |t_i| of an identity
t_0 = t_1 + ... judged by ``c.terms`` (``qcore.residual_and_scale``), |ref| of
a relative error judged by ``c.rel``, and 1.0 for a residual passed to ``c.see``
as is.  A ``QTaylorError`` or ``ArithmeticError`` raised inside a block fails
that check alone, with residual inf and ``"<Type>: message"`` in ``detail``.
Draws and values that several checks share are made before the first of them
opens; an error there, such as a sampler that runs out of tries, aborts the
suite as one ``suite-abort`` record.

Anchor strings are stable identity labels used for traceability in reports;
check ids are unique within a suite.
"""

from __future__ import annotations

import cmath
import math
import os
import pickle
import random
from dataclasses import dataclass, field
from functools import cached_property, partial
from pathlib import Path

import numpy as np

from . import hyper, kernel, profiles, qcore, quadratic, taylor, wpoperator
from .errors import ConfigError, QTaylorError
from .qcore import QContext, residual_and_scale, scaled_residual
from .sampling import (sample_basis_pair, sample_complex, sample_kernel_params,
                       sample_kernel_z, sample_on_circle,
                       sample_profile_kernel_params, sample_quadratic_params,
                       sample_with, sample_z)

SUITE_NAMES = ("qcore", "hyper", "operator", "taylor", "kernel", "laurent",
               "profiles", "quadratic")


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
        """The fields by name, as dataclasses.asdict gives them, without its deep copy."""
        return {**vars(self), "params": dict(self.params)}


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

    def stream(self, suite: str, name: str) -> random.Random:
        """The random stream of a name of a suite, a check or a draw that several of its
        checks read: a fresh random.Random seeded by "seed:suite:name"."""
        return random.Random(f"{self.seed}:{suite}:{name}")


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

    def __init__(self, records: list, cfg: SuiteConfig, suite: str, check: str, anchor: str,
                 tol: float, **params):
        self._records, self._cfg = records, cfg
        self.suite, self.check, self.anchor, self.tol = suite, check, anchor, tol
        self.params = params
        self.residual, self.scale, self.detail = 0.0, None, ""  # no residual seen yet

    @cached_property
    def rng(self) -> random.Random:
        """The check's own random stream, built when the check first draws."""
        return self._cfg.stream(self.suite, self.check)

    def see(self, *residuals, scale=1.0) -> None:
        """Keep the first largest residual and the scale it was divided by; a NaN sticks.  Numbers
        are judged in Python as np.max judges them: a NaN wins, else the last of the largest."""
        worst = (float(np.max(residuals)) if any(isinstance(r, np.ndarray) for r in residuals)
                 else math.nan if any(r != r for r in residuals) else float(max(reversed(residuals))))
        if (self.scale is None or worst > self.residual
                or math.isnan(worst) > math.isnan(self.residual)):
            self.residual, self.scale = worst, float(scale)

    def _see_worst(self, residual, scale) -> None:
        """See the first largest entry of an array of residuals with its scale."""
        if isinstance(residual, np.ndarray):
            i = residual.argmax()
            if isinstance(scale, np.ndarray):  # of the residuals' shape, or broadcast to it
                scale = (scale if scale.shape == residual.shape
                         else np.broadcast_to(scale, residual.shape)).flat[i]
            residual = residual.flat[i]
        self.see(residual, scale=scale)

    def rel(self, value, ref) -> None:
        """Judge value against a reference value, |value - ref| / |ref|, at each entry."""
        self._see_worst(abs(value - ref) / abs(ref), abs(ref))

    def terms(self, *terms) -> None:
        """Judge t_0 = t_1 + ... by residual_and_scale at a point or an array of points."""
        self._see_worst(*residual_and_scale(*terms))

    def each(self, judge, draws, batch: tuple | None = None) -> None:
        """judge(*batch), by default each entry of the draws stacked (by its class's batch, else
        as an ndarray): every draw in one evaluation.  If that raises, judge(*draw) for each
        draw in turn, so that an error is that of the first draw that fails on its own."""
        state = self.residual, self.scale, dict(self.params)
        try:
            judge(*(batch or (type(x[0]).batch(x) if hasattr(x[0], "batch") else np.array(x)
                              for x in zip(*draws))))
        except (QTaylorError, ArithmeticError):
            self.residual, self.scale, self.params = state
            for draw in draws:
                judge(*draw)

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
            1.0 if self.scale is None else self.scale, float(self.tol),
            bool(math.isfinite(self.residual) and self.residual < self.tol),
            self.detail)
        return True


# ---------------------------------------------------------------- qcore

def run_qcore(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, out = cfg.context(), []
    check = partial(Check, out, cfg, "qcore")
    q = ctx.q

    with check("recurrence", "qpoch-def", 1e-13, draws=32) as c:
        def recurrence(a, n):
            top, below = qcore.qpoch_finite(np.array([a, a]), np.array([n + 1, n]), ctx)
            c.terms(top, below * (1 - a * q ** n))
        c.each(recurrence, [(sample_complex(c.rng, 0.1, 1.4), c.rng.randrange(0, 32))
                            for _ in range(32)])

    with check("infinite-shift", "qpoch-infinite-split", 1e-12, draws=cfg.draws) as c:
        def infinite_shift(a, k):
            whole, shifted = qcore.qpoch_infinite(np.array([a, a * q ** k]), ctx).value
            c.terms(whole, qcore.qpoch_finite(a, k, ctx) * shifted)
        c.each(infinite_shift, [(sample_complex(c.rng, 0.2, 0.95), c.rng.randrange(0, 9))
                                for _ in range(cfg.draws)])

    with check("multi-factorwise", "qpoch-multi", 1e-12) as c:
        a, b = sample_complex(c.rng), sample_complex(c.rng)
        c.params.update(a=a, b=b)
        c.rel(qcore.qpoch_multi([a, b], None, ctx).value,
              qcore.qpoch_infinite(a, ctx).value * qcore.qpoch_infinite(b, ctx).value)

    with check("theta-symmetry", "theta-def", 1e-12, draws=200) as c:
        u = np.array([sample_complex(c.rng, 0.3, 1.6) for _ in range(200)])
        c.terms(qcore.theta(u, ctx), qcore.theta(q / u, ctx))

    with check("theta-grid-zero", "theta-def", 1e-12) as c:
        zero_dev = max(abs(qcore.theta(1.0, ctx)), abs(qcore.theta(q, ctx)))
        scale = abs(qcore.theta(-1.0, ctx))
        c.see(zero_dev / scale, scale=scale)

    with check("weierstrass-addition", "weierstrass-addition", 1e-12, draws=200) as c:
        x, y, u, v = np.array([[sample_complex(c.rng, 0.5, 1.5) for _ in range(4)]
                               for _ in range(200)]).T
        c.terms(*qcore.weierstrass_terms(x, y, u, v, ctx))
    return out


# ---------------------------------------------------------------- hyper

def _rogers_draw(rng, ctx):
    """(a, b, c, d) with |aq/(bcd)| <= 0.7."""
    return sample_with(rng, lambda r: (sample_complex(r, 0.2, 0.9),
                                       *(sample_complex(r, 0.35, 0.95) for _ in range(3))),
                       lambda p: abs(p[0] * ctx.q / (p[1] * p[2] * p[3])) <= 0.7)


def run_hyper(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, out = cfg.context(), []
    check = partial(Check, out, cfg, "hyper")
    q = ctx.q

    with check("phi-z0", "basic-hypergeometric-def", 1e-15) as c:
        spec = hyper.PhiSeriesSpec((0.4 + 0.1j, 0.3), (0.5 - 0.2j,), 0.0)
        c.see(abs(hyper.series_eval(spec, None, ctx).value - 1.0))

    with check("phi-terminating", "basic-hypergeometric-def", 1e-13, n=1) as c:
        spec = hyper.PhiSeriesSpec((1 / q, 0.4), (0.6,), 0.3 + 0.2j)
        exact = hyper.series_eval(spec, 1, ctx).value
        c.rel(hyper.series_eval(spec, 9, ctx).value, exact)

    with check("phi-vs-long-sum", "basic-hypergeometric-def", 1e-12,
               draws=cfg.draws) as c:
        specs = []
        for _ in range(cfg.draws):
            nums = tuple(sample_complex(c.rng, 0.2, 0.9) for _ in range(3))
            dens = tuple(sample_complex(c.rng, 0.3, 0.9) for _ in range(2))
            z = sample_complex(c.rng, 0.1, 0.5)
            specs.append(hyper.PhiSeriesSpec(nums, dens, z))

        def long_sum(*specs):
            c.rel(*(np.array([tb.value for tb in hyper.series_sums(specs, trunc, ctx)])
                    for trunc in (None, 220)))
        c.each(long_sum, [(spec,) for spec in specs], specs)

    k = 9
    with check("vwp-telescoping", "W-summand", 1e-14, k=k) as c:
        vspec = hyper.VWPSpec(0.55, (0.6 + 0.2j, 0.7, 0.4 - 0.3j), 0.3 + 0.1j)
        s8 = hyper.series_eval(vspec, 8, ctx).value
        s9 = hyper.series_eval(vspec, 9, ctx).value
        # the k=9 summand rebuilt from shifted factorial products
        a0 = vspec.a
        summand = ((1 - a0 * q ** (2 * k)) / (1 - a0)
                   * qcore.qpoch_finite(a0, k, ctx)
                   * qcore.qpoch_multi(vspec.b_list, k, ctx).value
                   / (qcore.qpoch_finite(q, k, ctx)
                      * qcore.qpoch_multi([a0 * q / b for b in vspec.b_list], k, ctx).value)
                   * vspec.argument ** k)
        c.terms(s9, s8, summand)

    with check("vwp-expanded-roots", "W-notation", 1e-12, draws=6) as c:
        specs = []
        for _ in range(6):
            a = c.rng.uniform(0.3, 0.8)  # real positive: explicit root exists
            blist = tuple(sample_complex(c.rng, 0.4, 0.9) for _ in range(2))
            specs.append(hyper.VWPSpec(a, blist, sample_complex(c.rng, 0.1, 0.4)))

        def expanded_roots(*specs):
            v1 = hyper.series_sums(specs, 24, ctx)
            roots = iter(hyper.series_sums(
                [hyper.vwp_expanded_spec(vs, sign * math.sqrt(vs.a.real), ctx)
                 for vs in specs for sign in (1, -1)], 24, ctx))
            for vs, tb in zip(specs, v1):
                for expanded in (next(roots), next(roots)):
                    c.rel(expanded.value, tb.value)
                c.see(hyper.well_poised_defect(vs, ctx))
        c.each(expanded_roots, [(vs,) for vs in specs], specs)

    with check("rogers-summation", "rogers-6w5", 1e-9, draws=cfg.draws) as c:
        draws = [_rogers_draw(c.rng, ctx) for _ in range(cfg.draws)]
        c.each(lambda *p: c.terms(*hyper.rogers_6w5_terms(*p, ctx)), draws)
        # a = 0.018/|q| holds |aq/(bcd)| at 0.55 for every base (a = 0.04 at q = 0.45)
        c.terms(*hyper.rogers_6w5_terms(0.018 / abs(q), 0.8, 0.05 + 0.01j, 0.8, ctx))

    with check("jackson-summation", "jackson-8w7", 1e-10, draws=cfg.draws,
               n_max=12) as ch:
        draws = [(*(sample_complex(ch.rng, 0.3, 0.9) for _ in range(4)), ch.rng.randrange(0, 13))
                 for _ in range(cfg.draws)]
        ch.each(lambda *p: ch.terms(*hyper.jackson_8w7_terms(*p, ctx)), draws)
    return out


# ---------------------------------------------------------------- operator

def _sample_operator_point(rng, ctx):
    def ok(z):
        return abs(z - 1 / z) > 0.2 and abs(abs(z) - 1.0 / math.sqrt(abs(ctx.q))) > 0.05
    return sample_with(rng, lambda r: sample_z(r), ok)


def run_operator(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, out = cfg.context(), []
    check = partial(Check, out, cfg, "operator")
    q = ctx.q
    rq = ctx.sqrt_q

    with check("dq-basics", "Dq", 1e-13) as c:
        z = c.params["z"] = _sample_operator_point(c.rng, ctx)
        c.see(abs(wpoperator.apply_Dq(lambda _: 2.7 - 0.4j, z, ctx)),
              abs(wpoperator.apply_Dq(lambda w: (w + 1 / w) / 2, z, ctx) - 1.0))

    with check("dcq-c0-reduction", "Dcq", 1e-13, draws=cfg.draws) as c:
        # D_{0,q} of sum_k u_k Phi_k(.; a, 0) against its lowering law; the drawn c is not used
        def reduction(pair, coeffs, z):
            f = taylor.phi_combination(taylor.BasisPair(pair.a, 0.0), coeffs, ctx)
            c.terms(wpoperator.apply_Dcq(f, z, 0.0, ctx),
                    *taylor.lowered_terms(z, pair.a, coeffs, ctx))
        c.each(reduction, [(sample_basis_pair(c.rng), [sample_complex(c.rng, 0.5, 1.5)
                                                        for _ in range(4)],
                            _sample_operator_point(c.rng, ctx)) for _ in range(cfg.draws)])

    with check("phi1-lowering", "lowering-Phi", 1e-12) as c:
        pair = sample_basis_pair(c.rng)
        c.params.update(a=pair.a, c=pair.c)
        f1 = taylor.phi_function(pair, 1, ctx)
        want = -2 * pair.a * (1 - pair.c / pair.a) * (1 - pair.a * pair.c)
        c.each(lambda z: c.rel(wpoperator.apply_Dcq(f1, z, pair.c, ctx), want),
               [(_sample_operator_point(c.rng, ctx),) for _ in range(4)])

    with check("iterated-lowering", "iterated-lowering", 1e-9, n_max=5) as ch:
        # D^(k) Phi_n(.; a, c) = pref Phi_{n-k}(.; a q^{k/2}, c q^{3k/2}) at each k <= n, the
        # prefactor of each draw in scalar arithmetic
        def iterated_lowering(pair, n, k, z):
            got = wpoperator.apply_iterated(taylor.phi_function(pair, n, ctx), z, pair.c, k, ctx)
            prefs, shifted = [], []
            for a, c, nj, kj in zip(*qcore.draw_lists(pair.a, pair.c, n, k)):
                prefs.append((-1) ** kj * (2 * a) ** kj * rq ** (kj * (kj - 1) // 2)
                             * qcore.qpoch_finite(q, nj, ctx) * qcore.qpoch_finite(c / a, kj, ctx)
                             * qcore.qpoch_finite(a * c * q ** (nj - 1), kj, ctx)
                             / (qcore.qpoch_finite(q, nj - kj, ctx) * (1 - q) ** kj))
                shifted.append(taylor.BasisPair(a * rq ** kj, c * rq ** (3 * kj)))
            want = taylor.phi_basis(z, taylor.BasisPair.batch(shifted), n - k, ctx)
            for g, p, w in zip(*qcore.draw_lists(got, prefs, want)):
                ch.rel(g, p * w)
        draws = [(sample_basis_pair(ch.rng), n, _sample_operator_point(ch.rng, ctx))
                 for n in range(1, 6)]
        ch.each(iterated_lowering, [(p, n, k, z) for p, n, z in draws for k in range(n + 1)])

    with check("closed-form-vs-recursion", "p0-cooper", 1e-8, draws=cfg.draws,
               m_max=6) as ch:
        def closed_vs_recursion(pair, coeffs, z, m, c):
            f = taylor.phi_combination(pair, coeffs, ctx)
            for terms in zip(*qcore.draw_lists(wpoperator.cooper_eval(f, z, c, m, ctx),
                                               wpoperator.apply_iterated(f, z, c, m, ctx))):
                ch.terms(*terms)
        ch.each(closed_vs_recursion, [(sample_basis_pair(ch.rng),
                                       [sample_complex(ch.rng, 0.5, 1.5) for _ in range(9)],
                                       _sample_operator_point(ch.rng, ctx), ch.rng.randrange(0, 7),
                                       sample_complex(ch.rng)) for _ in range(cfg.draws)])

    with check("delta-property", "delta-property", 1e-8) as c:
        pair = sample_basis_pair(c.rng, lo=0.4, hi=0.85)
        c.params.update(a=pair.a, c=pair.c, order=6)
        # Phi_n for n = 0..6 as one batch of seven draws of the pair
        pairs = taylor.BasisPair.batch([pair] * 7)
        expansions = taylor.taylor_expand(taylor.phi_function(pairs, np.arange(7), ctx),
                                          pairs, 6, ctx)
        c.see(*(abs(t - (1.0 if k == n else 0.0))
                for n, coeffs in enumerate(expansions) for k, t in enumerate(coeffs)))

    # negating the root reflects the evaluation point; the divided
    # difference of an odd symmetric function and the full coefficient
    # functional of any symmetric function are branch-free
    with check("branch-invariance", "Dq", 1e-10) as c:
        def g_odd(w):
            return ((w + 1 / w) / 2) ** 3 + 2.0 * (w + 1 / w) / 2
        z = c.params["z"] = _sample_operator_point(c.rng, ctx)
        c.terms(wpoperator.apply_Dq(g_odd, z, ctx),
                wpoperator.apply_Dq(g_odd, z, ctx, root=-ctx.sqrt_q))
        pair = sample_basis_pair(c.rng)
        f = taylor.phi_combination(pair, [0.7, 1.1 - 0.3j, 0.8j, 0.5], ctx)
        t, t_flipped = (taylor.taylor_expand(f, pair, 3, branch)
                        for branch in (ctx, ctx.other_branch()))
        for k in range(4):
            c.terms(t[k], t_flipped[k])

    with check("grid-functional-weights", "finite-grid-functional", 1e-10, j=1) as ch:
        pair = sample_basis_pair(ch.rng)
        a, c = pair.a, pair.c
        w = wpoperator.grid_functional_weights(a, c, 1, ctx)
        phi1 = taylor.phi_function(pair, 1, ctx)
        scalar = w[0] * phi1(a) + w[1] * phi1(a * q)
        want = -2 * a * (1 - c / a) * (1 - a * c)  # order-1 lowering value
        ch.terms(w[0], -w[1])  # the weights annihilate constants
        ch.rel(scalar, want)
    return out


# ---------------------------------------------------------------- taylor

def run_taylor(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, out = cfg.context(), []
    check = partial(Check, out, cfg, "taylor")
    q = ctx.q

    with check("coefficient-recovery", "finite-coeff", 1e-8, n_max=8) as c:
        def recovery(pair, n, coeffs):
            f = taylor.phi_combination(pair, coeffs, ctx)
            got = taylor.taylor_expand(f, pair, n, ctx)
            for ts, us in zip(got, coeffs) if np.ndim(n) else [(got, coeffs)]:
                for t, want in zip(ts, us):
                    c.rel(t, want)
        draws = []
        for _ in range(max(cfg.draws // 2, 4)):
            pair, n = sample_basis_pair(c.rng, lo=0.4, hi=0.85), c.rng.randrange(1, 9)
            draws.append((pair, n, [sample_complex(c.rng, 0.5, 1.5) for _ in range(n + 1)]))
        pairs, ns, coeffs = zip(*draws)  # ragged coefficient lists: batched by hand
        c.each(recovery, draws, (taylor.BasisPair.batch(pairs), np.array(ns), coeffs))

    with check("first-reexpansion", "first-reexpansion", 1e-9) as ch:
        a, c, d = (sample_complex(ch.rng, *r) for r in ((0.4, 0.85), (0.35, 0.8), (0.4, 0.85)))
        ch.params.update(a=a, c=c, d=d)
        pair = taylor.BasisPair(a, c)
        f = taylor.phi_function(taylor.BasisPair(d, c), 1, ctx)
        t0, t1 = taylor.taylor_expand(f, pair, 1, ctx)
        w0 = (1 - a * d) * (1 - d / a) / ((1 - a * c) * (1 - c / a))
        w1 = (d / a) * (1 - c / d) * (1 - c * d) / ((1 - c / a) * (1 - a * c))
        ch.rel(t0, w0)
        ch.rel(t1, w1)

    pair = sample_basis_pair(cfg.stream("taylor", "pair"), lo=0.4, hi=0.85)
    f = taylor.phi_combination(pair, [1.0, 0.8 + 0.1j, 0.5], ctx)
    g = taylor.phi_combination(pair, [0.3, -0.6j, 0.9, 0.2], ctx)
    with check("linearity", "taylor-coeff-finite", 1e-10) as c:
        al, be = sample_complex(c.rng, 0.5, 1.5), sample_complex(c.rng, 0.5, 1.5)
        th, tf, tg = (taylor.taylor_expand(fn, pair, 3, ctx)
                      for fn in (lambda z: al * f(z) + be * g(z), f, g))
        for k in range(4):
            c.terms(th[k], al * tf[k] + be * tg[k])

    with check("remainder-consistency", "T-and-R", 1e-15) as c:
        z = c.params["z"] = sample_z(c.rng)
        t_sum, remainder = taylor.taylor_sum_and_remainder(f, pair, 2, z, ctx)
        c.rel(t_sum + remainder, f(z))
        c.detail = "T_n + R_n reproduces f(z) to rounding"

    with check("flat-function", "flat-functions", 1e-8) as c:
        def flat(z):
            return qcore.qpoch_groups([kernel.sym_bases(z, pair.a)], ctx)[0]
        pair = sample_basis_pair(c.rng, lo=0.4, hi=0.8)
        c.params.update(a=pair.a, c=pair.c)
        # depth where the rounding floor of near-grid cofactors stays harmless
        k_flat = 3
        while k_flat < 6 and abs(q) ** (-(k_flat + 1) * (k_flat + 2) / 2) < 1e6:
            k_flat += 1
        c.see(taylor.flatness_check(flat, pair, k_flat, ctx))
        c.see(taylor.flatness_check(lambda z: flat(z) * (1.3 + 0.5 * (z + 1 / z)), pair,
                                    k_flat - 1, ctx))
        bumpy = taylor.flatness_check(taylor.phi_function(pair, 3, ctx), pair, 4, ctx)
        c.see(0.0 if bumpy > 1e-4 else math.inf)
        c.detail = f"negative control (phi_3) flatness={bumpy:.3e}"

    with check("basis-boundedness", "basis-bounded", 1e-4) as c:
        pair = taylor.BasisPair(sample_complex(c.rng, 0.4, 0.8), 0.5)
        c.params.update(a=pair.a, c=pair.c)
        sups = taylor.basis_sup_curve(pair, (0.95, 1.05), 40, ctx)
        plateau = max(sups[30:]) / max(sups[15:25])
        z0 = 1.02 + 0.0j
        lim = taylor.basis_limit_modulus(z0, pair, ctx)
        tail_dev = abs(abs(taylor.phi_basis(z0, pair, 40, ctx)) - lim) / lim
        c.see(abs(plateau - 1.0), tail_dev, abs(sups[0] - 1.0))
        c.detail = f"sampled sup={max(sups):.4g}"
    return out


# ---------------------------------------------------------------- kernel

def run_kernel(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, out = cfg.context(), []
    check = partial(Check, out, cfg, "kernel")
    q = ctx.q
    n_half = max(cfg.draws // 2, 4)

    rng = cfg.stream("kernel", "points")
    points = [(sample_kernel_params(rng, ctx, lo=cfg.modulus_lo, hi=cfg.modulus_hi),
               sample_z(rng)) for _ in range(n_half)]
    with check("factorisation", "A-B", 1e-12, draws=n_half) as c:
        def factorisation(kp, z):
            kf = kernel.kernel_factors(z, kp)
            # both factorisations of each draw together, as a loop over the draws sees them
            c.rel(np.array([kf.A * kf.H, kf.B * kf.K]).T, np.array([kf.F, kf.F]).T)
        c.each(factorisation, points)

    with check("involution", "involution", 1e-12, draws=n_half) as c:
        def involution(kp, z):
            ip = kernel.involute(kp)
            iip = kernel.involute(ip)
            c.see(abs(iip.b - kp.b), abs(iip.c - kp.c), abs(iip.d - kp.d),
                  abs(iip.e - kp.e))
            c.rel(*qcore.qpoch_quotients([kernel.kernel_quotient("H", z, ip),
                                          kernel.kernel_quotient("K", z, kp)], ctx))
            c.rel(taylor.phi_basis(z, ip.phi_pair, 5, ctx),
                  taylor.phi_basis(z, kp.psi_pair, 5, ctx))
        c.each(involution, points)

    kp = sample_kernel_params(cfg.stream("kernel", "coefficient-kp"), ctx)
    with check("g-equals-involuted-f", "g-coeff", 1e-12, k_max=12) as c:
        for g, fi in zip(kernel.gk_coefficients(kp, 12),
                         kernel.fk_coefficients(kernel.involute(kp), 12)):
            c.rel(fi, g)

    with check("f-ratio-geometric", "f-coeff", 0.10, k="20..40") as c:
        fs = kernel.fk_coefficients(kp, 40)
        for k in range(20, 40):
            c.rel(abs(fs[k + 1] / fs[k]), abs(q))

    with check("taylor-crosscheck", "f-coeff-taylor", 1e-7, k_max=6) as c:
        kp = sample_kernel_params(c.rng, ctx, lo=0.35, hi=0.85)
        for terms in (*kernel.kernel_taylor_terms(kp, 6),
                      *kernel.kernel_taylor_terms(kernel.involute(kp), 6)):
            c.terms(*terms)

    n_draws = len(cfg.explicit_kernel) or cfg.draws
    two_basis_draws = _two_basis_draws(cfg, ctx, n_draws)
    with check("two-basis-identity", "two-basis-identity", 1e-7, draws=n_draws,
               trunc=0, explicit=bool(cfg.explicit_kernel)) as c:
        def two_basis(kp, z):  # one draw, or the batch of all
            depth = kp.series_depth
            c.params["trunc"] = max(c.params["trunc"], int(np.max(depth)))
            # the points of each draw together, as a loop over the draws sees them
            c.terms(*(t.T for t in kernel.two_basis_terms(np.array([z, 1 / z]), kp, depth)))
        c.each(two_basis, two_basis_draws)

    with check("negative-control-Hb", "two-basis-identity", 1e-6) as c:
        kp, z = two_basis_draws[0]
        depth = kp.series_depth
        r = scaled_residual(*kernel.two_basis_terms(np.array([z, 1 / z]), kp, depth))[0]
        c.params["z"] = z
        ratio = (scaled_residual(*kernel.two_basis_terms(z, kp, depth, force_unit_Hb=True))
                 / max(r, 1e-300))
        c.see(1.0 / ratio)
        c.detail = f"degradation {ratio:.3e}x"

    orders = qcore.fit_window(abs(q))
    with check("remainder-gap-ratio", "R-H-limit", 0.30,
               orders=f"{orders[0]}..{orders[-1]}") as c:
        kp, z = _remainder_gap_draw(cfg, ctx)
        for key, kq in (("fit", kp), ("fit_involuted", kernel.involute(kp))):
            gaps, _ = kernel.remainder_gap_curve(z, kq, orders)
            c.params[key] = qcore.fitted_rate(orders, gaps)
            c.rel(c.params[key], abs(q))

    with check("lowering-laws", "H-lowering", 1e-8, draws=n_half) as c:
        draws = [(sample_kernel_params(c.rng, ctx), sample_z(c.rng)) for _ in range(n_half)]

        def lowering_laws(kp, z):
            ip = kernel.involute(kp)
            laws = (kernel.H_lowering_terms(z, kp), kernel.H_lowering_terms(z, ip),
                    kernel.K_lowering_terms(z, kp))
            # the three laws of each draw together, as a loop over the draws sees them
            c.terms(*(np.array(sides).T for sides in zip(*laws)))
        c.each(lowering_laws, draws)

    kp = sample_kernel_params(cfg.stream("kernel", "E-kp"), ctx)
    depth = kp.series_depth
    with check("E-grid-zeros", "E-grid-zeros", 1e-7, grid_powers="0..10",
               depth=depth) as c:
        grid = np.array([z0 for m in range(11)
                         for z0 in (kp.b * q ** m, kp.c / (kp.d * kp.e) * q ** m)])
        c.terms(*kernel.pole_cleared_E_terms(grid, kp, depth))

    with check("pole-clearing-paths", "M-pole-clear", 1e-8) as c:
        z = c.params["z"] = sample_z(c.rng)
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
        terms = kernel.pole_cleared_E_terms(grid, kp, N)
        c.terms(*(t[:-1] for t in terms))
        beyond = scaled_residual(*(t[-1] for t in terms))
        c.see(0.0 if beyond > 1e-5 else math.inf)
        c.detail = f"beyond-depth residual {beyond:.3e} (not flat)"

    n_third = max(cfg.draws // 3, 3)
    with check("vwp-rewriting", "deduce-bailey-8phi7", 1e-7, draws=n_third) as c:
        draws = []
        for _ in range(n_third):
            kp = sample_kernel_params(c.rng, ctx)
            draws.append((kp, np.array([sample_kernel_z(c.rng, kp), sample_on_circle(c.rng)])))
        c.each(lambda kp, z: c.terms(*(t.T for t in kernel.bailey_terms(kp, z.T))), draws)
    return out


def _remainder_gap_draw(cfg: SuiteConfig, ctx: QContext) -> tuple:
    """The draw (kp, z) of remainder-gap-ratio, from its stream."""
    rng = cfg.stream("kernel", "remainder-gap-ratio")
    return sample_profile_kernel_params(rng, ctx), sample_z(rng)


def _two_basis_draws(cfg: SuiteConfig, ctx: QContext, count: int) -> list:
    """The first count draws (kp, z) of two-basis-identity from its named stream: the
    configured kernel quadruples, else drawn ones, each with a point clear of its poles."""
    rng, quadruples = cfg.stream("kernel", "two-basis"), cfg.explicit_kernel
    draws = []
    for i in range(count):
        kp = (kernel_params_from_config(quadruples[i], ctx) if quadruples
              else sample_kernel_params(rng, ctx, lo=cfg.modulus_lo, hi=cfg.modulus_hi))
        draws.append((kp, sample_kernel_z(rng, kp)))
    return draws


# ---------------------------------------------------------------- laurent

def run_laurent(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, out = cfg.context(), []
    check = partial(Check, out, cfg, "laurent")

    with check("monomial", "laurent-criterion", 1e-12) as c:
        (v1, _, _), (v2, _, _) = kernel.laurent_coefficient_detail(
            lambda z: (z ** 5,), (-5, 2), 1.0, ctx)
        c.see(abs(v1 - 1.0), abs(v2))

    with check("quadruple-vs-contour", "calP-quadruple", 1e-8, draws=3) as c:
        for _ in range(3):
            al, be, ga, de = (sample_complex(c.rng, 0.3, 0.9) for _ in range(4))
            n = c.rng.randrange(0, 4)
            qd = kernel.calP_quadruple(al, be, ga, de, n, ctx)

            def g(z, al=al, be=be, ga=ga, de=de):
                return (qcore.qpoch_groups([[al * z, be / z, ga * z, de / z]], ctx)[0],)

            [(ct, _, _)] = kernel.laurent_coefficient_detail(g, [n], 1.0, ctx)
            c.terms(qd, ct)

    kp = sample_kernel_params(cfg.stream("laurent", "kp"), ctx)
    e_coeffs = kernel.E_contour_coefficient(kp, range(1, 7))
    with check("E-negative-coefficients", "coefficient-cancellation", 1e-6,
               n="1..6") as c:
        for coeff, scale, _ in e_coeffs:
            c.see(abs(coeff) / scale, scale=scale)

    with check("structured-cancellation", "coefficient-cancellation", 1e-6,
               n="1,2") as c:
        depth = c.params["k_trunc"] = kp.series_depth
        tables = kernel.calP_tables(kp, depth)
        routes = [(kernel.fk_coefficients(kp, depth), kernel.gk_coefficients(kp, depth)),
                  kp.family_terms(depth)]
        for n, (coeff, scale, _) in zip((1, 2), e_coeffs):
            (t1, t2, t3), series = kernel.structured_E_terms(kp, n, tables, routes)
            c.terms(*series)
            c.see(abs(t1 - t2 - t3 - coeff) / scale, scale=scale)
        not_small = abs(kernel.laurent_pair(tables[0][0], tables[0][0], 1))
        c.see(0.0 if not_small > 1e-3 else math.inf)
        c.detail = f"individual |P1_(1,0)|={not_small:.3e} (not small)"
    return out


# ---------------------------------------------------------------- profiles

def run_profiles(cfg: SuiteConfig) -> list[CheckRecord]:
    ctx, out = cfg.context(), []
    check = partial(Check, out, cfg, "profiles")
    q = ctx.q

    lam = sample_complex(cfg.stream("profiles", "lam"), 0.4, 0.8)
    with check("annular-factorisation", "q-annular-factorization", 1e-10, N_max=20) as c:
        c.each(lambda N, w: c.terms(*profiles.annular_factorization_terms(lam, N, w, ctx)),
               [(N, sample_z(c.rng, 0.9, 1.15)) for N in (0, 5, 10, 20)])

    with check("profile-quotient", "L-alpha-beta", 1e-12) as c:
        al, be = sample_complex(c.rng, 0.4, 0.9), sample_complex(c.rng, 0.4, 0.9)
        w = c.params["w"] = sample_z(c.rng, 0.9, 1.2)
        c.rel(profiles.L_profile(w, al, be, lam, ctx),
              qcore.theta(al / (lam * w), ctx) / qcore.theta(be / (lam * w), ctx))
        c.see(abs(profiles.L_profile(w, al, al, lam, ctx) - 1.0))

    kp, limits_w = _profile_draws(cfg, ctx)
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
        c.each(lambda w: c.terms(*profiles.leading_profile_terms(w, kp, lam, cf)),
               [(sample_z(c.rng, 0.8, 1.25),) for _ in range(cfg.draws)])
        t_anchor = max(scaled_residual(*profiles.leading_profile_theta_terms(t, kp, cf))
                       for t in (1 / kp.b, kp.d * kp.e / kp.c))
        c.terms(*profiles.leading_profile_theta_terms(0.9 + 0.3j, kp, cf))
        c.detail = f"interpolation anchors residual {t_anchor:.3e}"

    al, be = kp.c / kp.d, kp.b
    w = sample_z(cfg.stream("profiles", "w"), 0.9, 1.15)
    with check("profile-kernel", "P-exact-scaling", 1e-12, w=w) as c:
        c.terms(profiles.profile_kernel_P(0.0, w, al, be, lam, ctx),
                profiles.L_profile(w, al, be, lam, ctx))
        N = np.array([4, 7])
        z = lam * q ** N * w
        quot = (be / al) ** N * qcore.qpoch_quotient(
            kernel.sym_bases(z, al), kernel.sym_bases(z, be), ctx, "z on a pole")
        c.rel(profiles.profile_kernel_P(q ** N, w, al, be, lam, ctx), quot)
        c.see(abs(profiles.profile_kernel_P(q ** 4, w, al, al, lam, ctx) - 1.0))

    with check("kernel-coefficients", "P-coeff-general", 1e-8, j_max=4) as c:
        contour = kernel.laurent_coefficient_detail(
            lambda s: (profiles.profile_kernel_P(s, w, al, be, lam, ctx),),
            [-j for j in range(5)], min(0.3, 0.4 / abs(lam * w)), ctx)
        closed = profiles.profile_kernel_coefficients(range(len(contour)), w, al, be, lam, ctx)
        for mine, (coeff, _, _) in zip(closed, contour):
            c.terms(mine, coeff)

    with check("generating-residual", "global-Q-zero", 1e-7, s="0,q^8,q^6,q^4") as c:
        c.each(lambda s, w: c.terms(*profiles.generating_Q_terms(s, w, kp, lam)),
               [(s, sample_z(c.rng, 0.85, 1.2)) for s in (0.0, q ** 8, q ** 6, q ** 4)
                for _ in range(3)])

    with check("bridge-identity", "scaled-Q-equals-profile-generator", 1e-6, N="4..10") as c:
        c.each(lambda N, w: c.terms(*profiles.bridge_terms(N, w, kp, lam)),
               [(N, sample_z(c.rng, 0.9, 1.15)) for N in range(4, 11)])

    moments = {}  # each F_m, G_m summed once for kp
    with check("contiguous-moments", "profile-moments", 1e-12) as c:
        mom0 = moments[0] = profiles.contiguous_moment(kp, 0)
        mom1 = moments[1] = profiles.contiguous_moment(kp, 1)
        c.rel(mom0.F_m, cf.F_star_series)
        boundary = profiles.contiguous_moment(kp, -12)
        flags_ok = mom0.convergent and mom1.convergent and not boundary.convergent
        c.see(0.0 if flags_ok else math.inf)
        c.detail = "m=-12 correctly flagged nonconvergent"

    with check("coefficient-hierarchy", "first-correction-target", 1e-6, j="0,1") as c:
        for terms in profiles.profile_coefficient_terms(
                [(j, sample_z(c.rng, 0.9, 1.15)) for j in (0, 1)], kp, lam, moments):
            c.terms(*terms)

    with check("exponential-profile-limits", "R-profile-limit", 0.25, k=2) as c:
        *limits, res9, res9i = profiles.exponential_profile_limit_residual(
            2, [(limits_w, kp, N) for N in (6, 8, 10, 12, 9)]
            + [(limits_w, kernel.involute(kp), 9)], lam)
        trend = c.params["trend"] = qcore.fitted_rate([6, 8, 10, 12],
                                                      [r.r_residual for r in limits])
        c.rel(trend, abs(q))
        c.rel(res9i.r_residual, res9.s_residual)

    # radius in the widest gap between the zero circles of the split's
    # bounded factor (anchor b: circles at |w| = 1, q^{-1}, |c/bde| q^j);
    # the plateau evidence is uniformity in N at each fixed grid point
    radius = _clear_w_radius(kp)
    with check("canonical-growth", "canonical-product-annular-growth", 1e-10,
               N="4..12", radius=radius) as c:
        spread = 1.0
        ws = [radius * cmath.exp(2j * math.pi * (t + 0.13) / 4) for t in range(4)]
        layers = profiles.canonical_growth_profile(lam, [(N, w) for w in ws
                                                         for N in range(4, 13)], kp)
        for t in range(0, 36, 9):  # nine layers N = 4..12 at each w
            for cg in layers[t:t + 9]:
                c.rel(cg.extracted_monomial * cg.C_factor, cg.Z_value)
            mags = [abs(cg.C_factor) for cg in layers[t:t + 9]]
            spread = max(spread, max(mags) / min(mags))
        c.params["spread"] = spread
        c.see(0.0 if spread < 10.0 else math.inf)
        if spread >= 10.0:
            c.detail = f"C-factor spread {spread:.3g} >= 10 at radius {radius:.3g}"
    return out


def _profile_draws(cfg: SuiteConfig, ctx: QContext) -> tuple:
    """(kp, w): the named draw kp and the w of exponential-profile-limits."""
    return (sample_profile_kernel_params(cfg.stream("profiles", "kp"), ctx),
            sample_z(cfg.stream("profiles", "exponential-profile-limits"), 0.9, 1.15))


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
    ctx, out = cfg.context(), []
    check = partial(Check, out, cfg, "quadratic")

    points, z = _quadratic_draws(cfg, ctx, cfg.draws)
    params = quadratic.QuadraticParams
    batch = (params.batch([qp for qp, _ in points]), np.array([z for _, z in points]))
    for name, anchor, family, terms in (
            ("watson-type-expansion", "quadratic-bailey", params.h_terms,
             quadratic.quadratic_terms),
            ("companion-expansion", "quadratic-companion-bailey", params.r_terms,
             quadratic.companion_terms)):
        with check(name, anchor, 1e-8, draws=cfg.draws) as c:
            c.params["trunc"] = max(map(len, family(batch[0]))) - 1
            c.each(lambda qp, z: c.terms(*terms(z, qp)), points, batch)

    qp0 = points[0][0]
    with check("unit-leading-coefficients", "quadratic-coeff", 1e-15) as c:
        c.see(abs(qp0.h_terms(0)[0] - 1), abs(qp0.r_terms(0)[0] - 1))

    with check("coefficient-decay", "quadratic-coeff", 0.10, k=30) as c:
        for family, ratio in ((qp0.h_terms, qp0.b / qp0.a), (qp0.r_terms, qp0.alpha)):
            *_, u30, u31 = family(31)
            c.rel(abs(u31 / u30), abs(ratio))

    with check("taylor-identification", "quadratic-taylor-coeff", 1e-7, k_max=6) as c:
        for terms in (*quadratic.quadratic_taylor_terms(qp0, 6),
                      *quadratic.companion_taylor_terms(qp0, 6)):
            c.terms(*terms)

    orders = qcore.fit_window(abs(qp0.b / qp0.a))
    with check("tail-decay", "quadratic-remainder-tail", 0.10,
               orders=f"{orders[0]}..{orders[-1]}") as c:
        tails, _ = quadratic.quadratic_tail_curve(z, qp0, orders)
        fit = c.params["fit"] = qcore.fitted_rate(orders, tails)
        c.rel(fit, abs(qp0.b / qp0.a))

    with check("companion-vwp-form", "quadratic-companion-bailey", 1e-10, z=z) as c:
        c.terms(*quadratic.companion_vwp_terms(z, qp0))

    with check("folding", "folding-identities", 1e-10) as c:
        x = c.params["x"] = sample_complex(c.rng, 0.3, 0.9)
        for terms in (*quadratic.folding_terms(x, 5, ctx), *quadratic.folding_terms(0.9, 0, ctx)):
            c.terms(*terms)
    return out


def _quadratic_draws(cfg: SuiteConfig, ctx: QContext, count: int) -> tuple:
    """The first count (qp, z) of the named draw points, whose first qp is qp0, and the named z."""
    rng = cfg.stream("quadratic", "points")
    return ([(sample_quadratic_params(rng, ctx), sample_z(rng)) for _ in range(count)],
            sample_z(cfg.stream("quadratic", "z")))


_RUNNERS = {"qcore": run_qcore, "hyper": run_hyper, "operator": run_operator,
            "taylor": run_taylor, "kernel": run_kernel, "laurent": run_laurent,
            "profiles": run_profiles, "quadratic": run_quadratic}


def run_suites(cfg: SuiteConfig) -> VerificationReport:
    """Execute the selected suites; an error fails the check that raised it."""
    report = VerificationReport(config_echo={
        "q": format_complex(cfg.q), "seed": cfg.seed, "draws": cfg.draws,
        "suites": list(cfg.suites), "negative_controls": cfg.negative_controls,
    })
    if unknown := [name for name in cfg.suites if name not in _RUNNERS]:
        raise ConfigError(f"unknown suite {unknown[0]!r}")
    for records in _fan_out(cfg, cfg.suites):
        report.records.extend(records)
    return report


def _suite_records(cfg: SuiteConfig, name: str) -> list[CheckRecord]:
    """The records of one suite, its kernel negative control included."""
    try:
        records = _RUNNERS[name](cfg)
    except QTaylorError as exc:  # outside every check, or a ConfigError
        records = [CheckRecord(name, "suite-abort", "runner", {}, math.inf,
                               0.0, 0.0, False, f"{type(exc).__name__}: {exc}")]
    if cfg.negative_controls and name == "kernel":
        _sabotaged_kernel_check(cfg, records)
    return records


# A worker's suites, half a run: 21.0 ms against 20.5 at q = 0.7, 16.9 against 17.5 at 0.45.
_WORKER_SUITES = ("profiles", "laurent", "quadratic", "taylor")


def _fan_out(cfg: SuiteConfig, names: tuple[str, ...]) -> list[list[CheckRecord]]:
    """The records of each named suite, as the serial loop makes them.  With two usable CPUs
    and two suites or more on each side, a forked worker runs those of _WORKER_SUITES."""
    forked = [i for i, name in enumerate(names) if name in _WORKER_SUITES]
    if (len(forked) < 2 or len(names) - len(forked) < 2 or not hasattr(os, "fork")
            or len(getattr(os, "sched_getaffinity", lambda pid: ())(0)) < 2):
        return [_suite_records(cfg, name) for name in names]
    read_fd, write_fd = os.pipe()
    if (pid := os.fork()) == 0:
        try:
            os.close(read_fd)
            try:
                result = [_suite_records(cfg, names[i]) for i in forked]
            except BaseException as exc:  # raised again in the parent, if it survives pickling
                try:
                    result = pickle.loads(pickle.dumps(exc))
                except Exception:
                    result = RuntimeError(f"{type(exc).__name__}: {exc}")
            with os.fdopen(write_fd, "wb") as pipe:  # its one output: the worker prints nothing
                pickle.dump(result, pipe)
            os._exit(0)
        finally:
            os._exit(1)
    os.close(write_fd)
    try:
        with os.fdopen(read_fd, "rb") as pipe:
            out = {i: _suite_records(cfg, name) for i, name in enumerate(names) if i not in forked}
            payload = pipe.read()
    finally:  # also when this half raises, or a signal becomes SystemExit
        status = os.waitpid(pid, 0)[1]
    if status:
        raise RuntimeError(f"the worker running suites {[names[i] for i in forked]} died "
                           f"without its records (wait status {status})")
    if isinstance(result := pickle.loads(payload), BaseException):
        raise result
    out.update(zip(forked, result))
    return [out[i] for i in range(len(names))]


def _sabotaged_kernel_check(cfg: SuiteConfig, records: list) -> None:
    """Negative control: H(b) forced to 1 at the first two-basis draw must be reported failing."""
    [(kp, z)] = _two_basis_draws(cfg, cfg.context(), 1)
    # evaluated outside the block: an error must escape, not pass for the designed failure
    terms = kernel.two_basis_terms(z, kp, kp.series_depth, force_unit_Hb=True)
    with Check(records, cfg, "kernel", "two-basis-identity-sabotaged", "two-basis-identity",
               1e-7, z=z, forced_unit_Hb=True) as c:
        c.terms(*terms)
        c.detail = "expected failure: zeroth Taylor value dropped"


# ---------------------------------------------------------------- decay CSV

DECAY_TARGETS = ("two_basis_tail", "remainder_gap", "quadratic_tail",
                 "profile_scaling")


def decay_rows(cfg: SuiteConfig, target: str) -> list[tuple[int, float, float, float]]:
    """Rows (order, residual, scale, fitted_ratio) for a decay target."""
    ctx = cfg.context()
    if target == "two_basis_tail":
        [(kp, z)] = _two_basis_draws(cfg, ctx, 1)
        orders = list(range(0, 29, 2))
        res, scales = zip(*(residual_and_scale(*kernel.two_basis_terms(z, kp, n))
                            for n in orders))
    elif target == "remainder_gap":
        kp, z = _remainder_gap_draw(cfg, ctx)
        orders = list(range(4, 11))
        res, scales = kernel.remainder_gap_curve(z, kp, orders)
    elif target == "quadratic_tail":
        [(qp, _)], z = _quadratic_draws(cfg, ctx, 1)
        orders = list(range(4, 16))
        res, scales = quadratic.quadratic_tail_curve(z, qp, orders)
    elif target == "profile_scaling":
        kp, w = _profile_draws(cfg, ctx)
        orders = list(range(4, 14))
        limits = profiles.exponential_profile_limit_residual(2, [(w, kp, N) for N in orders], kp.b)
        res, scales = [r.r_residual for r in limits], [r.r_scale for r in limits]
    else:
        raise ConfigError(f"unknown decay target {target!r}; "
                          f"choose one of {DECAY_TARGETS}")
    tail_orders = [n for n, r in zip(orders, res) if r > 0][2:]
    tail_res = [r for r in res if r > 0][2:]
    fitted = qcore.fitted_rate(tail_orders, tail_res) if len(tail_res) >= 2 else math.nan
    return list(zip(orders, res, scales, [fitted] * len(res)))


def emit_decay_csv(cfg: SuiteConfig, target: str, path) -> int:
    """Write a decay curve (order, residual, scale, fitted_ratio) as CSV; return its row count."""
    rows = decay_rows(cfg, target)
    lines = ["order,residual,scale,fitted_ratio"]
    lines += [f"{n},{float(r)!r},{float(s)!r},{float(f)!r}" for n, r, s, f in rows]
    Path(path).write_text("\n".join(lines) + "\n")
    return len(rows)
