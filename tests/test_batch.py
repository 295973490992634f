"""Batched and grouped evaluation paths against their per-point scalar references.

Products, thetas and the pole-cleared residual accept ndarrays of points,
and every infinite-product quotient evaluates all of its bases in one
qpoch_infinite call; the structured Laurent sums read every order from one
table per family.  Each batched or grouped result is compared with the
per-base scalar loop it replaced.  A group runs every base at the depth of
its largest |a| and NumPy may fuse a complex multiply, so results differ by
rounding: the tolerances below are fixed from the binary64 unit roundoff
and the number of rounded operations, not from observed differences.
"""

import cmath
import math
import random

import numpy as np
import pytest

from qtaylor import hyper, kernel, profiles, qcore, quadratic, taylor, wpoperator
from qtaylor.errors import (ConvergenceRegionViolation, DivergenceSuspected, DomainError,
                            ExceptionalPoint, NearSingularPoint, PoleProximity,
                            TruncationFailure, ZeroDenominator)
from qtaylor.hyper import PhiSeriesSpec, VWPSpec, series_eval, series_sums, sum_through
from qtaylor.kernel import (KernelParams, calP_tables,
                            laurent_pair, pole_cleared_E_terms)
from qtaylor.qcore import (QContext, geometric_depth, qpoch_infinite,
                           scaled_residual, theta, weierstrass_terms)
from qtaylor.sampling import (sample_basis_pair, sample_complex, sample_kernel_params,
                              sample_kernel_z, sample_profile_kernel_params,
                              sample_quadratic_params, sample_with, sample_z)
from qtaylor.suites import SuiteConfig, run_suites

EPS = np.finfo(float).eps  # 2^-52

BASES = [0.45, 0.7, -0.6, 0.3 + 0.5j]
# qpoch_infinite calls of verify --suite kernel / profiles / quadratic at q = 0.45, seed 7,
# 12 draws; one call per quotient made kernel and profiles 290 / 287, one call per
# identity evaluation of each draw made kernel, profiles and quadratic 81 / 117 / 55;
# profiles was 84 while coefficient-hierarchy evaluated its j=0 and leading terms twice, and
# 79 while kernel-coefficients made a call per order, and 41 while canonical-growth,
# exponential-profile-limits and coefficient-hierarchy shared one call per distinct depth
# rather than making one per point (that measured no faster end to end)
PINNED_KERNEL_CALLS = 26
PINNED_PROFILES_CALLS = 73
PINNED_QUADRATIC_CALLS = 13
# hyper._series_sum runs of verify --suite hyper / kernel / profiles / quadratic at the same
# (q, seed); a run per draw and family made them 72 / 58 / 49 / 25; kernel and profiles
# made 8 and 8 on the suite-wide stream, where the draws of kernel's E-kp and of profiles'
# kp each reached their depth without a second term run
PINNED_SERIES_RUNS = {"hyper": 12, "kernel": 9, "profiles": 9, "quadratic": 3}
# (qcore.qpoch_infinite, qcore.sample, taylor.basis_terms) calls of verify --suite qcore /
# operator / taylor at the same (q, seed); a call per draw made them (33, 0, 0) / (0, 85, 50) /
# (5, 17, 15)
PINNED_DRAW_AXIS_CALLS = {"qcore": (10, 0, 0), "operator": (0, 12, 6), "taylor": (5, 12, 10)}


def running_powers(q, n):
    """q^0..q^n as the running product x *= q from 1."""
    powers = np.empty(n + 1, dtype=complex)
    powers[0], powers[1:] = 1.0, q
    return np.multiply.accumulate(powers, out=powers)


def scalar_qpoch_infinite(a, q):
    """The scalar loop over the running powers: (a;q)_inf at depth geometric_depth(|q|, |a|),
    each factor 1 - q^j a and each product in NumPy's vector arithmetic (one-entry arrays,
    a new one per step: NumPy takes a lone in-place product for a reduction), with |a||q^N|."""
    n = geometric_depth(abs(q), abs(a))
    powers = running_powers(q, n)
    value, x = np.ones(1, dtype=complex), np.array([a], dtype=complex)
    for power in powers[:n]:
        value = value * (1.0 - power * x)
    return complex(value[0]), abs(a) * abs(complex(powers[n])), n


def mixed_bases(rng, count):
    """Zeros, tiny, moderate and large moduli in random directions."""
    mods = [0.0, 1e-9, 1e-3, 0.2, 0.5, 0.9, 1.2, 1.45]
    return np.array([m * cmath.exp(2j * math.pi * rng.random())
                     for m in mods for _ in range(count)])


class TestBatchedProducts:
    @pytest.mark.parametrize("q", BASES)
    def test_rows_match_scalar_calls(self, q):
        ctx = QContext(q)
        a = mixed_bases(random.Random(7), 8)
        tb = qpoch_infinite(a, ctx)
        depth = geometric_depth(abs(q), float(np.abs(a).max()))
        tol = 8 * depth * EPS  # one complex multiply and subtraction per factor
        for ai, vi in zip(a, tb.value):
            ref = qpoch_infinite(complex(ai), ctx).value
            assert abs(vi - ref) <= tol * abs(ref)
        assert tb.value[0] == 1.0  # a = 0

    @pytest.mark.parametrize("q", BASES)
    def test_certificate_bounds_every_row(self, q):
        ctx = QContext(q)
        a = mixed_bases(random.Random(8), 4)
        tb = qpoch_infinite(a, ctx)
        n = tb.terms_used // a.size
        assert isinstance(tb.terms_used, int)
        assert tb.terms_used == n * a.size
        assert n == geometric_depth(abs(q), float(np.abs(a).max()))
        for ai in a:
            # |log(1 - a q^j)| summed over the omitted factors of this row
            omitted = sum(abs(cmath.log(1.0 - ai * q ** j)) for j in range(n, n + 400))
            assert omitted <= tb.tail_abs * (1 + 1e-12)
        peak = a[np.argmax(np.abs(a))]
        assert tb.tail_abs == pytest.approx(qpoch_infinite(peak, ctx).tail_abs,
                                            rel=1e-12)

    @pytest.mark.parametrize("q", BASES)
    def test_scalar_path_is_the_scalar_loop(self, q):
        # a scalar base is a batch of one: its value, depth and certificate are the loop
        # over the running powers q^j in NumPy's vector arithmetic, bit for bit
        ctx = QContext(q)
        rng = random.Random(9)
        for a in [0.0, *(sample_complex(rng, 0.05, 1.4) for _ in range(20))]:
            tb = qpoch_infinite(a, ctx)
            value, r, n = scalar_qpoch_infinite(a, ctx.q)
            assert tb.value == value
            assert tb.terms_used == n
            assert tb.tail_abs == r / ((1.0 - abs(ctx.q)) * (1.0 - r))

    def test_empty_batch(self, ctx):
        tb = qpoch_infinite(np.array([], dtype=complex), ctx)
        assert tb.value.shape == (0,) and tb.terms_used == 0 and tb.tail_abs == 0.0

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.3, 0.5j, 0.3 + 0.5j])
    @pytest.mark.parametrize("width", [1, 2, 255, 256, 800, 4800])
    def test_wide_blocks_keep_the_running_product(self, q, width):
        # every q^j is read from the context's one table, the loop x *= q from 1; every row
        # x q^j is one vector multiply by it (also in qpoch_infinite's blocks of 2^14
        # entries, several at 4,800 bases), and every product the product down the rows, one
        # vector multiply per row, bit for bit at every width, one base included
        ctx = QContext(q)
        a = mixed_bases(random.Random(width), width // 8 + 1)[:width]
        n = geometric_depth(abs(q), max(map(abs, a.tolist())))
        powers = running_powers(ctx.q, n)
        x = 1.0 + 0.0j
        for power in ctx.powers(n).tolist():
            assert repr(power) == repr(x)
            x *= ctx.q
        block = np.array([power * a for power in powers])
        product = np.ones(width, dtype=complex)
        for row in block[:n]:
            product = product * (1.0 - row)
        tb = qpoch_infinite(a, ctx)
        assert same_bits(tb.value, product)
        # the depth and the certificate take Python's abs of every base, also in one vector pass
        r = max(map(abs, a.tolist())) * abs(complex(powers[n]))
        assert tb.terms_used == n * width and tb.tail_abs == r / ((1 - abs(q)) * (1 - r))
        assert same_bits(qcore.q_powers(a, n, ctx), block)
        table = qcore.qpoch_table(a, 12, ctx)
        for j in range(0, width, max(1, width // 20)):
            assert repr(table[:, j].tolist()) == repr(
                [qcore.qpoch_finite(complex(a[j]), k, ctx) for k in range(13)])

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6, 0.5j, 0.3 + 0.5j])
    def test_a_base_rounds_alike_wherever_it_stands(self, q):
        # every base multiplies as NumPy's vector loop does, a lone base too, so at one depth
        # (set by the largest base, first here) each batch holds the values of the longest
        # one, bit for bit: no base of a batch, the last included, takes NumPy's scalar
        # rounding.  Every size from 1 to 399 is tried, so that a layout with a lone last
        # column at any chunk width up to 398 fails
        ctx = QContext(q)
        a = mixed_bases(random.Random(8), 50)
        a = a[np.argsort(-np.abs(a), kind="stable")]
        whole = qpoch_infinite(a, ctx).value
        for size in range(1, len(a)):
            assert same_bits(qpoch_infinite(a[:size], ctx).value, whole[:size]), size


class TestBatchedTheta:
    @pytest.mark.parametrize("q", BASES)
    def test_theta_rows(self, q):
        ctx = QContext(q)
        rng = random.Random(10)
        u = np.array([sample_complex(rng, 0.3, 1.6) for _ in range(40)])
        got = theta(u, ctx)
        depth = geometric_depth(abs(q), max(float(np.abs(u).max()),
                                            float(np.abs(q / u).max())))
        tol = 16 * depth * EPS  # two products
        for ui, gi in zip(u, got):
            ref = theta(complex(ui), ctx)
            assert abs(gi - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("q", BASES)
    def test_weierstrass_rows(self, q):
        ctx = QContext(q)
        rng = random.Random(11)
        x, y, u, v = np.array([[sample_complex(rng, 0.5, 1.5) for _ in range(4)]
                               for _ in range(30)]).T
        got = weierstrass_terms(x, y, u, v, ctx)
        depth = geometric_depth(abs(q), 1.5 * 1.5 / 0.5)
        tol = 8 * 16 * depth * EPS  # four thetas per term
        for i in range(len(x)):
            ref = weierstrass_terms(x[i], y[i], u[i], v[i], ctx)
            scale = max(map(abs, ref))
            assert all(abs(g[i] - r) <= tol * scale for g, r in zip(got, ref))
        per_point = [scaled_residual(*(t[i] for t in got)) for i in range(len(x))]
        assert np.allclose(scaled_residual(*got), per_point, rtol=8 * EPS, atol=0.0)

    def test_zero_anywhere_in_a_batch_raises(self, ctx):
        from qtaylor.errors import DomainError
        with pytest.raises(DomainError):
            theta(np.array([0.5, 0.0, 1.2]), ctx)


def same_bits(x, y):
    """Whether two ndarrays hold the same binary64 words (the sign of zero included)."""
    x, y = np.asarray(x), np.asarray(y)
    return x.shape == y.shape and np.array_equal(x.view(np.uint64), y.view(np.uint64))


def test_a_nan_base_anywhere_fails_the_depth():
    # a base that is not finite has no geometric tail bound wherever it stands in a batch,
    # so no NaN value goes out under a finite certificate
    ctx = QContext(0.45)
    a = mixed_bases(random.Random(42), 40)[:300]
    for bad in (complex(math.nan, 0.0), complex(0.3, math.nan), complex(math.inf, 0.0)):
        for at in (0, 150, 300):
            with pytest.raises(TruncationFailure):
                qpoch_infinite(np.insert(a, at, bad), ctx)


def loop_product(bases, q):
    """prod (a;q)_inf by one scalar loop per base."""
    return math.prod((scalar_qpoch_infinite(a, q)[0] for a in bases), start=1.0 + 0.0j)


def group_tol(q, *groups):
    """Relative bound for products of these groups against the per-base loops.

    Every base runs at the depth N of the largest |a| with one complex
    multiply and one subtraction per factor, as in test_rows_match_scalar_calls,
    and each base adds one multiply or divide to the product.
    """
    bases = [a for group in groups for a in group]
    depth = geometric_depth(abs(q), max(map(abs, bases)))
    return 8 * (depth + 1) * len(bases) * EPS


def sym(z, *alphas):
    return [w for alpha in alphas for w in (alpha * z, alpha / z)]


def grouped_cases(ctx):
    """(name, thunk) for each function that forms its products from one call."""
    rng = random.Random(14)
    kp = sample_profile_kernel_params(rng, ctx)
    kp.Hb, kp.series_depth  # computed here once: the E terms and the profile sums read them
    closed = profiles.profile_sums_and_closed_forms(kp)
    qp = sample_quadratic_params(rng, ctx)
    fresh_qp = lambda: quadratic.QuadraticParams(qp.a, qp.b, qp.alpha, qp.d, ctx)  # noqa: E731
    z, w, s = sample_z(rng), sample_z(rng, 0.9, 1.15), 0.01 + 0.02j
    x, y, u, v = (sample_complex(rng, 0.5, 1.5) for _ in range(4))
    al, be, lam = kp.c / kp.d, kp.b, kp.b
    return [
        ("kernel_products", lambda: kernel.kernel_products(z, kp, "FABHK")),
        ("kernel_factors", lambda: kernel.kernel_factors(z, kp)),
        ("two_basis_terms", lambda: kernel.two_basis_terms(np.array([z, 1 / z]), kp, 12)),
        ("bailey_terms", lambda: kernel.bailey_terms(kp, z)),
        ("H_lowering_terms", lambda: kernel.H_lowering_terms(z, kp)),
        ("K_lowering_terms", lambda: kernel.K_lowering_terms(z, kp)),
        ("remainder_gap_curve", lambda: kernel.remainder_gap_curve(z, kp, [4, 6])),
        ("Hb", lambda: KernelParams(kp.b, kp.c, kp.d, kp.e, ctx).Hb),
        ("Kcde", lambda: KernelParams(kp.b, kp.c, kp.d, kp.e, ctx).Kcde),
        ("M_clearing", lambda: kernel.M_clearing(z, kp)),
        ("pole_cleared_E_terms", lambda: kernel.pole_cleared_E_terms(z, kp, 12)),
        ("qpoch_multi", lambda: qcore.qpoch_multi([x, y, u, v], None, ctx)),
        ("theta", lambda: qcore.theta(x, ctx)),
        ("weierstrass_terms", lambda: qcore.weierstrass_terms(x, y, u, v, ctx)),
        ("L_profile", lambda: profiles.L_profile(w, al, be, lam, ctx)),
        ("profile_kernel_P", lambda: profiles.profile_kernel_P(s, w, al, be, lam, ctx)),
        ("leading_profile_terms", lambda: profiles.leading_profile_terms(w, kp, lam, closed)),
        ("generating_Q_terms", lambda: profiles.generating_Q_terms(s, w, kp, lam)),
        ("bridge_terms", lambda: profiles.bridge_terms(5, w, kp, lam)),
        ("exponential_profile_limit_residual",
         lambda: profiles.exponential_profile_limit_residual(2, [(w, kp, 6)], lam)),
        ("profile_sums_and_closed_forms", lambda: profiles.profile_sums_and_closed_forms(kp)),
        ("canonical_growth_profile", lambda: profiles.canonical_growth_profile(lam, [(5, w)], kp)),
        ("quadratic_product", lambda: quadratic.quadratic_product(z, qp)),
        ("Cab", lambda: fresh_qp().Cab),
        ("companion_product", lambda: quadratic.companion_product(z, qp)),
        ("Cad", lambda: fresh_qp().Cad),
        ("rogers_6w5_terms",
         lambda: hyper.rogers_6w5_terms(0.3, 0.8 + 0.1j, 0.75, 0.9 - 0.2j, ctx)),
        ("basis_limit_modulus", lambda: taylor.basis_limit_modulus(z, kp.phi_pair, ctx)),
    ]


class TestGroupedProducts:
    @pytest.mark.parametrize("q", [0.45, 0.7])
    def test_one_product_call_per_function(self, monkeypatch, q):
        ctx = QContext(q)
        cases = grouped_cases(ctx)
        calls = []
        real = qcore.qpoch_infinite
        monkeypatch.setattr(qcore, "qpoch_infinite", lambda a, c: calls.append(a) or real(a, c))
        for name, thunk in cases:
            calls.clear()
            thunk()
            assert len(calls) == 1, name

    @pytest.mark.parametrize("q", BASES)
    def test_groups_match_per_base_loops(self, q):
        ctx = QContext(q)
        rng = random.Random(16)
        groups = [[sample_complex(rng, 0.05, 1.4) for _ in range(k)] for k in (1, 2, 4, 8)]
        got = qcore.qpoch_groups(groups + [[]], ctx)
        assert got[-1] == 1
        tol = group_tol(ctx.q, *groups)
        for group, value in zip(groups, got):
            ref = loop_product(group, ctx.q)
            assert abs(value - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("q", BASES)
    def test_array_and_scalar_bases_in_one_group(self, q):
        ctx = QContext(q)
        rng = random.Random(17)
        zs = np.array([sample_z(rng) for _ in range(15)]).reshape(3, 5)
        c = sample_complex(rng, 0.3, 0.9)
        num, den = qcore.qpoch_groups([[0.4 * zs, 0.4 / zs, c], [1.1 / zs]], ctx)
        assert num.shape == den.shape == zs.shape
        for i in np.ndindex(zs.shape):
            groups = [[0.4 * zs[i], 0.4 / zs[i], c], [1.1 / zs[i]]]
            tol = group_tol(ctx.q, *groups)
            for value, group in zip((num[i], den[i]), groups):
                ref = loop_product(group, ctx.q)
                assert abs(value - ref) <= tol * abs(ref)

    @pytest.mark.parametrize("q", BASES)
    def test_quotients_match_per_base_loops(self, q):
        ctx = QContext(q)
        q = ctx.q
        rng = random.Random(18)
        kp = sample_kernel_params(rng, ctx)
        b, c, d, e = kp.b, kp.c, kp.d, kp.e
        qp = sample_quadratic_params(rng, ctx)
        a2, b2, al2, d2 = qp.a, qp.b, qp.alpha, qp.d
        rq = ctx.sqrt_q
        z, w, lam = sample_z(rng), sample_z(rng, 0.9, 1.15), sample_complex(rng, 0.4, 0.8)
        t = lam * w
        cc = c * c / (b * d * e)
        # (value, numerator bases, denominator bases, numerator base q)
        F, A, B, H, K = kernel.kernel_products(z, kp, "FABHK")
        cases = [
            (F, sym(z, c / d, c / e), sym(z, c, cc), q),
            (A, sym(z, c / (d * e)), sym(z, cc), q),
            (B, sym(z, b), sym(z, c), q),
            (H, sym(z, c / d, c / e), sym(z, c, c / (d * e)), q),
            (K, sym(z, c / d, c / e), sym(z, b, cc), q),
            (kp.Hb, [b * c / d, c / (b * d), b * c / e, c / (b * e)],
             [b * c, c / b, b * c / (d * e), c / (b * d * e)], q),
            (kernel.M_clearing(z, kp), sym(z, c, cc), [], q),
            (qcore.theta(z, ctx), [z, q / z], [], q),
            (profiles.L_profile(w, c / d, b, lam, ctx), [t * q * d / c, c / (d * t)],
             [t * q / b, b / t], q),
            (profiles.canonical_growth_profile(lam, [(0, z / lam)], kp)[0].Z_value,
             sym(lam * (z / lam), b, c / (d * e)), [], q),
            (quadratic.quadratic_product(z, qp),
             [a2 * z * q, a2 * q / z, b2 * b2 * z / a2, b2 * b2 / (a2 * z)], sym(z, b2), q * q),
            (qp.Cab,
             [q, a2 * a2 * q, b2 * b2, b2 * b2 / (a2 * a2)], [a2 * b2, b2 / a2], q * q),
            (quadratic.companion_product(z, qp),
             [al2 * d2 * rq * z, al2 * d2 * rq / z, al2 * rq * q * z / d2,
              al2 * rq * q / (d2 * z)], sym(z, -al2 * rq), q * q),
            (qp.Cad, [al2 * d2, al2 * q / d2],
             [-al2, -al2 * q], q),
        ]
        for i, (value, num, den, q_num) in enumerate(cases):
            ref = loop_product(num, q_num) / loop_product(den, q)
            tol = group_tol(q, num, den)
            assert abs(value - ref) <= tol * abs(ref), i


class TestBatchedE:
    @pytest.mark.parametrize("q", BASES)
    def test_array_of_nodes_against_scalar_calls(self, q):
        ctx = QContext(q)
        kp = sample_kernel_params(random.Random(12), ctx)
        depth = kp.series_depth
        nodes = np.exp(2j * np.pi * (np.arange(32) + 0.5) / 32) * 1.03
        got = pole_cleared_E_terms(nodes, kp, depth)
        n_prod = geometric_depth(abs(q), 2.0)
        # every term: a few products and one family sum of depth + 1 steps
        tol = 64 * (n_prod + depth) * EPS
        for j, z in enumerate(nodes):
            ref = pole_cleared_E_terms(complex(z), kp, depth)
            scale = max(map(abs, ref))
            for g, r in zip(got, ref):
                assert abs(g[j] - r) <= tol * scale

    def test_pole_check_over_every_node(self, ctx):
        from qtaylor.errors import PoleProximity
        kp = KernelParams(0.55 + 0.2j, 0.62 - 0.25j, 0.48 + 0.33j, 0.71 - 0.12j, ctx)
        # at z = 1/c the first tail update (1 - cz)(1 - c/z) vanishes: one
        # such node rejects the whole batch
        with pytest.raises(PoleProximity):
            pole_cleared_E_terms(np.array([1.0 + 0.0j, 1.0 / kp.c]), kp, 10)


def reference_calP(outer, a, c, n, k, q):
    """calP_{n,k} by the per-(n, k) route: three expansions and a Python pair loop."""
    ctx = QContext(q)

    def euler(u):
        coeffs, peak, qi = [1.0 + 0.0j], 1.0, 1.0 + 0.0j
        while True:
            ratio = -u * qi / (1.0 - qi * q)
            coeffs.append(coeffs[-1] * ratio)
            peak = max(peak, abs(coeffs[-1]))
            qi *= q
            if abs(ratio) < 1.0 and geometric_depth(abs(ratio), abs(coeffs[-1]) / peak) == 0:
                return np.asarray(coeffs)

    poly = np.zeros(k + 1, dtype=complex)
    poly[0] = 1.0
    x = complex(a)
    for j in range(k):
        shifted = np.zeros(k + 1, dtype=complex)
        shifted[1:j + 2] = poly[:j + 1] * (-x)
        poly = poly + shifted
        x *= ctx.q
    pos = np.convolve(np.convolve(euler(outer), euler(c * q ** k)), poly)
    total, bound = 0.0 + 0.0j, 0.0
    for i, p in enumerate(pos):
        if 0 <= i + n < len(pos):
            total += p * pos[i + n]
            bound += abs(p * pos[i + n])
    return total, bound, len(pos)


class TestCalPTables:
    @pytest.mark.parametrize("q", BASES)
    def test_tables_against_per_pair_sums(self, q):
        ctx = QContext(q)
        kp = sample_kernel_params(random.Random(13), ctx)
        b, c, d, e = kp.b, kp.c, kp.d, kp.e
        families = [(c / (d * e), b, c), (b, c / (d * e), c * c / (b * d * e))]
        tables = calP_tables(kp, 12)
        for table, (outer, a, cc) in zip(tables, families):
            assert table.shape[0] == 13
            for n in range(-2, 4):
                column = laurent_pair(table, table, n)
                for k in range(13):
                    ref, bound, length = reference_calP(outer, a, cc, n, k, ctx.q)
                    # summation in another order: gamma_L of the absolute sum
                    assert abs(column[k] - ref) <= 4 * length * EPS * bound


def sampled_functions(ctx):
    """(name, f, scale) for each function the suites sample on an ndarray of nodes; scale(z)
    is the largest additive term of f(z), the size its rounding is relative to."""
    rng = random.Random(22)
    pair = taylor.BasisPair(sample_complex(rng, 0.4, 0.8), sample_complex(rng, 0.3, 0.7))
    coeffs = [sample_complex(rng, 0.5, 1.5) for _ in range(7)]
    kp = sample_kernel_params(rng, ctx)
    qp = sample_quadratic_params(rng, ctx)

    def largest_basis_term(z):
        return max(map(abs, taylor.basis_terms(z, pair, coeffs, ctx)))
    return [
        ("phi_function", taylor.phi_function(pair, 5, ctx), None),
        ("phi_combination", taylor.phi_combination(pair, coeffs, ctx), largest_basis_term),
        ("kernel H", lambda z: kernel.kernel_products(z, kp, "H")[0], None),
        ("kernel K", lambda z: kernel.kernel_products(z, kp, "K")[0], None),
        ("quadratic_product", lambda z: quadratic.quadratic_product(z, qp), None),
        ("companion_product", lambda z: quadratic.companion_product(z, qp), None),
        ("flat", lambda z: qcore.qpoch_groups([kernel.sym_bases(z, pair.a)], ctx)[0], None),
    ]


class TestNodeSamples:
    """Every sampled function takes an ndarray of nodes and checks each of them."""

    @pytest.mark.parametrize("q", BASES)
    def test_ndarray_sample_matches_pointwise_values(self, q):
        ctx = QContext(q)
        rng = random.Random(23)
        nodes = np.array([sample_z(rng) for _ in range(9)])
        for name, f, scale in sampled_functions(ctx):
            values = f(nodes)
            assert values.shape == nodes.shape, name
            for z, value in zip(nodes.tolist(), values.tolist()):
                ref = f(z)
                # the same elementwise operations on every node; the depth of a batch and a
                # fused multiply change a few roundings per term
                assert abs(value - ref) <= 64 * EPS * (scale(z) if scale else abs(ref)), name

    def test_scalar_and_one_node_sample_take_one_route(self, ctx):
        z = 1.1 - 0.35j
        for name, f, _ in sampled_functions(ctx)[:2]:
            assert f(np.array([z]))[0] == f(z), name

    @pytest.mark.parametrize("q", [0.45, 0.7])
    def test_any_node_within_the_margin_is_rejected(self, q):
        ctx = QContext(q)
        rng = random.Random(24)
        pair = taylor.BasisPair(sample_complex(rng, 0.4, 0.8), 0.5 + 0.25j)
        kp = KernelParams(0.55 + 0.2j, 0.5, 0.48 + 0.33j, 0.71 - 0.12j, ctx)
        qp = quadratic.QuadraticParams(0.9 + 0.1j, 0.5, 0.4 - 0.2j, 0.7, ctx)
        near = 1e-13  # inside the margin 1e-6 of a factor and 1e-12 of a factor pair
        cases = [  # (f, a node on its pole set)
            (taylor.phi_function(pair, 3, ctx), (1 + near) / pair.c),
            (taylor.phi_combination(pair, [1.0, 0.5, 0.25], ctx), (1 + near) / pair.c),
            (lambda z: kernel.kernel_products(z, kp, "H")[0], 2.0),  # c z = 1: an exact zero
            (lambda z: quadratic.quadratic_product(z, qp), 2.0 * (1 + near)),
            (lambda z: quadratic.companion_product(z, qp),
             -(1 + near) / (qp.alpha * ctx.sqrt_q)),
        ]
        for i, (f, pole) in enumerate(cases):
            nodes = np.array([sample_z(rng) for _ in range(5)])
            f(nodes)  # clear nodes pass
            for k in range(nodes.size):
                bad = nodes.copy()
                bad[k] = pole
                with pytest.raises(PoleProximity):
                    f(bad)
                    pytest.fail(f"case {i}: node {k} on the pole set was accepted")


DRAW_BASES = [0.45, 0.7, -0.6, 0.5j]


def draw_specs(rng, count, q):
    """Very-well-poised series shaped like the coefficient families, and 3phi2 series."""
    vwp = [VWPSpec(sample_complex(rng, 0.3, 0.9), tuple(sample_complex(rng, 0.3, 0.9)
                                                       for _ in range(3)), q)
           for _ in range(count)]
    phi = [PhiSeriesSpec(tuple(sample_complex(rng, 0.2, 0.9) for _ in range(3)),
                         tuple(sample_complex(rng, 0.3, 0.9) for _ in range(2)),
                         sample_complex(rng, 0.1, 0.5)) for _ in range(count)]
    return vwp, phi


def bits(tb):
    """Every field of a SeriesSum, with the sign of zero and NaN kept apart."""
    return repr((tb.value, tb.terms, tb.terms_used, tb.tail_abs))


def first_failure(evaluate, items):
    """The error of the first item that fails on its own, as a loop over the items raises it."""
    for item in items:
        try:
            evaluate(item)
        except Exception as exc:
            return exc
    return None


def inside_disc(kp, lam, s, w) -> bool:
    """Whether the generating residual's profile kernels take the point (s, w): outside
    their validated s-disc they raise ConvergenceRegionViolation."""
    try:
        profiles._generating_quotients(s, w, kp, lam)
    except ConvergenceRegionViolation:
        return False
    return True


def profile_points(rng, kp, lam, ctx, count):
    """(s, w) and (N, w) points of the generating and bridge checks inside the validated disc."""
    q = ctx.q
    sw = [(s, sample_z(rng, 0.85, 1.2)) for s in (0.0, q ** 8, q ** 6, q ** 5)
          for _ in range(count)]
    nw = [(N, sample_z(rng, 0.9, 1.15)) for N in range(4, 11) for _ in range(count)]
    return ([p for p in sw if inside_disc(kp, lam, *p)],
            [p for p in nw if inside_disc(kp, lam, q ** p[0], p[1])])


def spy_work(monkeypatch):
    """The largest product depth and series length of the calls made, as they run."""
    seen = {"depth": 0, "terms": 0}
    real_product, real_sum = qcore.qpoch_infinite, hyper._series_sum

    def product(a, ctx):
        tb = real_product(a, ctx)
        seen["depth"] = max(seen["depth"], tb.terms_used // max(np.size(a), 1))
        return tb

    def series(*args):
        sums = real_sum(*args)
        seen["terms"] = max([seen["terms"]] + [tb.terms_used for tb in
                                               (sums if isinstance(sums, tuple) else [])])
        return sums
    monkeypatch.setattr(qcore, "qpoch_infinite", product)
    monkeypatch.setattr(profiles, "_series_sum", series)
    return seen


OPERATOR_BASES = [0.45, 0.7, -0.3, 0.5j, 0.6 + 0.5j]  # the last: q and its root of two parts


def operator_draws(ctx, count, seed):
    """count draws (pair, coefficients, z, order, c): a Phi combination of 1 to 8 terms, an
    operator point clear of z = 1/z and of the |z| = q^(-1/2) circle, an order and a c."""
    rng = random.Random(seed)

    def point(r):
        return sample_complex(r, 0.85, 1.3)
    return [(sample_basis_pair(rng), [sample_complex(rng, 0.5, 1.5)
                                      for _ in range(rng.randrange(1, 9))],
             sample_with(rng, point, lambda z: abs(z - 1 / z) > 0.25
                         and abs(abs(z) - 1 / math.sqrt(abs(ctx.q))) > 0.05),
             rng.randrange(0, 7), sample_complex(rng)) for _ in range(count)]


class OperatorBatch:
    """The draws as one batch (pair, f, z, m, c) and, for draw j, its batch of one."""

    def __init__(self, draws, ctx):
        self.draws, self.ctx = draws, ctx
        pairs, coeffs, z, m, c = zip(*draws)
        self.pair, self.coeffs = taylor.BasisPair.batch(pairs), list(coeffs)
        self.z, self.m, self.c = np.array(z), np.array(m), np.array(c)
        self.f = taylor.phi_combination(self.pair, self.coeffs, ctx)

    def one(self, j):
        pair, coeffs, *_ = self.draws[j]
        f = taylor.phi_combination(pair, coeffs, self.ctx)
        return f, pair, self.z[j:j + 1], self.m[j:j + 1], self.c[j:j + 1]

    def scalar(self, j):
        pair, coeffs, z, m, c = self.draws[j]
        return taylor.phi_combination(pair, coeffs, self.ctx), pair, z, m, c


class TestDrawAxis:
    """A batch of series or parameter sets against the same draws evaluated one by one."""

    @pytest.mark.parametrize("q", DRAW_BASES)
    def test_columns_are_the_single_sums_bit_for_bit(self, q):
        # adaptive columns, one fixed depth, and a depth per column (0: the lone first term)
        ctx = QContext(q)
        for specs in draw_specs(random.Random(31), 10, q):
            truncs = [None, 0, 3, 17, None, 60, 220, 1, None, 40]
            for trunc in (None, 12, truncs):
                each = trunc if isinstance(trunc, list) else [trunc] * len(specs)
                batch = series_sums(specs, trunc, ctx)
                assert len(batch) == len(specs)
                assert batch.terms_used == sum(tb.terms_used for tb in batch)
                for spec, n, got in zip(specs, each, batch):
                    assert bits(got) == bits(series_eval(spec, n, ctx))

    @pytest.mark.parametrize("q", DRAW_BASES)
    def test_continued_columns_are_the_fixed_depth_sums(self, q):
        # columns already past their depth come back as they are; the others are summed
        # to their depth in one fixed-depth run, bit for bit as a fresh sum to that depth
        ctx = QContext(q)
        for specs in draw_specs(random.Random(32), 8, q):
            adaptive = series_sums(specs, None, ctx)
            ns = [[0, 5, tb.terms_used - 1, tb.terms_used + 3, 3 * tb.terms_used][j % 5]
                  for j, tb in enumerate(adaptive)]
            for spec, n, start, got in zip(specs, ns, adaptive,
                                           sum_through(specs, ns, ctx, adaptive)):
                fresh = series_eval(spec, n, ctx)
                if n < start.terms_used:
                    assert got is start and got.terms[:n + 1] == fresh.terms
                else:
                    assert bits(got) == bits(fresh)

    @pytest.mark.parametrize("q", DRAW_BASES)
    def test_first_failing_column_raises_as_the_loop(self, q):
        # a pole (a q / b = q^-5), a growing series (argument 3) and a later, different
        # failure among good columns: the batch raises what a loop over the specs raises
        ctx = QContext(q)
        rng = random.Random(33)
        good, _ = draw_specs(rng, 6, q)
        a = 0.55 + 0.2j
        pole = VWPSpec(a, (0.5, a * q ** 6, 0.4j), q)
        growing = VWPSpec(a, (0.5, 0.6, 0.4j), 3.0)
        for bad, later in ((pole, growing), (growing, pole)):
            for j in (0, 2, 5):
                specs = good[:j] + [bad] + good[j:] + [later]
                for trunc in (None, 300):
                    want = first_failure(lambda spec: series_eval(spec, trunc, ctx), specs)
                    assert isinstance(want, ZeroDenominator if bad is pole or trunc
                                      else DivergenceSuspected)
                    with pytest.raises(type(want)) as got:
                        series_sums(specs, trunc, ctx)
                    assert str(got.value) == str(want)
        # the max_terms cap: each family needs more than 16 terms past |q| = 0.6
        capped = QContext(q, max_terms=16)
        specs = good[:3]
        want = first_failure(lambda spec: series_eval(spec, None, capped), specs)
        if want is not None:
            with pytest.raises(TruncationFailure) as got:
                series_sums(specs, None, capped)
            assert str(got.value) == str(want)

    @pytest.mark.parametrize("q", DRAW_BASES)
    def test_kernel_batch_agrees_with_each_draw(self, q):
        # the parameter arithmetic of a batch and of a batch of one is the same, so they
        # differ only in the depth of the product call (that of the batch's largest base):
        # within 4 u of the largest term; the coefficient families are equal bit for bit
        ctx = QContext(q)
        rng = random.Random(34)
        draws = [sample_kernel_params(rng, ctx) for _ in range(6)]
        zs = np.array([sample_kernel_z(rng, kp) for kp in draws])
        batch = KernelParams.batch(draws)
        depth = batch.series_depth
        assert depth.tolist() == [kp.series_depth for kp in draws]
        for j, kp in enumerate(draws):
            assert tuple(family[j] for family in batch.family_terms(depth)) == \
                kp.family_terms(kp.series_depth)
        points = np.array([zs, 1 / zs])
        for evaluate in (lambda kp, z: kernel.two_basis_terms(z, kp, kp.series_depth),
                         lambda kp, z: kernel.bailey_terms(kp, z)):
            got = evaluate(batch, points)
            for j, kp in enumerate(draws):
                one = KernelParams.batch([kp])
                want = evaluate(one, points[:, j:j + 1])
                scale = np.max(np.abs(want), axis=0)
                for g, w in zip(got, want):
                    assert np.all(np.abs(g[:, j:j + 1] - w) <= 4 * (EPS / 2) * scale)
                for name in ("Hb", "Kcde"):
                    w = getattr(one, name)[0]
                    assert abs(getattr(batch, name)[j] - w) <= 4 * (EPS / 2) * abs(w)

    @pytest.mark.parametrize("q", DRAW_BASES)
    def test_quadratic_batch_agrees_with_each_draw(self, q):
        ctx = QContext(q)
        rng = random.Random(35)
        draws = [sample_quadratic_params(rng, ctx) for _ in range(6)]
        zs = np.array([sample_z(rng) for _ in draws])
        batch = quadratic.QuadraticParams.batch(draws)
        assert batch.h_terms() == [qp.h_terms() for qp in draws]
        assert batch.r_terms() == [qp.r_terms() for qp in draws]
        for evaluate in (quadratic.quadratic_terms, quadratic.companion_terms):
            got = np.array(evaluate(zs, batch))  # terms past a draw's own depth are 0
            for j, qp in enumerate(draws):
                one = quadratic.QuadraticParams.batch([qp])
                want = np.array(evaluate(zs[j:j + 1], one))[:, 0]
                scale = np.max(np.abs(want))
                assert np.all(got[len(want):, j] == 0)
                assert np.all(np.abs(got[:len(want), j] - want) <= 4 * (EPS / 2) * scale)

    def test_basis_pole_check_stops_at_each_draws_depth(self, ctx):
        # the first draw's node is a pole of Phi_4 (c z q^3 = 1), one past its depth of 3;
        # the second draw, of depth 4, reads that factor at an ordinary node
        pair = taylor.BasisPair(np.array([0.5, 0.5]), np.array([0.6, 0.6]))
        z = np.array([1 / (0.6 * ctx.q ** 3), 1.1])
        coeffs = [[1.0, 0.5, 0.25, 0.125], [1.0, 0.5, 0.25, 0.125, 0.0625]]
        terms = taylor.basis_terms(z, pair, coeffs, ctx)
        assert terms.shape == (5, 2) and terms[4, 0] == 0 and np.isfinite(terms).all()
        with pytest.raises(PoleProximity):
            taylor.basis_terms(z, pair, [coeffs[1]] * 2, ctx)

    @pytest.mark.parametrize("q", OPERATOR_BASES)
    def test_operator_columns_are_the_single_calls_bit_for_bit(self, q):
        # the closed form, the recursion, the expansion and the basis keep each draw's scalar
        # arithmetic (f sampled once for all draws): each column is the draw's scalar call;
        # D_q and D_{c,q} evaluate every point in NumPy: each column is the draw's batch of one.
        # f's sample rounds in NumPy's complex loops at every base (a, c and z are complex),
        # so the columns equal the single calls only where those loops round each entry of
        # the batch as in the single call, as NumPy 2.4's AVX-512 loops do for these draws on
        # x86-64 (the build this test was written on): a last-bit change in f's terms moves
        # the closed form and the recursion by up to 3,400 u relative, so no tolerance of a
        # few u would stand in
        ctx = QContext(q)
        b = OperatorBatch(operator_draws(ctx, 10, 51), ctx)
        cooper = wpoperator.cooper_eval(b.f, b.z, b.c, b.m, ctx).tolist()
        iterated = wpoperator.apply_iterated(b.f, b.z, b.c, b.m, ctx).tolist()
        expansions = taylor.taylor_expand(b.f, b.pair, b.m, ctx)
        phis = taylor.phi_basis(b.z, b.pair, b.m, ctx).tolist()
        dq = wpoperator.apply_Dq(b.f, b.z, ctx)
        dcq = wpoperator.apply_Dcq(b.f, b.z, b.c, ctx)
        for j in range(len(b.draws)):
            f, pair, z, m, c = b.scalar(j)
            assert repr(cooper[j]) == repr(wpoperator.cooper_eval(f, z, c, m, ctx))
            assert repr(iterated[j]) == repr(wpoperator.apply_iterated(f, z, c, m, ctx))
            assert repr(expansions[j]) == repr(taylor.taylor_expand(f, pair, m, ctx))
            assert repr(phis[j]) == repr(taylor.phi_basis(z, pair, m, ctx))
            f, pair, z, m, c = b.one(j)
            assert same_bits(dq[j:j + 1], wpoperator.apply_Dq(f, z, ctx))
            assert same_bits(dcq[j:j + 1], wpoperator.apply_Dcq(f, z, c, ctx))

    @pytest.mark.parametrize("q", OPERATOR_BASES)
    def test_a_failing_draw_raises_its_own_error(self, q):
        # draw i alone is bad: the batch raises the error (type and message) of draw i's own
        # call, as the loop over the draws met it
        ctx = QContext(q)
        near = 1.0 + 1e-9j  # within the pole margin of the fixed point z = 1
        for i in (0, 4, 9):
            draws = operator_draws(ctx, 10, 52)
            pair, coeffs, z, m, c = draws[i]
            grid_pole = taylor.BasisPair(pair.a, 1 / (pair.a * ctx.q))  # c z = 1 at z = a q
            cases = [  # (bad draw i, error, batch call, draw i's call)
                ((pair, coeffs, 1 / ctx.sqrt_q, 2, c), ExceptionalPoint,  # 1 - q z^2 = 0
                 lambda b: wpoperator.cooper_eval(b.f, b.z, b.c, b.m, ctx),
                 lambda f, p, z, m, c: wpoperator.cooper_eval(f, z, c, m, ctx), "scalar"),
                ((pair, coeffs, near, 3, c), NearSingularPoint,
                 lambda b: wpoperator.apply_iterated(b.f, b.z, b.c, b.m, ctx),
                 lambda f, p, z, m, c: wpoperator.apply_iterated(f, z, c, m, ctx),
                 "scalar"),
                ((pair, coeffs, near, 3, c), NearSingularPoint,
                 lambda b: wpoperator.apply_Dcq(b.f, b.z, b.c, ctx),
                 lambda f, p, z, m, c: wpoperator.apply_Dcq(f, z, c, ctx), "one"),
                ((grid_pole, [0.5, 1.0, 0.25], z, 2, c), PoleProximity,
                 lambda b: taylor.taylor_expand(b.f, b.pair, 2, ctx),
                 lambda f, p, z, m, c: taylor.taylor_expand(f, p, 2, ctx), "scalar"),
                ((pair, coeffs, 1 / pair.c, 2, c), PoleProximity,
                 lambda b: taylor.phi_basis(b.z, b.pair, b.m, ctx),
                 lambda f, p, z, m, c: taylor.phi_basis(z, p, m, ctx), "one"),
            ]
            for bad, error, batch_call, own_call, own in cases:
                b = OperatorBatch(draws[:i] + [bad] + draws[i + 1:], ctx)
                want = raised(own_call, *getattr(b, own)(i))
                assert want is not None and want[0] is error
                assert raised(batch_call, b) == want
        # a basis of order 0 has no pole: a draw of order 0 on the pole set passes
        b = OperatorBatch(draws[:3] + [(pair, coeffs, 1 / pair.c, 0, c)], ctx)
        assert taylor.phi_basis(b.z, b.pair, b.m, ctx)[3] == 1.0

    @pytest.mark.parametrize("q", BASES)
    def test_profile_batches_agree_with_each_point(self, monkeypatch, q):
        # the routes differ in the depth of the product call (that of the batch's largest
        # base) and in NumPy's rounding of the parameter arithmetic against Python's: a few
        # u per product factor, series term and power step, each of a term no larger than
        # the largest; 64 u of the largest term per factor, term and step bounds them all
        ctx = QContext(q)
        rng = random.Random(36)
        kp = sample_profile_kernel_params(rng, ctx)
        lam, q = kp.b, ctx.q
        kp.series_depth  # the E families: summed once, outside the counts
        sw, nw = profile_points(rng, kp, lam, ctx, 2)
        ws = np.array([sample_z(rng, 0.9, 1.15) for _ in range(8)])
        Ns = np.array([0, 3, 5, 8, 10, 12, 15, 20])
        seen = spy_work(monkeypatch)

        def agree(batch, single, points, steps=0):
            """Each term of batch(*columns) against single(*point), per point."""
            seen.update(depth=0, terms=0)
            got = batch(*map(np.array, zip(*points)))
            tol = 64 * (seen["depth"] + seen["terms"] + steps) * EPS
            for j, point in enumerate(points):
                want = single(*point)
                scale = max(map(abs, want))
                for g, w in zip(got, want):
                    assert abs(np.ravel(g)[j] - w) <= tol * scale, (point, g, w)

        def gen(s, w):
            return profiles.generating_Q_terms(s, w, kp, lam)

        def annular(N, w):
            return profiles.annular_factorization_terms(lam, N, w, ctx)

        def lead(w):
            return profiles.leading_profile_terms(w, kp, lam)

        def kernel_P(s, w):
            return (profiles.profile_kernel_P(s, w, kp.c / kp.d, kp.b, lam, ctx),)

        agree(gen, gen, sw)
        agree(kernel_P, kernel_P, sw)
        agree(lead, lead, [(w,) for w in ws])
        # w^-N q^-N(N+1)/2 and q^-N(N+1): powers of up to 210 steps, or exp(N^2 log q)
        agree(annular, annular, list(zip(Ns, ws)), steps=210)

        # the points of a sequence share a product call per depth, bit for bit
        layers = list(zip((Ns[:6] + 4).tolist(), ws[:6].tolist()))
        got = profiles.canonical_growth_profile(lam, layers, kp)
        assert repr(got) == repr([profiles.canonical_growth_profile(lam, [p], kp)[0]
                                  for p in layers])
        points = [(w, kp, N) for N, w in layers] + [(ws[0], kernel.involute(kp), 9)]
        got = profiles.exponential_profile_limit_residual(2, points, lam)
        assert repr(got) == repr([profiles.exponential_profile_limit_residual(2, [p], lam)[0]
                                  for p in points])

        # the bridge gap reads the rounding of E, whose g-family sum cancels by up to 1e9 at
        # q = 0.7 and rounds otherwise on the scalar route: each point is its batch of one,
        # which shares the batch's arithmetic but for the depth of the product call
        seen.update(depth=0, terms=0)
        N, w = map(np.array, zip(*nw))
        got = scaled_residual(*profiles.bridge_terms(N, w, kp, lam))
        tol = 64 * (seen["depth"] + seen["terms"]) * EPS
        for j in range(len(nw)):
            one = scaled_residual(*profiles.bridge_terms(N[j:j + 1], w[j:j + 1], kp, lam))[0]
            assert abs(got[j] - one) <= tol

    @pytest.mark.parametrize("q", BASES)
    def test_profile_family_sum_columns_are_batches_of_one(self, q):
        # every column of a family sum runs the arithmetic of its point alone, bit for bit
        ctx = QContext(q)
        rng = random.Random(37)
        kp = sample_profile_kernel_params(rng, ctx)
        sw, _ = profile_points(rng, kp, kp.b, ctx, 3)
        s, w = map(np.array, zip(*sw))
        got = profiles._family_sums(s, w, kp, kp.b)
        assert got.shape == (2, len(sw))
        for j in range(len(sw)):
            one = profiles._family_sums(s[j:j + 1], w[j:j + 1], kp, kp.b)
            assert repr(got[:, j].tolist()) == repr(one[:, 0].tolist())

    @pytest.mark.parametrize("q", BASES)
    def test_finite_products_read_from_one_table(self, q):
        ctx = QContext(q)
        rng = random.Random(38)
        a = np.array([sample_complex(rng, 0.05, 1.4) for _ in range(12)]).reshape(3, 4)
        n = np.array([rng.randrange(0, 30) for _ in range(12)]).reshape(3, 4)
        got = qcore.qpoch_finite(a, n, ctx)
        assert got.shape == (3, 4)
        for i in np.ndindex(a.shape):
            assert got[i] == qcore.qpoch_finite(complex(a[i]), int(n[i]), ctx)
        with pytest.raises(DomainError):
            qcore.qpoch_finite(a, n - 20, ctx)


def loop_require_clear(ctx, what, *bases):
    """require_clear as a loop over every node, with a scalar factor_clearance each."""
    for base in bases:
        for u in base.ravel().tolist() if isinstance(base, np.ndarray) else (base,):
            if qcore.factor_clearance(u, ctx) <= qcore.POLE_MARGIN:
                raise PoleProximity(f"{what}: denominator base {u} within pole margin")


def raised(f, *args):
    """(type, message) of what f(*args) raises, or None."""
    try:
        f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return None


class TestClearanceScan:
    """require_clear over the nodes of a batch, against the loop over the nodes."""

    @pytest.mark.parametrize("q", BASES)
    @pytest.mark.parametrize("size", [9, 30])  # 28 and 91 nodes
    def test_first_offending_node_mid_batch(self, q, size):
        ctx = QContext(q)
        rng = random.Random(40)
        near = 1e-9  # within the margin 1e-6 of a factor
        for trial in range(6):
            nodes = [np.array([sample_complex(rng, 0.2, 2.5) for _ in range(size)])
                     for _ in range(3)]
            scalar = sample_complex(rng, 0.2, 0.8) if trial % 3 else 1 / ctx.q ** 2
            k = rng.randrange(1, size - 1)
            nodes[1][k] = (1 + near) / ctx.q ** rng.randrange(0, 3)  # mid-batch, mid-array
            nodes[2][k] = 1 / ctx.q  # a later offending node
            if trial % 2:
                nodes[2][k - 1] = math.inf  # non-finite after the first offender
            bases = (nodes[0], scalar, nodes[1], nodes[2])
            want = raised(loop_require_clear, ctx, "probe", *bases)
            assert want[0] is PoleProximity
            assert raised(qcore.require_clear, ctx, "probe", *bases) == want
        # a non-finite node ahead of every offender raises DomainError, as the loop does
        nodes = np.full(3 * size, 0.3 + 0.1j)
        nodes[size], nodes[2 * size] = complex(math.nan, 1.0), 1.0
        want = raised(loop_require_clear, ctx, "probe", nodes, 0.5)
        assert want[0] is DomainError
        assert raised(qcore.require_clear, ctx, "probe", nodes, 0.5) == want
        assert qcore.require_clear(ctx, "probe", np.array([0.3, 0.5j]), 0.2) is None

    def test_guards_scan_no_base_inside_the_margin_disc(self, ctx):
        # |u| < 1 - POLE_MARGIN is factor_clearance's first test (clearance inf), so the
        # guards skip such a base; a non-finite base is still scanned and raises DomainError
        inside = [0.5, (1 - 2 * qcore.POLE_MARGIN) * 1j, -0.999]
        assert [qcore.factor_clearance(u, ctx) for u in inside] == [math.inf] * 3
        assert qcore.require_clear(ctx, "probe", *inside) is None
        for bad in (complex(math.nan, 0.0), complex(0.2, math.inf)):
            with pytest.raises(DomainError):
                qcore.require_clear(ctx, "probe", 0.5, bad)
            with pytest.raises(DomainError):
                KernelParams(0.5, bad, 0.6, 0.7, ctx)

    @pytest.mark.parametrize("q", [0.45, 0.7])
    def test_disc_violation_names_the_first_point_outside(self, q):
        # the points in order: the first outside the disc raises the error its own call
        # raises, whatever follows it
        ctx = QContext(q)
        rng = random.Random(41)
        kp = sample_profile_kernel_params(rng, ctx)
        al, be, lam = kp.c / kp.d, kp.b, kp.b
        s = np.array([0.0, ctx.q ** 8, 2.0, ctx.q ** 6, 5.0])
        w = np.array([sample_z(rng, 0.9, 1.15) for _ in s])
        want = raised(profiles.profile_kernel_P, complex(s[2]), complex(w[2]), al, be, lam, ctx)
        assert want[0] is ConvergenceRegionViolation
        assert raised(profiles.profile_kernel_P, s, w, al, be, lam, ctx) == want
        assert [inside_disc(kp, lam, *p) for p in zip(s[:2], w[:2])] == [True] * 2
        assert not inside_disc(kp, lam, s[2], w[2])


class TestCallCounts:
    """One product call per identity evaluation of all draws, and one series run per family
    of all draws, pinned at q = 0.45 and a fixed seed."""

    @staticmethod
    def _count(monkeypatch, suite):
        """(qpoch_infinite calls, _series_sum runs, sample calls, basis_terms calls)."""
        counts = {}
        for name, owner in (("qpoch_infinite", qcore), ("_series_sum", hyper),
                            ("sample", qcore), ("basis_terms", taylor)):
            real = getattr(owner, name)
            counts[name] = []
            for module in (qcore, hyper, kernel, profiles, quadratic, taylor, wpoperator):
                if getattr(module, name, None) is real:
                    monkeypatch.setattr(module, name, lambda *a, real=real, seen=counts[name]:
                                        seen.append(1) or real(*a))
        cfg = SuiteConfig(suites=(suite,), q=0.45, seed=7)
        assert run_suites(cfg).all_passed
        return tuple(len(seen) for seen in counts.values())

    @pytest.mark.parametrize("suite, calls", [("kernel", PINNED_KERNEL_CALLS),
                                              ("profiles", PINNED_PROFILES_CALLS),
                                              ("quadratic", PINNED_QUADRATIC_CALLS)])
    def test_product_calls_per_suite(self, monkeypatch, suite, calls):
        assert self._count(monkeypatch, suite)[0] == calls

    @pytest.mark.parametrize("suite", sorted(PINNED_SERIES_RUNS))
    def test_series_runs_per_suite(self, monkeypatch, suite):
        assert self._count(monkeypatch, suite)[1] == PINNED_SERIES_RUNS[suite]

    @pytest.mark.parametrize("suite", sorted(PINNED_DRAW_AXIS_CALLS))
    def test_samples_per_suite(self, monkeypatch, suite):
        # one product call, one sample of f and one basis series per evaluation of all draws
        calls, _, samples, basis_series = self._count(monkeypatch, suite)
        assert (calls, samples, basis_series) == PINNED_DRAW_AXIS_CALLS[suite]
