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

from qtaylor import hyper, kernel, profiles, qcore, quadratic, taylor
from qtaylor.kernel import (KernelParams, adaptive_series_depth, calP_tables,
                            laurent_pair, pole_cleared_E_terms)
from qtaylor.qcore import (QContext, geometric_depth, qpoch_infinite,
                           scaled_residual, theta, weierstrass_terms)
from qtaylor.sampling import (sample_complex, sample_kernel_params,
                              sample_profile_kernel_params, sample_quadratic_params, sample_z)

EPS = np.finfo(float).eps  # 2^-52

BASES = [0.45, 0.7, -0.6, 0.3 + 0.5j]


def scalar_qpoch_infinite(a, q):
    """The scalar loop: (a;q)_inf at depth geometric_depth(|q|, |a|), with |a||q|^N."""
    n = geometric_depth(abs(q), abs(a))
    value, x = 1.0 + 0.0j, complex(a)
    for _ in range(n):
        value *= 1.0 - x
        x *= q
    return value, abs(x), n


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
    kp.Hb, kp.Kcde  # computed here once: the E terms and the profile sums read them
    qp = sample_quadratic_params(rng)
    z, w, s = sample_z(rng), sample_z(rng, 0.9, 1.15), 0.01 + 0.02j
    x, y, u, v = (sample_complex(rng, 0.5, 1.5) for _ in range(4))
    al, be, lam = kp.c / kp.d, kp.b, kp.b
    return [
        ("kernel_F", lambda: kernel.kernel_F(z, kp)),
        ("kernel_A", lambda: kernel.kernel_A(z, kp)),
        ("kernel_B", lambda: kernel.kernel_B(z, kp)),
        ("kernel_H", lambda: kernel.kernel_H(z, kp)),
        ("kernel_K", lambda: kernel.kernel_K(z, kp)),
        ("Hb", lambda: KernelParams(kp.b, kp.c, kp.d, kp.e, ctx).Hb),
        ("Kcde", lambda: KernelParams(kp.b, kp.c, kp.d, kp.e, ctx).Kcde),
        ("M_clearing", lambda: kernel.M_clearing(z, kp)),
        ("pole_cleared_E_terms", lambda: kernel.pole_cleared_E_terms(z, kp, 12)),
        ("qpoch_multi", lambda: qcore.qpoch_multi([x, y, u, v], None, ctx)),
        ("theta", lambda: qcore.theta(x, ctx)),
        ("weierstrass_terms", lambda: qcore.weierstrass_terms(x, y, u, v, ctx)),
        ("L_profile", lambda: profiles.L_profile(w, al, be, lam, ctx)),
        ("profile_kernel_P", lambda: profiles.profile_kernel_P(s, w, al, be, lam, ctx)),
        ("profile_sums_and_closed_forms", lambda: profiles.profile_sums_and_closed_forms(kp)),
        ("canonical_Z", lambda: profiles.canonical_Z(z, kp)),
        ("quadratic_product", lambda: quadratic.quadratic_product(z, qp, ctx)),
        ("quadratic_constant", lambda: quadratic.quadratic_constant(qp, ctx)),
        ("companion_product", lambda: quadratic.companion_product(z, qp, ctx)),
        ("companion_constant", lambda: quadratic.companion_constant(qp, ctx)),
        ("rogers_6w5_residual",
         lambda: hyper.rogers_6w5_residual(0.3, 0.8 + 0.1j, 0.75, 0.9 - 0.2j, ctx)),
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
        qp = sample_quadratic_params(rng)
        a2, b2, al2, d2 = qp.a, qp.b, qp.alpha, qp.d
        rq = ctx.sqrt_q
        z, w, lam = sample_z(rng), sample_z(rng, 0.9, 1.15), sample_complex(rng, 0.4, 0.8)
        t = lam * w
        cc = c * c / (b * d * e)
        # (value, numerator bases, denominator bases, numerator base q)
        cases = [
            (kernel.kernel_F(z, kp), sym(z, c / d, c / e), sym(z, c, cc), q),
            (kernel.kernel_A(z, kp), sym(z, c / (d * e)), sym(z, cc), q),
            (kernel.kernel_B(z, kp), sym(z, b), sym(z, c), q),
            (kernel.kernel_H(z, kp), sym(z, c / d, c / e), sym(z, c, c / (d * e)), q),
            (kernel.kernel_K(z, kp), sym(z, c / d, c / e), sym(z, b, cc), q),
            (kp.Hb, [b * c / d, c / (b * d), b * c / e, c / (b * e)],
             [b * c, c / b, b * c / (d * e), c / (b * d * e)], q),
            (kernel.M_clearing(z, kp), sym(z, c, cc), [], q),
            (qcore.theta(z, ctx), [z, q / z], [], q),
            (profiles.L_profile(w, c / d, b, lam, ctx), [t * q * d / c, c / (d * t)],
             [t * q / b, b / t], q),
            (profiles.canonical_Z(z, kp), sym(z, b, c / (d * e)), [], q),
            (quadratic.quadratic_product(z, qp, ctx),
             [a2 * z * q, a2 * q / z, b2 * b2 * z / a2, b2 * b2 / (a2 * z)], sym(z, b2), q * q),
            (quadratic.quadratic_constant(qp, ctx),
             [q, a2 * a2 * q, b2 * b2, b2 * b2 / (a2 * a2)], [a2 * b2, b2 / a2], q * q),
            (quadratic.companion_product(z, qp, ctx),
             [al2 * d2 * rq * z, al2 * d2 * rq / z, al2 * rq * q * z / d2,
              al2 * rq * q / (d2 * z)], sym(z, -al2 * rq), q * q),
            (quadratic.companion_constant(qp, ctx), [al2 * d2, al2 * q / d2],
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
        depth = adaptive_series_depth(kp)
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
