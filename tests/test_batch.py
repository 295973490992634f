"""Batched evaluation paths against their per-point scalar references.

Products, thetas and the pole-cleared residual accept ndarrays of points;
the structured Laurent sums read every order from one table per family.
Each batched result is compared with the scalar loop it replaced.  The
batch runs every row at the depth of its largest |a| and NumPy may fuse a
complex multiply, so results differ by rounding: the tolerances below are
fixed from the binary64 unit roundoff and the number of rounded
operations, not from observed differences.
"""

import cmath
import math
import random

import numpy as np
import pytest

from qtaylor.kernel import (KernelParams, adaptive_series_depth, calP_tables,
                            laurent_pair, pole_cleared_E_terms)
from qtaylor.qcore import (QContext, geometric_depth, qpoch_infinite,
                           scaled_residual, theta, weierstrass_terms)
from qtaylor.sampling import sample_complex, sample_kernel_params

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
