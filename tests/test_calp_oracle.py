"""The structured Laurent tables against a 40-digit evaluation of the same expansions.

P1_{n,k} and P2_{n,k} are read from kernel.calP_tables at the adaptive depth K of a
sampled quadruple and compared with the products (outer z;q)_inf (az;q)_k (cq^k z;q)_inf
expanded at 40 digits: each Euler expansion by its coefficient ratio and (az;q)_k by its
k factors, every expansion kept until its terms fall below 1e-45 of its largest.  The
error of P_{n,k} = sum_i T_i T_(i+n) is taken relative to sum_i |T_i T_(i+n)|, the size
its binary64 rounding is relative to (Higham, Accuracy and Stability of Numerical
Algorithms, 2nd ed., ch. 3).
"""

import random

import pytest

from qtaylor.kernel import calP_tables, laurent_pair
from qtaylor.qcore import QContext
from qtaylor.sampling import sample_kernel_params

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

# twice the largest error over n in {1, 2} and the rows read of the tables built row by
# row with np.convolve (one Euler loop per row, the full (az;q)_k rows): 7.5e-16 at
# q = 0.45, 1.5e-15 at 0.7, 2.3e-13 at 0.9
BOUNDS = {0.45: 2 * 7.6e-16, 0.7: 2 * 1.6e-15, 0.9: 2 * 2.3e-13}


def euler(u, q):
    """The coefficients of (u t;q)_inf in powers of t, until they fall below 1e-45 of the
    largest (past the growing ones)."""
    out, peak, i = [mp.mpc(1)], mp.mpf(1), 1
    while True:
        ratio = -u * q ** (i - 1) / (1 - q ** i)
        out.append(out[-1] * ratio)
        peak = max(peak, abs(out[-1]))
        if abs(ratio) < 1 and abs(out[-1]) < mp.mpf(10) ** -45 * peak:
            return out
        i += 1


def convolve(x, y):
    out = [mp.mpc(0)] * (len(x) + len(y) - 1)
    for i, xi in enumerate(x):
        for j, yj in enumerate(y):
            out[i + j] += xi * yj
    return out


def reference_row(outer, a, c, k, q):
    """The coefficients of (outer z;q)_inf (az;q)_k (c q^k z;q)_inf at 40 digits."""
    q = mp.mpc(q)
    # for 0 < q < 1, |[z^j] (az;q)_k| <= |e_j(a)|: the row of (az;q)_k is kept as long
    poly = [mp.mpc(1)] + [mp.mpc(0)] * (len(euler(mp.mpc(a), q)) - 1)
    for j in range(k):
        factor = mp.mpc(a) * q ** j
        for i in range(min(j + 1, len(poly) - 1), 0, -1):
            poly[i] -= factor * poly[i - 1]
    return convolve(convolve(euler(mp.mpc(outer), q), euler(mp.mpc(c) * q ** k, q)), poly)


def worst_error(q) -> float:
    """The largest error of P1_{n,k}, P2_{n,k}, n in {1, 2}, over four rows k spread over
    0..series_depth, of a quadruple sampled at base q."""
    ctx = QContext(q)
    kp = sample_kernel_params(random.Random(23), ctx)
    depth = kp.series_depth
    b, c, d, e = kp.b, kp.c, kp.d, kp.e
    families = [(c / (d * e), b, c), (b, c / (d * e), c * c / (b * d * e))]
    worst = 0.0
    with mp.workdps(40):
        for table, (outer, a, cc) in zip(calP_tables(kp, depth), families):
            for k in (0, depth // 3, 2 * depth // 3, depth):
                row = reference_row(outer, a, cc, k, q)
                for n in (1, 2):
                    pairs = [row[i] * row[i + n] for i in range(len(row) - n)]
                    got = laurent_pair(table[k], table[k], n)
                    error = abs(mp.mpc(got) - mp.fsum(pairs)) / mp.fsum(map(abs, pairs))
                    worst = max(worst, float(error))
    return worst


@pytest.mark.parametrize("q", sorted(BOUNDS))
def test_tables_against_40_digits(q):
    assert worst_error(q) <= BOUNDS[q]
