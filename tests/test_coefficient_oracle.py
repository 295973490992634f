"""The closed-form coefficient rows against the Cooper slices at 40 digits.

``taylor.coefficient_rows`` reads R[k, i], the weight of f(a q^i) in t_k, from a ratio of
q-shifted factorials.  The reference here does not assume that simplification: it forms
the Cooper weight of ``wpoperator.cooper_rows`` at z = a q^(k/2) factor by factor, in slice
products, and multiplies it by the coefficient prefactor (-1)^k q^(-k(k-1)/4) (1 - q)^k /
((2a)^k (q;q)_k (c/a;q)_k (acq^(k-1);q)_k), all in 40-digit arithmetic from the binary64
a, c and q.  Each entry is a product and quotient of about 4k factors, each rounded once,
so it is within c (k + 1) u of the exact value.
"""

import random

import pytest

from qtaylor.qcore import QContext
from qtaylor.sampling import sample_basis_pair
from qtaylor.taylor import BasisPair, coefficient_rows

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

U = 2.0 ** -53  # the unit roundoff of binary64
C = 8  # the constant of the bound c (k + 1) u
ORDER = 20
BASES = [0.45, 0.7, -0.6, 0.3 + 0.5j, 0.95]


def _prod(factors):
    return mpmath.fprod(factors) if factors else mp.mpc(1)


def cooper_reference(pair: BasisPair, q, k: int) -> list:
    """The row of order k, entry i the weight of f(a q^i): the Cooper weight u_r of the node
    q^(k/2-r) z, r = k - i, at z = a q^(k/2), times the prefactor of t_k."""
    a, c, q = mp.mpc(pair.a), mp.mpc(pair.c), mp.mpc(q)
    rq = mpmath.sqrt(q)  # the principal branch, as QContext.sqrt_q
    if k == 0:
        return [mp.mpc(1)]
    z = a * rq ** k
    z2 = z * z
    halves = [rq ** e for e in range(-k, 3 * k - 1, 2)]
    n1 = [1 - c * z * h for h in halves]
    n2 = [1 - c / z * h for h in halves]
    qm = [q ** s for s in range(1 - k, k)]
    d1 = [1 - x * z2 for x in qm]
    d2 = [z2 - x for x in qm]
    qq = [_prod([1 - q ** (j + 1) for j in range(m)]) for m in range(k + 1)]
    pref = ((-2 * z) ** k * rq ** (k * (3 - k) // 2) / (1 - q) ** k
            * _prod(n1[k - 1:]) * _prod(n2[k - 1:]))
    weights = [pref * q ** (r * (k - r)) * qq[k] / (qq[r] * qq[k - r])
               * _prod(n1[k - r:2 * k - r - 1]) * _prod(n2[r:r + k - 1])
               / (_prod(d1[2 * k - 2 * r:2 * k - r]) * _prod(d2[2 * r:r + k]))
               for r in range(k + 1)]

    def poch(x, m):
        return _prod([1 - x * q ** j for j in range(m)])

    prefactor = ((-1) ** k * rq ** (-k * (k - 1) // 2) * (1 - q) ** k
                 / ((2 * a) ** k * qq[k] * poch(c / a, k) * poch(a * c * q ** (k - 1), k)))
    return [prefactor * w for w in reversed(weights)]


@pytest.mark.parametrize("q", BASES)
def test_rows_are_within_the_rounding_bound(q):
    ctx, rng = QContext(q), random.Random(4032)
    pairs = [sample_basis_pair(rng) for _ in range(2)] + [BasisPair(0.62 - 0.2j, 0.0)]
    with mp.workdps(40):
        for pair in pairs:
            rows = coefficient_rows(pair, ORDER, ctx)
            for k in range(ORDER + 1):
                for i, exact in enumerate(cooper_reference(pair, q, k)):
                    error = abs(mp.mpc(complex(rows[k, i])) - exact) / abs(exact)
                    assert error <= C * (k + 1) * U, (pair, k, i, float(error))
