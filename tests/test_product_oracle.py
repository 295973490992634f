"""The product layer against mpmath's q-Pochhammer symbol at 30 digits.

Every x q^j of ``qcore`` is one multiply of x by q^j from the context's table of running
powers, and q^j itself carries a relative error of O(j u) (Higham, *Accuracy and Stability
of Numerical Algorithms*, 2nd ed., 2002, Lemma 3.1), so a product of N factors, each at
least 0.25 from zero, is within c N u of the exact one.  That bound, not the bits of any
other route, is the accuracy guarantee of ``qpoch_infinite``, ``qpoch_table``,
``qpoch_finite`` and ``factor_clearance``.
"""

import cmath
import math
import random

import numpy as np
import pytest

from qtaylor.qcore import (POLE_MARGIN, QContext, factor_clearance, qpoch_finite, qpoch_infinite,
                           qpoch_table)

mpmath = pytest.importorskip("mpmath")
mp = mpmath.mp

U = 2.0 ** -53  # the unit roundoff of binary64
C = 4  # the constant of the bound c N u (the largest ratio at these draws is 1.41)
BASES = [0.45, 0.7, -0.6, 0.3 + 0.5j, 0.95]


def draws(rng, count, lo, hi, q):
    """count bases of modulus in [lo, hi] in random directions whose factors 1 - a q^j
    all lie at least 0.25 from zero."""
    bases = []
    while len(bases) < count:
        a = rng.uniform(lo, hi) * cmath.exp(2j * math.pi * rng.random())
        if min(abs(1.0 - a * q ** j) for j in range(400)) >= 0.25:
            bases.append(a)
    return bases


def rel_error(got, exact) -> float:
    return float(abs(mp.mpc(got) - exact) / abs(exact))


@pytest.fixture(autouse=True)
def thirty_digits():
    with mp.workdps(30):
        yield


@pytest.mark.parametrize("q", BASES)
def test_infinite_products(q):
    ctx = QContext(q)
    a = np.array(draws(random.Random(61), 8, 0.05, 1.4, q))
    tb = qpoch_infinite(a, ctx)
    depth = tb.terms_used // a.size
    for x, value in zip(a.tolist(), tb.value.tolist()):
        exact = mp.qp(mp.mpc(x), mp.mpc(q))
        assert rel_error(value, exact) <= C * depth * U
        assert rel_error(qpoch_infinite(x, ctx).value, exact) <= C * depth * U


@pytest.mark.parametrize("q", BASES)
def test_finite_products_and_tables(q):
    ctx = QContext(q)
    a = draws(random.Random(62), 8, 0.05, 1.4, q)
    table = qpoch_table(a, 40, ctx)
    for j, x in enumerate(a):
        for n in (1, 2, 5, 17, 40):
            exact = mp.qp(mp.mpc(x), mp.mpc(q), n)
            assert rel_error(complex(table[n, j]), exact) <= C * n * U
            assert rel_error(qpoch_finite(x, n, ctx), exact) <= C * n * U


@pytest.mark.parametrize("q", BASES)
def test_factor_clearance(q):
    ctx = QContext(q)
    limit = 1.0 - POLE_MARGIN

    def exact_clearance(a):  # min |1 - a q^j| over the j with |a q^j| >= limit, and their count
        x, qm, best, steps = mp.mpc(a), mp.mpc(q), mp.inf, 0
        while abs(x) >= limit:
            best, x, steps = min(best, abs(1 - x)), x * qm, steps + 1
        return best, steps

    a = draws(random.Random(63), 8, 1.0, 3.0, q)
    for x in a:
        exact, steps = exact_clearance(x)
        assert rel_error(factor_clearance(x, ctx), exact) <= C * steps * U
