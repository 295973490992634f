"""One admissibility rule at every guard site: no factor 1 - u q^j within POLE_MARGIN.

Each case puts one denominator base a relative gap from a factor of its pole set and
calls the site: a gap of 1e-9 (inside the margin 1e-6) raises the site's typed error,
a gap of 1e-5 evaluates.  The sampler's predicate keeps its own clearance of 0.02, so
its draw is rejected at 1e-9 (every redraw the same point: ConfigError) and accepted
at 0.05.
"""

import random

import pytest

from qtaylor.errors import ConfigError, PoleProximity, ZeroDenominator
from qtaylor.kernel import KernelParams
from qtaylor.profiles import annular_factorization_terms, profile_kernel_P
from qtaylor.qcore import POLE_MARGIN, QContext
from qtaylor.quadratic import QuadraticParams, companion_product, quadratic_product
from qtaylor.sampling import sample_kernel_z
from qtaylor.taylor import BasisPair, basis_terms, phi_basis

CTX = QContext(0.45)
NEAR, FAR = 1e-9, 1e-5


class FixedDraw(random.Random):
    """An rng whose draws repeat: every sample_complex(r, 0.8, 1.25) is the real z."""

    def __init__(self, z: float):
        super().__init__(0)
        self.values, self.i = ((z - 0.8) / 0.45, 0.0), 0

    def random(self) -> float:
        self.i += 1
        return self.values[(self.i - 1) % 2]


def kernel_z(gap: float) -> complex:
    # b z = 1 - gap, every other base of the predicate inside the unit disc
    kp = KernelParams(0.9, 0.55, 0.6, 0.7, CTX)
    return sample_kernel_z(FixedDraw((1 - gap) / 0.9), kp)


# site: (the call at a gap, its typed error, the error's message, the gap that evaluates)
SITES = {
    # b c = 1 - gap: the factor j = 0 of (bc;q)_inf and j = 1 of (bc/q;q)_inf
    "KernelParams": (lambda g: KernelParams(0.5, 2 * (1 - g), 0.6, 0.7, CTX),
                     ZeroDenominator, "kernel genericity violated", FAR),
    # 1 / w = 1 - gap
    "annular_factorization_terms": (lambda g: annular_factorization_terms(0.7, 2, 1 / (1 - g),
                                                                          CTX),
                                    PoleProximity, r"zero of \(1/w;q\)_inf", FAR),
    # c z = 1 - gap at z = 1.2
    "phi_basis": (lambda g: phi_basis(1.2, BasisPair(0.5, (1 - g) / 1.2), 3, CTX),
                  PoleProximity, "z near the basis pole set", FAR),
    "basis_terms": (lambda g: basis_terms(1.2, BasisPair(0.5, (1 - g) / 1.2), [1, 1], CTX),
                    PoleProximity, "basis pole set", FAR),
    # b z = (1 - gap) / q^2: the factor j = 2 of (bz;q)_inf
    "quadratic_product": (lambda g: quadratic_product(
        (1 - g) / 0.45 ** 2 / 0.5, QuadraticParams(0.9, 0.5, 0.4, 0.6, CTX)),
        PoleProximity, r"z near the \(b\) pole set", FAR),
    # -alpha q^(1/2) z = 1 - gap
    "companion_product": (lambda g: companion_product(
        (1 - g) / (0.4 * 0.45 ** 0.5), QuadraticParams(0.9, 0.5, -0.4, 0.6, CTX)),
        PoleProximity, "z near the companion pole set", FAR),
    # beta / t = 1 - gap at t = lam w = 0.5 / (1 - gap)
    "profile_kernel_P": (lambda g: profile_kernel_P(0.05, 0.5 / (1 - g), 0.3, 0.5, 1.0, CTX),
                         PoleProximity, "profile kernel", FAR),
    "sample_kernel_z": (kernel_z, ConfigError, "no admissible sample", 0.05),
}


@pytest.mark.parametrize("site", SITES)
def test_one_rule_at_every_guard_site(site):
    call, error, message, far = SITES[site]
    assert NEAR < POLE_MARGIN < FAR
    with pytest.raises(error, match=message):
        call(NEAR)
    call(far)
