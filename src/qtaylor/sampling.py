"""Seeded parameter sampling with genericity rejection.

Every suite draw flows through a `random.Random` seeded by the runner, so
identical seeds reproduce identical parameter streams bit for bit.
Samples violating a genericity predicate (pole margins, grid collisions,
convergence regions) are rejected and redrawn, at most MAX_TRIES draws
per sample.
"""

from __future__ import annotations

import cmath
import math
import random

from .errors import ConfigError, QTaylorError
from .kernel import KernelParams
from .qcore import QContext, factor_clearance
from .quadratic import QuadraticParams
from .taylor import BasisPair

MAX_TRIES = 500


def sample_complex(rng: random.Random, lo: float = 0.3, hi: float = 0.9) -> complex:
    """Modulus uniform in [lo, hi], phase uniform on the circle (the modulus drawn as
    rng.uniform draws it, inline)."""
    return (lo + (hi - lo) * rng.random()) * cmath.exp(2j * math.pi * rng.random())


def sample_on_circle(rng: random.Random) -> complex:
    """A point of the unit circle, phase uniform."""
    return cmath.exp(2j * math.pi * rng.random())


def sample_z(rng: random.Random, lo: float = 0.8, hi: float = 1.25) -> complex:
    """Evaluation points on the standard test annulus."""
    return sample_complex(rng, lo, hi)


def sample_kernel_z(rng: random.Random, kp: KernelParams) -> complex:
    """Evaluation point of the annulus 0.8 <= |z| <= 1.25 keeping an honest distance
    from both basis pole sets.

    The identities hold arbitrarily close to the poles, but the additive
    terms then dwarf the kernel value and rounding noise drowns the
    residual, so suite draws stay a clearance of 0.02 away from every
    denominator factor of F, A, B and the two bases.
    """
    c2 = kp.c ** 2 / (kp.b * kp.d * kp.e)

    def clear(z: complex) -> bool:
        bases = (kp.c * z, kp.c / z, c2 * z, c2 / z, kp.b * z, kp.b / z)
        return all(factor_clearance(u, kp.ctx) > 0.02 for u in bases)

    return sample_with(rng, lambda r: sample_complex(r, 0.8, 1.25), clear)


def sample_with(rng: random.Random, build, predicate=None):
    """Draw via `build(rng)` until construction and predicate succeed, at most
    MAX_TRIES times."""
    for _ in range(MAX_TRIES):
        try:
            value = build(rng)
        except QTaylorError:
            continue
        if predicate is None or predicate(value):
            return value
    raise ConfigError(f"no admissible sample within {MAX_TRIES} draws")


def sample_kernel_params(rng: random.Random, ctx: QContext, *,
                         lo: float = 0.3, hi: float = 0.9) -> KernelParams:
    """A generic kernel quadruple; construction enforces the margin checks."""
    return sample_with(
        rng,
        lambda r: KernelParams(sample_complex(r, lo, hi), sample_complex(r, lo, hi),
                               sample_complex(r, lo, hi), sample_complex(r, lo, hi),
                               ctx))


def sample_profile_kernel_params(rng: random.Random, ctx: QContext, *,
                                 moment_order: int = 1) -> KernelParams:
    """Kernel draw inside the profile convergence region.

    Keeps |b| < |c| so the scalar profile sums converge, with enough
    margin that the contiguous moments through the given order do too.
    """
    bound = abs(ctx.q) ** max(moment_order - 1, 0)

    def build(r: random.Random) -> KernelParams:
        c = sample_complex(r, 0.62, 0.9)
        b = sample_complex(r, 0.3, min(0.42, 0.92 * bound * abs(c)))
        return KernelParams(b, c, sample_complex(r, 0.4, 0.9),
                            sample_complex(r, 0.4, 0.9), ctx)

    def pred(kp: KernelParams) -> bool:
        ratio = abs(kp.b / kp.c)
        return ratio * abs(ctx.q) < 0.82 and ratio < 0.95 * bound

    return sample_with(rng, build, pred)


def sample_basis_pair(rng: random.Random, *, lo: float = 0.3, hi: float = 0.9,
                      min_split: float = 0.05) -> BasisPair:
    """A Taylor pair (a, c) with the two parameters kept apart."""

    def build(r: random.Random) -> BasisPair:
        return BasisPair(sample_complex(r, lo, hi), sample_complex(r, lo, hi))

    def pred(pair: BasisPair) -> bool:
        return (abs(pair.a - pair.c) > min_split
                and abs(pair.a * pair.c) > min_split
                and abs(1 - pair.c / pair.a) > min_split
                and abs(1 - pair.a * pair.c) > min_split)

    return sample_with(rng, build, pred)


def sample_quadratic_params(rng: random.Random, ctx: QContext) -> QuadraticParams:
    """Draw (a, b, alpha, d) with |b/a| and |alpha| at most 0.6."""

    def build(r: random.Random) -> QuadraticParams:
        a = sample_complex(r, 0.6, 0.9)
        b = sample_complex(r, 0.25, 0.6 * abs(a))
        alpha = sample_complex(r, 0.25, 0.6)
        d = sample_complex(r, 0.4, 0.9)
        return QuadraticParams(a, b, alpha, d, ctx)

    def pred(qp: QuadraticParams) -> bool:
        return abs(qp.b / qp.a) <= 0.6 and abs(qp.alpha) <= 0.6 and abs(qp.a - qp.b) > 0.05

    return sample_with(rng, build, pred)
