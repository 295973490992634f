"""Acceptance criteria, one test per criterion, at their stated tolerances.

Each test prints a single `ACCEPTANCE <n> <name>: PASS` line on success so
a plain `pytest -s tests/test_acceptance.py` reads as a checklist.
"""

import json
import math
import random
import time

import numpy as np

from qtaylor.kernel import (adaptive_series_depth,
                            E_contour_coefficient, H_at_b, K_at_cde,
                            calP1, calP_quadruple, calP2,
                            cancellation_identity_residual, fk_coefficient,
                            gk_coefficient, involute, pole_cleared_E_terms,
                            remainder_gap_curve, two_basis_residual)
from qtaylor.profiles import (annular_factorization_residual, bridge_residual,
                              generating_Q_terms, leading_profile_residual,
                              profile_sums_and_closed_forms)
from qtaylor.qcore import QContext, weierstrass_terms
from qtaylor.quadratic import (companion_coefficient, companion_residual,
                               quadratic_coefficient, quadratic_residual,
                               quadratic_tail_curve,
                               companion_taylor_identification,
                               quadratic_taylor_identification)
from qtaylor.hyper import jackson_8w7_residual, rogers_6w5_residual
from qtaylor.sampling import (sample_basis_pair, sample_complex,
                              sample_kernel_params, sample_kernel_z,
                              sample_profile_kernel_params,
                              sample_quadratic_params, sample_with, sample_z)
from qtaylor.suites import SuiteConfig, run_suites
from qtaylor.taylor import (BasisPair, phi_combination, phi_function,
                            taylor_coefficient)
from qtaylor.wpoperator import OperatorChainSpec, apply_iterated, cooper_eval


def report(n, name, detail):
    print(f"ACCEPTANCE {n} {name}: PASS ({detail})")


def operator_point(rng, ctx):
    return sample_with(rng, lambda r: sample_complex(r, 0.85, 1.3),
                       lambda z: abs(z - 1 / z) > 0.25
                       and abs(abs(z) - 1 / math.sqrt(abs(ctx.q))) > 0.06
                       and abs(abs(z) - math.sqrt(abs(ctx.q))) > 0.06)


def test_criterion_01_closed_form_operator_agreement():
    rng = random.Random(101)
    start = time.perf_counter()
    worst = 0.0
    for q in (0.3, 0.5, 0.7):
        ctx = QContext(q)
        for _ in range(50):
            pair = sample_basis_pair(rng, lo=0.4, hi=0.85)
            f = phi_combination(
                pair, [sample_complex(rng, 0.5, 1.5) for _ in range(9)], ctx)
            z = operator_point(rng, ctx)
            m = rng.randrange(0, 7)
            c = sample_complex(rng)
            v1 = cooper_eval(f, z, c, m, ctx)
            v2 = apply_iterated(f, z, OperatorChainSpec(c, m), ctx)
            worst = max(worst, abs(v1 - v2) / max(abs(v1), abs(v2)))
    elapsed = time.perf_counter() - start
    assert worst < 1e-8
    assert elapsed < 5.0
    report(1, "closed-form operator agreement",
           f"max rel err {worst:.2e}, {elapsed:.2f}s for 150 draws")


def test_criterion_02_delta_property():
    rng = random.Random(102)
    ctx = QContext(0.5)
    worst = 0.0
    for _ in range(3):
        pair = sample_basis_pair(rng, lo=0.4, hi=0.85, min_split=0.1)
        for n in range(9):
            f = phi_function(pair, n, ctx)
            for k in range(9):
                t = taylor_coefficient(f, pair, k, ctx)
                worst = max(worst, abs(t - (1.0 if k == n else 0.0)))
    assert worst < 1e-8
    report(2, "delta property", f"max |t_k(basis_n) - delta| = {worst:.2e}")


def test_criterion_03_first_reexpansion():
    rng = random.Random(103)
    ctx = QContext(0.45)
    worst = 0.0
    for _ in range(10):
        a = sample_complex(rng, 0.4, 0.85)
        c = sample_complex(rng, 0.35, 0.8)
        d = sample_complex(rng, 0.4, 0.85)
        if abs(1 - c / a) < 0.1 or abs(1 - a * c) < 0.1:
            continue
        pair = BasisPair(a, c)
        f = phi_function(BasisPair(d, c), 1, ctx)
        t0 = taylor_coefficient(f, pair, 0, ctx)
        t1 = taylor_coefficient(f, pair, 1, ctx)
        w0 = (1 - a * d) * (1 - d / a) / ((1 - a * c) * (1 - c / a))
        w1 = (d / a) * (1 - c / d) * (1 - c * d) / ((1 - c / a) * (1 - a * c))
        worst = max(worst, abs(t0 - w0) / abs(w0), abs(t1 - w1) / abs(w1))
    assert worst < 1e-9
    report(3, "first re-expansion coefficients", f"max rel err {worst:.2e}")


def test_criterion_04_reference_summations():
    rng = random.Random(104)
    ctx = QContext(0.45)
    worst_r = 0.0
    draws = 0
    while draws < 50:
        a = sample_complex(rng, 0.2, 0.9)
        b, c, d = (sample_complex(rng, 0.35, 0.95) for _ in range(3))
        if abs(a * ctx.q / (b * c * d)) > 0.7:
            continue
        worst_r = max(worst_r, rogers_6w5_residual(a, b, c, d, ctx))
        draws += 1
    worst_j = 0.0
    for _ in range(50):
        a, b, c, d = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
        n = rng.randrange(0, 13)
        worst_j = max(worst_j, jackson_8w7_residual(a, b, c, d, n, ctx))
    assert worst_r < 1e-9
    assert worst_j < 1e-10
    report(4, "reference summations",
           f"nonterminating {worst_r:.2e}, terminating {worst_j:.2e}")


def test_criterion_05_two_basis_identity():
    rng = random.Random(105)
    start = time.perf_counter()
    worst = 0.0
    controls = []
    for q in (0.45, 0.28 + 0.31j):
        ctx = QContext(q)
        for i in range(50):
            kp = sample_kernel_params(rng, ctx)
            z = sample_kernel_z(rng, kp)
            res = two_basis_residual(z, kp, 60)
            worst = max(worst, res)
            if i < 3:
                neg = two_basis_residual(z, kp, 60, force_unit_Hb=True)
                controls.append(neg / max(res, 1e-300))
    elapsed = time.perf_counter() - start
    assert worst < 1e-7
    assert min(controls) > 1e6
    assert elapsed < 60.0
    report(5, "two-basis kernel identity",
           f"max residual {worst:.2e} over 100 draws, "
           f"negative control x{min(controls):.1e}, {elapsed:.1f}s")


def test_criterion_06_grid_zeros():
    rng = random.Random(106)
    ctx = QContext(0.4)
    kp = sample_kernel_params(rng, ctx)
    depth = adaptive_series_depth(kp)
    worst = 0.0
    for m in range(11):
        for z in (kp.b * ctx.q ** m, kp.c / (kp.d * kp.e) * ctx.q ** m):
            t1, t2, t3 = pole_cleared_E_terms(z, kp, depth)
            worst = max(worst, abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3)))
    assert worst < 1e-7
    N = 5
    flat = 0.0
    for m in range(N + 1):
        for z in (kp.b * ctx.q ** m, kp.c / (kp.d * kp.e) * ctx.q ** m):
            t1, t2, t3 = pole_cleared_E_terms(z, kp, N)
            flat = max(flat, abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3)))
    assert flat < 1e-7
    t1, t2, t3 = pole_cleared_E_terms(kp.b * ctx.q ** (N + 3), kp, N)
    beyond = abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3))
    assert beyond > 1e-5
    report(6, "residual grid zeros",
           f"full {worst:.2e}, truncated {flat:.2e}, beyond-depth {beyond:.2e}")


def test_criterion_07_laurent_cancellation():
    rng = random.Random(107)
    ctx = QContext(0.4)
    kp = sample_kernel_params(rng, ctx)
    worst = 0.0
    cross = 0.0
    for n, (coeff, scale, _) in enumerate(E_contour_coefficient(kp, range(1, 7)), 1):
        worst = max(worst, abs(coeff) / scale)
        if n <= 2:
            structured = (calP_quadruple(kp.c / kp.d, kp.c / kp.d,
                                         kp.c / kp.e, kp.c / kp.e, n, ctx)
                          - H_at_b(kp) * sum(fk_coefficient(kp, k)
                                             * calP1(kp, n, k)
                                             for k in range(51))
                          - K_at_cde(kp) * sum(gk_coefficient(kp, k)
                                               * calP2(kp, n, k)
                                               for k in range(51)))
            cross = max(cross, abs(structured - coeff) / scale)
            assert cancellation_identity_residual(kp, n, 50) < 1e-6
    assert worst < 1e-6
    assert cross < 1e-6
    report(7, "negative Laurent coefficients",
           f"contour {worst:.2e}, structured-vs-contour {cross:.2e}")


def test_criterion_08_complementary_remainder_limit():
    rng = random.Random(108)
    ctx = QContext(0.4)
    kp = sample_profile_kernel_params(rng, ctx)
    z = sample_z(rng)
    orders = list(range(4, 11))
    fit = math.exp(np.polyfit(orders, np.log(remainder_gap_curve(z, kp, orders)),
                              1)[0])
    fit_inv = math.exp(np.polyfit(
        orders, np.log(remainder_gap_curve(z, involute(kp), orders)), 1)[0])
    assert abs(fit - abs(ctx.q)) < 0.25 * abs(ctx.q)
    assert abs(fit_inv - abs(ctx.q)) < 0.25 * abs(ctx.q)
    report(8, "complementary remainder limit",
           f"fitted ratios {fit:.3f} / {fit_inv:.3f} vs |q| = {abs(ctx.q)}")


def test_criterion_09_profile_suite():
    rng = random.Random(109)
    ctx = QContext(0.4)
    lam0 = sample_complex(rng, 0.4, 0.8)
    worst_fact = max(annular_factorization_residual(lam0, N, sample_z(rng, 0.9, 1.15), ctx)
                     for N in (0, 5, 10, 15, 20))
    assert worst_fact < 1e-10
    kp = sample_profile_kernel_params(rng, ctx)
    lam = kp.b
    cf = profile_sums_and_closed_forms(kp)
    worst_sums = max(
        abs(cf.F_star_series - cf.F_star_product) / abs(cf.F_star_product),
        abs(cf.G_star_series - cf.G_star_product) / abs(cf.G_star_product))
    assert worst_sums < 1e-9
    worst_lead = max(leading_profile_residual(sample_z(rng, 0.8, 1.25), kp, lam)
                     for _ in range(20))
    assert worst_lead < 1e-8
    worst_q = 0.0
    for s in (0.0, ctx.q ** 8, ctx.q ** 6, ctx.q ** 4):
        for _ in range(3):
            t1, t2, t3 = generating_Q_terms(s, sample_z(rng, 0.85, 1.2), kp, lam)
            worst_q = max(worst_q, abs(t1 - t2 - t3) / max(abs(t1), abs(t2),
                                                           abs(t3)))
    assert worst_q < 1e-7
    worst_bridge = max(bridge_residual(N, sample_z(rng, 0.9, 1.15), kp, lam)
                       for N in range(4, 11))
    assert worst_bridge < 1e-6
    report(9, "profile suite",
           f"factorisation {worst_fact:.2e}, sums {worst_sums:.2e}, "
           f"leading {worst_lead:.2e}, generator {worst_q:.2e}, "
           f"bridge {worst_bridge:.2e}")


def test_criterion_10_quadratic_suite():
    rng = random.Random(110)
    ctx = QContext(0.42)
    worst = worst_c = 0.0
    qp0 = None
    for _ in range(50):
        qp = sample_quadratic_params(rng)
        qp0 = qp0 or qp
        z = sample_z(rng)
        worst = max(worst, quadratic_residual(z, qp, 60, ctx))
        worst_c = max(worst_c, companion_residual(z, qp, 60, ctx))
    assert worst < 1e-8 and worst_c < 1e-8
    ident = max(quadratic_taylor_identification(qp0, 6, ctx),
                companion_taylor_identification(qp0, 6, ctx))
    assert ident < 1e-7
    orders = [4, 6, 8, 10, 12]
    tails = quadratic_tail_curve(sample_z(rng), qp0, orders, ctx)
    fit = math.exp(np.polyfit(orders, np.log(tails), 1)[0])
    assert abs(fit - abs(qp0.b / qp0.a)) < 0.1 * abs(qp0.b / qp0.a)
    hr = abs(quadratic_coefficient(qp0, 31, ctx)
             / quadratic_coefficient(qp0, 30, ctx))
    rr = abs(companion_coefficient(qp0, 31, ctx)
             / companion_coefficient(qp0, 30, ctx))
    assert abs(hr - abs(qp0.b / qp0.a)) < 0.1 * abs(qp0.b / qp0.a)
    assert abs(rr - abs(qp0.alpha)) < 0.1 * abs(qp0.alpha)
    report(10, "quadratic expansions",
           f"residuals {worst:.2e} / {worst_c:.2e}, identification {ident:.2e}, "
           f"tail ratio {fit:.3f}")


def test_criterion_11_addition_formula():
    rng = random.Random(111)
    ctx = QContext(0.55)
    worst = 0.0
    for _ in range(200):
        x, y, u, v = (sample_complex(rng, 0.5, 1.5) for _ in range(4))
        t1, t2, t3 = weierstrass_terms(x, y, u, v, ctx)
        worst = max(worst, abs(t1 - t2 - t3) / max(abs(t1), abs(t2), abs(t3)))
    assert worst < 1e-12
    report(11, "theta addition residual", f"max over 200 quadruples {worst:.2e}")


def test_criterion_12_determinism():
    cfg = SuiteConfig(suites=("qcore", "operator", "kernel"), seed=424242,
                      draws=6)
    r1 = run_suites(cfg)
    r2 = run_suites(cfg)
    s1 = [json.dumps(r.to_dict(), sort_keys=True) for r in r1.records]
    s2 = [json.dumps(r.to_dict(), sort_keys=True) for r in r2.records]
    assert s1 == s2
    report(12, "determinism", f"{len(s1)} records byte-identical across reruns")
