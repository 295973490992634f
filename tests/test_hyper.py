import math
import random
import warnings
from dataclasses import replace

import numpy as np
import pytest

from qtaylor import suites
from qtaylor.errors import (DivergenceSuspected, DomainError, TruncationFailure,
                            ZeroDenominator)
from qtaylor.hyper import (PhiSeriesSpec, SeriesSum, VWPSpec, _series_sum,
                           jackson_8w7_terms, rogers_6w5_terms, series_eval, sum_through,
                           term_ratio, vwp_expanded_spec, well_poised_defect)
from qtaylor.kernel import f_spec, g_spec
from qtaylor.qcore import (POLE_MARGIN, TAIL_TARGET, QContext, geometric_depth, q_powers,
                           qpoch_finite, scaled_residual)
from qtaylor.quadratic import h_spec, r_spec
from qtaylor.sampling import sample_complex, sample_kernel_params, sample_quadratic_params
from qtaylor.suites import SuiteConfig, run_hyper


class TestPhiSeries:
    def test_parameter_count_enforced(self):
        with pytest.raises(DomainError):
            PhiSeriesSpec((0.1, 0.2), (0.3, 0.4), 0.5)

    def test_argument_zero(self, ctx):
        spec = PhiSeriesSpec((0.4 + 0.1j, 0.3), (0.5 - 0.2j,), 0.0)
        assert series_eval(spec, None, ctx).value == 1.0

    def test_terminating_two_term_sum(self, ctx):
        q = ctx.q
        z = 0.3 + 0.2j
        a1 = 0.4
        b1 = 0.6
        spec = PhiSeriesSpec((1 / q, a1), (b1,), z)
        got = series_eval(spec, None, ctx).value
        # direct two-term sum: 1 + (1 - q^{-1})(1 - a1) / ((1 - q)(1 - b1)) z
        want = 1 + (1 - 1 / q) * (1 - a1) / ((1 - q) * (1 - b1)) * z
        assert got == pytest.approx(want, rel=1e-13)

    def test_terminating_insensitive_to_extra_terms(self, ctx):
        spec = PhiSeriesSpec((1 / ctx.q ** 2, 0.4), (0.6,), 0.3 + 0.2j)
        exact = series_eval(spec, 2, ctx).value
        longer = series_eval(spec, 12, ctx).value
        assert abs(exact - longer) <= 1e-13 * abs(exact)

    def test_adaptive_matches_brute_force(self, ctx, rng):
        for _ in range(10):
            nums = tuple(sample_complex(rng, 0.2, 0.9) for _ in range(3))
            dens = tuple(sample_complex(rng, 0.3, 0.9) for _ in range(2))
            spec = PhiSeriesSpec(nums, dens, sample_complex(rng, 0.1, 0.5))
            adaptive = series_eval(spec, None, ctx).value
            brute = series_eval(spec, 220, ctx).value
            assert abs(adaptive - brute) / abs(brute) < 1e-12

    def test_zero_denominator_detected(self, ctx):
        spec = PhiSeriesSpec((0.4, 0.3), (1 / ctx.q ** 2,), 0.2)
        with pytest.raises(ZeroDenominator):
            series_eval(spec, None, ctx)

    def test_divergence_guard(self, ctx):
        spec = PhiSeriesSpec((2.0, 3.0), (0.1,), 2.0)
        with pytest.raises(DivergenceSuspected):
            series_eval(spec, None, ctx)


class TestVWPSeries:
    def test_argument_zero(self, ctx):
        spec = VWPSpec(0.5, (0.6, 0.7), 0.0)
        assert series_eval(spec, None, ctx).value == 1.0

    def test_rejects_unit_leading_parameter(self, ctx):
        with pytest.raises(DomainError):
            series_eval(VWPSpec(1.0, (0.5,), 0.2), None, ctx)

    def test_expanded_list_both_roots(self, ctx, rng):
        # for real a > 0 both explicit square roots reproduce the ratio form
        for _ in range(6):
            a = rng.uniform(0.3, 0.8)
            root = math.sqrt(a)
            spec = VWPSpec(a, tuple(sample_complex(rng, 0.4, 0.9) for _ in range(2)),
                           sample_complex(rng, 0.1, 0.4))
            v = series_eval(spec, 24, ctx).value
            for r in (root, -root):
                w = series_eval(vwp_expanded_spec(spec, r, ctx), 24, ctx).value
                assert abs(v - w) / abs(v) < 1e-12

    def test_well_poised_pairing(self, ctx):
        spec = VWPSpec(0.55 + 0.1j, (0.6, 0.7 - 0.2j, 0.4), 0.3)
        assert well_poised_defect(spec, ctx) < 1e-15

    def test_partial_sum_telescoping(self, ctx):
        spec = VWPSpec(0.55, (0.6 + 0.2j, 0.7, 0.4 - 0.3j), 0.3 + 0.1j)
        s8 = series_eval(spec, 8, ctx).value
        s9 = series_eval(spec, 9, ctx).value
        q = ctx.q
        k = 9
        summand = ((1 - spec.a * q ** (2 * k)) / (1 - spec.a)
                   * qpoch_finite(spec.a, k, ctx)
                   * math.prod(qpoch_finite(np.array(spec.b_list), k, ctx).tolist())
                   / (qpoch_finite(q, k, ctx)
                      * math.prod(qpoch_finite(np.array([spec.a * q / b for b in spec.b_list]),
                                               k, ctx).tolist()))
                   * spec.argument ** k)
        assert abs((s9 - s8) - summand) <= 1e-14 * max(abs(s9), abs(summand))


EPS = 2.0 ** -52


def family_specs(q):
    """The four coefficient families f, g, h, r at one sampled draw."""
    ctx = QContext(q)
    rng = random.Random(15)
    kp, qp = sample_kernel_params(rng, ctx), sample_quadratic_params(rng, ctx)
    return ctx, [f_spec(kp), g_spec(kp), h_spec(qp), r_spec(qp)]


class TestAdaptiveStop:
    """The adaptive sum stops where geometric_depth(rate, |t_k| / |S_k|) first reads 0."""

    @pytest.mark.parametrize("q", [0.2, 0.7, -0.6])
    def test_stop_index_is_the_depth_rule(self, q):
        ctx, specs = family_specs(q)
        # a cap no sum reaches sends every stop test through geometric_depth
        capped = replace(ctx, max_terms=10 ** 6)
        for spec in specs:
            tb, ref = series_eval(spec, None, ctx), series_eval(spec, None, capped)
            assert (tb.terms_used, tb.value, tb.tail_abs) == (ref.terms_used, ref.value,
                                                              ref.tail_abs)

    @pytest.mark.parametrize("q", [0.2, 0.7, -0.6])
    def test_small_cap_still_raises(self, q):
        ctx, specs = family_specs(q)
        for spec in specs:
            with pytest.raises(TruncationFailure):
                series_eval(spec, None, replace(ctx, max_terms=16))


class TestRogersSummation:
    def test_seeded_draws(self, ctx, rng):
        worst = 0.0
        draws = 0
        while draws < 50:
            a = sample_complex(rng, 0.2, 0.9)
            b, c, d = (sample_complex(rng, 0.35, 0.95) for _ in range(3))
            if abs(a * ctx.q / (b * c * d)) > 0.7:
                continue
            worst = max(worst, scaled_residual(*rogers_6w5_terms(a, b, c, d, ctx)))
            draws += 1
        assert worst < 1e-9

    def test_small_c_limit_region(self, ctx):
        assert scaled_residual(*rogers_6w5_terms(0.04, 0.8, 0.05 + 0.01j, 0.8, ctx)) < 1e-8

    @pytest.mark.parametrize("q", [0.45, 0.9, -0.8, 0.6 + 0.5j])
    def test_suite_probe_scales_with_q(self, q):
        # the suite's small-c probe keeps |aq/(bcd)| at 0.55 at every base
        records = {r.check: r for r in run_hyper(SuiteConfig(q=q))}
        assert "suite-abort" not in records
        assert records["rogers-summation"].passed

    def test_convergence_region_enforced(self, ctx):
        with pytest.raises(DomainError):
            rogers_6w5_terms(0.9, 0.3, 0.3, 0.3, ctx)

    def test_suite_draws_through_sample_with(self, monkeypatch):
        real, kept = suites.sample_with, []
        monkeypatch.setattr(suites, "sample_with",
                            lambda *a: kept.append(real(*a)) or kept[-1])
        cfg = SuiteConfig(suites=("hyper",), q=0.7)
        run_hyper(cfg)
        assert len(kept) == cfg.draws
        assert all(abs(a * cfg.q / (b * c * d)) <= 0.7 for a, b, c, d in kept)

    @pytest.mark.parametrize("q", [0.45, 0.7, -0.6, 0.5j])
    def test_suite_draws_keep_the_loop_stream(self, q):
        # the uncapped rejection loop the suite drew with before, written out
        ctx = QContext(q)
        for seed in (1, 2, 3):
            new, old, tries = random.Random(seed), random.Random(seed), 0
            for _ in range(12):
                while True:
                    tries += 1
                    a = sample_complex(old, 0.2, 0.9)
                    b, c, d = (sample_complex(old, 0.35, 0.95) for _ in range(3))
                    if abs(a * ctx.q / (b * c * d)) <= 0.7:
                        break
                assert suites._rogers_draw(new, ctx) == (a, b, c, d)
            assert tries > 12 and new.random() == old.random()


class TestJacksonSummation:
    def test_depth_zero(self, ctx):
        assert scaled_residual(*jackson_8w7_terms(0.5, 0.6, 0.7, 0.8, 0, ctx)) == 0.0

    def test_depth_one(self, ctx, rng):
        a, b, c, d = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
        assert scaled_residual(*jackson_8w7_terms(a, b, c, d, 1, ctx)) < 1e-12

    def test_seeded_draws_depth_twelve(self, ctx, rng):
        worst = 0.0
        for _ in range(50):
            a, b, c, d = (sample_complex(rng, 0.3, 0.9) for _ in range(4))
            n = rng.randrange(0, 13)
            worst = max(worst, scaled_residual(*jackson_8w7_terms(a, b, c, d, n, ctx)))
        assert worst < 1e-10


# ---------------------------------------------------------------- block sums

def _loop_ratio(nums, dens, z, ctx, lead=None):
    """The scalar term ratio of the one-term-at-a-time loop that the block sum replaced."""
    q, margin = ctx.q, POLE_MARGIN
    x = 1.0 + 0.0j

    def ratio(k):
        nonlocal x
        if lead is not None:
            x2 = x * x
            lead_old = 1.0 - lead * x2
            if abs(lead_old) <= margin:
                raise ZeroDenominator("leading very-well-poised factor vanished")
            lead_ratio = (1.0 - lead * x2 * q * q) / lead_old
        num = 1.0 + 0.0j
        for a in nums:
            num *= 1.0 - a * x
        den = 1.0 - q * x
        for b in dens:
            fac = 1.0 - b * x
            if abs(fac) <= margin:
                raise ZeroDenominator(f"denominator parameter {b} hits q^(-{k}) within margin")
            den *= fac
        x *= q
        r = num / den
        return (r if lead is None else lead_ratio * r) * z

    return ratio


def _loop_vwp_ratio(spec, ctx):
    return _loop_ratio((spec.a,) + spec.b_list, tuple(spec.a * ctx.q / b for b in spec.b_list),
                       spec.argument, ctx, lead=spec.a)


def _loop_sum(ratio, trunc, ctx):
    """The one-term-at-a-time _series_sum that the block sum replaced: the oracle."""
    q_rate = abs(ctx.q)
    settled = geometric_depth(q_rate) if trunc is None else 0
    rate = q_rate
    total = term = 1.0 + 0.0j
    terms = [term]
    k = grow_run = 0
    while term != 0 and (trunc is None or k < trunc):
        nxt = term * ratio(k)
        if abs(nxt) < abs(term):
            rate = max(abs(nxt) / abs(term), q_rate)
            grow_run = 0
        elif trunc is None and k >= settled:
            grow_run += 1
            if grow_run >= 8:
                raise DivergenceSuspected(f"8 consecutive growing terms at k={k + 1}")
        term = nxt
        terms.append(term)
        total += term
        k += 1
        if trunc is None and total:
            lead = abs(term) / abs(total)
            if (lead < TAIL_TARGET * (1.0 - rate) if ctx.max_terms is None and lead < math.inf
                    else geometric_depth(rate, lead, ctx.max_terms) == 0):
                break
    return SeriesSum(total, abs(term) * rate / (1.0 - rate), k + 1, tuple(terms))


def _scalar_blocks(ratio):
    """A block function (one column) made of a scalar ratio(k), so both sums can run one rule."""
    return lambda k, x: (np.array([[ratio(k + i)] for i in range(len(x))]), None)


ORACLE_BASES = [0.2, 0.45, 0.7, -0.6, 0.5j, 0.9]


class TestBlockSum:
    """_series_sum in array blocks against the scalar loop it replaced."""

    @pytest.mark.parametrize("q", ORACLE_BASES)
    def test_matches_the_scalar_loop(self, q):
        ctx, specs = family_specs(q)
        for spec in specs:
            for trunc in (None, 7, 40):
                new = series_eval(spec, trunc, ctx)
                old = _loop_sum(_loop_vwp_ratio(spec, ctx), trunc, ctx)
                assert new.terms_used == old.terms_used
                # the arithmetic is the loop's, rounded by NumPy: a few ulps of sum |t|
                scale = sum(map(abs, old.terms))
                assert abs(new.value - old.value) <= 8 * EPS * scale
                assert all(abs(a - b) <= 8 * EPS * scale for a, b in zip(new.terms, old.terms))

    @pytest.mark.parametrize("q", ORACLE_BASES)
    def test_phi_series_match_the_scalar_loop(self, q, rng):
        ctx = QContext(q)
        for _ in range(6):
            nums = tuple(sample_complex(rng, 0.2, 0.9) for _ in range(3))
            dens = tuple(sample_complex(rng, 0.3, 0.9) for _ in range(2))
            spec = PhiSeriesSpec(nums, dens, sample_complex(rng, 0.1, 0.5))
            new = series_eval(spec, None, ctx)
            old = _loop_sum(_loop_ratio(nums, dens, spec.argument, ctx), None, ctx)
            assert new.terms_used == old.terms_used
            assert abs(new.value - old.value) <= 8 * EPS * sum(map(abs, old.terms))

    def test_pole_before_the_stop_raises_with_its_index(self, ctx):
        spec = PhiSeriesSpec((0.4, 0.3), (1 / ctx.q ** 5,), 0.2)
        for trunc in (None, 6, 200):
            with pytest.raises(ZeroDenominator, match=r"hits q\^\(-5\)"):
                series_eval(spec, trunc, ctx)
        # the block function reports the first pole of its block with its index;
        # the lead factor 1 - a q^(2k) comes before the denominators
        ratio = term_ratio([((0.5,), (ctx.q ** -3,), 0.1, ctx.q ** -6)], ctx)
        with np.errstate(divide="ignore", invalid="ignore"):
            _, [(offset, error)] = ratio(2, q_powers(ctx.q ** 2, 4, ctx)[:4])
        assert offset == 1 and "vanished at k=3" in str(error)

    def test_pole_after_the_stop_is_never_reached(self, ctx):
        # t_k shrinks like 1e-9^k, so the sum stops at k = 2, before the pole at
        # k = 6 that the first block of geometric_depth(0.45) = 49 ratios holds;
        # a terminating series stops at its zero term t_2 before the pole at k = 9
        fast = PhiSeriesSpec((0.4, 0.3), (1 / ctx.q ** 6,), 1e-9)
        ending = PhiSeriesSpec((1 / ctx.q, 0.3), (1 / ctx.q ** 9,), 0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert series_eval(fast, None, ctx).terms_used == 3
            assert series_eval(ending, None, ctx).terms_used == 3
            assert series_eval(ending, 40, ctx).terms_used == 3
            # nor does an overflow past the stop warn
            blow_up = _scalar_blocks(lambda k: 1e-9 if k < 3 else 1e300)
            assert _series_sum(blow_up, [None], ctx)[0].terms_used == 3
        for summed in (lambda: series_eval(fast, 10, ctx),
                       lambda: _loop_sum(_loop_ratio((0.4, 0.3), (1 / ctx.q ** 6,), 1e-9, ctx),
                                         10, ctx)):
            with pytest.raises(ZeroDenominator, match=r"hits q\^\(-6\)"):
                summed()

    def test_growing_run_straddling_two_blocks(self):
        # q = 0.2: blocks of 48, 96, 192 ratios start at k = 0, 48, 144; the terms
        # shrink slowly (no stop) until k = 140, then grow across k = 144
        ctx = QContext(0.2)
        assert geometric_depth(0.2) == 24

        def ratio(k):
            return 1.001 if k >= 140 else 0.999

        for summed in (lambda: _series_sum(_scalar_blocks(ratio), [None], ctx)[0],
                       lambda: _loop_sum(ratio, None, ctx)):
            with pytest.raises(DivergenceSuspected, match=r"at k=148$"):
                summed()
        # seven growing terms are no divergence
        [seven] = _series_sum(_scalar_blocks(lambda k: 0.999 if k < 140 else 1.001 if k < 147
                                             else 0.5), [None], ctx)
        assert seven.terms_used > 148

    @pytest.mark.parametrize("start, at", [(0, 32), (20, 32), (30, 38), (44, 52)])
    def test_growing_run_counts_from_the_settled_depth(self, start, at):
        # growth counts from the ratio at q^24 on, inside the first block of 48
        ctx = QContext(0.2)

        def ratio(k):
            return 1.001 if k >= start else 0.999

        for summed in (lambda: _series_sum(_scalar_blocks(ratio), [None], ctx)[0],
                       lambda: _loop_sum(ratio, None, ctx)):
            with pytest.raises(DivergenceSuspected, match=rf"at k={at}$"):
                summed()

    @pytest.mark.parametrize("q", ORACLE_BASES)
    def test_first_block_holds_twice_the_settled_depth(self, q):
        """A family that stops just past geometric_depth(|q|) is summed in one block.

        A first block of geometric_depth(|q|) keeps every byte, but it measured 8.4% slower
        on the bench's full-high-q workload (faster in 4 of 20 pairs) and 4.7% slower on
        structured-moderate (3 of 8): the extra block costs more than the unused rows save.
        """
        ctx = QContext(q)
        settled = geometric_depth(abs(q))
        sizes = []
        blocks = _scalar_blocks(lambda k: abs(q) * (1.0 + 1.0 / (k + 1)))
        summed = _series_sum(lambda k, x: sizes.append(len(x)) or blocks(k, x), [None], ctx)[0]
        assert settled < summed.terms_used <= 2 * settled
        assert sizes == [2 * settled]

    def test_terminating_series_ends_at_its_zero_term(self, ctx):
        spec = PhiSeriesSpec((ctx.q ** -3, 0.4), (0.6,), 0.3)
        for trunc in (None, 4, 12, 200):
            tb = series_eval(spec, trunc, ctx)
            assert tb.terms_used == 5 and tb.terms[-1] == 0 and tb.terms[3] != 0

    @pytest.mark.parametrize("q", [0.2, 0.7, -0.6])
    def test_max_terms_cap(self, q):
        ctx, specs = family_specs(q)
        capped = replace(ctx, max_terms=16)
        for spec in specs:
            with pytest.raises(TruncationFailure) as new:
                series_eval(spec, None, capped)
            with pytest.raises(TruncationFailure) as old:
                _loop_sum(_loop_vwp_ratio(spec, capped), None, capped)
            assert str(new.value) == str(old.value)

    @pytest.mark.parametrize("q", ORACLE_BASES)
    def test_adaptive_and_fixed_terms_share_their_prefix(self, q):
        ctx, specs = family_specs(q)
        for spec in specs:
            adaptive = series_eval(spec, None, ctx)
            n = adaptive.terms_used - 1
            for trunc in (1, 5, n - 1, n, n + 7, 3 * n):
                fixed = series_eval(spec, trunc, ctx).terms
                common = min(len(fixed), n + 1)
                assert fixed[:common] == adaptive.terms[:common]
            # a read past the adaptive sum is the fixed-depth sum, bit for bit
            [longer] = sum_through([spec], [3 * n], ctx, [adaptive])
            assert longer == series_eval(spec, 3 * n, ctx)
