"""Closed-form layer: frozen values, cross-validation, and edge cases.

Expected numbers come from three independent sources: hand-derived
rationals for small cases, the birth-death oracle for distributions, and
finite differences for the derivative identities. Nothing here is compared
against its own implementation.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import pickle
import random

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from uniprio.analytics import (
    INFINITY,
    ExtendedReal,
    RegimeTag,
    SystemParams,
    UnstableRegionError,
    expected_tail_count,
    is_stable,
    mean_measure,
    p0_derivative,
    p0_mass,
    priority_density,
    sojourn_time,
    stability_threshold,
    tail_pmf,
    waiting_time,
)
from uniprio import analytics
from uniprio.oracle import BirthDeathSpec, birth_death_stationary, default_truncation, finite_difference

TWO_SERVER = SystemParams(1.5, 2)
ONE_SERVER = SystemParams(0.5, 1)


class TestSystemParams:
    @pytest.mark.parametrize("alpha", [0.0, -1.0, math.inf, math.nan])
    def test_rejects_bad_rate(self, alpha: float) -> None:
        with pytest.raises(ValueError):
            SystemParams(alpha, 1)

    @pytest.mark.parametrize("c", [0, -2, 1.5, True])
    def test_rejects_bad_server_count(self, c) -> None:
        with pytest.raises((ValueError, TypeError)):
            SystemParams(1.0, c)

    @pytest.mark.parametrize("alpha", ["1.5", True])
    def test_rejects_non_real_rate(self, alpha) -> None:
        with pytest.raises(ValueError, match="alpha must be a number"):
            SystemParams(alpha, 2)

    @pytest.mark.parametrize("alpha", [3, np.float64(1.5), np.float32(1.5), np.int64(3)])
    def test_accepts_int_and_numpy_rate(self, alpha) -> None:
        assert SystemParams(alpha, 2).alpha == float(alpha)

    def test_load(self) -> None:
        assert SystemParams(1.5, 2).load == 0.75


class TestExtendedReal:
    def test_rejects_nan_and_negative(self) -> None:
        with pytest.raises(ValueError):
            ExtendedReal(math.nan)
        with pytest.raises(ValueError):
            ExtendedReal(-0.1)

    def test_finite_accessor(self) -> None:
        assert ExtendedReal(2.5).finite == 2.5
        assert float(ExtendedReal(2.5)) == 2.5
        assert not INFINITY.is_finite
        with pytest.raises(ValueError):
            INFINITY.finite

    def test_is_a_frozen_dataclass(self) -> None:
        x = ExtendedReal(2.5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            x.value = 3.0
        assert x == ExtendedReal(np.float64(2.5)) and hash(x) == hash(ExtendedReal(2.5))
        assert {x, ExtendedReal(2.5), INFINITY, ExtendedReal(math.inf)} == {x, INFINITY}
        assert dataclasses.replace(x, value=4.0) == ExtendedReal(4.0)
        with pytest.raises(ValueError, match="nonnegative"):
            dataclasses.replace(x, value=-1.0)
        assert repr(x) == "ExtendedReal(2.5)" and repr(INFINITY) == "ExtendedReal(inf)"

    def test_is_slotted_and_survives_copies(self) -> None:
        x = ExtendedReal(1.5)
        assert not hasattr(x, "__dict__") and ExtendedReal.__slots__ == ("value",)
        for value in (x, INFINITY):
            for clone in (pickle.loads(pickle.dumps(value)), copy.deepcopy(value), copy.copy(value)):
                assert type(clone) is ExtendedReal and clone == value and hash(clone) == hash(value)
                # A restored value is as frozen and as replaceable as the original.
                with pytest.raises(dataclasses.FrozenInstanceError):
                    clone.value = 2.0
                with pytest.raises(dataclasses.FrozenInstanceError):
                    del clone.value
                assert clone == value and dataclasses.replace(clone, value=2.0) == ExtendedReal(2.0)


class TestStability:
    def test_strict_inequality(self) -> None:
        critical = SystemParams(2.0, 2)
        assert not is_stable(critical, 0.0)
        assert is_stable(critical, 1e-12)
        assert is_stable(TWO_SERVER, 0.0)

    def test_threshold_exact_values(self) -> None:
        heavy = stability_threshold(SystemParams(5.0, 2))
        assert heavy.tag is RegimeTag.CRITICAL_OR_UNSTABLE
        assert heavy.p_star == 0.6  # 1 - 2/5 is exact in binary floating point
        assert stability_threshold(SystemParams(2.0, 2)).p_star == 0.0
        light = stability_threshold(TWO_SERVER)
        assert light.tag is RegimeTag.STABLE
        assert light.p_star is None

    def test_everything_above_threshold_is_stable(self) -> None:
        params = SystemParams(5.0, 2)
        p_star = stability_threshold(params).p_star
        assert not is_stable(params, p_star)
        assert is_stable(params, math.nextafter(p_star, 1.0))


class TestP0Mass:
    def test_frozen_two_server_value(self) -> None:
        assert p0_mass(TWO_SERVER, 0.0) == pytest.approx(1 / 7, rel=1e-15)

    def test_single_server_closed_form(self) -> None:
        for p in [0.0, 0.25, 0.5, 0.9]:
            a = (1 - p) * 0.5
            assert p0_mass(ONE_SERVER, p) == pytest.approx(1 - a, rel=1e-14)

    def test_top_of_range_is_certain_emptiness(self) -> None:
        assert p0_mass(TWO_SERVER, 1.0) == 1.0
        assert p0_mass(SystemParams(40.0, 3), 1.0) == 1.0

    def test_monotone_in_level(self) -> None:
        values = [p0_mass(TWO_SERVER, p) for p in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]]
        assert values == sorted(values)

    def test_unstable_region_raises(self) -> None:
        with pytest.raises(UnstableRegionError):
            p0_mass(SystemParams(5.0, 2), 0.3)

    def test_unstable_region_message(self) -> None:
        with pytest.raises(UnstableRegionError) as info:
            p0_mass(SystemParams(5.0, 2), 0.1)
        message = "no steady state at level p=0.1 for alpha=5.0, c=2: thinned arrival rate 4.5 is not below 2"
        assert isinstance(info.value, ValueError) and str(info.value) == message
        copy = pickle.loads(pickle.dumps(info.value))
        assert type(copy) is UnstableRegionError and str(copy) == message

    @pytest.mark.parametrize("p", [-0.1, 1.1, math.nan])
    def test_rejects_level_outside_unit_interval(self, p: float) -> None:
        with pytest.raises(ValueError):
            p0_mass(TWO_SERVER, p)

    @pytest.mark.parametrize("alpha,c", [(18.0, 25), (30.0, 50), (45.0, 60)])
    def test_many_server_path_matches_oracle(self, alpha: float, c: int) -> None:
        pi = birth_death_stationary(BirthDeathSpec(alpha, c, default_truncation(alpha, c)))
        assert p0_mass(SystemParams(alpha, c), 0.0) == pytest.approx(pi[0], rel=1e-11)


class TestP0Derivative:
    def test_single_server_is_constant(self) -> None:
        # d(1 - (1-p) alpha)/dp = alpha at every level, up to rounding.
        for p in [0.0, 0.3, 0.99, 1.0]:
            assert p0_derivative(ONE_SERVER, p) == pytest.approx(0.5, rel=1e-15)

    def test_top_of_range_for_any_server_count(self) -> None:
        for c in [1, 2, 3, 7, 30]:
            assert p0_derivative(SystemParams(2.5, c), 1.0) == pytest.approx(2.5, rel=1e-12)

    @pytest.mark.parametrize("alpha,c", [(1.5, 2), (2.4, 3), (4.0, 5), (18.0, 25)])
    @pytest.mark.parametrize("p", [0.05, 0.4, 0.85])
    def test_matches_finite_difference(self, alpha: float, c: int, p: float) -> None:
        params = SystemParams(alpha, c)
        fd = finite_difference(lambda q: p0_mass(params, q), p, h=1e-6)
        assert p0_derivative(params, p) == pytest.approx(fd, rel=1e-5)


class TestTailPmf:
    def test_frozen_two_server_values(self) -> None:
        assert tail_pmf(TWO_SERVER, 0.0, 0) == pytest.approx(1 / 7, rel=1e-15)
        assert tail_pmf(TWO_SERVER, 0.0, 1) == pytest.approx(3 / 14, rel=1e-15)
        assert tail_pmf(TWO_SERVER, 0.0, 2) == pytest.approx(9 / 56, rel=1e-15)
        assert tail_pmf(TWO_SERVER, 0.0, 3) == pytest.approx(27 / 224, rel=1e-15)

    def test_frozen_single_server_value(self) -> None:
        assert tail_pmf(ONE_SERVER, 0.0, 2) == 0.125

    def test_single_server_geometric(self) -> None:
        for k in range(12):
            assert tail_pmf(ONE_SERVER, 0.0, k) == pytest.approx(0.5 * 0.5**k, rel=1e-14)

    @pytest.mark.parametrize("alpha,c,p", [(1.5, 2, 0.0), (2.7, 3, 0.2), (4.9, 5, 0.5), (0.9, 1, 0.3)])
    def test_matches_oracle(self, alpha: float, c: int, p: float) -> None:
        rate = (1 - p) * alpha
        pi = birth_death_stationary(BirthDeathSpec(rate, c, default_truncation(rate, c)))
        params = SystemParams(alpha, c)
        for k in range(0, 30):
            assert tail_pmf(params, p, k) == pytest.approx(pi[k], rel=1e-12, abs=1e-300)

    @pytest.mark.parametrize("alpha,c", [(18.0, 25), (30.0, 50), (1500.0, 2000)])
    def test_many_server_path_matches_oracle(self, alpha: float, c: int) -> None:
        pi = birth_death_stationary(BirthDeathSpec(alpha, c, default_truncation(alpha, c)))
        params = SystemParams(alpha, c)
        for k in [0, 1, c - 1, c, c + 1, c + 10]:
            assert tail_pmf(params, 0.0, k) == pytest.approx(pi[k], rel=1e-10)

    def test_normalizes(self) -> None:
        params = SystemParams(2.7, 3)
        total = sum(tail_pmf(params, 0.1, k) for k in range(default_truncation(2.43, 3)))
        assert total == pytest.approx(1.0, abs=1e-9)

    @pytest.mark.parametrize("k", [-1, 1.5, True])
    def test_rejects_bad_count(self, k) -> None:
        with pytest.raises((ValueError, TypeError)):
            tail_pmf(TWO_SERVER, 0.0, k)

    def test_unstable_region_raises(self) -> None:
        with pytest.raises(UnstableRegionError):
            tail_pmf(SystemParams(5.0, 2), 0.0, 0)


class TestExpectedTailCount:
    def test_frozen_two_server_value(self) -> None:
        assert expected_tail_count(TWO_SERVER, 0.0).finite == pytest.approx(24 / 7, rel=1e-14)

    def test_matches_pmf_mean(self) -> None:
        for alpha, c, p in [(1.5, 2, 0.0), (2.7, 3, 0.3), (0.9, 1, 0.0), (4.9, 5, 0.6)]:
            params = SystemParams(alpha, c)
            rate = (1 - p) * alpha
            cutoff = default_truncation(rate, c)
            mean = sum(k * tail_pmf(params, p, k) for k in range(cutoff))
            assert expected_tail_count(params, p).finite == pytest.approx(mean, rel=1e-8)

    def test_infinite_when_unstable(self) -> None:
        assert expected_tail_count(SystemParams(5.0, 2), 0.5) == INFINITY
        assert expected_tail_count(SystemParams(2.0, 2), 0.0) == INFINITY

    def test_empty_tail_at_top(self) -> None:
        assert expected_tail_count(TWO_SERVER, 1.0).finite == 0.0

    def test_decreasing_in_level(self) -> None:
        values = [expected_tail_count(TWO_SERVER, p).finite for p in [0.0, 0.25, 0.5, 0.75, 1.0]]
        assert values == sorted(values, reverse=True)


class TestPriorityDensity:
    def test_frozen_single_server_values(self) -> None:
        assert priority_density(ONE_SERVER, 0.0).finite == 2.0
        assert sojourn_time(ONE_SERVER, 0.0).finite == 4.0
        assert waiting_time(ONE_SERVER, 0.0).finite == 3.0

    def test_single_server_closed_form(self) -> None:
        # alpha / (1 - (1-p) alpha)^2, by differentiating the geometric mean.
        for p in [0.0, 0.2, 0.5, 0.8]:
            a = (1 - p) * 0.5
            assert priority_density(ONE_SERVER, p).finite == pytest.approx(0.5 / (1 - a) ** 2, rel=1e-13)

    @pytest.mark.parametrize("alpha,c", [(1.5, 2), (2.4, 3), (0.5, 1), (18.0, 25), (1990.0, 2000)])
    @pytest.mark.parametrize("p", [0.05, 0.45, 0.9])
    def test_is_negated_slope_of_tail_mean(self, alpha: float, c: int, p: float) -> None:
        params = SystemParams(alpha, c)
        fd = finite_difference(lambda q: expected_tail_count(params, q), p, h=1e-6)
        assert priority_density(params, p).finite == pytest.approx(-fd, rel=1e-5)

    def test_top_of_range_equals_arrival_rate_exactly(self) -> None:
        for alpha, c in [(1.5, 2), (5.0, 2), (0.5, 1), (30.0, 50)]:
            assert priority_density(SystemParams(alpha, c), 1.0).finite == alpha

    def test_infinite_when_unstable(self) -> None:
        assert priority_density(SystemParams(5.0, 2), 0.59) == INFINITY
        assert priority_density(SystemParams(5.0, 2), 0.6) == INFINITY

    def test_exceeds_arrival_rate_inside_the_region(self) -> None:
        # Slowdown means the density can only pile up above the flow rate.
        for p in [0.0, 0.3, 0.7, 0.99]:
            assert priority_density(TWO_SERVER, p).finite > 1.5


class TestDelayCurves:
    def test_linkage(self) -> None:
        for p in [0.0, 0.3, 0.8, 1.0]:
            m = priority_density(TWO_SERVER, p).finite
            s = sojourn_time(TWO_SERVER, p).finite
            w = waiting_time(TWO_SERVER, p).finite
            assert s == pytest.approx(m / 1.5, rel=1e-15)
            # Waiting is computed directly, not as s - 1, so they agree to a few ulp.
            assert abs(w - (s - 1.0)) <= 8 * math.ulp(s)

    def test_top_of_range(self) -> None:
        assert sojourn_time(TWO_SERVER, 1.0).finite == 1.0
        assert waiting_time(TWO_SERVER, 1.0).finite == 0.0

    def test_waiting_never_negative(self) -> None:
        for p in [0.9, 0.99, 0.999, 1.0]:
            assert waiting_time(TWO_SERVER, p).finite >= 0.0

    @pytest.mark.parametrize(
        "params, p, expected",
        [
            # 60-digit mpmath evaluations of the same closed form, computed offline.
            (SystemParams(45.0, 50), 0.9, 1.885685666893355170575415e-34),
            (TWO_SERVER, 0.999, 1.687501582032498848118179e-06),
        ],
    )
    def test_small_waiting_keeps_relative_precision(self, params, p, expected) -> None:
        # sojourn - 1 gives 0.0 in the first case and is off by 3.8e-12 relative in the second.
        assert waiting_time(params, p).finite == pytest.approx(expected, rel=4e-15, abs=0.0)

    def test_infinite_when_unstable(self) -> None:
        assert sojourn_time(SystemParams(5.0, 2), 0.1) == INFINITY
        assert waiting_time(SystemParams(5.0, 2), 0.1) == INFINITY


class TestMeanMeasure:
    def test_difference_of_tail_means(self) -> None:
        lo, hi = 0.2, 0.7
        expected = expected_tail_count(TWO_SERVER, lo).finite - expected_tail_count(TWO_SERVER, hi).finite
        assert mean_measure(TWO_SERVER, lo, hi).finite == pytest.approx(expected, rel=1e-13)

    def test_full_interval(self) -> None:
        assert mean_measure(TWO_SERVER, 0.0, 1.0).finite == pytest.approx(24 / 7, rel=1e-14)

    def test_degenerate_interval_is_zero_even_when_unstable(self) -> None:
        assert mean_measure(SystemParams(5.0, 2), 0.3, 0.3).finite == 0.0

    def test_infinite_when_lower_end_unstable(self) -> None:
        assert mean_measure(SystemParams(5.0, 2), 0.3, 0.9) == INFINITY

    def test_finite_above_threshold(self) -> None:
        assert mean_measure(SystemParams(5.0, 2), 0.7, 0.9).is_finite

    def test_never_negative(self) -> None:
        p = 0.999999999
        assert mean_measure(TWO_SERVER, p, 1.0).finite >= 0.0

    def test_rejects_reversed_or_out_of_range(self) -> None:
        with pytest.raises(ValueError):
            mean_measure(TWO_SERVER, 0.7, 0.2)
        with pytest.raises(ValueError):
            mean_measure(TWO_SERVER, -0.1, 0.5)

    @given(
        lo=st.floats(0.0, 1.0),
        mid=st.floats(0.0, 1.0),
        hi=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_additive_up_to_rounding(self, lo: float, mid: float, hi: float) -> None:
        lo, mid, hi = sorted((lo, mid, hi))
        whole = mean_measure(TWO_SERVER, lo, hi).finite
        split = mean_measure(TWO_SERVER, lo, mid).finite + mean_measure(TWO_SERVER, mid, hi).finite
        assert split == pytest.approx(whole, rel=1e-12, abs=1e-12)

    @given(
        alpha=st.floats(0.05, 100.0),
        c=st.integers(1, 60),
        ulps=st.integers(0, 4),
        gap=st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_finite_whenever_the_lower_end_is_stable(self, alpha: float, c: int, ulps: int, gap: float) -> None:
        # In floating point (1 - b) alpha <= (1 - a) alpha < c for a < b, so level b is
        # stable too and the difference never meets an infinite upper tail mean.
        params = SystemParams(alpha, c)
        a = max(0.0, 1.0 - c / alpha)  # near p*, where rounding could matter
        for _ in range(ulps):
            a = math.nextafter(a, 1.0)
        b = min(1.0, math.nextafter(a, 1.0) + gap * (1.0 - a))
        assume(a < b and is_stable(params, a))
        assert is_stable(params, b) and expected_tail_count(params, b).is_finite
        assert mean_measure(params, a, b).is_finite


class TestComposition:
    """The closed forms compose bit for bit, and every infinite result is INFINITY.

    Each form boxes one float; these are the identities the boxed values must
    keep, on both sides of p*, at p* itself and at the ends of [0, 1].
    """

    SERVERS = [1, 2, 5, 21, 50, 100]

    @staticmethod
    def levels(params: SystemParams) -> list[float]:
        p_star = stability_threshold(params).p_star
        near = [math.nextafter(p_star, 0.0), p_star, math.nextafter(p_star, 1.0)]
        return sorted({0.0, p_star / 2, *near, (1.0 + p_star) / 2, 0.95, 1.0})

    @pytest.mark.parametrize("c", SERVERS)
    def test_density_sojourn_and_waiting(self, c: int) -> None:
        params = SystemParams(1.65 * c, c)
        alpha = params.alpha
        for p in self.levels(params):
            waiting = waiting_time(params, p).value
            density = priority_density(params, p).value
            assert density.hex() == (alpha + alpha * waiting).hex()
            assert sojourn_time(params, p).value.hex() == (density / alpha).hex()

    @pytest.mark.parametrize("c", SERVERS)
    def test_mean_measure_is_the_floored_difference(self, c: int) -> None:
        params = SystemParams(1.65 * c, c)
        levels = self.levels(params)
        for a, b in zip(levels, levels[1:]):
            low, high = expected_tail_count(params, a), expected_tail_count(params, b)
            if low.is_finite:
                diff = low.value - high.finite
                expected = diff if diff > 0.0 else 0.0
            else:
                expected = math.inf
            assert mean_measure(params, a, b).value.hex() == expected.hex()
            assert mean_measure(params, a, a) == ExtendedReal(0.0)

    @pytest.mark.parametrize("c", SERVERS)
    def test_every_infinite_result_is_the_singleton(self, c: int) -> None:
        params = SystemParams(1.65 * c, c)
        levels = self.levels(params)
        results = [
            fn(params, p)
            for p in levels
            for fn in (expected_tail_count, waiting_time, priority_density, sojourn_time)
        ]
        results += [mean_measure(params, a, b) for a, b in zip(levels, levels[1:])]
        infinite = [r for r in results if not r.is_finite]
        assert infinite and all(r is INFINITY for r in infinite)


@given(
    alpha=st.floats(0.05, 6.0),
    c=st.integers(1, 6),
    p=st.floats(0.0, 1.0),
)
@settings(max_examples=80, deadline=None)
def test_pmf_normalization_property(alpha: float, c: int, p: float) -> None:
    params = SystemParams(alpha, c)
    if not is_stable(params, p):
        return
    rate = (1 - p) * alpha
    if rate / c > 0.999:  # keep the truncation cheap
        return
    cutoff = default_truncation(rate, c)
    total = sum(tail_pmf(params, p, k) for k in range(cutoff))
    assert total == pytest.approx(1.0, abs=1e-9)


def _uncached(params: SystemParams, name: str, p: float, arg) -> float:
    # One closed form from a fresh _occupancy walk, with the expressions the
    # module used before it cached anything; inf where it diverges or raises.
    alpha, c = params.alpha, params.c
    if name == "mean_measure":
        if p == arg:
            return 0.0
        if not is_stable(params, p):
            return math.inf
        lower = _uncached(params, "expected_tail_count", p, None)
        diff = lower - _uncached(params, "expected_tail_count", arg, None)
        return diff if diff > 0.0 else 0.0
    if not is_stable(params, p):
        return math.inf
    a = (1.0 - p) * alpha
    pi = analytics._occupancy(a, c)
    g = 1.0 - a / c
    if name == "p0_mass":
        return pi[0]
    if name == "p0_derivative":
        return pi[0] * alpha * analytics._slope_bracket(pi, g)
    if name == "tail_pmf":
        return pi[arg] if arg <= c else pi[c] * (a / c) ** (arg - c)
    if name == "expected_tail_count":
        return a + a * pi[c] / (c * g * g)
    bracket = ((c + 1) - a * analytics._slope_bracket(pi, g)) / (c * g * g) + 2.0 * a / (c * c * g * g * g)
    waiting = pi[c] * bracket
    if name == "waiting_time":
        return waiting
    density = alpha + alpha * waiting
    return density if name == "priority_density" else density / alpha


def _cached(params: SystemParams, name: str, p: float, arg) -> float:
    fn = getattr(analytics, name)
    try:
        value = fn(params, p) if arg is None else fn(params, p, arg)
    except UnstableRegionError:
        return math.inf
    return float(value)


class TestSharedLoadTerms:
    """The per-load terms are cached; no closed form may see the difference.

    The reference, :func:`_uncached`, walks the occupancy afresh for every
    value, so agreement is asserted bit for bit, not within a tolerance.
    """

    GRID = [(0.5, 1), (0.99, 1), (1.5, 2), (5.0, 2), (4.9, 5), (30.0, 21), (1500.0, 2000)]
    LEVELS = [0.0, 0.05, 0.4, 0.61, 0.9, 1.0]
    FORMS = ["p0_mass", "p0_derivative", "expected_tail_count", "priority_density", "sojourn_time", "waiting_time"]

    def cases(self) -> list[tuple[SystemParams, str, float, object]]:
        cases = []
        for alpha, c in self.GRID:
            params = SystemParams(alpha, c)
            for i, p in enumerate(self.LEVELS):
                cases += [(params, name, p, None) for name in self.FORMS]
                cases.append((params, "mean_measure", p, self.LEVELS[min(i + 1, len(self.LEVELS) - 1)]))
                cases += [(params, "tail_pmf", p, k) for k in sorted({0, 1, c - 1, c, c + 3})]
        return cases

    def test_bit_identical_in_any_order(self) -> None:
        cases = self.cases()
        expected = [_uncached(*case).hex() for case in cases]
        analytics._load_terms.cache_clear()
        assert [_cached(*case).hex() for case in cases] == expected
        order = list(range(len(cases)))
        random.Random(15).shuffle(order)
        assert [_cached(*cases[i]).hex() for i in order] == [expected[i] for i in order]
        assert analytics._load_terms.cache_info().hits > 0

    @pytest.mark.parametrize("alpha,c,p", [(0.9, 1, 0.3), (1.5, 2, 0.0), (4.9, 5, 0.5), (30.0, 50, 0.1)])
    def test_tail_pmf_after_warm_cache_matches_oracle(self, alpha: float, c: int, p: float) -> None:
        params = SystemParams(alpha, c)
        analytics._load_terms.cache_clear()
        for fn in (p0_mass, p0_derivative, expected_tail_count, priority_density, waiting_time):
            fn(params, p)
        assert analytics._load_terms.cache_info().currsize == 1
        rate = (1 - p) * alpha
        pi = birth_death_stationary(BirthDeathSpec(rate, c, default_truncation(rate, c)))
        for k in range(c + 3):
            assert tail_pmf(params, p, k) == pytest.approx(pi[k], rel=1e-12, abs=1e-300)

    def test_entries_are_five_floats_and_bounded(self) -> None:
        terms = analytics._load_terms(1500.0, 2000)
        assert len(terms) == 5 and all(type(t) is float for t in terms)
        # The last two are the finished means at that load: level 0 of alpha = 1500.
        params = SystemParams(1500.0, 2000)
        means = [_uncached(params, name, 0.0, None) for name in ("expected_tail_count", "waiting_time")]
        assert list(terms[3:]) == means
        maxsize = analytics._load_terms.cache_info().maxsize
        assert maxsize is not None and 0 < maxsize < 100_000
