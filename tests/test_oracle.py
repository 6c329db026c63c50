"""Checks for the independent cross-validation tools.

The birth-death solver and the reference simulator exist to validate the
closed forms and the main simulator, so they are tested against hand-derived
values and structural invariants only, never against the code they audit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np
import pytest

from uniprio.analytics import SystemParams
from uniprio.des import SimConfig, write_snapshots_csv, write_trace_csv
from uniprio.oracle import (
    BirthDeathSpec,
    birth_death_stationary,
    default_truncation,
    finite_difference,
    reference_simulate,
)


class TestBirthDeathStationary:
    def test_two_server_head_probabilities(self) -> None:
        # By hand: pi_1 = 1.5 pi_0, pi_2 = 1.125 pi_0, geometric ratio 0.75
        # afterwards, so the normalizer is pi_0 (1 + 1.5 + 1.125 / 0.25) = 7 pi_0.
        spec = BirthDeathSpec(1.5, 2, default_truncation(1.5, 2))
        pi = birth_death_stationary(spec)
        assert pi[0] == pytest.approx(1 / 7, rel=1e-13)
        assert pi[1] == pytest.approx(3 / 14, rel=1e-13)
        assert pi[2] == pytest.approx(9 / 56, rel=1e-13)
        assert pi[3] == pytest.approx(27 / 224, rel=1e-13)

    def test_single_server_is_geometric(self) -> None:
        spec = BirthDeathSpec(0.5, 1, default_truncation(0.5, 1))
        pi = birth_death_stationary(spec)
        ks = np.arange(len(pi))
        expected = 0.5 * 0.5**ks
        np.testing.assert_allclose(pi[:40], expected[:40], rtol=1e-12)

    @pytest.mark.parametrize(
        "rate,servers",
        [(0.3, 1), (1.5, 2), (2.7, 3), (4.9, 5), (0.05, 2)],
    )
    def test_detailed_balance(self, rate: float, servers: int) -> None:
        spec = BirthDeathSpec(rate, servers, default_truncation(rate, servers))
        pi = birth_death_stationary(spec)
        for k in range(min(len(pi) - 1, 200)):
            flow_up = pi[k] * rate
            flow_down = pi[k + 1] * min(k + 1, servers)
            assert abs(flow_up - flow_down) < 1e-13

    def test_sums_to_one(self) -> None:
        spec = BirthDeathSpec(2.7, 3, default_truncation(2.7, 3))
        pi = birth_death_stationary(spec)
        assert abs(pi.sum() - 1.0) < 1e-14

    def test_truncation_insensitive(self) -> None:
        base = default_truncation(1.9, 2)
        short = birth_death_stationary(BirthDeathSpec(1.9, 2, base))
        long = birth_death_stationary(BirthDeathSpec(1.9, 2, 2 * base))
        np.testing.assert_allclose(short, long[: len(short)], atol=1e-12)

    def test_rejects_unstable_rate(self) -> None:
        with pytest.raises(ValueError):
            birth_death_stationary(BirthDeathSpec(2.0, 2, 100))
        with pytest.raises(ValueError):
            birth_death_stationary(BirthDeathSpec(2.5, 2, 100))

    @pytest.mark.parametrize(
        "rate, truncation, field",
        [("0.5", 10, "arrival_rate"), (True, 10, "arrival_rate"), (0.5, True, "truncation")],
    )
    def test_rejects_mistyped_settings(self, rate, truncation, field) -> None:
        with pytest.raises(ValueError, match=field):
            BirthDeathSpec(rate, 1, truncation)
        assert BirthDeathSpec(np.float64(0.5), 1, 10).arrival_rate == 0.5

    def test_zero_rate_degenerates_to_empty(self) -> None:
        pi = birth_death_stationary(BirthDeathSpec(0.0, 3, 10))
        assert pi[0] == 1.0
        assert pi[1:].sum() == 0.0

    def test_near_critical_rescaling_stays_normalized(self) -> None:
        # Load 0.999 needs thousands of states; the in-loop rescale must not
        # corrupt the normalization.
        rate, servers = 2.997, 3
        spec = BirthDeathSpec(rate, servers, default_truncation(rate, servers))
        pi = birth_death_stationary(spec)
        assert abs(pi.sum() - 1.0) < 1e-12
        assert np.all(pi >= 0.0)


class TestDefaultTruncation:
    def test_grows_with_load(self) -> None:
        assert default_truncation(1.5, 2) == 2 + math.ceil(60 / 0.25)
        assert default_truncation(0.5, 1) < default_truncation(0.9, 1)

    def test_rejects_load_at_or_above_one(self) -> None:
        with pytest.raises(ValueError):
            default_truncation(2.0, 2)

    def test_capped(self) -> None:
        assert default_truncation(1 - 1e-12, 1) <= 10**6


class TestFiniteDifference:
    def test_quadratic(self) -> None:
        d = finite_difference(lambda x: x * x, 0.3, h=1e-6)
        assert d == pytest.approx(0.6, abs=1e-9)

    def test_unwraps_value_attribute(self) -> None:
        class Boxed:
            def __init__(self, value: float) -> None:
                self.value = value

        d = finite_difference(lambda x: Boxed(3.0 * x), 0.5)
        assert d == pytest.approx(3.0, rel=1e-8)

    def test_rejects_bad_step(self) -> None:
        with pytest.raises(ValueError):
            finite_difference(lambda x: x, 0.5, h=0.0)

    def test_rejects_infinite_endpoint(self) -> None:
        with pytest.raises(ValueError):
            finite_difference(lambda x: math.inf, 0.5)


class TestReferenceSimulate:
    def test_conservation_and_censoring(self) -> None:
        trace = reference_simulate(SimConfig(SystemParams(1.5, 2), 500.0, seed=3))
        departed = [r for r in trace.records if not r.is_censored]
        censored = [r for r in trace.records if r.is_censored]
        assert len(departed) + len(censored) == len(trace.records)
        assert trace.final_population == len(censored)
        assert len(trace.snapshots) == len(trace.records)
        for r in departed:
            assert r.arrival_time <= r.last_service_entry <= r.departure_time
            assert r.departure_time <= 500.0

    def test_reproducible(self) -> None:
        cfg = SimConfig(SystemParams(2.0, 3), 200.0, seed=11)
        a = reference_simulate(cfg)
        b = reference_simulate(cfg)
        assert a.records == b.records
        assert a.snapshots == b.snapshots

    def test_zero_horizon(self) -> None:
        trace = reference_simulate(SimConfig(SystemParams(1.0, 1), 0.0, seed=0))
        assert trace.records == ()
        assert trace.event_count == 0

    def test_low_priority_customers_wait(self) -> None:
        # Under heavy preemption some departed customer should have waited.
        trace = reference_simulate(SimConfig(SystemParams(0.9, 1), 2000.0, seed=5))
        waits = [r.waiting for r in trace.records if not r.is_censored]
        assert max(waits) > 0.0
        assert min(waits) >= 0.0


# SHA-256 of write_trace_csv bytes followed by write_snapshots_csv bytes of
# reference runs on one, two and fifty servers, and with a quantile map that
# rounds displays to one decimal (so displays tie). They pin the reference's
# draw order: one uniform per arrival level, one per service entry, one per
# interarrival gap.
REFERENCE_DIGESTS = {
    "c1": (SimConfig(SystemParams(0.9, 1), 300.0, 5),
           "4a839467ff4953c21b27deee7eab87947fa72f42615776d40407800bee0b8c10"),
    "c2": (SimConfig(SystemParams(1.5, 2), 300.0, 2),
           "86d31f5f41c9e3cb0b19226b55eb248dccd05fe0d4b0e068326ddde1be37a81f"),
    "c50": (SimConfig(SystemParams(45.0, 50), 8.0, 4),
            "f476a162ce31001379fc775b317f8c8531be931fbf8d0eddfb57547889ba49e4"),
    "quantile": (SimConfig(SystemParams(3.0, 2), 60.0, 7, priority_quantile=lambda u: round(u, 1)),
                 "d26dc6b18496850c11a5a032bd8b222b88af9263ada3ac5c1653fca6f17e372e"),
}


@pytest.mark.parametrize("name", sorted(REFERENCE_DIGESTS))
def test_reference_csv_bytes_are_pinned(tmp_path, name) -> None:
    config, digest = REFERENCE_DIGESTS[name]
    trace = reference_simulate(config)
    write_trace_csv(trace, tmp_path / "trace.csv")
    write_snapshots_csv(trace.snapshots, tmp_path / "snaps.csv")
    data = (tmp_path / "trace.csv").read_bytes() + (tmp_path / "snaps.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest


@pytest.mark.parametrize("name", sorted(REFERENCE_DIGESTS))
def test_reference_csv_bytes_are_pinned_from_the_trace(tmp_path, name) -> None:
    config, digest = REFERENCE_DIGESTS[name]
    trace = reference_simulate(config)
    write_trace_csv(trace, tmp_path / "trace.csv")
    write_snapshots_csv(trace, tmp_path / "snaps.csv")
    data = (tmp_path / "trace.csv").read_bytes() + (tmp_path / "snaps.csv").read_bytes()
    assert hashlib.sha256(data).hexdigest() == digest
