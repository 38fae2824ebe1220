"""Wear-levelling tests: the "perfect balance" assumption of Eq. (6)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.formatting.wear_leveling import (
    DirectPlacement,
    LeastWornPlacement,
    PlacementPolicy,
    RotatingPlacement,
    SectorWearMap,
    simulate_wear,
    zipf_write_workload,
)

SECTORS = 64


def loop_apply(policy, logical_writes, wear):
    """The per-write reference: place, then record, one write at a time."""
    physical = []
    for logical in logical_writes:
        physical.append(policy.place(int(logical), wear))
        wear.record_write(physical[-1])
    return np.array(physical, dtype=np.int64)


class StrideOfThree(PlacementPolicy):
    """A user policy with only ``place``: it takes the generic path."""

    def place(self, logical_sector, wear):
        return (3 * logical_sector + wear.total_writes) % self.sector_count


class OffTheEnd(PlacementPolicy):
    def place(self, logical_sector, wear):
        return self.sector_count


def workloads():
    """(sector count, write sequence) pairs, skewed or sequential."""
    return st.builds(
        lambda sectors, writes, skew, seed: (
            sectors,
            zipf_write_workload(sectors, writes, skew=skew, seed=seed),
        ),
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=600),
        st.sampled_from([0.0, 0.5, 1.0, 1.5, 3.0]),
        st.integers(min_value=0, max_value=2**16),
    )


def assert_same_wear(batch, loop):
    assert np.array_equal(batch._writes, loop._writes)


class TestSectorWearMap:
    def test_counters(self):
        wear = SectorWearMap(4, 100)
        wear.record_write(0)
        wear.record_write(0)
        wear.record_write(3)
        assert wear.total_writes == 3
        assert wear.max_writes == 2
        assert wear.writes_to(0) == 2
        assert wear.writes_to(1) == 0
        assert wear.mean_writes == pytest.approx(0.75)

    def test_efficiency_balanced(self):
        wear = SectorWearMap(4, 100)
        for sector in range(4):
            wear.record_write(sector)
        assert wear.wear_efficiency == 1.0
        assert wear.lifetime_scale() == 1.0

    def test_efficiency_skewed(self):
        wear = SectorWearMap(4, 100)
        for _ in range(4):
            wear.record_write(0)
        assert wear.wear_efficiency == pytest.approx(0.25)

    def test_unwritten_is_perfect(self):
        assert SectorWearMap(4, 100).wear_efficiency == 1.0

    def test_rating_fraction(self):
        wear = SectorWearMap(4, 100)
        for _ in range(10):
            wear.record_write(1)
        assert wear.rating_fraction_used == pytest.approx(0.1)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            SectorWearMap(0, 100)
        with pytest.raises(ConfigurationError):
            SectorWearMap(4, 0)
        wear = SectorWearMap(4, 100)
        with pytest.raises(ConfigurationError):
            wear.record_write(4)
        with pytest.raises(ConfigurationError):
            wear.record_write(-1)


class TestWorkloads:
    def test_sequential_when_unskewed(self):
        writes = zipf_write_workload(8, 20, skew=0.0)
        assert list(writes[:10]) == [0, 1, 2, 3, 4, 5, 6, 7, 0, 1]

    def test_skew_concentrates(self):
        writes = zipf_write_workload(SECTORS, 20_000, skew=1.2, seed=1)
        counts = np.bincount(writes, minlength=SECTORS)
        assert counts[0] > 5 * counts[SECTORS // 2]

    def test_deterministic(self):
        a = zipf_write_workload(SECTORS, 100, skew=1.0, seed=5)
        b = zipf_write_workload(SECTORS, 100, skew=1.0, seed=5)
        assert np.array_equal(a, b)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            zipf_write_workload(0, 10)
        with pytest.raises(ConfigurationError):
            zipf_write_workload(10, 0)
        with pytest.raises(ConfigurationError):
            zipf_write_workload(10, 10, skew=-1)


class TestPolicies:
    def test_streaming_workload_is_balanced_under_direct(self):
        # The paper's streaming pattern (sequential overwrite) is
        # naturally balanced: Equation (6)'s assumption holds.
        writes = zipf_write_workload(SECTORS, SECTORS * 50, skew=0.0)
        result = simulate_wear(DirectPlacement(SECTORS), writes)
        assert result.wear_efficiency == 1.0
        assert result.lifetime_penalty == 1.0

    def test_skewed_workload_breaks_direct(self):
        writes = zipf_write_workload(SECTORS, 20_000, skew=1.2, seed=2)
        result = simulate_wear(DirectPlacement(SECTORS), writes)
        assert result.wear_efficiency < 0.4

    def test_rotation_recovers_balance(self):
        writes = zipf_write_workload(SECTORS, 50_000, skew=1.2, seed=2)
        direct = simulate_wear(DirectPlacement(SECTORS), writes)
        rotating = simulate_wear(
            RotatingPlacement(SECTORS, rotation_period=16), writes
        )
        assert rotating.wear_efficiency > 2 * direct.wear_efficiency

    def test_least_worn_is_optimal(self):
        writes = zipf_write_workload(SECTORS, 20_000, skew=1.5, seed=3)
        greedy = simulate_wear(LeastWornPlacement(SECTORS), writes)
        # Greedy achieves near-perfect balance regardless of skew.
        assert greedy.wear_efficiency > 0.99

    def test_least_worn_upper_bounds_others(self):
        writes = zipf_write_workload(SECTORS, 20_000, skew=1.0, seed=4)
        greedy = simulate_wear(LeastWornPlacement(SECTORS), writes)
        for policy in (
            DirectPlacement(SECTORS),
            RotatingPlacement(SECTORS, rotation_period=64),
        ):
            other = simulate_wear(policy, writes)
            assert greedy.wear_efficiency >= other.wear_efficiency - 1e-9

    def test_result_fields(self):
        writes = zipf_write_workload(8, 64, skew=0.0)
        result = simulate_wear(DirectPlacement(8), writes)
        assert result.policy == "DirectPlacement"
        assert result.total_writes == 64
        assert result.mean_writes == pytest.approx(8.0)

    def test_rotation_period_validation(self):
        with pytest.raises(ConfigurationError):
            RotatingPlacement(SECTORS, rotation_period=0)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_efficiency_always_in_unit_interval(self, seed):
        writes = zipf_write_workload(16, 2_000, skew=1.0, seed=seed)
        for policy in (
            DirectPlacement(16),
            RotatingPlacement(16, rotation_period=8),
            LeastWornPlacement(16),
        ):
            result = simulate_wear(policy, writes)
            assert 0 < result.wear_efficiency <= 1.0


class TestBatchParity:
    """``apply`` places exactly what the per-write loop places."""

    @given(workloads(), st.integers(min_value=1, max_value=50))
    @settings(max_examples=60, deadline=None)
    def test_builtin_policies_match_loop(self, workload, period):
        sectors, writes = workload
        for make in (
            lambda: DirectPlacement(sectors),
            lambda: RotatingPlacement(sectors, rotation_period=period),
            lambda: LeastWornPlacement(sectors),
        ):
            batch_wear = SectorWearMap(sectors, 100)
            loop_wear = SectorWearMap(sectors, 100)
            placed = make().apply(writes, batch_wear)
            assert placed.dtype == np.int64
            assert np.array_equal(placed, loop_apply(make(), writes, loop_wear))
            assert_same_wear(batch_wear, loop_wear)

    @given(
        st.integers(min_value=1, max_value=40),
        st.integers(min_value=1, max_value=50),
        st.lists(
            st.integers(min_value=0, max_value=300), min_size=2, max_size=3
        ),
        st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_rotation_state_carries_across_calls(
        self, sectors, period, lengths, seed
    ):
        rng = np.random.default_rng(seed)
        batch = RotatingPlacement(sectors, rotation_period=period)
        loop = RotatingPlacement(sectors, rotation_period=period)
        batch_wear = SectorWearMap(sectors, 100)
        loop_wear = SectorWearMap(sectors, 100)
        for length in lengths:
            writes = rng.integers(0, sectors, size=length)
            assert np.array_equal(
                batch.apply(writes, batch_wear),
                loop_apply(loop, writes, loop_wear),
            )
            assert batch._offset == loop._offset
            assert batch._writes_seen == loop._writes_seen
        assert_same_wear(batch_wear, loop_wear)

    @given(
        st.lists(
            st.integers(min_value=0, max_value=12), min_size=1, max_size=24
        ),
        st.integers(min_value=0, max_value=200),
    )
    @settings(max_examples=80, deadline=None)
    def test_least_worn_water_fills_a_worn_map(self, start, total):
        sectors = len(start)
        batch_wear = SectorWearMap(sectors, 100)
        loop_wear = SectorWearMap(sectors, 100)
        for wear in (batch_wear, loop_wear):
            wear._writes[:] = start
        writes = np.zeros(total, dtype=np.int64)
        assert np.array_equal(
            LeastWornPlacement(sectors).apply(writes, batch_wear),
            loop_apply(LeastWornPlacement(sectors), writes, loop_wear),
        )
        assert_same_wear(batch_wear, loop_wear)

    @given(workloads())
    @settings(max_examples=30, deadline=None)
    def test_custom_policy_takes_the_generic_path(self, workload):
        sectors, writes = workload
        batch_wear = SectorWearMap(sectors, 100)
        loop_wear = SectorWearMap(sectors, 100)
        assert np.array_equal(
            StrideOfThree(sectors).apply(writes, batch_wear),
            loop_apply(StrideOfThree(sectors), writes, loop_wear),
        )
        assert_same_wear(batch_wear, loop_wear)
        result = simulate_wear(StrideOfThree(sectors), writes)
        assert result.policy == "StrideOfThree"
        assert result.max_writes == loop_wear.max_writes

    def test_custom_policy_out_of_range_raises(self):
        with pytest.raises(ConfigurationError, match="outside 0..3"):
            simulate_wear(OffTheEnd(4), np.arange(8))

    def test_record_many_validates_before_counting(self):
        wear = SectorWearMap(4, 100)
        with pytest.raises(ConfigurationError, match="sector 4 outside"):
            wear.record_many(np.array([0, 1, 4]))
        with pytest.raises(ConfigurationError, match="sector -1 outside"):
            wear.record_many(np.array([-1]))
        assert wear.total_writes == 0
        wear.record_many(np.array([3, 3, 0]))
        assert wear.writes_to(3) == 2
        assert wear.writes_to(0) == 1

    def test_empty_sequence_records_nothing(self):
        for policy in (
            DirectPlacement(8),
            RotatingPlacement(8, rotation_period=3),
            LeastWornPlacement(8),
            StrideOfThree(8),
        ):
            result = simulate_wear(policy, np.array([], dtype=np.int64))
            assert result.total_writes == 0
            assert result.wear_efficiency == 1.0
