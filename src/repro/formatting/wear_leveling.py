"""Wear-levelling across sectors: the assumption behind Equation (6).

§III.C.2 derives the probes lifetime "assuming a perfect balance in
writing across all probes".  Striping already balances wear across
probes *within* a sector; whether wear balances across *sectors*
depends on the write-placement policy and the workload's skew.  This
module makes that assumption executable:

* :class:`SectorWearMap` — per-sector write counters for a formatted
  device,
* placement policies — :class:`DirectPlacement` (logical = physical,
  no levelling), :class:`RotatingPlacement` (start-shifted round robin,
  the classic log-style leveller), :class:`LeastWornPlacement` (greedy
  optimum, an upper bound),
* :func:`simulate_wear` — drive a policy with a (possibly skewed)
  write workload and report the *wear-levelling efficiency*: the ratio
  of achieved lifetime (limited by the most-worn sector) to the ideal
  perfectly-balanced lifetime that Equation (6) assumes.

A policy places a whole write sequence at once through
:meth:`PlacementPolicy.apply`.  The base method is the reference
per-write loop (``place`` then ``record_write``), so any subclass that
only defines ``place`` works unchanged; the three built-in policies
override it with exact array forms (a modulo, a floor-divided rotation
offset, a water-fill) that place and record every write in one numpy
pass, bit-identical to the loop.

A streaming workload that records over the medium front-to-back is
naturally balanced (efficiency ~1, vindicating the paper); a skewed
file-system workload under direct placement is not, and the levelling
policies recover most of the gap.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass

import numpy as np

from ..errors import ConfigurationError


class SectorWearMap:
    """Write counters for every physical sector of a formatted device."""

    def __init__(self, sector_count: int, write_cycle_rating: float):
        if sector_count <= 0:
            raise ConfigurationError("sector_count must be > 0")
        if write_cycle_rating <= 0:
            raise ConfigurationError("write_cycle_rating must be > 0")
        self.sector_count = sector_count
        self.write_cycle_rating = write_cycle_rating
        self._writes = np.zeros(sector_count, dtype=np.int64)

    def record_write(self, physical_sector: int) -> None:
        """Count one overwrite of ``physical_sector``."""
        if not 0 <= physical_sector < self.sector_count:
            raise ConfigurationError(
                f"sector {physical_sector} outside 0..{self.sector_count - 1}"
            )
        self._writes[physical_sector] += 1

    def record_many(self, physical_sectors: np.ndarray) -> None:
        """Count one overwrite per entry of ``physical_sectors``.

        Validates every sector before counting any, with the same error
        :meth:`record_write` raises.
        """
        physical = np.asarray(physical_sectors, dtype=np.int64)
        outside = (physical < 0) | (physical >= self.sector_count)
        if outside.any():
            raise ConfigurationError(
                f"sector {int(physical[outside][0])} outside "
                f"0..{self.sector_count - 1}"
            )
        self._writes += np.bincount(physical, minlength=self.sector_count)

    # -- statistics -----------------------------------------------------------

    @property
    def total_writes(self) -> int:
        """Total sector writes recorded."""
        return int(self._writes.sum())

    @property
    def max_writes(self) -> int:
        """Writes to the most-worn sector (the lifetime limiter)."""
        return int(self._writes.max())

    @property
    def mean_writes(self) -> float:
        """Mean writes per sector (the perfectly-balanced figure)."""
        return float(self._writes.mean())

    def writes_to(self, physical_sector: int) -> int:
        """Writes recorded against one sector."""
        return int(self._writes[physical_sector])

    @property
    def wear_efficiency(self) -> float:
        """Achieved fraction of the perfectly-balanced lifetime.

        ``mean / max`` of the per-sector write counts: 1.0 means the
        device dies exactly when Equation (6) predicts; 0.1 means the
        hottest sector burns out at a tenth of the ideal lifetime.
        Defined as 1.0 for an unwritten device.
        """
        if self.max_writes == 0:
            return 1.0
        return self.mean_writes / self.max_writes

    @property
    def rating_fraction_used(self) -> float:
        """Fraction of the hottest sector's write rating consumed."""
        return self.max_writes / self.write_cycle_rating

    def lifetime_scale(self) -> float:
        """Multiplier to apply to Equation (6)'s lifetime.

        Equation (6) assumes balance; the achieved lifetime is the ideal
        one scaled by :attr:`wear_efficiency`.
        """
        return self.wear_efficiency


class PlacementPolicy(ABC):
    """Maps logical sector writes to physical sectors."""

    def __init__(self, sector_count: int):
        if sector_count <= 0:
            raise ConfigurationError("sector_count must be > 0")
        self.sector_count = sector_count

    @abstractmethod
    def place(self, logical_sector: int, wear: SectorWearMap) -> int:
        """Physical sector to absorb a write of ``logical_sector``."""

    def apply(
        self, logical_writes: np.ndarray, wear: SectorWearMap
    ) -> np.ndarray:
        """Place and record a whole write sequence; return the placements.

        The base method is the reference loop: :meth:`place` each write
        in turn and record it on ``wear`` before placing the next.  The
        built-in policies override it with an exact array form, so a
        subclass of one of them that overrides :meth:`place` must also
        override :meth:`apply` (or derive from :class:`PlacementPolicy`
        directly) for its ``place`` to take effect.
        """
        physical = np.empty(len(logical_writes), dtype=np.int64)
        for index, logical in enumerate(logical_writes):
            sector = self.place(int(logical), wear)
            wear.record_write(sector)
            physical[index] = sector
        return physical


def _as_sectors(logical_writes: np.ndarray) -> np.ndarray:
    """Logical writes as int64, truncated like the loop's ``int()``."""
    return np.asarray(logical_writes).astype(np.int64, copy=False)


class DirectPlacement(PlacementPolicy):
    """No levelling: logical address = physical address (baseline)."""

    def place(self, logical_sector: int, wear: SectorWearMap) -> int:
        return logical_sector % self.sector_count

    def apply(
        self, logical_writes: np.ndarray, wear: SectorWearMap
    ) -> np.ndarray:
        physical = _as_sectors(logical_writes) % self.sector_count
        wear.record_many(physical)
        return physical


class RotatingPlacement(PlacementPolicy):
    """Start-shifted placement: the mapping rotates every N writes.

    The classic cheap leveller: a single offset register shifts the
    whole logical-to-physical mapping by one sector every
    ``rotation_period`` writes, so hot logical sectors sweep across the
    medium over time.
    """

    def __init__(self, sector_count: int, rotation_period: int = 64):
        super().__init__(sector_count)
        if rotation_period <= 0:
            raise ConfigurationError("rotation_period must be > 0")
        self.rotation_period = rotation_period
        self._writes_seen = 0
        self._offset = 0

    def place(self, logical_sector: int, wear: SectorWearMap) -> int:
        physical = (logical_sector + self._offset) % self.sector_count
        self._writes_seen += 1
        if self._writes_seen % self.rotation_period == 0:
            self._offset = (self._offset + 1) % self.sector_count
        return physical

    def apply(
        self, logical_writes: np.ndarray, wear: SectorWearMap
    ) -> np.ndarray:
        # Write i sees the offset advanced once per period boundary
        # crossed since this call began.
        logical = _as_sectors(logical_writes)
        seen = self._writes_seen
        turns = (
            seen + np.arange(len(logical), dtype=np.int64)
        ) // self.rotation_period - seen // self.rotation_period
        physical = (logical + self._offset + turns) % self.sector_count
        self._writes_seen = seen + len(logical)
        self._offset = (
            self._offset
            + self._writes_seen // self.rotation_period
            - seen // self.rotation_period
        ) % self.sector_count
        wear.record_many(physical)
        return physical


class LeastWornPlacement(PlacementPolicy):
    """Greedy optimum: always write the least-worn sector.

    Ignores read locality entirely (a real device would pay remapping
    metadata); serves as the achievable upper bound on levelling.
    """

    def place(self, logical_sector: int, wear: SectorWearMap) -> int:
        return int(np.argmin(wear._writes))

    def apply(
        self, logical_writes: np.ndarray, wear: SectorWearMap
    ) -> np.ndarray:
        # Water-fill: ``argmin`` takes the lowest index among the least
        # worn, so each pass writes, in index order, every sector whose
        # starting count is at or below the current level.  Once the
        # level reaches the starting maximum that is every sector:
        # plain round robin from sector 0.
        total = len(logical_writes)
        start = wear._writes
        levels = np.unique(start)
        passes: list[np.ndarray] = []
        placed = 0
        for level, next_level in zip(levels[:-1], levels[1:]):
            if placed >= total:
                break
            sectors = np.flatnonzero(start <= level)
            repeats = min(
                int(next_level - level), -(-(total - placed) // len(sectors))
            )
            passes.append(np.tile(sectors, repeats))
            placed += len(sectors) * repeats
        passes.append(
            np.arange(max(total - placed, 0), dtype=np.int64) % len(start)
        )
        physical = np.concatenate(passes)[:total]
        wear.record_many(physical)
        return physical


@dataclass(frozen=True)
class WearSimulationResult:
    """Outcome of :func:`simulate_wear`."""

    policy: str
    sector_count: int
    total_writes: int
    max_writes: int
    mean_writes: float
    wear_efficiency: float

    @property
    def lifetime_penalty(self) -> float:
        """Factor by which the achieved lifetime falls short of Eq. (6)."""
        if self.wear_efficiency == 0:
            return float("inf")
        return 1.0 / self.wear_efficiency


def zipf_write_workload(
    sector_count: int,
    total_writes: int,
    skew: float = 0.0,
    seed: int = 2011,
) -> np.ndarray:
    """Logical-sector write sequence with Zipf-like skew.

    ``skew = 0`` gives the uniform (streaming, front-to-back) pattern
    the paper assumes; larger values concentrate writes on few sectors
    (file-system metadata hot spots).
    """
    if sector_count <= 0 or total_writes <= 0:
        raise ConfigurationError("counts must be > 0")
    if skew < 0:
        raise ConfigurationError("skew must be >= 0")
    if skew == 0:
        # Sequential overwrite: the streaming-recorder pattern.
        return np.arange(total_writes, dtype=np.int64) % sector_count
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, sector_count + 1, dtype=np.float64)
    weights = ranks ** (-skew)
    weights /= weights.sum()
    return rng.choice(sector_count, size=total_writes, p=weights)


def simulate_wear(
    policy: PlacementPolicy,
    logical_writes: np.ndarray,
    write_cycle_rating: float = 100.0,
) -> WearSimulationResult:
    """Drive a placement policy with a write sequence; report balance."""
    wear = SectorWearMap(policy.sector_count, write_cycle_rating)
    policy.apply(logical_writes, wear)
    return WearSimulationResult(
        policy=type(policy).__name__,
        sector_count=policy.sector_count,
        total_writes=wear.total_writes,
        max_writes=wear.max_writes,
        mean_writes=wear.mean_writes,
        wear_efficiency=wear.wear_efficiency,
    )
