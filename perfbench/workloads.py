"""The benchmark's workloads: frozen configs, passes and output checks.

Every workload is closed-loop: one pass is submitted, and the next starts
only when it completes.  A pass writes a fresh store (timed), then reads
it back (a cached re-run, one bulk read, seeded single-result lookups;
each operation timed on its own) and checks every output (untimed).

The model, store and queue are reached only through module attributes
(``sharding.run_sharded_sweep`` rather than a name bound at import), so
the tracer's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import random
import shutil
import tempfile
import time
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Any

import numpy as np

from repro.core import batch
from repro.experiments import list_experiments
from repro.runner import campaign as campaign_mod
from repro.runner import sharding
from repro.runner import store as store_mod

SWEEP = "sweep"
REGISTRY = "registry"

DIGESTS_PATH = Path(__file__).with_name("digests.json")


@dataclass(frozen=True)
class WorkloadConfig:
    """Everything one workload runs with, passed to the program explicitly.

    ``kind`` picks the pass: ``sweep`` writes the Figure 3 sweep into a
    fresh store, ``registry`` runs the registry campaign into one.
    """

    name: str
    kind: str
    why: str
    points: int = 1_000_000
    shards: int = 8
    jobs: int = 2
    executor: str = "pool"
    store_backend: str = "sqlite"
    codec: str = "columnar"
    lookups_per_pass: int = 20
    experiments: tuple[str, ...] | None = None
    target: str = "repro.core.batch:evaluate_rate_grid"
    parameter: str = "rate_bps"
    grid_kind: str = "geomspace"
    grid_start: float = 32e3
    grid_stop: float = 4096e3

    @property
    def grid(self) -> dict[str, Any]:
        return sharding.grid_descriptor(
            self.grid_kind, self.grid_start, self.grid_stop, self.points
        )

    @property
    def output_id(self) -> str:
        """Names the outputs this config produces, for the pinned digests."""
        if self.kind == REGISTRY:
            return "registry:" + ",".join(self.experiments or ("all",))
        return f"{self.target}:{self.grid_kind}:{self.points}"

    def tiny(self) -> "WorkloadConfig":
        """The same workload on a grid or registry small enough to warm up on."""
        if self.kind == REGISTRY:
            return replace(
                self, experiments=("table1", "fig2a", "sim-validate")
            )
        return replace(self, points=2000, shards=2, lookups_per_pass=5)


WORKLOADS: dict[str, WorkloadConfig] = {
    config.name: config
    for config in (
        WorkloadConfig(
            name="fig3-sweep-1m",
            kind=SWEEP,
            why=(
                "the 1M-point Figure 3 sweep, 8 shards on 2 pool workers into "
                "a fresh SQLite store, then read back: the reference write run "
                "through model, codec, store and merge"
            ),
        ),
        WorkloadConfig(
            name="registry-serial",
            kind=REGISTRY,
            why=(
                "all 13 registry experiments, serial, into a fresh JSONL "
                "store, then read back: the second reference run, mostly wear "
                "leveling and the simulator; sweep code barely runs"
            ),
            jobs=1,
            executor="serial",
            store_backend="jsonl",
        ),
    )
}


# -- outputs and their checks ------------------------------------------------


def sweep_digest(values: np.ndarray, columns: dict[str, np.ndarray]) -> str:
    """SHA-256 over the grid and every column: name, dtype, size, bytes."""
    digest = hashlib.sha256()
    for name, array in [("values", values), *sorted(columns.items())]:
        array = np.ascontiguousarray(array)
        digest.update(f"{name}:{array.dtype.str}:{array.size};".encode())
        digest.update(array.tobytes())
    return digest.hexdigest()


def headline_digest(headlines: dict[str, dict[str, Any]]) -> str:
    """SHA-256 of the campaign's headline scalars as canonical JSON."""
    text = json.dumps(headlines, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()


def pinned_digest(config: WorkloadConfig) -> str | None:
    return json.loads(DIGESTS_PATH.read_text()).get(config.output_id)


def same_array(a: Any, b: np.ndarray) -> bool:
    a = np.asarray(a)
    return a.dtype == b.dtype and a.shape == b.shape and (
        a.tobytes() == b.tobytes()
    )


@dataclass
class Tally:
    """Operations attempted and failed: job attempts, checks, lookups."""

    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def check(self, ok: bool, problem: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(problem)

    def jobs(self, result: Any) -> None:
        """Count every job attempt of a campaign run; failed ones fail."""
        for job_id, job in result.results.items():
            if job.status == "cached":
                continue
            attempts = max(job.attempts, 1)
            bad = attempts - 1 if job.succeeded else attempts
            self.attempted += attempts
            self.failed += bad
            if bad and len(self.problems) < 20:
                self.problems.append(f"job {job_id}: {job.status} {job.error}")


@dataclass
class ReadBack:
    """One read-back of a store: the operations, their times, their results."""

    rerun: Any
    rerun_s: float
    bulk: Any
    bulk_s: float
    lookups: list[tuple[Any, Any]]
    lookup_ms: list[float]


@dataclass
class Samples:
    """Per-operation timings gathered over a run."""

    wall_s: list[float] = field(default_factory=list)
    rerun_s: list[float] = field(default_factory=list)
    bulk_read_s: list[float] = field(default_factory=list)
    lookup_ms: list[float] = field(default_factory=list)

    def add_read_back(self, read: ReadBack) -> None:
        self.rerun_s.append(read.rerun_s)
        self.bulk_read_s.append(read.bulk_s)
        self.lookup_ms.extend(read.lookup_ms)


def store_bytes(directory: Path) -> int:
    """Bytes of every file a store left in its directory (WAL included)."""
    return sum(path.stat().st_size for path in directory.iterdir())


# -- the bench ---------------------------------------------------------------


class Bench:
    """Runs one workload's passes in this process and checks their outputs.

    ``workdir`` holds every store this bench creates; each pass gets a
    fresh store directory that is deleted once the pass is checked.  An
    unchecked bench (``check=False``) only counts failed jobs and skips
    the read-back, so its pass costs what the write costs.
    """

    def __init__(
        self,
        config: WorkloadConfig,
        seed: int,
        workdir: str | os.PathLike[str],
        check: bool = True,
    ):
        self.config = config
        self.rng = random.Random(seed)
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.check = check
        self.tally = Tally()
        self.samples = Samples()
        self.reference: tuple[np.ndarray, dict[str, np.ndarray]] | None = None
        self.live_headlines: dict[str, dict[str, Any]] | None = None
        self.last_result: Any = None
        self.last_window = (0.0, 0.0)
        self.last_read_window = (0.0, 0.0)
        self.last_store_bytes = 0
        self.last_record_bytes: dict[str, int] = {}

    # -- lifecycle --------------------------------------------------------

    def prepare(self) -> None:
        """Untimed set-up: evaluate a sweep's grid directly, as the reference."""
        if self.check and self.config.kind == SWEEP:
            values = sharding.materialise_grid(self.config.grid)
            direct = batch.evaluate_rate_grid(values)
            columns = {name: np.asarray(col) for name, col in direct.items()}
            self.reference = (values, columns)
            self.tally.check(
                sweep_digest(values, columns) == pinned_digest(self.config),
                "direct evaluate_rate_grid does not match the pinned digest",
            )

    def _fresh_store(self) -> Path:
        directory = Path(tempfile.mkdtemp(prefix="store-", dir=self.workdir))
        suffix = ".sqlite" if self.config.store_backend == "sqlite" else ".jsonl"
        return directory / f"{self.config.name}{suffix}"

    # -- one pass ---------------------------------------------------------

    def run_pass(self, tracer: Any = None, read_tracer: Any = None) -> float:
        """One closed-loop pass: timed write, timed read-back, checks.

        ``tracer`` and ``read_tracer`` (context managers) trace the write
        and the read-back; a traced pass is not a timing sample, and it
        keeps the store's bytes per record kind for the report.  Returns
        the write's wall time.
        """
        store = self._fresh_store()
        try:
            with tracer if tracer is not None else contextlib.nullcontext():
                start = time.perf_counter()
                outcome = self.write(store)
                end = time.perf_counter()
            self.last_window = (start, end)
            self.last_result = outcome
            self.last_store_bytes = store_bytes(store.parent)
            if tracer is None:
                self.samples.wall_s.append(end - start)
            elif self.config.kind == SWEEP:
                self.last_record_bytes = self.record_bytes(store)
            self.tally.jobs(outcome)
            if not self.check:
                return end - start
            if self.config.kind == REGISTRY:
                self.live_headlines = outcome.headlines()
                self.tally.check(
                    headline_digest(self.live_headlines)
                    == pinned_digest(self.config),
                    "registry headlines do not match the pinned digest",
                )
            with read_tracer if read_tracer is not None else contextlib.nullcontext():
                read_start = time.perf_counter()
                read = self.read_back(store)
                self.last_read_window = (read_start, time.perf_counter())
            if read_tracer is None:
                self.samples.add_read_back(read)
            self.check_read_back(read)
        finally:
            shutil.rmtree(store.parent, ignore_errors=True)
        return end - start

    def write(self, store: Path) -> Any:
        """The timed part of a pass: the sweep or the campaign, fresh store."""
        if self.config.kind == SWEEP:
            return self.sweep(store)
        return campaign_mod.run_campaign(
            self._registry(),
            jobs=self.config.jobs,
            store_path=str(store),
            store_backend=self.config.store_backend,
            executor=self.config.executor,
        )

    # -- sweeps -----------------------------------------------------------

    def sweep(self, store: Path) -> Any:
        config = self.config
        return sharding.run_sharded_sweep(
            config.name,
            config.target,
            config.parameter,
            config.grid,
            store_path=str(store),
            shards=config.shards,
            jobs=config.jobs,
            store_backend=config.store_backend,
            codec=config.codec,
            executor=config.executor,
            strict=False,
        )

    def sweep_campaign(self, store: Path) -> Any:
        config = self.config
        return sharding.sharded_sweep_campaign(
            config.name,
            config.target,
            config.parameter,
            config.grid,
            store_path=str(store),
            shards=config.shards,
            store_backend=config.store_backend,
            codec=config.codec,
        )

    def _registry(self) -> Any:
        return campaign_mod.registry_campaign(
            list(self.config.experiments) if self.config.experiments else None
        )

    def _lookup_indices(self, count: int) -> list[int]:
        """One seeded index per equal slice of ``range(count)``.

        Stratifying keeps every pass's sample spread over the whole
        range, so the latency quantiles do not hinge on where a small
        sample happened to land.
        """
        per_pass = self.config.lookups_per_pass
        bounds = [s * count // per_pass for s in range(per_pass + 1)]
        return [
            self.rng.randrange(lo, max(hi, lo + 1))
            for lo, hi in zip(bounds, bounds[1:])
        ]

    def read_back(self, store: Path) -> ReadBack:
        """Cached re-run, bulk read and lookups against a filled store."""
        if self.config.kind == REGISTRY:
            return self._registry_read_back(store)
        config = self.config
        start = time.perf_counter()
        rerun = self.sweep(store)
        rerun_s = time.perf_counter() - start
        campaign = self.sweep_campaign(store)
        start = time.perf_counter()
        columns = sharding.collect_arrays(
            str(store), campaign, store_backend=config.store_backend
        )
        bulk_s = time.perf_counter() - start
        lookups = []
        lookup_ms = []
        grid = columns.values
        for index in self._lookup_indices(config.points):
            value = float(grid[index])
            start = time.perf_counter()
            point = sharding.lookup_point(
                str(store), campaign, value, store_backend=config.store_backend
            )
            lookup_ms.append((time.perf_counter() - start) * 1e3)
            lookups.append((index, point))
        return ReadBack(rerun, rerun_s, columns, bulk_s, lookups, lookup_ms)

    def _registry_read_back(self, store: Path) -> ReadBack:
        config = self.config
        start = time.perf_counter()
        rerun = campaign_mod.run_campaign(
            self._registry(),
            jobs=config.jobs,
            store_path=str(store),
            store_backend=config.store_backend,
            executor=config.executor,
        )
        rerun_s = time.perf_counter() - start
        specs = self._registry().specs
        start = time.perf_counter()
        opened = store_mod.ResultStore(str(store), backend=config.store_backend)
        try:
            latest = opened.latest_by_key()
            bulk = {
                spec.job_id: campaign_mod.headline_of(latest[spec.key])
                for spec in specs
                if spec.key in latest
            }
        finally:
            opened.close()
        bulk_s = time.perf_counter() - start
        lookups = []
        lookup_ms = []
        opened = store_mod.ResultStore(str(store), backend=config.store_backend)
        try:
            for index in self._lookup_indices(len(specs)):
                spec = specs[index]
                start = time.perf_counter()
                record = opened.get(spec.key)
                lookup_ms.append((time.perf_counter() - start) * 1e3)
                headline = None if record is None else campaign_mod.headline_of(record)
                lookups.append((spec.job_id, headline))
        finally:
            opened.close()
        return ReadBack(rerun, rerun_s, bulk, bulk_s, lookups, lookup_ms)

    # -- checks -----------------------------------------------------------

    def check_read_back(self, read: ReadBack) -> None:
        """Check a read-back against the reference; failures go in the tally."""
        tally = self.tally
        statuses = read.rerun.status_counts()
        tally.check(
            statuses == {"cached": len(read.rerun.results)},
            f"re-run was not all cache hits: {statuses}",
        )
        if self.config.kind == REGISTRY:
            tally.check(
                headline_digest(read.bulk) == pinned_digest(self.config),
                "stored headlines do not match the pinned digest",
            )
            for job_id, headline in read.lookups:
                tally.check(
                    headline == self.live_headlines.get(job_id),
                    f"stored headline of {job_id} differs from the live run",
                )
            return
        self._verify_sweep_columns(read.bulk)
        _, reference = self.reference
        for index, point in read.lookups:
            expected = {name: col[index].item() for name, col in reference.items()}
            tally.check(point == expected, f"lookup of grid index {index}: {point}")

    def _verify_sweep_columns(self, columns: Any) -> None:
        values, reference = self.reference
        stored = {name: np.asarray(col) for name, col in columns.columns.items()}
        self.tally.check(
            sweep_digest(np.asarray(columns.values), stored)
            == pinned_digest(self.config),
            "stored sweep columns do not match the pinned digest",
        )
        self.tally.check(
            same_array(columns.values, values)
            and stored.keys() == reference.keys()
            and all(same_array(stored[k], reference[k]) for k in reference),
            "stored sweep columns differ from a direct evaluate_rate_grid",
        )

    def record_bytes(self, store: Path) -> dict[str, int]:
        """Stored payload bytes of a sweep store, by record kind."""
        shard_keys = {
            spec.key
            for spec in self.sweep_campaign(store).specs
            if spec.target == sharding.SHARD_TARGET
        }
        split = {"shard": 0, "block": 0, "other": 0}
        opened = store_mod.ResultStore(str(store), backend=self.config.store_backend)
        try:
            for record, size in opened.iter_records_with_size():
                value = record.get("value")
                if isinstance(value, dict) and "block" in value:
                    split["block"] += size
                elif record["key"] in shard_keys:
                    split["shard"] += size
                else:
                    split["other"] += size
        finally:
            opened.close()
        return split


def experiment_ids() -> list[str]:
    return [eid for eid, _ in list_experiments()]


def warm_up(config: WorkloadConfig, workdir: str | os.PathLike[str]) -> None:
    """Build the reference models and run one pass of the tiny variant.

    This is the warm-up both the timed process and the set-up probes do
    before a first pass: it imports every module a pass touches and
    fills the model and kernel caches.
    """
    batch.warm_reference_models()
    Bench(config.tiny(), 0, workdir, check=False).run_pass()
