"""Out-of-program tracing: timers and counters around layer entry points.

The program under test carries no spans of its own for these layers, so
the benchmark wraps the public entry points named in :data:`LAYERS` for
the duration of one traced pass and restores them afterwards.  Every
module-level binding of a wrapped function inside the ``repro`` package
is replaced (``from x import f`` copies included), and methods are
replaced on their class, so callers reach the wrappers whichever way
they name the entry point.

Pool workers are forked from the traced process, so they inherit the
wrappers.  A worker writes its spans and counters to a per-process file
in the trace directory each time its outermost wrapped call returns;
the parent reads those files after the pass.  ``time.perf_counter``
reads the system-wide monotonic clock on Linux, so worker and parent
timestamps share one time axis.

:func:`attribute` turns the spans into exclusive (self) times that add
up to the traced wall time: every instant of the pass belongs to the
innermost wrapped call active in the benchmark process, except the
instants owned by the job queue itself, which go to whatever the
critical-path worker job was doing at that instant.  Time the critical
path does not cover stays with the queue (dispatch, pickling, IPC,
pool start-up); time outside every wrapped call is ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable

#: Layer of the job-queue entry point; its self time is dispatch time.
QUEUE_LAYER = "runner.queue"
#: Layer of one job execution; the unit the critical path is built from.
JOB_LAYER = "runner.jobs.execute"

CounterHook = Callable[["Tracer", tuple, dict, Any], None]


def _count_pack(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    values = args[0] if args else kwargs["values"]
    tracer.count("codec.pack.points", len(values))


def _count_unpack(
    tracer: "Tracer", args: tuple, kwargs: dict, result: Any
) -> None:
    payload = args[0] if args else kwargs["payload"]
    tracer.count("codec.unpack.points", int(payload["count"]))


def _count_cache(tracer: "Tracer", args: tuple, kwargs: dict, result: Any) -> None:
    tracer.count("cache.lookups")
    if result is not None:
        tracer.count("cache.hits")


def _count_lookup(
    tracer: "Tracer", args: tuple, kwargs: dict, result: Any
) -> None:
    if result is not None:
        tracer.count("lookup.points")


@dataclass(frozen=True)
class Layer:
    """One wrapped entry point: ``module:qualname`` and its layer name."""

    target: str
    name: str
    hook: CounterHook | None = None


#: The entry points the benchmark wraps, innermost model layers first.
#: Several entry points may share one layer name; a layer's self time
#: is the sum over its entry points.
LAYERS: tuple[Layer, ...] = (
    Layer(
        "repro.formatting.sector:"
        "SectorLayout.min_user_bits_for_utilisation_batch",
        "formatting.sector.inverse",
    ),
    Layer(
        "repro.core.dimensioning:BufferDimensioner.require_batch",
        "core.dimensioning.require_batch",
    ),
    Layer("repro.core.batch:evaluate_rate_grid", "core.batch.to_wire"),
    Layer("repro.runner.codec:pack_series", "runner.codec.pack", _count_pack),
    Layer("repro.runner.codec:pack_points", "runner.codec.pack"),
    Layer(
        "repro.runner.codec:unpack_columns",
        "runner.codec.unpack",
        _count_unpack,
    ),
    Layer("repro.runner.store:ResultStore.append", "runner.store.append"),
    Layer("repro.runner.store:ResultStore.append_many", "runner.store.append"),
    Layer("repro.runner.store:ResultStore.get", "runner.store.get"),
    Layer("repro.runner.store:ResultStore.__init__", "runner.store.open_close"),
    Layer("repro.runner.store:ResultStore.close", "runner.store.open_close"),
    Layer("repro.runner.cache:ResultCache.__init__", "runner.cache"),
    Layer("repro.runner.cache:ResultCache.lookup", "runner.cache", _count_cache),
    Layer("repro.runner.cache:ResultCache.put", "runner.cache"),
    Layer("repro.runner.sharding:evaluate_shard", "runner.sharding.shard"),
    Layer("repro.runner.sharding:merge_shards", "runner.sharding.merge"),
    Layer("repro.runner.sharding:collect_arrays", "runner.sharding.collect"),
    Layer(
        "repro.runner.sharding:lookup_point",
        "runner.sharding.lookup",
        _count_lookup,
    ),
    Layer("repro.runner.sharding:run_sharded_sweep", "runner.sharding.sweep"),
    Layer("repro.runner.campaign:run_campaign", "runner.campaign"),
    Layer("repro.runner.queue:run_jobs", QUEUE_LAYER),
    Layer("repro.runner.jobs:execute", JOB_LAYER),
    Layer("repro.experiments.registry:run_experiment", "experiments"),
    Layer(
        "repro.formatting.wear_leveling:simulate_wear",
        "formatting.wear_leveling.simulate_wear",
    ),
    Layer("repro.sim.engine:Environment.run", "sim.engine.run"),
    Layer("repro.kernels.registry:KernelRegistry.call", "kernels.dispatch"),
)


@dataclass(frozen=True)
class Span:
    """One wrapped call: process, nesting and its interval."""

    pid: int
    id: int
    parent: int | None
    layer: str
    start: float
    end: float

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    """Installs the wrappers and collects spans and counters.

    Use as a context manager around one traced window; ``trace_dir`` must
    be an empty directory the forked workers can write to.
    """

    def __init__(self, trace_dir: str | os.PathLike[str]):
        self.trace_dir = Path(trace_dir)
        self.main_pid = os.getpid()
        self.active = False
        self._restore: list[tuple[Any, str, Any]] = []
        self._reset_process()
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset_process(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[tuple[int, str, float]] = []
        self._next_id = 0

    def _after_fork(self) -> None:
        if self.active:
            self._reset_process()

    # -- recording ---------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        """Add to a counter, and to its per-enclosing-layer twins.

        ``name@layer`` counts only what happened inside a call of that
        layer, e.g. store gets made by point lookups.
        """
        self.counts[name] += amount
        for layer in {entry[1] for entry in self._stack}:
            self.counts[f"{name}@{layer}"] += amount

    def _wrap(self, func: Callable, layer: Layer) -> Callable:
        tracer = self

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tracer.count(f"calls:{layer.name}")
            span_id = tracer._next_id
            tracer._next_id += 1
            parent = tracer._stack[-1][0] if tracer._stack else None
            start = time.perf_counter()
            tracer._stack.append((span_id, layer.name, start))
            try:
                result = func(*args, **kwargs)
                if layer.hook is not None:
                    layer.hook(tracer, args, kwargs, result)
                return result
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(
                    Span(os.getpid(), span_id, parent, layer.name, start, end)
                )
                if not tracer._stack and os.getpid() != tracer.main_pid:
                    tracer._flush_worker()

        return traced

    def _flush_worker(self) -> None:
        line = json.dumps(
            {
                "spans": [
                    [s.pid, s.id, s.parent, s.layer, s.start, s.end]
                    for s in self.spans
                ],
                "counts": dict(self.counts),
            }
        )
        with open(self.trace_dir / f"{os.getpid()}.jsonl", "a") as handle:
            handle.write(line + "\n")
        self.spans = []
        self.counts = defaultdict(float)

    # -- install / restore -------------------------------------------------

    def __enter__(self) -> "Tracer":
        try:
            for layer in LAYERS:
                self._install(layer)
        except BaseException:
            self.__exit__()
            raise
        self._reset_process()
        self.active = True
        return self

    def _install(self, layer: Layer) -> None:
        module_name, qualname = layer.target.split(":")
        module = importlib.import_module(module_name)
        owner_name, _, attr = qualname.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            self._patch(owner, attr, self._wrap(owner.__dict__[attr], layer))
            return
        original = getattr(module, attr)
        wrapped = self._wrap(original, layer)
        for loaded in list(sys.modules.values()):
            name = getattr(loaded, "__name__", "")
            if name == "repro" or name.startswith("repro."):
                for key, value in list(vars(loaded).items()):
                    if value is original:
                        self._patch(loaded, key, wrapped)

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._restore.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def __exit__(self, *exc: Any) -> None:
        self.active = False
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- collection --------------------------------------------------------

    def collect(self) -> tuple[list[Span], dict[str, float]]:
        """This process's spans plus every worker's, counters summed."""
        spans = list(self.spans)
        counts: dict[str, float] = defaultdict(float, self.counts)
        for path in sorted(self.trace_dir.glob("*.jsonl")):
            for line in path.read_text().splitlines():
                record = json.loads(line)
                spans.extend(Span(*fields) for fields in record["spans"])
                for name, amount in record["counts"].items():
                    counts[name] += amount
        return spans, counts


# -- attribution -----------------------------------------------------------


def _exclusive(span: Span, children: Iterable[Span]) -> list[tuple[float, float]]:
    """The parts of ``span`` its direct children do not cover."""
    pieces = []
    cursor = span.start
    for child in sorted(children, key=lambda c: c.start):
        if child.start > cursor:
            pieces.append((cursor, child.start))
        cursor = max(cursor, child.end)
    if span.end > cursor:
        pieces.append((cursor, span.end))
    return pieces


def critical_path(jobs: list[Span]) -> list[Span]:
    """The chain of jobs that ends last, walked back through predecessors.

    A job's predecessor is the job that ended last before it started: in
    a capacity-capped queue, that completion is what let it start.
    """
    chain: list[Span] = []
    current = max(jobs, key=lambda j: j.end) if jobs else None
    while current is not None:
        chain.append(current)
        earlier = [j for j in jobs if j.end <= current.start]
        current = max(earlier, key=lambda j: j.end) if earlier else None
    return chain[::-1]


def _overlap(
    pieces: list[tuple[float, float]],
    owned: list[tuple[float, float, str]],
    totals: dict[str, float],
) -> float:
    """Credit each ``owned`` piece's overlap with ``pieces`` to its layer."""
    covered = 0.0
    i = j = 0
    while i < len(pieces) and j < len(owned):
        lo = max(pieces[i][0], owned[j][0])
        hi = min(pieces[i][1], owned[j][1])
        if hi > lo:
            totals[owned[j][2]] += hi - lo
            covered += hi - lo
        if pieces[i][1] < owned[j][1]:
            i += 1
        else:
            j += 1
    return covered


@dataclass(frozen=True)
class Attribution:
    """Exclusive time per layer over one traced pass."""

    wall_s: float
    self_s: dict[str, float]
    unattributed_s: float


def attribute(
    spans: list[Span], main_pid: int, window: tuple[float, float]
) -> Attribution:
    """Split the pass window into exclusive per-layer times.

    ``sum(self_s.values()) + unattributed_s == wall_s`` by construction.
    """
    children: dict[tuple[int, int | None], list[Span]] = defaultdict(list)
    for span in spans:
        children[(span.pid, span.parent)].append(span)
    exclusive = {
        (span.pid, span.id): _exclusive(span, children[(span.pid, span.id)])
        for span in spans
    }
    workers = [span for span in spans if span.pid != main_pid]
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        if span.pid != main_pid:
            continue
        pieces = exclusive[(span.pid, span.id)]
        own = sum(hi - lo for lo, hi in pieces)
        if span.layer == QUEUE_LAYER:
            jobs = [
                w
                for w in workers
                if w.layer == JOB_LAYER
                and span.start <= w.start
                and w.end <= span.end
            ]
            owned = sorted(
                (lo, hi, w.layer)
                for job in critical_path(jobs)
                for w in workers
                if w.pid == job.pid
                and job.start <= w.start
                and w.end <= job.end
                for lo, hi in exclusive[(w.pid, w.id)]
            )
            own -= _overlap(pieces, owned, totals)
        totals[span.layer] += own
    roots = [s for s in spans if s.pid == main_pid and s.parent is None]
    wall = window[1] - window[0]
    return Attribution(
        wall_s=wall,
        self_s=dict(totals),
        unattributed_s=wall - sum(root.duration for root in roots),
    )
