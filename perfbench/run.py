"""End-to-end and per-layer benchmark of the two reference runs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
Workloads (``perfbench/workloads.py``): ``fig3-sweep-1m`` and
``registry-serial``.

One run, in one process with at most two pool workers:

1. clears every inherited ``REPRO_*`` variable, sets
   ``REPRO_TELEMETRY=off`` and passes executor, ``jobs``, store backend
   and codec to the program explicitly;
2. untimed: evaluates the sweep grid directly as the correctness
   reference;
3. times set-up (``import repro`` plus warm-up) in fresh interpreters,
   each of which then runs one pass for the peak RSS;
4. runs closed-loop passes for ``--seconds``: each writes a fresh store
   (``wall_s``), reads it back (the read-back latencies) and checks
   every output;
5. with ``--trace 1``, runs one more pass with the layer wrappers of
   ``perfbench/tracer.py`` installed, around the write and, separately,
   around the read-back, and reports per-layer metrics.

Human-readable lines go first; the last line of standard output is the
JSON result.  The resolved run config and every metric are also written
to ``.perfbench/results/``.  Exits 1 when an output is wrong, 2 when
the checkout has no ``src/repro``.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".perfbench"

#: Fresh interpreters timed for ``setup_s`` that then each run one pass
#: for ``peak_rss_mb``; the medians are reported.
PROBES = 3
#: A run makes at least this many passes, however long they take.
MIN_PASSES = 3
#: ... and this many lookups, so that ten lie beyond the 90th percentile.
MIN_LOOKUPS = 100
PROBE_TIMEOUT_S = 150

#: End-to-end metrics every workload reports in the JSON result.
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}

#: Latency of each read-back operation over the untraced passes.  Single
#: operations of a few milliseconds swing up to twofold with the load on
#: the host, more than an end-to-end bound can allow, so they are
#: reported with the per-layer metrics.
READ_BACK = {
    "rerun_s": "s",
    "bulk_read_s": "s",
    "lookup_p50_ms": "ms",
    "lookup_p90_ms": "ms",
}

#: Exclusive (self) time metric of each traced layer.
SELF_METRICS = {
    "formatting.sector.inverse": "formatting.sector.inverse_self_s",
    "core.dimensioning.require_batch": "core.dimensioning.require_batch_self_s",
    "core.batch.to_wire": "core.batch.to_wire_self_s",
    "runner.sharding.shard": "runner.sharding.shard_self_s",
    "runner.codec.pack": "runner.codec.pack_s",
    "runner.codec.unpack": "runner.codec.unpack_s",
    "runner.store.append": "runner.store.append_s",
    "runner.store.get": "runner.store.get_s",
    "runner.store.open_close": "runner.store.open_close_s",
    "runner.cache": "runner.cache.self_s",
    "runner.sharding.merge": "runner.sharding.merge_self_s",
    "runner.sharding.collect": "runner.sharding.collect_self_s",
    "runner.sharding.lookup": "runner.sharding.lookup_self_s",
    "runner.sharding.sweep": "runner.sharding.sweep_self_s",
    "runner.campaign": "runner.campaign.self_s",
    "runner.queue": "runner.queue.dispatch_s",
    "runner.jobs.execute": "runner.jobs.execute_self_s",
    "experiments": "experiments.self_s",
    "formatting.wear_leveling.simulate_wear": (
        "formatting.wear_leveling.simulate_wear_s"
    ),
    "sim.engine.run": "sim.engine.run_s",
    "kernels.dispatch": "kernels.dispatch_s",
}


def clean_environment(run_dir: Path) -> list[str]:
    """Drop inherited ``REPRO_*`` variables; return their names."""
    inherited = sorted(name for name in os.environ if name.startswith("REPRO_"))
    for name in inherited:
        del os.environ[name]
    os.environ["REPRO_TELEMETRY"] = "off"
    os.environ["TMPDIR"] = str(run_dir)
    os.environ["PYTHONPATH"] = str(SRC)
    return inherited


def resolved_config(config, seed: int, inherited: list[str]) -> dict:
    """Everything the run's numbers depend on, as the program resolved it."""
    import numpy

    from repro.kernels import active_tier
    from repro.runner.sharding import FLUSH_CHUNK

    return {
        "workload": config.name,
        "seed": seed,
        "executor": config.executor,
        "jobs": config.jobs,
        "store_backend": config.store_backend,
        "codec": config.codec,
        "shards": config.shards,
        "flush_chunk": FLUSH_CHUNK,
        "points": config.points if config.kind != "registry" else None,
        "experiments": list(config.experiments or ()) or "all",
        "kernel_tier": active_tier(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "repro_env": {
            name: value
            for name, value in sorted(os.environ.items())
            if name.startswith("REPRO_")
        },
        "repro_env_cleared": inherited,
    }


def probe(workload: str, run_dir: Path) -> dict:
    """One fresh interpreter: its set-up time, then one pass's peak RSS."""
    command = [
        sys.executable,
        str(Path(__file__).with_name("fresh.py")),
        workload,
        str(run_dir),
    ]
    done = subprocess.run(
        command,
        capture_output=True,
        text=True,
        timeout=PROBE_TIMEOUT_S,
        check=False,
    )
    if done.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def end_to_end(bench, probes: list[dict]) -> dict[str, float]:
    """Medians over the untimed passes and over the fresh-process probes."""
    return {
        "wall_s": statistics.median(bench.samples.wall_s),
        "setup_s": statistics.median(p["setup_s"] for p in probes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in probes),
    }


def read_back_latency(bench) -> dict[str, float]:
    """Median re-run and bulk read, and lookup p50/p90 (inclusive method)."""
    samples = bench.samples
    deciles = statistics.quantiles(samples.lookup_ms, n=10, method="inclusive")
    return {
        "rerun_s": statistics.median(samples.rerun_s),
        "bulk_read_s": statistics.median(samples.bulk_read_s),
        "lookup_p50_ms": statistics.median(samples.lookup_ms),
        "lookup_p90_ms": deciles[8],
    }


def _self_times(window: dict, prefix: str = "") -> dict:
    """Exclusive time per layer over one traced window, with the rest."""
    from tracer import attribute

    attribution = attribute(window["spans"], os.getpid(), window["window"])
    metrics = {
        prefix + metric: (attribution.self_s.get(layer, 0.0), "s")
        for layer, metric in SELF_METRICS.items()
    }
    metrics[prefix + "unattributed_s"] = (attribution.unattributed_s, "s")
    metrics[prefix + "traced_wall_s"] = (attribution.wall_s, "s")
    return metrics


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def per_layer(
    bench, trace: dict, untraced_wall: float, reads: dict[str, float]
) -> dict:
    """Per-layer ``{name: (value, unit)}`` of the traced pass in ``trace``.

    Unprefixed self times cover the write, ``readback.`` ones the
    read-back of the written store; lookup and cache ratios come from
    the read-back, ``reads`` are the untraced read-back latencies.
    """
    from workloads import REGISTRY, experiment_ids

    config = bench.config
    write, read = trace["write"], trace["read"]
    metrics = _self_times(write)
    metrics["trace_overhead_s"] = (
        write["window"][1] - write["window"][0] - untraced_wall,
        "s",
    )
    metrics.update(_self_times(read, "readback."))
    counts = write["counts"]
    points = 0 if config.kind == REGISTRY else config.points
    split = bench.last_record_bytes
    metrics["runner.codec.packs_per_point"] = (
        _ratio(counts.get("codec.pack.points", 0), points),
        "ratio",
    )
    metrics["runner.store.bytes_per_point"] = (
        _ratio(bench.last_store_bytes, points),
        "B",
    )
    for kind in ("shard", "block"):
        metrics[f"runner.store.{kind}_bytes_per_point"] = (
            _ratio(split.get(kind, 0), points),
            "B",
        )
    campaign = bench.last_result
    shard_times = [
        job.duration_s
        for job_id, job in campaign.results.items()
        if "/shard" in job_id and job.status == "ok"
    ]
    metrics["runner.sharding.shard_max_s"] = (max(shard_times, default=0.0), "s")
    metrics["runner.sharding.shard_median_s"] = (
        statistics.median(shard_times) if shard_times else 0.0,
        "s",
    )
    metrics["kernels.calls"] = (counts.get("calls:kernels.dispatch", 0), "count")
    counts = read["counts"]
    metrics["runner.cache.hit_ratio"] = (
        _ratio(counts.get("cache.hits", 0), counts.get("cache.lookups", 0)),
        "ratio",
    )
    metrics["runner.store.gets_per_lookup"] = (
        _ratio(
            counts.get("calls:runner.store.get@runner.sharding.lookup", 0),
            counts.get("calls:runner.sharding.lookup", 0),
        ),
        "count",
    )
    metrics["runner.codec.points_decoded_per_lookup"] = (
        _ratio(
            counts.get("codec.unpack.points@runner.sharding.lookup", 0),
            counts.get("lookup.points", 0),
        ),
        "ratio",
    )
    for name, value in reads.items():
        metrics[name] = (value, READ_BACK[name])
    for eid in experiment_ids():
        job = campaign.results.get(eid)
        metrics[f"experiments.{eid}_s"] = (
            job.duration_s if job is not None and job.status == "ok" else 0.0,
            "s",
        )
    return metrics


def traced_pass(bench, run_dir: Path) -> dict:
    """One more pass with the layer wrappers installed; returns its trace.

    The write and the read-back are traced separately, each into its own
    ``{"spans", "counts", "window"}``.
    """
    from tracer import Tracer

    tracers = {}
    for part in ("write", "read"):
        (run_dir / f"trace-{part}").mkdir()
        tracers[part] = Tracer(run_dir / f"trace-{part}")
    bench.run_pass(tracer=tracers["write"], read_tracer=tracers["read"])
    windows = {"write": bench.last_window, "read": bench.last_read_window}
    trace = {}
    for part, tracer in tracers.items():
        spans, counts = tracer.collect()
        trace[part] = {"spans": spans, "counts": counts, "window": windows[part]}
    return trace


def human_lines(
    bench, e2e: dict[str, float], reads: dict[str, float], probes: list[dict]
) -> list[str]:
    """Every end-to-end figure with its unit, those in the JSON and the rest."""
    from workloads import SWEEP

    config = bench.config
    tally = bench.tally
    rows = [(name, value, END_TO_END[name]) for name, value in e2e.items()]
    rows += [(name, value, READ_BACK[name]) for name, value in reads.items()]
    if config.kind == SWEEP:
        rows.append(("points_per_s", config.points / e2e["wall_s"], "1/s"))
        rows.append(
            ("store_bytes_per_point", bench.last_store_bytes / config.points, "B")
        )
    rows.append(("error_rate", tally.failed / max(tally.attempted, 1), "ratio"))
    samples = bench.samples
    lines = [
        f"{config.name}: {len(samples.wall_s)} passes, "
        f"{len(samples.lookup_ms)} lookups, {len(probes)} fresh-process probes, "
        f"{tally.attempted} operations checked, {tally.failed} failed"
    ]
    lines += [f"  {name:<24} {value:>14.6g} {unit}" for name, value, unit in rows]
    lines += [f"  problem: {problem}" for problem in tally.problems]
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: {SRC}/repro not found; run from a checkout",
              file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=WORKDIR))
    try:
        return _run(args, run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)


def _run(args: argparse.Namespace, run_dir: Path) -> int:
    inherited = clean_environment(run_dir)
    sys.path.insert(0, str(SRC))
    # Byte-compile up front so set-up probes time imports, not compiling.
    compileall.compile_dir(str(SRC), quiet=1)
    from workloads import WORKLOADS, Bench, warm_up

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; known: "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    config = WORKLOADS[args.workload]
    bench = Bench(config, args.seed, run_dir)
    bench.prepare()
    probes = [probe(config.name, run_dir) for _ in range(PROBES)]
    for result in probes:
        bench.tally.check(result["ok"], "a fresh-process pass failed")
    warm_up(config, run_dir)
    deadline = time.perf_counter() + args.seconds
    while (
        time.perf_counter() < deadline
        or len(bench.samples.wall_s) < MIN_PASSES
        or len(bench.samples.lookup_ms) < MIN_LOOKUPS
    ):
        bench.run_pass()
    e2e = end_to_end(bench, probes)
    reads = read_back_latency(bench)
    lines = human_lines(bench, e2e, reads, probes)
    metrics = {name: (value, END_TO_END[name]) for name, value in e2e.items()}
    if args.trace:
        trace = traced_pass(bench, run_dir)
        metrics = per_layer(bench, trace, e2e["wall_s"], reads)
        lines.append("  traced pass:")
        lines += [
            f"  {name:<44} {value:>14.6g} {unit}"
            for name, (value, unit) in metrics.items()
        ]
    correct = bench.tally.failed == 0
    result = {
        "correct": correct,
        "attempted": bench.tally.attempted,
        "failed": bench.tally.failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }
    results_dir = WORKDIR / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    record = {
        "config": resolved_config(config, args.seed, inherited),
        "samples": vars(bench.samples),
        "problems": bench.tally.problems,
        **result,
    }
    path = results_dir / f"{config.name}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    print("config: " + json.dumps(record["config"], sort_keys=True))
    print("\n".join(lines))
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
