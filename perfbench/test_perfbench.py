"""Fast checks of the benchmark itself, on tiny variants of its workloads."""

from __future__ import annotations

import json
import math
import os
import statistics
from pathlib import Path

import numpy as np
import pytest

import run
from tracer import LAYERS, attribute
from workloads import WORKLOADS, Bench
from repro.runner import sharding
from repro.runner.store import ResultStore

BENCHMARK = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())


@pytest.fixture(autouse=True)
def _telemetry_off(monkeypatch):
    monkeypatch.setenv("REPRO_TELEMETRY", "off")


def _traced_run(name: str, workdir: Path) -> tuple[Bench, dict, dict]:
    bench = Bench(WORKLOADS[name].tiny(), 7, workdir / "stores")
    bench.prepare()
    bench.run_pass()
    trace = run.traced_pass(bench, workdir)
    layers = run.per_layer(
        bench,
        trace,
        statistics.median(bench.samples.wall_s),
        run.read_back_latency(bench),
    )
    return bench, trace, layers


def test_workloads_match_benchmark_json():
    assert {w.name: w.why for w in WORKLOADS.values()} == {
        w["name"]: w["why"] for w in BENCHMARK["workloads"]
    }


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_workload_reports_every_metric(name, tmp_path):
    bench, trace, layers = _traced_run(name, tmp_path)
    assert bench.tally.attempted > 0 and bench.tally.failed == 0, (
        bench.tally.problems
    )

    probes = [{"setup_s": 1.0, "peak_rss_mb": 100.0}]
    e2e = run.end_to_end(bench, probes)
    expected = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: run.END_TO_END[k] for k in e2e} == expected
    assert all(v > 0 for v in e2e.values())
    assert all(v > 0 for v in run.read_back_latency(bench).values())
    expected = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: unit for k, (_, unit) in layers.items()} == expected

    # Exclusive layer times plus the unattributed rest are the wall time,
    # for the traced write and the traced read-back alike.
    assert set(run.SELF_METRICS) == {layer.name for layer in LAYERS}
    for part, prefix in (("write", ""), ("read", "readback.")):
        window = trace[part]
        attribution = attribute(window["spans"], os.getpid(), window["window"])
        total = sum(attribution.self_s.values()) + attribution.unattributed_s
        assert math.isclose(total, attribution.wall_s, rel_tol=1e-9)
        assert attribution.unattributed_s >= 0
        published = sum(layers[prefix + m][0] for m in run.SELF_METRICS.values())
        assert math.isclose(
            published + layers[prefix + "unattributed_s"][0],
            layers[prefix + "traced_wall_s"][0],
            rel_tol=1e-9,
        )


def test_sweep_trace_shows_the_pipeline(tmp_path):
    _, _, layers = _traced_run("fig3-sweep-1m", tmp_path)
    assert layers["runner.codec.packs_per_point"][0] == 2.0
    assert layers["runner.store.shard_bytes_per_point"][0] > 0
    assert layers["runner.store.block_bytes_per_point"][0] > 0
    assert layers["formatting.sector.inverse_self_s"][0] > 0
    assert layers["runner.sharding.shard_max_s"][0] > 0


def test_read_back_trace_counts_lookups(tmp_path):
    _, _, layers = _traced_run("fig3-sweep-1m", tmp_path)
    assert layers["runner.cache.hit_ratio"][0] == 1.0
    assert layers["runner.store.gets_per_lookup"][0] >= 1
    assert layers["runner.codec.points_decoded_per_lookup"][0] >= 1
    assert layers["readback.runner.store.get_s"][0] > 0
    assert layers["readback.formatting.sector.inverse_self_s"][0] == 0


def test_corrupted_column_fails_the_check(tmp_path):
    bench = Bench(WORKLOADS["fig3-sweep-1m"].tiny(), 3, tmp_path)
    bench.prepare()
    path = tmp_path / "sweep.sqlite"
    assert bench.sweep(path).ok
    bench.check_read_back(bench.read_back(path))
    assert bench.tally.failed == 0

    store = ResultStore(str(path), backend="sqlite")
    try:
        spec = next(
            s
            for s in bench.sweep_campaign(path).specs
            if s.target == sharding.SHARD_TARGET
        )
        record = store.get(spec.key)
        payload = dict(record["value"])
        count = payload["count"]
        assert payload["columns"][0]["dtype"] == "<f8"
        blob = bytearray(payload["blob"])
        column = np.frombuffer(blob, "<f8", count, count * 8).copy()
        column[count // 2] += 1.0
        blob[count * 8 : count * 16] = column.tobytes()
        # A well-formed record carrying one wrong column; latest wins.
        store.append({**record, "value": {**payload, "blob": bytes(blob)}})
    finally:
        store.close()
    bench.check_read_back(bench.read_back(path))
    assert bench.tally.failed > 0
    assert bench.tally.failed / bench.tally.attempted > 0
    assert any("pinned digest" in p for p in bench.tally.problems)
