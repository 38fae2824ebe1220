"""Stores written in the retired per-point JSON format stay readable.

``tests/fixtures/legacy_json_sweep.jsonl`` was written by the last
build that could still write the ``codec="json"`` format: the Figure 3a
design-space sweep (``evaluate_rate_grid``) over 12 geomspace rates
from 1 kb/s to 100 Mb/s, in 2 shards, on the JSONL backend.  Its shard
records hold ``{"values": [...], "points": [...]}`` payloads and its
merge filed one record per point and no block records.  Every reader
must answer from it exactly what a fresh columnar run of the same grid
answers, and a campaign built with ``codec="json"`` must still find its
records, so the content keys are pinned here too.
"""

from __future__ import annotations

import shutil
from pathlib import Path

import numpy as np
import pytest

from repro.runner import (
    ResultStore,
    collect_arrays,
    collect_points,
    iter_points,
    lookup_point,
    run_sharded_sweep,
    sharded_sweep_campaign,
)
from repro.runner.codec import payload_kind
from repro.runner.jobs import json_safe
from repro.runner.sharding import grid_descriptor

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / (
    "legacy_json_sweep.jsonl"
)
NAME = "legacy"
TARGET = "repro.core.batch:evaluate_rate_grid"
GRID = grid_descriptor("geomspace", 1e3, 1e8, 12)

#: Content keys (shard, shard, merge) of the fixture's sweep campaign
#: built against ``legacy.jsonl``, as every earlier build computed them.
#: The fixture was written under the ``"json"`` keys.
PINNED_KEYS = {
    None: [
        "8b2f54ad8f760fda53e321f93b0d00db1ee9739084ec7c79d762477ff9244e3a",
        "7c6097fff6a07e66ba68ce37277d2ff4359357f1dfe6032d60a410652aae02ae",
        "0b7ffd1becbfbc5d54c49c6ac2224c5d9e1cca6b506ab97d76403bb3f6c9b26e",
    ],
    "columnar": [
        "c21503ec77942924f277bc26454bfda29bc737d48401551e50515c7c9aef796c",
        "9e6c8800461b9a480f004f0bd9f1b3279c7ae813a617694f522bd44ef56b5b47",
        "21c3b72d8035258334252af5b2020668595600945d9c7850773376d24e60564e",
    ],
    "json": [
        "1230f2b946f69d1fd9bd4f6ba7ddb7839333a771927d00bee7f68105766b935e",
        "c4f49dd3323fa7bc9728caf3f0f72cab51019b25729516fe5982c02a7ad22bf1",
        "2d49c7fc8a831aa428e10a875eefaf34b9f2e3b3c01309a7dc5e9121c95a69f1",
    ],
}


def _campaign(store_path, codec=None):
    return sharded_sweep_campaign(
        NAME, TARGET, "rate_bps", GRID,
        store_path=str(store_path), shards=2, codec=codec,
    )


@pytest.fixture(scope="module")
def legacy(tmp_path_factory):
    """A private copy of the fixture store and its json campaign."""
    path = tmp_path_factory.mktemp("legacy") / "legacy.jsonl"
    shutil.copyfile(FIXTURE, path)
    return str(path), _campaign(path, codec="json")


@pytest.fixture(scope="module")
def fresh(tmp_path_factory):
    """A fresh columnar run of the same grid, its campaign and summary."""
    path = str(tmp_path_factory.mktemp("fresh") / "fresh.sqlite")
    result = run_sharded_sweep(
        NAME, TARGET, "rate_bps", GRID, store_path=path, shards=2
    )
    assert result.ok
    return path, _campaign(path), result.results[f"{NAME}/merge"].value


class TestContentKeys:
    @pytest.mark.parametrize("codec", [None, "columnar", "json"])
    def test_keys_are_pinned_for_every_codec_name(self, codec):
        keys = [spec.key for spec in _campaign("legacy.jsonl", codec).specs]
        assert keys == PINNED_KEYS[codec]


class TestLegacyFixtureReads:
    def test_fixture_is_a_json_format_store(self, legacy):
        path, _ = legacy
        store = ResultStore(path)
        kinds = [payload_kind(record) for record in store.iter_records()]
        store.close()
        assert kinds.count("shard-json") == 2
        assert kinds.count("point") == 12
        assert "columnar-block" not in kinds

    def test_collect_points_matches_a_fresh_columnar_run(self, legacy, fresh):
        assert collect_points(*legacy) == collect_points(*fresh[:2])

    def test_iter_points_matches_a_fresh_columnar_run(self, legacy, fresh):
        assert list(iter_points(*legacy)) == list(iter_points(*fresh[:2]))

    def test_collect_arrays_matches_a_fresh_columnar_run(self, legacy, fresh):
        old = collect_arrays(*legacy)
        new = collect_arrays(*fresh[:2])
        assert old.points_kind == new.points_kind == "mapping"
        assert np.array_equal(old.values, new.values)
        assert set(old.columns) == set(new.columns)
        for name, column in new.columns.items():
            assert old.columns[name].dtype == column.dtype, name
            assert np.array_equal(old.columns[name], column), name

    def test_lookup_point_matches_a_fresh_columnar_run(self, legacy, fresh):
        values, points = collect_points(*fresh[:2])
        for value, point in zip(values, points):
            assert lookup_point(legacy[0], legacy[1], value) == point
            assert lookup_point(fresh[0], fresh[1], value) == point
        assert lookup_point(*legacy, 1234.5) is None
        assert lookup_point(*legacy, -1.0) is None

    def test_stored_merge_summary_matches_a_fresh_merge(self, legacy, fresh):
        store = ResultStore(legacy[0])
        stored = store.get(PINNED_KEYS["json"][2])
        store.close()
        assert stored["value"]["points"] == fresh[2]["points"]
        assert stored["value"]["metrics"] == fresh[2]["metrics"]


class TestServicePagesTheFixture:
    def test_stored_json_run_pages_its_points(self, tmp_path, fresh):
        from repro.service import CampaignServer, ServiceClient
        from repro.service.server import RUN_SCHEMA, run_key

        path = tmp_path / "service.jsonl"
        shutil.copyfile(FIXTURE, path)
        run_id = "20260101T000000-legacy00"
        spec = {
            "kind": "sweep",
            "name": NAME,
            "target": TARGET,
            "parameter": "rate_bps",
            "values": GRID,
            "shards": 2,
            "codec": "json",
        }
        store = ResultStore(str(path))
        store.append(
            {
                "key": run_key(run_id),
                "job_id": f"service/{run_id}",
                "status": "ok",
                "value": {
                    "schema": RUN_SCHEMA,
                    "run_id": run_id,
                    "state": "done",
                    "spec": spec,
                },
            }
        )
        store.close()
        values, points = [], []
        with CampaignServer(str(path)) as server:
            client = ServiceClient(server.url)
            offset = 0
            while True:
                page = client.points(run_id, offset=offset, limit=5)
                assert page["offset"] == offset
                values += page["values"]
                points += page["points"]
                offset += page["count"]
                if page["done"]:
                    break
        expected_values, expected_points = collect_points(*fresh[:2])
        assert values == expected_values
        assert points == json_safe(expected_points)
