"""Columnar codec tests: round trips, backends, migration, resume.

The codec's contract is a *bit-exact round trip*: whatever a sweep
stores through binary column blocks must decode back to the same
Python values — same types, same mapping key order, NaN/inf included
— that went in.  These tests drive that contract property-based
(hypothesis generates adversarial column mixes), through both
persistence backends, across store migration, and through a
crash-resumed columnar merge.  Stores written in the retired
per-point JSON format are covered by ``test_legacy_store.py``.
"""

from __future__ import annotations

import math
import shutil
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ConfigurationError
from repro.runner.jobs import json_safe
from repro.runner import (
    Campaign,
    ResultStore,
    collect_arrays,
    collect_points,
    lookup_point,
    migrate_store,
    run_campaign,
    sharded_sweep_campaign,
)
from repro.runner.codec import (
    KIND_POINTS,
    STORAGE_FORMAT,
    extract_blob,
    inject_blob,
    is_columnar,
    jsonable_bytes,
    pack_points,
    pack_series,
    payload_kind,
    restore_bytes,
    unpack_columns,
    unpack_points,
)
from repro.runner.sharding import merge_shards

GRID = [float(v) for v in range(32_000, 32_000 + 40)]
LEGACY_FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / (
    "legacy_json_sweep.jsonl"
)
TARGET_DSPACE = "repro.core.batch:evaluate_rate_grid"


def same_value(a, b) -> bool:
    """Type-exact equality where ``nan == nan`` (the round-trip oracle)."""
    if type(a) is not type(b):
        return False
    if isinstance(a, float):
        return (math.isnan(a) and math.isnan(b)) or a == b
    return a == b


def same_points(left, right) -> bool:
    """Point-list equality oracle; mapping key order must survive too."""
    if len(left) != len(right):
        return False
    for a, b in zip(left, right):
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                return False
            if not all(same_value(a[k], b[k]) for k in a):
                return False
        elif not same_value(a, b):
            return False
    return True


# Column element strategies: one uniform scalar type per column (the
# binary dtypes), plus deliberately mixed columns that must fall back
# to inline JSON without losing exactness.
_floats = st.floats(allow_nan=True, allow_infinity=True)
_ints = st.integers(min_value=-(2**63), max_value=2**63 - 1)
_huge_ints = st.integers(min_value=2**63, max_value=2**70)
_strs = st.text(
    alphabet="abcdefgXYZ ", max_size=6
)
_mixed = st.one_of(_floats, _ints, st.booleans(), _strs, st.none())

_column_kinds = st.sampled_from(
    ["float", "int", "bool", "str", "huge", "mixed"]
)
_ELEMENTS = {
    "float": _floats,
    "int": _ints,
    "bool": st.booleans(),
    "str": _strs,
    "huge": _huge_ints,
    "mixed": _mixed,
}


@st.composite
def mapping_sweeps(draw):
    """(values, points) with 1..4 columns of adversarial type mixes."""
    count = draw(st.integers(min_value=1, max_value=12))
    values = draw(
        st.lists(_floats, min_size=count, max_size=count)
    )
    names = draw(
        st.lists(
            st.text(alphabet="abcxyz_", min_size=1, max_size=6),
            min_size=1,
            max_size=4,
            unique=True,
        )
    )
    series = {}
    for name in names:
        kind = draw(_column_kinds)
        series[name] = draw(
            st.lists(_ELEMENTS[kind], min_size=count, max_size=count)
        )
    points = [
        {name: series[name][index] for name in names}
        for index in range(count)
    ]
    return values, points


class TestRoundTrip:
    @given(mapping_sweeps())
    @settings(max_examples=120, deadline=None)
    def test_mapping_points_bit_exact(self, sweep):
        values, points = sweep
        payload = pack_points(values, points)
        assert payload is not None and is_columnar(payload)
        out_values, out_points = unpack_points(payload)
        assert same_points(values, out_values)
        assert same_points(points, out_points)

    @given(
        st.lists(
            st.one_of(_floats, _ints, st.booleans(), _strs),
            min_size=1,
            max_size=20,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_scalar_points_bit_exact(self, points):
        values = [float(i) for i in range(len(points))]
        payload = pack_points(values, points)
        assert payload is not None
        out_values, out_points = unpack_points(payload)
        assert same_points(values, out_values)
        assert same_points(points, out_points)

    def test_nan_inf_native(self):
        values = [1.0, 2.0, 3.0]
        points = [
            {"m": math.nan},
            {"m": math.inf},
            {"m": -math.inf},
        ]
        payload = pack_points(values, points)
        # All-float column: packed binary, not the JSON fallback.
        assert payload["columns"][0]["dtype"] == "<f8"
        _, out = unpack_points(payload)
        assert math.isnan(out[0]["m"])
        assert out[1]["m"] == math.inf
        assert out[2]["m"] == -math.inf

    def test_ragged_mappings_refuse_to_columnise(self, tmp_path):
        """Ragged points pack as one inline-JSON column and come back."""
        for values, points in (
            ([1.0, 2.0], [{"a": 1}, {"b": 2}]),
            ([1.0, 2.0], [{"a": 1}, 3.0]),
            ([1.0], [[1, 2]]),
            ([1.0, 2.0], [None, {"a": math.inf}]),
        ):
            payload = pack_points(values, points)
            assert is_columnar(payload)
            assert payload["points_kind"] == KIND_POINTS
            assert [c["dtype"] for c in payload["columns"]] == ["json"]
            out_values, _, kind = unpack_columns(payload)
            assert kind == KIND_POINTS
            assert out_values.tolist() == values
            assert unpack_points(payload) == (values, json_safe(points))

        # A ragged sweep merges point by point: its summary is the one
        # the per-point merge of earlier builds reported.
        path = str(tmp_path / "ragged.jsonl")
        grid = [1.0, 2.0, 3.0, 4.0, 5.0, -2.5, 0.5]
        campaign = sharded_sweep_campaign(
            "rag", "runner_workers:ragged_point", "x", grid,
            store_path=path, shards=3, batch=False,
        )
        result = run_campaign(campaign, store_path=path)
        assert result.ok
        summary = result.results["rag/merge"].value
        assert summary["points"] == 7
        assert summary["metrics"] == {
            "x": {"finite": 7, "min": -2.5, "max": 5.0}
        }
        values, points = collect_points(path, campaign)
        assert values == grid
        assert points[0] == {"x": 1.0, "odd": True}
        assert points[1] == {"x": 2.0}
        with pytest.raises(ConfigurationError, match="will not columnise"):
            collect_arrays(path, campaign)

    def test_unknown_storage_format_fails_loudly(self):
        payload = pack_points([1.0], [2.0])
        payload["format"] = STORAGE_FORMAT + 1
        with pytest.raises(ConfigurationError):
            is_columnar(payload)

    def test_arrays_decode_without_point_objects(self):
        values = [1.0, 2.0, 4.0]
        points = [{"m": 0.5, "n": 2}, {"m": 1.5, "n": 3}, {"m": 2.5, "n": 4}]
        payload = pack_points(values, points)
        out_values, columns, kind = unpack_columns(payload)
        assert kind == "mapping"
        assert isinstance(out_values, np.ndarray)
        assert out_values.dtype == np.float64
        assert columns["m"].dtype == np.float64
        assert columns["n"].dtype == np.int64
        assert np.array_equal(columns["m"], [0.5, 1.5, 2.5])


class TestArrayColumns:
    """Columns that arrive as ndarrays pack exactly like their lists."""

    @given(
        st.lists(
            st.sampled_from(["C", "E", "X", "Lpb", "lat"]),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_str_column_list_and_array_pack_identically(self, labels):
        values = [float(i) for i in range(len(labels))]
        from_list = pack_series(values, {"dominant": labels})
        from_array = pack_series(
            np.asarray(values), {"dominant": np.asarray(labels)}
        )
        assert from_array == from_list
        # First-seen category order, not sorted order.
        categories = from_list["columns"][0]["categories"]
        assert categories == list(dict.fromkeys(labels))

    def test_rate_grid_columns_are_typed_arrays(self):
        from repro.core.batch import evaluate_rate_grid
        from repro.runner.sharding import grid_descriptor, materialise_grid

        rates = materialise_grid(
            grid_descriptor("geomspace", 32e3, 4096e3, 2000)
        )
        columns = evaluate_rate_grid(rates)
        dtypes = {name: column.dtype for name, column in columns.items()}
        assert dtypes == {
            "required_buffer_bits": np.dtype(np.float64),
            "energy_buffer_bits": np.dtype(np.float64),
            "feasible": np.dtype(bool),
            "dominant": np.dtype("<U1"),
        }
        # The reference grid spans all three Figure 3 regions.
        assert set(columns["dominant"].tolist()) == {"C", "E", "X"}
        assert columns["dominant"].dtype == np.asarray(
            columns["dominant"].tolist()
        ).dtype


class TestBytesAcrossBackends:
    def test_jsonable_bytes_roundtrip(self):
        record = {
            "key": "k",
            "value": {"blob": b"\x00\x01\xff", "nested": [b"ab", 1]},
        }
        encoded = jsonable_bytes(record)
        assert encoded["value"]["blob"] == {"@bytes": "AAH/"}
        assert restore_bytes(encoded) == record
        # No-bytes records come back identical (and uncopied).
        plain = {"key": "k", "value": 1}
        assert jsonable_bytes(plain) is plain

    def test_extract_inject_blob_roundtrip(self):
        record = {
            "key": "k",
            "value": {"blob": b"abcd", "more": [b"xy"]},
        }
        jsonable, blob = extract_blob(record)
        assert blob == b"abcdxy"
        assert jsonable["value"]["blob"] == {"@blob": [0, 4]}
        assert inject_blob(jsonable, blob) == record
        plain = {"key": "k", "value": 1}
        jsonable, blob = extract_blob(plain)
        assert blob is None and jsonable == plain

    @pytest.mark.parametrize("backend", ["jsonl", "sqlite"])
    @given(mapping_sweeps())
    @settings(max_examples=25, deadline=None)
    def test_store_roundtrip_bit_exact(self, tmp_path_factory, backend,
                                       sweep):
        values, points = sweep
        payload = pack_points(values, points)
        path = tmp_path_factory.mktemp("codec") / f"s.{backend}"
        store = ResultStore(path, backend=backend)
        store.append({"key": "k", "status": "ok", "value": payload})
        stored = store.get("k")
        store.close()
        assert stored["value"]["blob"] == payload["blob"]
        out_values, out_points = unpack_points(stored["value"])
        assert same_points(values, out_values)
        assert same_points(points, out_points)


class TestMigration:
    def _sweep_store(self, path, backend=None):
        campaign = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=str(path),
            shards=4,
        )
        result = run_campaign(
            campaign, store_path=str(path), store_backend=backend
        )
        assert result.ok
        return campaign

    def test_migrate_across_payload_kinds_both_directions(self, tmp_path):
        """Columnar blocks survive JSONL -> SQLite -> JSONL verbatim."""
        jsonl_path = tmp_path / "a.jsonl"
        campaign = self._sweep_store(jsonl_path, backend="jsonl")
        sqlite_path = tmp_path / "b.sqlite"
        migrated = migrate_store(jsonl_path, sqlite_path)
        back_path = tmp_path / "c.jsonl"
        migrate_store(sqlite_path, back_path, dst_backend="jsonl")

        source = ResultStore(jsonl_path).load()
        via = ResultStore(sqlite_path).load()
        back = ResultStore(back_path).load()
        assert len(source) == migrated
        assert source == via == back  # bytes payloads included

        # The migrated store still answers sweep queries.
        values, points = collect_points(str(sqlite_path), campaign)
        assert values == GRID
        point = lookup_point(str(sqlite_path), campaign, GRID[3])
        assert point == points[3]

    def test_mixed_payload_kind_store_migrates(self, tmp_path):
        """Legacy JSON point records and columnar blocks coexist."""
        path = tmp_path / "mixed.jsonl"
        shutil.copyfile(LEGACY_FIXTURE, path)
        self._sweep_store(path)  # columnar on top
        store = ResultStore(path)
        kinds = {payload_kind(record) for record in store.iter_records()}
        store.close()
        assert {"shard-json", "point", "columnar-block"} <= kinds
        dst = tmp_path / "mixed.sqlite"
        migrated = migrate_store(path, dst)
        assert migrated == len(ResultStore(path).load())
        assert ResultStore(dst).load() == ResultStore(path).load()


class TestColumnarParity:
    def test_pre_codec_store_still_reads_and_merges(self, tmp_path):
        """A store whose shards predate the codec merges columnar."""
        from repro.core.batch import evaluate_rate_grid
        from repro.runner.sharding import shard_grid

        path = str(tmp_path / "old.sqlite")
        campaign = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=path,
            shards=4,
        )
        # Shard payloads in the legacy per-point JSON format under the
        # DEFAULT content keys: what a pre-codec build produced.
        store = ResultStore(path)
        for spec, chunk in zip(campaign.specs[:-1], shard_grid(GRID, 4)):
            series = evaluate_rate_grid(chunk)
            points = [
                {name: series[name][i].item() for name in series}
                for i in range(len(chunk))
            ]
            store.append(
                {
                    "key": spec.key,
                    "job_id": spec.job_id,
                    "status": "ok",
                    "value": {
                        "parameter": "rate_bps",
                        "values": chunk,
                        "points": json_safe(points),
                    },
                }
            )
        store.close()

        # A current build merges those legacy payloads into columnar
        # blocks, and every reader still answers identically.
        merge = campaign.specs[-1]
        summary = merge_shards(**merge.params_dict())
        assert summary["points"] == len(GRID)
        assert summary["block_records"] >= 1
        values, points = collect_points(path, campaign)
        assert values == GRID
        columns = collect_arrays(path, campaign)
        assert columns.columns["required_buffer_bits"].tolist() == [
            p["required_buffer_bits"] for p in points
        ]
        assert lookup_point(path, campaign, GRID[5]) == points[5]


class TestColumnarCrashResume:
    def test_crashed_columnar_merge_resumes(self, tmp_path, monkeypatch):
        """A merge killed mid-block re-runs without recomputing shards."""
        path = tmp_path / "crash.sqlite"
        full = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=str(path),
            shards=4,
        )
        shards_only = Campaign("shards", specs=list(full.specs[:-1]))
        assert run_campaign(shards_only, store_path=str(path)).ok
        merge = full.specs[-1]

        flushes = {"count": 0}
        original = ResultStore.append_many

        def dying(self, records):
            if flushes["count"] >= 1:
                raise OSError("simulated crash mid-merge")
            flushes["count"] += 1
            return original(self, records)

        monkeypatch.setattr(ResultStore, "append_many", dying)
        with pytest.raises(OSError):
            merge_shards(flush_chunk=10, **merge.params_dict())
        monkeypatch.setattr(ResultStore, "append_many", original)

        # The store holds a partial block prefix...
        store = ResultStore(str(path))
        partial = sum(
            1
            for record in store.iter_records()
            if payload_kind(record) == "columnar-block"
        )
        store.close()
        assert partial >= 1

        # ...and the campaign re-run resolves every shard from cache,
        # re-running only the merge; duplicate blocks are harmless
        # under latest-wins semantics.
        resumed = run_campaign(full, store_path=str(path))
        assert resumed.status_counts() == {"cached": 4, "ok": 1}
        summary = resumed.results["sweep/merge"].value
        assert summary["points"] == len(GRID)
        values, points = collect_points(str(path), full)
        assert values == GRID
        assert lookup_point(str(path), full, GRID[0]) == points[0]


class TestPayloadKinds:
    def test_store_records_classify(self, tmp_path):
        path = str(tmp_path / "k.sqlite")
        campaign = sharded_sweep_campaign(
            "sweep",
            TARGET_DSPACE,
            "rate_bps",
            GRID,
            store_path=path,
            shards=2,
        )
        assert run_campaign(campaign, store_path=path).ok
        store = ResultStore(path)
        kinds = {}
        total_bytes = 0
        for record, nbytes in store.iter_records_with_size():
            kind = payload_kind(record)
            kinds[kind] = kinds.get(kind, 0) + 1
            assert nbytes > 0
            total_bytes += nbytes
        store.close()
        # Shard job records carry columnar payloads, so they classify
        # by payload; only the merge job's summary stays plain "job".
        assert kinds["columnar-shard"] == 2
        assert kinds["columnar-block"] >= 1
        assert kinds["job"] == 1
        assert total_bytes > 0
