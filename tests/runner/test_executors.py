"""Execution backends: kind resolution, pool fairness, lost workers.

The pool tests exercise real worker processes, real worker crashes and
a real SIGKILL of the supervisor itself — the proof that a lost worker
costs its job one attempt and nothing more, and that an orphaned
worker never outlives its campaign.
"""

from __future__ import annotations

import os
import signal
import subprocess
import sys
import time

import pytest

from repro.errors import ConfigurationError
from repro.runner.events import (
    EVENT_LOST,
    EVENT_REQUEUED,
    EVENT_RETRY,
)
from repro.runner import collect_points, run_campaign
from repro.runner.executors import (
    EXECUTOR_ENV_VAR,
    PoolExecutor,
    SerialExecutor,
    make_executor,
    resolve_executor_kind,
)
from repro.runner.integrity import damage_total
from repro.runner.jobs import JobSpec
from repro.runner.queue import run_jobs
from repro.runner.sharding import sharded_sweep_campaign
from repro.runner.store import ResultStore


def _spec(job_id, target, retries=0, deadline_s=None, **params):
    return JobSpec(
        job_id=job_id,
        kind="callable",
        target=f"runner_workers:{target}",
        params=params,
        retries=retries,
        deadline_s=deadline_s,
    )


def _alive(pid):
    """Whether ``pid`` is a live (not dead, not zombie) process."""
    try:
        os.kill(pid, 0)
    except ProcessLookupError:
        return False
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as handle:
            state = handle.read().rsplit(")", 1)[1].split()[0]
    except (OSError, IndexError):
        return False
    return state != "Z"


#: A supervisor whose merge attempt hangs in a pool worker.  It prints
#: its pool's worker pids once the merge starts, then waits forever.
_SUPERVISOR = """
import sys
from repro.runner import run_campaign, sharded_sweep_campaign
from repro.runner.executors import PoolExecutor

store_path = sys.argv[1]
campaign = sharded_sweep_campaign(
    "orphan", "runner_workers:array_curve", "values",
    [float(v) for v in range(12)], store_path=store_path, shards=2,
)
backend = PoolExecutor(2)

def announce(event):
    if event.kind == "started" and event.job_id == "orphan/merge":
        print(" ".join(str(w.pid) for w in backend.workers()), flush=True)

run_campaign(
    campaign, store_path=store_path, executor=backend,
    observers=[announce],
    faults={"rules": [{"site": "queue.attempt", "action": "hang",
                       "seconds": 60, "job_id": "orphan/merge#1"}]},
)
"""


class TestKindResolution:
    def test_defaults_by_jobs(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV_VAR, raising=False)
        assert resolve_executor_kind(None, 1) == "serial"
        assert resolve_executor_kind(None, 4) == "pool"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "pool")
        assert resolve_executor_kind(None, 1) == "pool"

    def test_explicit_choice_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "pool")
        assert resolve_executor_kind("serial", 4) == "serial"

    def test_unknown_choice_rejected(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_executor_kind("threads", 2)
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_executor_kind("fleet", 2)

    def test_unknown_env_rejected(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV_VAR, "threads")
        with pytest.raises(ConfigurationError, match="unknown executor"):
            resolve_executor_kind(None, 2)

    def test_make_executor_kinds(self):
        serial = make_executor("serial", jobs=1)
        assert isinstance(serial, SerialExecutor)
        pool = make_executor("pool", jobs=2)
        assert isinstance(pool, PoolExecutor)
        pool.shutdown()

    def test_run_jobs_rejects_unknown_kind(self):
        with pytest.raises(ConfigurationError, match="unknown executor"):
            run_jobs([_spec("a", "identity", value=1)], executor="threads")

    def test_serial_kind_with_parallel_jobs(self):
        # executor="serial" forces in-process execution even at jobs=4.
        results = run_jobs(
            [_spec("a", "identity", value=3)], jobs=4, executor="serial"
        )
        assert results["a"].value == 3
        assert results["a"].worker_pid == os.getpid()


class TestPoolBackend:
    def test_queued_behind_jobs_unaffected_by_pool_break(self, tmp_path):
        """A broken pool only charges the jobs that were in flight.

        Capacity-capped dispatch means queued-behind jobs are never
        handed to the pool that broke: they run later, first try, with
        no lost/retry events of their own.
        """
        events = []
        specs = [
            _spec("killer", "die", retries=1),
            _spec("innocent", "slow_identity", value=11, delay_s=0.4),
            _spec("q1", "add", a=1, b=2),
            _spec("q2", "add", a=3, b=4),
            _spec("q3", "add", a=5, b=6),
        ]
        results = run_jobs(
            specs, jobs=2, executor="pool", observers=[events.append]
        )
        assert results["killer"].status == "failed"
        assert "worker process died" in results["killer"].error
        assert results["innocent"].value == 11
        assert [results[f"q{i}"].value for i in (1, 2, 3)] == [3, 7, 11]
        for queued in ("q1", "q2", "q3"):
            assert results[queued].attempts == 1
            kinds = {e.kind for e in events if e.job_id == queued}
            assert EVENT_LOST not in kinds
            assert EVENT_RETRY not in kinds

    def test_lost_events_on_worker_crash(self):
        events = []
        specs = [
            _spec("killer", "die", retries=1),
            _spec("bystander", "slow_identity", value=4, delay_s=0.3),
        ]
        results = run_jobs(
            specs, jobs=2, executor="pool", observers=[events.append]
        )
        assert results["killer"].status == "failed"
        assert results["bystander"].value == 4
        killer_kinds = [e.kind for e in events if e.job_id == "killer"]
        assert EVENT_LOST in killer_kinds
        assert EVENT_REQUEUED in killer_kinds

    def test_job_error_is_structured_not_lost(self):
        events = []
        results = run_jobs(
            [_spec("bad", "boom")],
            jobs=2,
            executor="pool",
            observers=[events.append],
        )
        assert results["bad"].status == "failed"
        assert "RuntimeError: boom" in results["bad"].error
        assert EVENT_LOST not in {e.kind for e in events}

    def test_workers_fence_themselves_when_the_supervisor_dies(
        self, tmp_path
    ):
        """kill -9 the supervisor: its workers exit, a resume converges.

        The merge attempt hangs in a pool worker when the supervisor is
        killed; both workers must notice the re-parenting and exit
        within 3 s, and a fresh run over the same store must converge
        bit-exact with a clean store scan.
        """
        store_path = str(tmp_path / "s.jsonl")
        supervisor = subprocess.Popen(
            [sys.executable, "-c", _SUPERVISOR, store_path],
            stdout=subprocess.PIPE, text=True,
        )
        pids = []
        try:
            pids = [int(pid) for pid in supervisor.stdout.readline().split()]
            assert len(pids) == 2, "supervisor never reached the merge"
            assert all(_alive(pid) for pid in pids)
            supervisor.kill()
            supervisor.wait(timeout=10.0)
            deadline = time.monotonic() + 3.0
            while time.monotonic() < deadline and any(map(_alive, pids)):
                time.sleep(0.05)
            survivors = [pid for pid in pids if _alive(pid)]
            assert not survivors, f"orphaned workers survived: {survivors}"
        finally:
            supervisor.kill()
            supervisor.wait(timeout=10.0)
            supervisor.stdout.close()
            for pid in pids:
                if _alive(pid):
                    os.kill(pid, signal.SIGKILL)

        def sweep(path):
            return sharded_sweep_campaign(
                "orphan", "runner_workers:array_curve", "values",
                [float(v) for v in range(12)], store_path=path, shards=2,
            )

        baseline_path = str(tmp_path / "baseline.jsonl")
        baseline = sweep(baseline_path)
        assert run_campaign(baseline, store_path=baseline_path).ok
        campaign = sweep(store_path)
        resumed = run_campaign(campaign, store_path=store_path)
        assert resumed.ok
        assert resumed.results["orphan/shard0000"].status == "cached"
        assert collect_points(store_path, campaign) == collect_points(
            baseline_path, baseline
        )
        store = ResultStore(store_path)
        try:
            stats = store.verify()
        finally:
            store.close()
        assert damage_total(stats) == 0
