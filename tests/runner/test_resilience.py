"""Resilience tests: per-job deadlines, retry backoff, timeout events."""

from __future__ import annotations

import time

import pytest

from repro.errors import ConfigurationError
from repro.runner.events import EVENT_TIMEOUT, TERMINAL_EVENTS
from repro.runner.jobs import JobSpec
from repro.runner.queue import run_jobs


def sleepy_spec(job_id, delay_s, **kwargs):
    return JobSpec(
        job_id, "callable", "runner_workers:slow_identity",
        params={"value": job_id, "delay_s": delay_s}, **kwargs,
    )


@pytest.fixture
def backoff_draws(monkeypatch):
    """Every retry-backoff delay the scheduler draws, in order."""
    from repro.runner import queue as queue_module

    draws = []
    draw = queue_module._backoff_delay

    def recording_draw(*args):
        draws.append(draw(*args))
        return draws[-1]

    monkeypatch.setattr(queue_module, "_backoff_delay", recording_draw)
    return draws


class TestSpecValidation:
    def test_deadline_must_be_positive(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ConfigurationError, match="deadline_s"):
                JobSpec("j", deadline_s=bad)

    def test_backoff_must_be_non_negative(self):
        with pytest.raises(ConfigurationError, match="retry_backoff_s"):
            JobSpec("j", retry_backoff_s=-0.1)

    def test_neither_knob_enters_the_key(self):
        plain = JobSpec("j", "callable", "m:f")
        tuned = JobSpec(
            "j", "callable", "m:f", deadline_s=5.0, retry_backoff_s=1.0
        )
        assert plain.key == tuned.key


class TestSerialDeadline:
    def test_hung_job_fails_fast(self):
        events = []
        start = time.monotonic()
        results = run_jobs(
            [sleepy_spec("hung", 30.0, deadline_s=0.2)],
            observers=[events.append],
        )
        elapsed = time.monotonic() - start
        assert elapsed < 5.0
        result = results["hung"]
        assert result.status == "failed"
        assert "deadline exceeded" in result.error
        assert [e.kind for e in events] == [
            "scheduled", "started", "timeout", "failed",
        ]

    def test_timeout_event_is_not_terminal(self):
        assert EVENT_TIMEOUT not in TERMINAL_EVENTS

    def test_timeout_charges_the_attempt_and_retries(self):
        events = []
        results = run_jobs(
            [sleepy_spec("hung", 30.0, deadline_s=0.15, retries=1)],
            observers=[events.append],
        )
        assert results["hung"].status == "failed"
        assert results["hung"].attempts == 2
        kinds = [e.kind for e in events]
        assert kinds.count("timeout") == 2
        assert kinds[-1] == "failed"

    def test_timeout_retries_without_backoff(self, backoff_draws):
        from repro.telemetry import metrics, reset_telemetry

        reset_telemetry()
        results = run_jobs(
            [sleepy_spec("hung", 30.0, deadline_s=0.1, retries=1,
                         retry_backoff_s=5.0)],
            backoff_seed=1,
        )
        assert results["hung"].status == "failed"
        assert results["hung"].attempts == 2
        # A hung retry already pays the full deadline: no jitter draw.
        assert backoff_draws == []
        assert metrics().histogram("queue.backoff_s") is None
        reset_telemetry()

    def test_fast_job_unaffected_by_deadline(self):
        results = run_jobs([sleepy_spec("quick", 0.0, deadline_s=10.0)])
        assert results["quick"].status == "ok"
        assert results["quick"].value == "quick"


class TestEnvDefaultDeadline:
    def test_env_var_applies_to_undeadlined_specs(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE_S", "0.2")
        results = run_jobs([sleepy_spec("hung", 30.0)])
        assert results["hung"].status == "failed"
        assert "deadline exceeded" in results["hung"].error

    def test_spec_deadline_wins_over_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE_S", "0.05")
        results = run_jobs([sleepy_spec("ok", 0.2, deadline_s=30.0)])
        assert results["ok"].status == "ok"

    def test_bad_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE_S", "soon")
        with pytest.raises(ConfigurationError, match="REPRO_JOB_DEADLINE_S"):
            run_jobs([JobSpec("j", "callable", "runner_workers:square",
                              params={"x": 1})])

    def test_non_positive_env_value_rejected(self, monkeypatch):
        monkeypatch.setenv("REPRO_JOB_DEADLINE_S", "0")
        with pytest.raises(ConfigurationError, match="positive"):
            run_jobs([JobSpec("j", "callable", "runner_workers:square",
                              params={"x": 1})])


class TestPoolDeadline:
    def test_hung_worker_evicted_sibling_survives(self):
        start = time.monotonic()
        results = run_jobs(
            [
                sleepy_spec("hung", 60.0, deadline_s=0.75),
                JobSpec("fast", "callable", "runner_workers:add",
                        params={"a": 1, "b": 1}),
            ],
            jobs=2,
        )
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        assert results["hung"].status == "failed"
        assert "deadline exceeded" in results["hung"].error
        assert results["fast"].status == "ok"
        assert results["fast"].value == 2

    def test_hung_worker_retry_then_give_up(self):
        results = run_jobs(
            [sleepy_spec("hung", 60.0, deadline_s=0.5, retries=1)],
            jobs=2,
        )
        assert results["hung"].status == "failed"
        assert results["hung"].attempts == 2


class TestRetryBackoff:
    @pytest.fixture
    def run(self, backoff_draws, monkeypatch):
        """Run one all-failing spec; its backoff draws and positive sleeps."""
        from repro.runner import queue as queue_module

        def executor(spec):
            raise RuntimeError("nope")

        def run_with_seed(seed):
            backoff_draws.clear()
            sleeps = []
            monkeypatch.setattr(queue_module.time, "sleep", sleeps.append)
            run_jobs(
                [JobSpec("j", "callable", "m:f", retries=4,
                         retry_backoff_s=0.05)],
                executor=executor,
                backoff_seed=seed,
            )
            # Other subsystems yield with time.sleep(0); only the
            # backoff waits are positive.
            return list(backoff_draws), [s for s in sleeps if s > 0]

        return run_with_seed

    def test_full_jitter_is_seed_deterministic(self, run):
        first, _ = run(seed=7)
        again, _ = run(seed=7)
        other, _ = run(seed=8)
        assert len(first) == 4  # one draw per retry, none after FAILED
        assert first == again
        assert first != other

    def test_delays_respect_the_exponential_envelope(self, run):
        delays, _ = run(seed=3)
        for attempt, delay in enumerate(delays, start=1):
            assert 0.0 <= delay <= min(30.0, 0.05 * 2 ** (attempt - 1))

    def test_one_sleep_per_draw_never_longer(self, run):
        # The wait sleeps out what is left of the window, once: it
        # must not spin when the (faked) sleep lets no time pass.
        draws, sleeps = run(seed=3)
        assert len(sleeps) == len(draws) == 4
        for drawn, slept in zip(draws, sleeps):
            assert 0.0 < slept <= drawn

    def test_zero_backoff_never_sleeps(self, monkeypatch):
        from repro.runner import queue as queue_module

        recorded = []
        monkeypatch.setattr(
            queue_module.time, "sleep", recorded.append
        )
        def executor(spec):
            raise RuntimeError("nope")

        run_jobs(
            [JobSpec("j", "callable", "m:f", retries=3)],
            executor=executor,
        )
        assert [s for s in recorded if s > 0] == []
