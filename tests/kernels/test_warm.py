"""Warm paths: the pool initializer, pool workers, and the JIT cache."""

from __future__ import annotations

from repro.kernels import (
    CACHE_DIR_ENV_VAR,
    KERNELS_ENV_VAR,
    active_tier,
    reset_kernels,
    warm_kernels,
)
from repro.runner.jobs import JobSpec
from repro.runner.queue import run_jobs
from repro.telemetry import metrics


def _spec(job_id, target, **params):
    return JobSpec(
        job_id=job_id,
        kind="callable",
        target=f"kernel_workers:{target}",
        params=params,
    )


class TestWarmKernels:
    def test_warm_returns_tier_and_counts_once(self):
        tier = warm_kernels()
        assert tier == active_tier()
        counters = metrics().snapshot()["counters"]
        assert counters["kernel.warm.calls"] == 1.0
        # Idempotent: a second warm neither re-probes nor re-counts.
        assert warm_kernels() == tier
        counters = metrics().snapshot()["counters"]
        assert counters["kernel.warm.calls"] == 1.0

    def test_warm_probes_every_kernel(self, monkeypatch):
        monkeypatch.setenv(KERNELS_ENV_VAR, "numpy")
        reset_kernels()
        warm_kernels()
        counters = metrics().snapshot()["counters"]
        for name in (
            "energy_wall_bisect",
            "sawtooth_best_user_bits",
        ):
            assert counters[f"kernel.{name}.calls"] >= 1.0

    def test_warm_reference_models_warms_kernels(self):
        from repro.core.batch import warm_reference_models

        warm_reference_models()
        counters = metrics().snapshot()["counters"]
        assert counters["kernel.warm.calls"] == 1.0


class TestPoolWarmPath:
    def test_explicit_cache_pin_survives_into_workers(
        self, monkeypatch, tmp_path
    ):
        pinned = str(tmp_path / "my-cache")
        monkeypatch.setenv(CACHE_DIR_ENV_VAR, pinned)
        results = run_jobs(
            [_spec("cache-env", "kernel_cache_env")],
            jobs=1,
            executor="pool",
        )
        assert results["cache-env"].value == pinned
