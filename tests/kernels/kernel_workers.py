"""Importable job targets for kernel warm-path tests.

Pool workers resolve ``"kernel_workers:<name>"`` targets by import,
so everything here must stay module-level and deterministic.
"""

from __future__ import annotations

import os


def kernel_cache_env():
    """The kernel cache directory this worker process inherited."""
    from repro.kernels import CACHE_DIR_ENV_VAR

    return os.environ.get(CACHE_DIR_ENV_VAR)

