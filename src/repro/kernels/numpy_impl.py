"""Vectorised (``numpy`` tier) implementations of the hot kernels.

This is the code that used to live inline in
``DesignSpaceExplorer.energy_wall_rate_batch`` and
``SectorLayout._best_user_bits_chunk`` — refactored behind the kernel
registry, operation for operation, so moving it here changed no
answer.  One behavioural upgrade rode along:
the saw-tooth peak search's fixed 16384-row chunking is now *adaptive*
(:func:`batch_chunk_rows`): the chunk size is derived from the row
width of the candidate matrix against a fixed memory budget, with
``REPRO_BATCH_CHUNK_ROWS`` as the explicit override.
"""

from __future__ import annotations

import os

import numpy as np

from .scalar import BISECT_ITERATIONS, BISECT_RTOL, SAWTOOTH_OFFSETS

#: Environment variable forcing the chunk row count of chunked batch
#: passes (the saw-tooth candidate matrix).  Unset = adaptive.
CHUNK_ROWS_ENV_VAR = "REPRO_BATCH_CHUNK_ROWS"

#: Peak-memory budget one chunked batch pass may spend on temporaries.
#: 32 MiB reproduces the old fixed 16k-row chunk at the saw-tooth's
#: 66-column row width while scaling down for wider matrices.
CHUNK_BUDGET_BYTES = 32 * 1024 * 1024

#: Adaptive chunk clamp: never degenerate to tiny Python-loop-bound
#: chunks, never balloon past the budget's intent.
MIN_CHUNK_ROWS = 1_024
MAX_CHUNK_ROWS = 65_536


def batch_chunk_rows(
    row_width: int, itemsize: int = 8, temporaries: int = 4
) -> int:
    """Rows per chunk for a chunked ``(rows x row_width)`` batch pass.

    Sized so ``temporaries`` live copies of the chunk matrix fit the
    :data:`CHUNK_BUDGET_BYTES` budget (the saw-tooth pass materialises
    the candidate matrix, its sector sizes, and the utilisation grid
    at once).  ``REPRO_BATCH_CHUNK_ROWS`` overrides the computation
    outright — the benchmark suite uses it to pin comparisons.
    """
    override = os.environ.get(CHUNK_ROWS_ENV_VAR, "").strip()
    if override:
        return max(1, int(override))
    bytes_per_row = max(1, row_width * itemsize * temporaries)
    rows = CHUNK_BUDGET_BYTES // bytes_per_row
    return int(min(MAX_CHUNK_ROWS, max(MIN_CHUNK_ROWS, rows)))


def energy_wall_bisect(
    goals,
    rate_min: float,
    rate_max: float,
    rm: float,
    p_rw: float,
    p_sb: float,
    p_idle: float,
    be_frac: float,
) -> np.ndarray:
    """Lockstep log-domain bisection: all lanes as one array.

    Per-lane semantics (midpoints, the reach test, the retirement
    tolerance) are identical to the scalar tier; the convergence mask
    just retires finished lanes so a late straggler never re-evaluates
    the whole grid.
    """
    goals = np.asarray(goals, dtype=np.float64)
    flat = goals.ravel()
    lo = np.full(flat.shape, float(rate_min))
    hi = np.full(flat.shape, float(rate_max))
    live = np.ones(flat.shape, dtype=bool)
    for _ in range(BISECT_ITERATIONS):
        sel = np.flatnonzero(live)
        if sel.size == 0:
            break
        mid = np.sqrt(lo[sel] * hi[sel])
        net = rm - mid
        always_on = p_rw / net + p_idle / mid
        cycle_per_bit = rm / (mid * net)
        transfer = (1.0 / net) * (p_rw - p_sb)
        best_effort = be_frac * cycle_per_bit * (p_rw - p_sb)
        standby = cycle_per_bit * p_sb
        saving = 1.0 - (transfer + best_effort + standby) / always_on
        reach = saving > flat[sel]
        lo[sel[reach]] = mid[reach]
        hi[sel[~reach]] = mid[~reach]
        live[sel] = hi[sel] / lo[sel] >= 1.0 + BISECT_RTOL
    return np.sqrt(lo * hi).reshape(goals.shape)


def _ecc_bits(user_bits: np.ndarray, num: int, den: int) -> np.ndarray:
    """Vectorised ``ceil(u * num / den)`` (exact int64 arithmetic)."""
    return -((-user_bits * num) // den)


def _sector_bits(
    user_bits: np.ndarray, k: int, c: int, num: int, den: int
) -> np.ndarray:
    """Vectorised Equations (2)-(3) for fractional/no ECC."""
    payload = user_bits + _ecc_bits(user_bits, num, den)
    return k * (-((-payload) // k) + c)


def _max_su_with_payload(
    payload: np.ndarray, num: int, den: int
) -> np.ndarray:
    """Vectorised guess-and-correct inverse of the payload budget."""
    positive = payload > 0
    ratio = num / den
    su = np.where(
        positive,
        (payload / (1.0 + ratio)).astype(np.int64) + 2,
        0,
    )

    def overflows(candidate: np.ndarray) -> np.ndarray:
        return candidate + _ecc_bits(candidate, num, den) > payload

    over = (su > 0) & overflows(su)
    while over.any():
        su[over] -= 1
        over = (su > 0) & overflows(su)
    fits_next = positive & ~overflows(su + 1)
    while fits_next.any():
        su[fits_next] += 1
        fits_next = positive & ~overflows(su + 1)
    return su


def _sawtooth_chunk(
    caps: np.ndarray, k: int, c: int, num: int, den: int
) -> np.ndarray:
    """One bounded chunk of the saw-tooth peak search."""
    payload_cap = caps + _ecc_bits(caps, num, den)
    top_column = payload_cap // k
    offsets = np.arange(0, SAWTOOTH_OFFSETS, dtype=np.int64)
    columns = np.maximum(top_column[:, None] - offsets[None, :], 1)
    su = _max_su_with_payload(columns * k, num, den)
    valid = (su > 0) & (su <= caps[:, None])
    # The cap itself is always a candidate; invalid peaks stay in the
    # matrix as a harmless placeholder and are excluded from the
    # argmax by forcing their utilisation below any real one.
    candidates = np.concatenate(
        [caps[:, None], np.where(valid, su, 1)], axis=1
    )
    utilisation = candidates / _sector_bits(candidates, k, c, num, den)
    utilisation[:, 1:][~valid] = -1.0
    best = np.argmax(utilisation, axis=1)
    return candidates[np.arange(caps.size), best]


def sawtooth_best_user_bits(
    caps, k: int, c: int, num: int, den: int
) -> np.ndarray:
    """Vectorised saw-tooth peak search, processed in adaptive chunks.

    The ``(chunk x 66)`` candidate matrix keeps peak memory O(chunk)
    regardless of the grid size; :func:`batch_chunk_rows` sizes the
    chunk from the matrix row width instead of the old fixed 16384.
    """
    caps = np.asarray(caps, dtype=np.int64)
    flat = caps.ravel()
    out = np.empty(flat.shape, dtype=np.int64)
    chunk = batch_chunk_rows(SAWTOOTH_OFFSETS + 1)
    for start in range(0, flat.size, chunk):
        out[start : start + chunk] = _sawtooth_chunk(
            flat[start : start + chunk], k, c, num, den
        )
    return out.reshape(caps.shape)


def register_numpy(registry) -> None:
    """Register every numpy-tier kernel on ``registry``."""
    registry.register("energy_wall_bisect", "numpy", energy_wall_bisect)
    registry.register(
        "sawtooth_best_user_bits", "numpy", sawtooth_best_user_bits
    )
