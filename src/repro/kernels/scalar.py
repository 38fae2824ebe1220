"""Pure-Python reference implementations of the hot kernels.

The ``scalar`` tier is the ground truth: every operation is written in
the same order as the ``numpy`` and ``native`` tiers (reciprocals kept
as reciprocals, guesses truncated the same way), so the three tiers
agree bit for bit on integers and within 1 ULP on floats — which is
exactly what the parity suite in ``tests/kernels/`` asserts.  Nobody
dispatches here for speed; set ``REPRO_KERNELS=scalar`` to debug a
parity failure one lane at a time.
"""

from __future__ import annotations

import math

import numpy as np

#: Offsets window of the saw-tooth peak search: the candidate peaks are
#: the stripe columns ``top_column - 0 .. top_column - 64`` (plus the
#: cap itself), the same window the pre-kernel chunked code scanned.
SAWTOOTH_OFFSETS = 65

#: Bisection iteration cap and relative convergence tolerance, shared
#: by every tier (and by the scalar ``energy_wall_rate`` method).
BISECT_ITERATIONS = 80
BISECT_RTOL = 1e-12


def _max_saving(
    rate: float,
    rm: float,
    p_rw: float,
    p_sb: float,
    p_idle: float,
    be_frac: float,
) -> float:
    """``EnergyModel.max_energy_saving`` as a closed form of constants.

    Operation order mirrors ``max_energy_saving_batch`` exactly
    (reciprocal-then-multiply for the transfer term) so the tiers
    cannot drift apart by association.
    """
    net = rm - rate
    always_on = p_rw / net + p_idle / rate
    cycle_per_bit = rm / (rate * net)
    transfer = (1.0 / net) * (p_rw - p_sb)
    best_effort = be_frac * cycle_per_bit * (p_rw - p_sb)
    standby = cycle_per_bit * p_sb
    return 1.0 - (transfer + best_effort + standby) / always_on


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
    """Log-domain bisection of the energy wall, one lane per goal.

    Every lane handed to this kernel is known to bracket its wall
    (reachable at ``rate_min``, unreachable at ``rate_max``); the
    pre-classification lives at the call site.  A NaN goal never
    satisfies ``saving > goal`` and converges onto ``rate_min`` — the
    same lane behaviour on every tier.
    """
    goals = np.asarray(goals, dtype=np.float64)
    out = np.empty(goals.shape, dtype=np.float64)
    flat = goals.ravel()
    flat_out = out.ravel()
    for index in range(flat.size):
        goal = float(flat[index])
        lo, hi = float(rate_min), float(rate_max)
        for _ in range(BISECT_ITERATIONS):
            mid = math.sqrt(lo * hi)
            if _max_saving(mid, rm, p_rw, p_sb, p_idle, be_frac) > goal:
                lo = mid
            else:
                hi = mid
            if hi / lo < 1.0 + BISECT_RTOL:
                break
        flat_out[index] = math.sqrt(lo * hi)
    return out


def _ecc_bits(user_bits: int, num: int, den: int) -> int:
    """``ceil(user_bits * num / den)`` in exact integer arithmetic."""
    return -((-user_bits * num) // den)


def _sector_bits(user_bits: int, k: int, c: int, num: int, den: int) -> int:
    """Equations (2)-(3): stored sector size for one user-bit count."""
    payload = user_bits + _ecc_bits(user_bits, num, den)
    return k * (-((-payload) // k) + c)


def _max_su_with_payload(payload: int, num: int, den: int) -> int:
    """Largest ``Su`` with ``Su + ecc(Su) <= payload`` (guess + correct)."""
    if payload <= 0:
        return 0
    ratio = num / den
    su = int(payload / (1.0 + ratio)) + 2
    while su > 0 and su + _ecc_bits(su, num, den) > payload:
        su -= 1
    while (su + 1) + _ecc_bits(su + 1, num, den) <= payload:
        su += 1
    return su


def sawtooth_best_user_bits(
    caps, k: int, c: int, num: int, den: int
) -> np.ndarray:
    """Best saw-tooth ``Su <= cap`` per cap, for fractional/no ECC.

    Candidate order matches the vectorised tier: the cap itself first,
    then the peaks of the 65 stripe columns walking down from the
    cap's own column; ties keep the earliest candidate (``argmax``
    semantics), so every tier returns the identical ``Su``.
    """
    caps = np.asarray(caps, dtype=np.int64)
    out = np.empty(caps.shape, dtype=np.int64)
    flat = caps.ravel()
    flat_out = out.ravel()
    for index in range(flat.size):
        cap = int(flat[index])
        payload_cap = cap + _ecc_bits(cap, num, den)
        top_column = payload_cap // k
        best_su = cap
        best_util = cap / _sector_bits(cap, k, c, num, den)
        for offset in range(SAWTOOTH_OFFSETS):
            column = top_column - offset
            if column < 1:
                column = 1
            su = _max_su_with_payload(column * k, num, den)
            if 0 < su <= cap:
                util = su / _sector_bits(su, k, c, num, den)
                if util > best_util:
                    best_su, best_util = su, util
        flat_out[index] = best_su
    return out


def register_scalar(registry) -> None:
    """Register every scalar-tier kernel on ``registry``."""
    registry.register("energy_wall_bisect", "scalar", energy_wall_bisect)
    registry.register(
        "sawtooth_best_user_bits", "scalar", sawtooth_best_user_bits
    )
