"""Cross-tier parity: scalar is ground truth, the other tiers match it.

Integer kernels must agree bit for bit; the float bisection within the
documented 1-ULP tolerance (in practice the tiers share every IEEE
operation in order, so they are bit-exact too).  Grids include NaN,
infinity, and denormal lanes, and integer columns up to 2**48 — large
enough to stress the float guess in the saw-tooth search, small enough
that Python-int and int64 arithmetic provably agree.  The codec cases
check the bytes ``runner/codec.py`` writes against a ``struct``-based
element-by-element packer, the byte-layout oracle.
"""

from __future__ import annotations

import importlib.util
import struct

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.kernels import numpy_impl, scalar
from repro.runner.codec import pack_series, unpack_columns

needs_numba = pytest.mark.skipif(
    importlib.util.find_spec("numba") is None,
    reason="numba not installed (repro[native] extra)",
)

# Table I constants (ibm_mems_prototype / table1_workload): the realistic
# operating point for the energy-wall bisection.
RM = 102_400_000.0
P_RW = 0.316
P_SB = 0.005
P_IDLE = 0.12
BE_FRAC = 0.05
RATE_MIN = 32_000.0
RATE_MAX = 4_096_000.0

OTHER_TIERS = [
    "numpy",
    pytest.param("native", marks=needs_numba),
]


def _impl(tier):
    if tier == "numpy":
        return numpy_impl
    from repro.kernels import native

    return native


# Goal lanes: ordinary fractions plus the pathologies — NaN, +/-inf,
# denormals, and goals outside the reachable saving range.
goal_values = st.one_of(
    st.floats(min_value=-2.0, max_value=2.0, allow_nan=False),
    st.sampled_from(
        [float("nan"), float("inf"), float("-inf"), 5e-324, -5e-324, 0.0]
    ),
)
goal_arrays = st.lists(goal_values, min_size=1, max_size=40).map(
    lambda vals: np.array(vals, dtype=np.float64)
)

# Caps up to 2**48: Python ints and int64 provably agree through the
# kernels' worst intermediate (cap * num stays far below 2**63).
cap_arrays = st.lists(
    st.one_of(
        st.integers(min_value=1, max_value=2**16),
        st.integers(min_value=1, max_value=2**48),
    ),
    min_size=1,
    max_size=40,
).map(lambda vals: np.array(vals, dtype=np.int64))

ecc_terms = st.sampled_from([(1, 8), (0, 1), (1, 4), (3, 16)])
stripe_widths = st.sampled_from([64, 512, 1024])
sync_bits = st.integers(min_value=0, max_value=4)

f8_values = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True, width=64),
    st.sampled_from([5e-324, -5e-324, -0.0, 1.7976931348623157e308]),
)
i8_values = st.one_of(
    st.integers(min_value=-(2**63), max_value=2**63 - 1),
    st.sampled_from([-(2**63), 2**63 - 1, 0, -1]),
)


class TestEnergyWallBisectParity:
    @pytest.mark.parametrize("tier", OTHER_TIERS)
    @given(goals=goal_arrays)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_within_one_ulp(self, tier, goals):
        args = (goals, RATE_MIN, RATE_MAX, RM, P_RW, P_SB, P_IDLE, BE_FRAC)
        reference = scalar.energy_wall_bisect(*args)
        candidate = _impl(tier).energy_wall_bisect(*args)
        assert candidate.dtype == np.float64
        assert candidate.shape == reference.shape
        np.testing.assert_array_max_ulp(candidate, reference, maxulp=1)

    @pytest.mark.parametrize("tier", OTHER_TIERS)
    def test_nan_goal_behaves_like_unreachable(self, tier):
        # NaN never satisfies `saving > goal`, so every iteration moves
        # hi down and the lane converges onto rate_min — on all tiers.
        goals = np.array([float("nan")])
        args = (goals, RATE_MIN, RATE_MAX, RM, P_RW, P_SB, P_IDLE, BE_FRAC)
        out = _impl(tier).energy_wall_bisect(*args)
        assert out[0] == pytest.approx(RATE_MIN, rel=1e-9)


class TestSawtoothParity:
    @pytest.mark.parametrize("tier", OTHER_TIERS)
    @given(caps=cap_arrays, k=stripe_widths, c=sync_bits, ecc=ecc_terms)
    @settings(max_examples=60, deadline=None)
    def test_bit_exact_against_scalar(self, tier, caps, k, c, ecc):
        num, den = ecc
        reference = scalar.sawtooth_best_user_bits(caps, k, c, num, den)
        candidate = _impl(tier).sawtooth_best_user_bits(caps, k, c, num, den)
        assert candidate.dtype == np.int64
        np.testing.assert_array_equal(candidate, reference)

    @pytest.mark.parametrize("tier", OTHER_TIERS)
    def test_peaks_beat_the_raw_cap(self, tier):
        # Just past a saw-tooth peak the best Su drops back to the peak;
        # the kernels must find it rather than return the cap.
        caps = np.array([1024 * 512 + 1], dtype=np.int64)
        out = _impl(tier).sawtooth_best_user_bits(caps, 512, 3, 0, 1)
        assert out[0] == 1024 * 512


def struct_pack(column, dtype: str) -> bytes:
    """The byte-layout oracle: one column packed element by element."""
    code = _STRUCT_CODE[dtype]
    cast = float if code == "d" else int
    items = [cast(v) for v in np.asarray(column).tolist()]
    return struct.pack(f"<{len(items)}{code}", *items)


def struct_unpack(blob: bytes, dtype: str, count: int, offset: int):
    """Decode ``count`` elements of ``dtype`` at ``offset``, element-wise."""
    code = _STRUCT_CODE[dtype]
    items = struct.unpack_from(f"<{count}{code}", blob, offset)
    return np.array(items, dtype=dtype)


_STRUCT_CODE = {"<f8": "d", "<i8": "q", "|u1": "B"}

#: How a column reaches the codec: as a typed ndarray (the batch
#: targets' shape) or as a list of Python scalars (per-point targets).
SOURCES = ["numpy", "list"]


def _pack(source, column):
    """A payload whose one metric column ``m`` is ``column``."""
    grid = np.arange(len(column), dtype=np.float64)
    data = column if source == "numpy" else column.tolist()
    return grid, pack_series(grid, {"m": data})


class TestCodecParity:
    """``runner/codec.py`` writes exactly the struct oracle's bytes."""

    @pytest.mark.parametrize("source", SOURCES)
    @given(values=st.lists(f8_values, min_size=0, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_f8_roundtrip_bit_exact(self, source, values):
        assume(values or source == "numpy")
        column = np.array(values, dtype=np.float64)
        grid, payload = _pack(source, column)
        assert payload["columns"][0]["dtype"] == "<f8"
        assert payload["blob"] == (
            struct_pack(grid, "<f8") + struct_pack(column, "<f8")
        )
        _, decoded, _ = unpack_columns(payload)
        # Bitwise comparison: NaN payload bits must survive verbatim.
        np.testing.assert_array_equal(
            decoded["m"].view(np.int64), column.view(np.int64)
        )

    @pytest.mark.parametrize("source", SOURCES)
    @given(values=st.lists(i8_values, min_size=0, max_size=32))
    @settings(max_examples=60, deadline=None)
    def test_i8_roundtrip_bit_exact(self, source, values):
        assume(values or source == "numpy")
        column = np.array(values, dtype=np.int64)
        grid, payload = _pack(source, column)
        assert payload["columns"][0]["dtype"] == "<i8"
        assert payload["blob"] == (
            struct_pack(grid, "<f8") + struct_pack(column, "<i8")
        )
        _, decoded, _ = unpack_columns(payload)
        np.testing.assert_array_equal(decoded["m"], column)

    @pytest.mark.parametrize("source", SOURCES)
    @given(
        values=st.lists(
            st.integers(min_value=0, max_value=254), min_size=0, max_size=64
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_u1_roundtrip_bit_exact(self, source, values):
        """Category columns store one code byte per value."""
        assume(values or source == "numpy")
        labels = np.array([f"c{v}" for v in values], dtype=str)
        grid, payload = _pack(source, labels)
        descriptor = payload["columns"][0]
        assert descriptor["dtype"] == "|u1"
        codes = [descriptor["categories"].index(label) for label in labels]
        assert payload["blob"] == (
            struct_pack(grid, "<f8") + struct_pack(codes, "|u1")
        )
        _, decoded, _ = unpack_columns(payload)
        assert decoded["m"].tolist() == labels.tolist()

    @pytest.mark.parametrize("source", SOURCES)
    def test_unpack_respects_offset(self, source):
        column = np.array([1.5, -2.5, 3.5], dtype=np.float64)
        grid, payload = _pack(source, column)
        blob = payload["blob"]
        # The metric column starts right after the 3-value grid column.
        np.testing.assert_array_equal(
            struct_unpack(blob, "<f8", 3, 24), column
        )
        _, decoded, _ = unpack_columns(payload)
        np.testing.assert_array_equal(decoded["m"], column)


class TestCallSiteParity:
    """The refactored call sites still answer exactly as before."""

    def test_sector_batch_matches_scalar_method(self):
        from repro.formatting.sector import SectorLayout

        layout = SectorLayout(stripe_width=512)
        caps = np.array([513, 4096, 65537, 1, 2**20 + 7], dtype=np.int64)
        batch = layout.best_user_bits_at_most_batch(caps)
        utilisation = [
            layout.utilisation(int(v)) for v in batch
        ]
        expected = [
            layout.utilisation(layout.best_user_bits_at_most(int(cap)))
            for cap in caps
        ]
        assert utilisation == pytest.approx(expected, rel=0, abs=0)

    def test_arbitrary_ecc_keeps_the_legacy_batch_path(self):
        from repro.formatting.ecc import ECCScheme
        from repro.formatting.sector import SectorLayout

        class SquareRootECC(ECCScheme):
            def ecc_bits(self, user_bits: int) -> int:
                return int(user_bits**0.5)

            def overhead_ratio(self) -> float:
                return 0.01

        layout = SectorLayout(stripe_width=64, ecc=SquareRootECC())
        caps = np.array([100, 5000, 123456], dtype=np.int64)
        batch = layout.best_user_bits_at_most_batch(caps)
        for cap, got in zip(caps, batch):
            want = layout.best_user_bits_at_most(int(cap))
            assert layout.utilisation(int(got)) == pytest.approx(
                layout.utilisation(want), rel=0, abs=0
            )

    def test_energy_wall_batch_matches_scalar_walls(self):
        from repro.config import DesignGoal, ibm_mems_prototype, table1_workload
        from repro.core.design_space import DesignSpaceExplorer

        explorer = DesignSpaceExplorer(
            ibm_mems_prototype(), table1_workload()
        )
        goals = np.array([0.05, 0.5, 0.8, 0.97])
        walls = explorer.energy_wall_rate_batch(goals)
        for goal, wall in zip(goals, walls):
            want = explorer.energy_wall_rate(
                DesignGoal(energy_saving=float(goal))
            )
            if np.isinf(want):
                assert np.isinf(wall)
            else:
                assert wall == pytest.approx(want, rel=1e-9)
