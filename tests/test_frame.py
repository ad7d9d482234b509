"""Tests for the frame numerology, tone map, and constellation mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncsim.frame import (
    BPSK,
    QPSK,
    FrameConfig,
    ToneMap,
    default_config,
    default_tone_map,
    make_constellation,
    map_bits,
    build_payload_grid,
    ofdm_modulate,
    transmit_frame,
)


def null_tones(tm: ToneMap) -> np.ndarray:
    """The bins in none of the three tone sets."""
    used = np.concatenate([tm.data_tones, *tm.pilot_tones])
    return np.setdiff1d(np.arange(FrameConfig.n_fft), used)


def demap_bits(symbols: np.ndarray, constellation) -> np.ndarray:
    """Hard nearest-point demapping: the oracle inverse of map_bits on clean symbols."""
    idx = np.argmin(np.abs(symbols[:, None] - constellation.points[None, :]), axis=1)
    shifts = np.arange(constellation.bits_per_symbol - 1, -1, -1)
    return ((idx[:, None] >> shifts) & 1).reshape(-1)


class TestDefaultConfig:
    def test_paper_numerology_qpsk(self):
        cfg = default_config(QPSK, 10, 7)
        assert cfg.n_fft == 64
        assert cfg.n_cp == 16
        assert cfg.n_data == 48
        assert cfg.m_symbols == 10
        assert cfg.em_outer_iters == 7
        assert cfg.code_rate_inv == 3
        assert cfg.n_s == 80

    def test_bpsk_degenerate_em(self):
        cfg = default_config(BPSK, 1, 0)
        assert cfg.em_outer_iters == 0
        assert cfg.k_info == 16  # 48 coded bits / 3

    def test_rejects_zero_symbols(self):
        with pytest.raises(ValueError):
            default_config(QPSK, 0, 7)

    def test_rejects_negative_em(self):
        with pytest.raises(ValueError):
            default_config(QPSK, 4, -1)

    def test_coded_bits_fill_data_tones(self):
        for mod, m in ((BPSK, 3), (QPSK, 10)):
            cfg = default_config(mod, m, 1)
            assert cfg.n_coded_bits == cfg.n_data * m * cfg.constellation().bits_per_symbol
            assert cfg.k_info * 3 == cfg.n_coded_bits


class TestToneMap:
    def test_partition(self):
        tm = default_tone_map()
        all_tones = np.concatenate(
            [tm.data_tones, *tm.pilot_tones, null_tones(tm)]
        )
        assert sorted(all_tones.tolist()) == list(range(64))

    def test_counts(self):
        tm = default_tone_map()
        assert len(tm.data_tones) == 48
        assert len(tm.pilot_tones[0]) == 2
        assert len(tm.pilot_tones[1]) == 2
        assert len(null_tones(tm)) == 12

    def test_pilot_bins_are_80211_positions(self):
        tm = default_tone_map()
        assert set(tm.pilot_tones[0].tolist()) == {(-21) % 64, (-7) % 64}
        assert set(tm.pilot_tones[1].tolist()) == {7, 21}

    def test_dc_and_guard_zeroed(self):
        tm = default_tone_map()
        zeros = set(null_tones(tm).tolist())
        assert 0 in zeros  # DC
        for k in list(range(27, 32)) + [-32] + list(range(-31, -26)):
            assert k % 64 in zeros

    def test_rejects_shared_or_out_of_range_bins(self):
        """The three sets must be distinct bins in [0, 64): a data tone reused
        as a pilot, a pilot shared by both nodes and bins 64 and -1 are
        refused."""
        tm = default_tone_map()
        data, (pa, pb) = tm.data_tones, tm.pilot_tones
        for pilots in (
            (np.append(pa, data[0]), pb),  # data/pilot overlap
            (pa, np.append(pb, pa[0])),  # A/B pilot overlap
            (pa, np.append(pb, 64)),  # outside [0, 64)
            (np.append(pa, -1), pb),
        ):
            with pytest.raises(ValueError, match="distinct bins"):
                ToneMap(data, pilots)

    def test_rejects_pilot_sets_that_are_not_a_pair(self):
        tm = default_tone_map()
        for pilots in ((tm.pilot_tones[0],), (*tm.pilot_tones, np.array([30]))):
            with pytest.raises(ValueError, match="one tone set per node"):
                ToneMap(tm.data_tones, pilots)


class TestConstellation:
    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_unit_average_energy(self, mod):
        con = make_constellation(mod)
        assert abs(np.mean(np.abs(con.points) ** 2) - 1.0) < 1e-12

    @pytest.mark.parametrize("mod, bits", [(BPSK, 1), (QPSK, 2)])
    def test_bits_per_symbol_follows_size(self, mod, bits):
        con = make_constellation(mod)
        assert con.bits_per_symbol == bits
        assert con.size == 2**bits

    def test_bpsk_convention(self):
        con = make_constellation(BPSK)
        np.testing.assert_allclose(map_bits(np.array([0]), con), [1.0])
        np.testing.assert_allclose(map_bits(np.array([1]), con), [-1.0])

    def test_qpsk_convention(self):
        con = make_constellation(QPSK)
        np.testing.assert_allclose(
            map_bits(np.array([0, 0]), con), [(1 + 1j) / np.sqrt(2)], atol=1e-15
        )

    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_labeling_bijection(self, mod):
        con = make_constellation(mod)
        assert len(set(np.round(con.points, 12).tolist())) == con.size

    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_roundtrip_random_bits(self, mod):
        rng = np.random.default_rng(5)
        bits = rng.integers(0, 2, 1000 if mod == BPSK else 1000)
        con = make_constellation(mod)
        np.testing.assert_array_equal(demap_bits(map_bits(bits, con), con), bits)
        # leading axes are kept: each row maps on its own
        rows = map_bits(bits.reshape(2, 5, -1), con)
        np.testing.assert_array_equal(rows, map_bits(bits, con).reshape(2, 5, -1))

    def test_rejects_odd_bit_count_qpsk(self):
        con = make_constellation(QPSK)
        with pytest.raises(ValueError):
            map_bits(np.array([0, 1, 0]), con)

    @given(st.lists(st.integers(0, 1), min_size=2, max_size=64).filter(lambda b: len(b) % 2 == 0))
    @settings(max_examples=50, deadline=None)
    def test_roundtrip_property_qpsk(self, bit_list):
        con = make_constellation(QPSK)
        bits = np.array(bit_list)
        np.testing.assert_array_equal(demap_bits(map_bits(bits, con), con), bits)


class TestPayloadGrid:
    def test_pilots_and_nulls(self):
        cfg = default_config(QPSK, 2, 0)
        tm, con = cfg.tone_map(), cfg.constellation()
        rng = np.random.default_rng(0)
        syms = map_bits(rng.integers(0, 2, (2, cfg.n_coded_bits)), con)
        grid_a, grid_b = build_payload_grid(syms, tm)
        np.testing.assert_allclose(grid_a[:, tm.pilot_tones[0]], 1.0)
        np.testing.assert_allclose(grid_a[:, tm.pilot_tones[1]], 0.0)  # nulls the other node's
        np.testing.assert_allclose(grid_b[:, tm.pilot_tones[1]], 1.0)
        np.testing.assert_allclose(grid_b[:, tm.pilot_tones[0]], 0.0)
        np.testing.assert_allclose(grid_a[:, null_tones(tm)], 0.0)
        np.testing.assert_allclose(grid_b[:, null_tones(tm)], 0.0)
        # a custom split may give one node more pilot tones than the other
        split = ToneMap(tm.data_tones, (tm.pilot_tones[0][:1], np.append(tm.pilot_tones[1], 30)))
        grid = build_payload_grid(np.zeros((2, 3 * split.n_data)), split)
        for node, tones in enumerate(split.pilot_tones):
            assert set(np.flatnonzero(grid[node, 0]).tolist()) == set(tones.tolist())

    def test_data_symbols_in_order(self):
        cfg = default_config(BPSK, 1, 0)
        tm, con = cfg.tone_map(), cfg.constellation()
        syms = map_bits(np.arange(48) % 2, con)
        grid = build_payload_grid(np.stack([syms, -syms]), tm)
        assert grid.shape == (2, 1, 64)
        np.testing.assert_allclose(grid[0, 0, tm.data_tones], syms)
        np.testing.assert_allclose(grid[1, 0, tm.data_tones], -syms)


class TestTransmitFrame:
    def test_rows_are_the_nodes_streams(self):
        """Row u of the pair output is the IDFT-plus-CP of node u's grid row;
        anything but a (2, n_coded_bits) pair of coded bits is refused."""
        cfg = default_config(QPSK, 3, 0)
        tm, con = cfg.tone_map(), cfg.constellation()
        coded = np.random.default_rng(7).integers(0, 2, (2, cfg.n_coded_bits))
        frames = transmit_frame(coded, cfg, tm, con)
        assert frames.shape == (2, cfg.m_symbols * cfg.n_s)
        grid = build_payload_grid(map_bits(coded, con), tm)
        for node in range(2):
            np.testing.assert_array_equal(frames[node], ofdm_modulate(grid[node], cfg.n_cp))
            windows = frames[node].reshape(cfg.m_symbols, cfg.n_s)
            np.testing.assert_array_equal(windows[:, : cfg.n_cp], windows[:, -cfg.n_cp :])
            np.testing.assert_allclose(
                np.fft.fft(windows[:, cfg.n_cp :], norm="ortho", axis=1), grid[node], atol=1e-12
            )
        for shape in ((cfg.n_coded_bits,), (1, cfg.n_coded_bits), (2, cfg.n_coded_bits - 1)):
            with pytest.raises(ValueError, match=r"\(2, n_coded_bits\) pair"):
                transmit_frame(np.zeros(shape, dtype=int), cfg, tm, con)
