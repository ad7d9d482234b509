"""Tests for the frame numerology, tone map, and constellation mapping."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncsim.frame import (
    BPSK,
    QPSK,
    FrameConfig,
    default_config,
    default_tone_map,
    demap_bits,
    make_constellation,
    map_bits,
    build_payload_grid,
)


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
            assert cfg.n_coded_bits == cfg.n_data * m * cfg.bits_per_symbol
            assert cfg.k_info * 3 == cfg.n_coded_bits


class TestToneMap:
    def test_partition(self):
        tm = default_tone_map()
        all_tones = np.concatenate(
            [tm.data_tones, tm.pilot_tones_a, tm.pilot_tones_b, tm.zero_tones]
        )
        assert sorted(all_tones.tolist()) == list(range(64))

    def test_counts(self):
        tm = default_tone_map()
        assert len(tm.data_tones) == 48
        assert len(tm.pilot_tones_a) == 2
        assert len(tm.pilot_tones_b) == 2
        assert len(tm.zero_tones) == 12

    def test_pilot_bins_are_80211_positions(self):
        tm = default_tone_map()
        assert set(tm.pilot_tones_a.tolist()) == {(-21) % 64, (-7) % 64}
        assert set(tm.pilot_tones_b.tolist()) == {7, 21}

    def test_dc_and_guard_zeroed(self):
        tm = default_tone_map()
        zeros = set(tm.zero_tones.tolist())
        assert 0 in zeros  # DC
        for k in list(range(27, 32)) + [-32] + list(range(-31, -26)):
            assert k % 64 in zeros

    def test_pilot_values_unit_magnitude(self):
        tm = default_tone_map()
        np.testing.assert_allclose(np.abs(tm.pilot_values_a), 1.0, atol=1e-12)
        np.testing.assert_allclose(np.abs(tm.pilot_values_b), 1.0, atol=1e-12)


class TestConstellation:
    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_unit_average_energy(self, mod):
        con = make_constellation(mod)
        assert abs(np.mean(np.abs(con.points) ** 2) - 1.0) < 1e-12

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
        syms = map_bits(rng.integers(0, 2, cfg.n_coded_bits), con)
        grid_a = build_payload_grid(syms, tm, "a")
        grid_b = build_payload_grid(syms, tm, "b")
        np.testing.assert_allclose(grid_a[:, tm.pilot_tones_a], 1.0)
        np.testing.assert_allclose(grid_a[:, tm.pilot_tones_b], 0.0)  # nulls the other node's
        np.testing.assert_allclose(grid_b[:, tm.pilot_tones_b], 1.0)
        np.testing.assert_allclose(grid_b[:, tm.pilot_tones_a], 0.0)
        np.testing.assert_allclose(grid_a[:, tm.zero_tones], 0.0)

    def test_data_symbols_in_order(self):
        cfg = default_config(BPSK, 1, 0)
        tm, con = cfg.tone_map(), cfg.constellation()
        syms = map_bits(np.arange(48) % 2, con)
        grid = build_payload_grid(syms, tm, "a")
        np.testing.assert_allclose(grid[0, tm.data_tones], syms)
