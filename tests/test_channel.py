"""Tests for the uplink channel model: fading, delay, CFO rotation, noise."""

import numpy as np
import pytest

from pncsim.channel import (
    ChannelRealization,
    NoiseModel,
    exp_power_profile,
    phase_trajectory,
    sample_flat,
    sample_selective,
    simulate_uplink,
)
from pncsim.codec import RaCode, ra_encode
from pncsim.frame import QPSK, default_config, transmit_frame
from pncsim.receiver import demodulate


@pytest.fixture(scope="module")
def cfg():
    return default_config(QPSK, 4, 0)


def make_frames(cfg, seed=0):
    rng = np.random.default_rng(seed)
    tm, con = cfg.tone_map(), cfg.constellation()
    ra = RaCode.build(cfg.k_info, 1)
    fa = transmit_frame(ra_encode(rng.integers(0, 2, cfg.k_info), ra), cfg, tm, con, "a")
    fb = transmit_frame(ra_encode(rng.integers(0, 2, cfg.k_info), ra), cfg, tm, con, "b")
    return fa, fb


class TestSamplers:
    def test_flat_single_tap_flat_response(self):
        chan = sample_flat(np.random.default_rng(0))
        assert len(chan.taps_a) == 1 and len(chan.taps_b) == 1
        mags = np.abs(chan.h_freq_a)
        assert mags.max() - mags.min() < 1e-12
        mags_b = np.abs(chan.h_freq_b)
        assert mags_b.max() - mags_b.min() < 1e-12

    def test_flat_unit_mean_power(self):
        rng = np.random.default_rng(1)
        powers = []
        for _ in range(20000):
            chan = sample_flat(rng)
            powers.extend([np.abs(chan.taps_a[0]) ** 2, np.abs(chan.taps_b[0]) ** 2])
        assert abs(np.mean(powers) - 1.0) < 0.02

    def test_same_seed_identical(self):
        c1 = sample_flat(np.random.default_rng(44), tau=3, cfo_a=0.01)
        c2 = sample_flat(np.random.default_rng(44), tau=3, cfo_a=0.01)
        np.testing.assert_array_equal(c1.taps_a, c2.taps_a)
        np.testing.assert_array_equal(c1.h_freq_b, c2.h_freq_b)

    def test_selective_profile_c1(self):
        rng = np.random.default_rng(2)
        acc = np.zeros(4)
        n = 20000
        for _ in range(n):
            chan = sample_selective(4, 1.0, rng)
            acc += np.abs(chan.taps_a) ** 2
        expected = exp_power_profile(4, 1.0)
        np.testing.assert_allclose(acc / n, expected, rtol=0.02)
        assert abs((acc / n).sum() - 1.0) < 0.02

    def test_selective_total_power_one(self):
        rng = np.random.default_rng(3)
        total = 0.0
        n = 20000
        for _ in range(n):
            total += np.sum(np.abs(sample_selective(4, 0.25, rng).taps_b) ** 2)
        assert abs(total / n - 1.0) < 0.02

    def test_large_decay_reduces_to_flat(self):
        chan = sample_selective(4, 50.0, np.random.default_rng(4))
        mags = np.abs(chan.h_freq_a)
        assert (mags.max() - mags.min()) / mags.mean() < 1e-3

    def test_profile_normalization_exact(self):
        for c in (0.0, 0.25, 1.0, 5.0):
            assert abs(exp_power_profile(4, c).sum() - 1.0) < 1e-12


class TestSimulateUplink:
    def test_identity_channel(self, cfg):
        fa, fb = make_frames(cfg)
        chan = ChannelRealization(
            taps_a=np.array([1.0]), taps_b=np.array([1.0]),
            relative_delay=0, cfo_a=0.0, cfo_b=0.0,
        )
        out = simulate_uplink(fa, fb, chan, NoiseModel(0.0), np.random.default_rng(0), cfg)
        np.testing.assert_allclose(out, fa + fb, atol=1e-15)

    def test_single_node_post_dft_model(self, cfg):
        fa, _ = make_frames(cfg)
        rng = np.random.default_rng(5)
        chan = sample_selective(4, 1.0, rng)
        out = simulate_uplink(
            fa, np.zeros_like(fa), chan, NoiseModel(0.0), rng, cfg
        )
        freq = demodulate(out, cfg)
        # rebuild the transmitted grid to compare R = H * X per tone
        grid = np.fft.fft(
            fa.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :], norm="ortho", axis=1
        )
        np.testing.assert_allclose(freq, grid * chan.h_freq_a[None, :], atol=1e-9)

    def test_delay_ramp_matches_dft_theorem(self, cfg):
        _, fb = make_frames(cfg)
        rng = np.random.default_rng(6)
        tau = 8
        chan = sample_selective(4, 1.0, rng, tau=tau)
        out = simulate_uplink(
            np.zeros_like(fb), fb, chan, NoiseModel(0.0), rng, cfg
        )
        freq = demodulate(out, cfg)
        grid = np.fft.fft(
            fb.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :], norm="ortho", axis=1
        )
        h_oracle = np.fft.fft(chan.taps_b, n=64) * np.exp(
            -2j * np.pi * np.arange(64) * tau / 64
        )
        np.testing.assert_allclose(freq, grid * h_oracle[None, :], atol=1e-9)
        np.testing.assert_allclose(chan.h_freq_b, h_oracle, atol=1e-10)

    @pytest.mark.parametrize("tau", [0, 4, 8, 13])
    def test_post_dft_model_exact_within_cp(self, cfg, tau):
        fa, fb = make_frames(cfg, seed=tau)
        rng = np.random.default_rng(7)
        chan = sample_selective(4, 0.5, rng, tau=tau)
        out = simulate_uplink(fa, fb, chan, NoiseModel(0.0), rng, cfg)
        freq = demodulate(out, cfg)
        ga = np.fft.fft(fa.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :], norm="ortho", axis=1)
        gb = np.fft.fft(fb.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :], norm="ortho", axis=1)
        model = ga * chan.h_freq_a[None, :] + gb * chan.h_freq_b[None, :]
        np.testing.assert_allclose(freq, model, atol=1e-9)

    def test_linearity(self, cfg):
        fa, fb = make_frames(cfg)
        rng = np.random.default_rng(8)
        chan = sample_selective(3, 1.0, rng, tau=5, cfo_a=0.03, cfo_b=-0.02)
        zero = np.zeros_like(fa)
        rng_n = np.random.default_rng(0)
        both = simulate_uplink(fa, fb, chan, NoiseModel(0.0), rng_n, cfg)
        only_a = simulate_uplink(fa, zero, chan, NoiseModel(0.0), rng_n, cfg)
        only_b = simulate_uplink(zero, fb, chan, NoiseModel(0.0), rng_n, cfg)
        np.testing.assert_allclose(both, only_a + only_b, atol=1e-12)

    def test_rejects_cp_violation(self, cfg):
        fa, fb = make_frames(cfg)
        chan = sample_selective(4, 1.0, np.random.default_rng(9), tau=14)  # 14+3 > 16
        with pytest.raises(ValueError, match="delay spread"):
            simulate_uplink(fa, fb, chan, NoiseModel(0.0), np.random.default_rng(0), cfg)

    def test_boundary_delay_allowed(self, cfg):
        fa, fb = make_frames(cfg)
        chan = sample_selective(4, 1.0, np.random.default_rng(10), tau=13)  # 13+3 == 16
        simulate_uplink(fa, fb, chan, NoiseModel(0.0), np.random.default_rng(0), cfg)

    def test_noise_variance(self, cfg):
        n = 1_000_000
        m = n // cfg.n_s
        big = default_config(QPSK, m, 0)
        zero = np.zeros(m * big.n_s, dtype=complex)
        chan = ChannelRealization(
            taps_a=np.array([1.0]), taps_b=np.array([1.0]),
            relative_delay=0, cfo_a=0.0, cfo_b=0.0,
        )
        sigma_n2 = 0.37
        out = simulate_uplink(
            zero, zero, chan, NoiseModel(sigma_n2), np.random.default_rng(11), big
        )
        assert abs(np.mean(np.abs(out) ** 2) / sigma_n2 - 1.0) < 0.01


class TestNoiseModel:
    def test_mapping_monotone_decreasing(self):
        vals = [NoiseModel.from_ebn0_db(db, 1 / 3, 2).sigma_n2 for db in range(0, 20, 2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_known_value(self):
        # Eb/N0 = 0 dB, rate 1/3, QPSK: sigma_n2 = 1 / (2/3) = 1.5
        assert abs(NoiseModel.from_ebn0_db(0.0, 1 / 3, 2).sigma_n2 - 1.5) < 1e-12

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            NoiseModel(-0.1)


class TestPhaseTrajectory:
    def test_zero_cfo_constant_zero(self, cfg):
        chan = sample_flat(np.random.default_rng(0))
        traj = phase_trajectory(chan, default_config(QPSK, 6, 0))
        np.testing.assert_array_equal(traj, 0.0)

    def test_linear_drift_increment(self, cfg):
        chan = sample_flat(np.random.default_rng(0), cfo_a=0.04, cfo_b=-0.02)
        traj = phase_trajectory(chan, default_config(QPSK, 6, 0))
        inc = np.diff(traj, axis=0)
        np.testing.assert_allclose(inc[:, 0], 2 * np.pi * 0.04 * cfg.n_s / 64, atol=1e-12)
        np.testing.assert_allclose(inc[:, 1], 2 * np.pi * -0.02 * cfg.n_s / 64, atol=1e-12)

    def test_mid_symbol_minimizes_worst_deviation(self, cfg):
        """Among constant offsets, the stored value minimizes the max
        deviation from the per-sample ramp within the DFT window."""
        cfo = 0.05
        chan = sample_flat(np.random.default_rng(0), cfo_a=cfo)
        m = 2
        traj = phase_trajectory(chan, cfg)
        n_idx = np.arange(m * cfg.n_s + cfg.n_cp, (m + 1) * cfg.n_s)
        ramp = 2 * np.pi * cfo * n_idx / 64
        stored = traj[m, 0]
        best = ramp.max() / 2 + ramp.min() / 2
        assert np.max(np.abs(ramp - stored)) <= np.max(np.abs(ramp - best)) + 1e-12
        for kappa in np.linspace(-0.3, 0.3, 61):
            assert np.max(np.abs(ramp - stored)) <= np.max(np.abs(ramp - (stored + kappa))) + 1e-12
