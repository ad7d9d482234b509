"""Tests for the uplink channel model: fading, delay, CFO rotation, noise."""

import numpy as np
import pytest

from pncsim.channel import (
    ChannelRealization,
    exp_power_profile,
    noise_var,
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
    """Both nodes' (2, n) sample streams, row 0 = node A."""
    rng = np.random.default_rng(seed)
    ra = RaCode.build(cfg.k_info, 1)
    coded = ra_encode(rng.integers(0, 2, (2, cfg.k_info)), ra)
    return transmit_frame(coded, cfg, cfg.tone_map(), cfg.constellation())


class TestSamplers:
    def test_flat_single_tap_flat_response(self):
        chan = sample_flat(np.random.default_rng(0))
        assert len(chan.taps[0]) == 1 and len(chan.taps[1]) == 1
        mags = np.abs(chan.h_freq[0])
        assert mags.max() - mags.min() < 1e-12
        mags_b = np.abs(chan.h_freq[1])
        assert mags_b.max() - mags_b.min() < 1e-12

    def test_flat_unit_mean_power(self):
        rng = np.random.default_rng(1)
        powers = []
        for _ in range(20000):
            chan = sample_flat(rng)
            powers.extend([np.abs(chan.taps[0][0]) ** 2, np.abs(chan.taps[1][0]) ** 2])
        assert abs(np.mean(powers) - 1.0) < 0.02

    def test_same_seed_identical(self):
        c1 = sample_flat(np.random.default_rng(44), tau=3, cfo=(0.01, 0.0))
        c2 = sample_flat(np.random.default_rng(44), tau=3, cfo=(0.01, 0.0))
        np.testing.assert_array_equal(c1.taps[0], c2.taps[0])
        np.testing.assert_array_equal(c1.h_freq[1], c2.h_freq[1])

    @pytest.mark.parametrize("decay", [0.0, 0.25, 1.0, 50.0])
    def test_flat_is_one_tap_selective(self, decay):
        """A trial draws a flat channel as a one-tap selective one with the
        configured decay, so both draws must be bit-identical for any decay."""
        flat = sample_flat(np.random.default_rng(45), tau=2, cfo=(0.01, -0.03))
        one_tap = sample_selective(1, decay, np.random.default_rng(45), 2, (0.01, -0.03))
        for name in ("taps", "h_freq", "cfo"):
            np.testing.assert_array_equal(getattr(flat, name), getattr(one_tap, name))
        assert flat.relative_delay == one_tap.relative_delay == 2
        np.testing.assert_array_equal(flat.cfo, [0.01, -0.03])

    def test_draw_order_is_node_then_re_then_im(self):
        """Node A's real parts come off the stream first, then its imaginary
        parts, then node B's, so the trial RNG streams stay pinned."""
        chan = sample_selective(3, 0.5, np.random.default_rng(46))
        z = np.random.default_rng(46).standard_normal(12).reshape(2, 2, 3)
        scale = np.sqrt(exp_power_profile(3, 0.5) / 2.0)
        np.testing.assert_array_equal(chan.taps, scale * (z[:, 0] + 1j * z[:, 1]))

    def test_selective_profile_c1(self):
        rng = np.random.default_rng(2)
        acc = np.zeros(4)
        n = 20000
        for _ in range(n):
            chan = sample_selective(4, 1.0, rng)
            acc += np.abs(chan.taps[0]) ** 2
        expected = exp_power_profile(4, 1.0)
        np.testing.assert_allclose(acc / n, expected, rtol=0.02)
        assert abs((acc / n).sum() - 1.0) < 0.02

    def test_selective_total_power_one(self):
        rng = np.random.default_rng(3)
        total = 0.0
        n = 20000
        for _ in range(n):
            total += np.sum(np.abs(sample_selective(4, 0.25, rng).taps[1]) ** 2)
        assert abs(total / n - 1.0) < 0.02

    def test_large_decay_reduces_to_flat(self):
        chan = sample_selective(4, 50.0, np.random.default_rng(4))
        mags = np.abs(chan.h_freq[0])
        assert (mags.max() - mags.min()) / mags.mean() < 1e-3

    def test_profile_normalization_exact(self):
        for c in (0.0, 0.25, 1.0, 5.0, 1e308):
            assert abs(exp_power_profile(4, c).sum() - 1.0) < 1e-12
        # -decay * l overflows past tap 0 without a warning, and those taps get no power
        np.testing.assert_array_equal(exp_power_profile(4, 1e308), [1.0, 0.0, 0.0, 0.0])


class TestChannelRealization:
    @pytest.mark.parametrize("shape", [(1, 1), (3, 2), (2, 0), (4,)])
    def test_rejects_taps_that_are_not_two_rows(self, shape):
        with pytest.raises(ValueError, match=r"taps must be a \(2, L >= 1\) array"):
            ChannelRealization(taps=np.ones(shape), relative_delay=0, cfo=np.zeros(2))

    @pytest.mark.parametrize("cfo", [0.01, (0.01,), (0.01, 0.02, 0.03), np.zeros((2, 1))])
    def test_rejects_cfo_that_is_not_a_pair(self, cfo):
        with pytest.raises(ValueError, match=r"cfo must be a \(2,\) pair"):
            ChannelRealization(taps=np.ones((2, 1)), relative_delay=0, cfo=cfo)


class TestSimulateUplink:
    def test_rejects_frames_that_are_not_a_pair(self, cfg):
        pair = make_frames(cfg)
        chan = sample_flat(np.random.default_rng(0))
        for frames in (pair[:1], pair[[0, 1, 1]], pair[:, :-1], pair[0]):
            with pytest.raises(ValueError, match="frames must be"):
                simulate_uplink(frames, chan, 0.0, np.random.default_rng(0), cfg)

    def test_identity_channel(self, cfg):
        fa, fb = make_frames(cfg)
        chan = ChannelRealization(taps=np.ones((2, 1)), relative_delay=0, cfo=np.zeros(2))
        out = simulate_uplink((fa, fb), chan, 0.0, np.random.default_rng(0), cfg)
        np.testing.assert_allclose(out, fa + fb, atol=1e-15)

    def test_single_node_post_dft_model(self, cfg):
        fa, _ = make_frames(cfg)
        rng = np.random.default_rng(5)
        chan = sample_selective(4, 1.0, rng)
        out = simulate_uplink((fa, np.zeros_like(fa)), chan, 0.0, rng, cfg)
        freq = demodulate(out, cfg)
        # rebuild the transmitted grid to compare R = H * X per tone
        grid = np.fft.fft(
            fa.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :], norm="ortho", axis=1
        )
        np.testing.assert_allclose(freq, grid * chan.h_freq[0][None, :], atol=1e-9)

    def test_delay_ramp_matches_dft_theorem(self, cfg):
        _, fb = make_frames(cfg)
        rng = np.random.default_rng(6)
        tau = 8
        chan = sample_selective(4, 1.0, rng, tau=tau)
        out = simulate_uplink((np.zeros_like(fb), fb), chan, 0.0, rng, cfg)
        freq = demodulate(out, cfg)
        grid = np.fft.fft(
            fb.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :], norm="ortho", axis=1
        )
        h_oracle = np.fft.fft(chan.taps[1], n=64) * np.exp(
            -2j * np.pi * np.arange(64) * tau / 64
        )
        np.testing.assert_allclose(freq, grid * h_oracle[None, :], atol=1e-9)
        np.testing.assert_allclose(chan.h_freq[1], h_oracle, atol=1e-10)

    @pytest.mark.parametrize("tau", [0, 4, 8, 13])
    def test_post_dft_model_exact_within_cp(self, cfg, tau):
        fa, fb = make_frames(cfg, seed=tau)
        rng = np.random.default_rng(7)
        chan = sample_selective(4, 0.5, rng, tau=tau)
        out = simulate_uplink((fa, fb), chan, 0.0, rng, cfg)
        freq = demodulate(out, cfg)
        ga = np.fft.fft(fa.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :], norm="ortho", axis=1)
        gb = np.fft.fft(fb.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :], norm="ortho", axis=1)
        model = ga * chan.h_freq[0][None, :] + gb * chan.h_freq[1][None, :]
        np.testing.assert_allclose(freq, model, atol=1e-9)

    def test_linearity(self, cfg):
        fa, fb = make_frames(cfg)
        rng = np.random.default_rng(8)
        chan = sample_selective(3, 1.0, rng, tau=5, cfo=(0.03, -0.02))
        zero = np.zeros_like(fa)
        rng_n = np.random.default_rng(0)
        both = simulate_uplink((fa, fb), chan, 0.0, rng_n, cfg)
        only_a = simulate_uplink((fa, zero), chan, 0.0, rng_n, cfg)
        only_b = simulate_uplink((zero, fb), chan, 0.0, rng_n, cfg)
        np.testing.assert_allclose(both, only_a + only_b, atol=1e-12)

    def test_rejects_cp_violation(self, cfg):
        fa, fb = make_frames(cfg)
        chan = sample_selective(4, 1.0, np.random.default_rng(9), tau=14)  # 14+3 > 16
        with pytest.raises(ValueError, match="delay spread"):
            simulate_uplink((fa, fb), chan, 0.0, np.random.default_rng(0), cfg)

    def test_boundary_delay_allowed(self, cfg):
        fa, fb = make_frames(cfg)
        chan = sample_selective(4, 1.0, np.random.default_rng(10), tau=13)  # 13+3 == 16
        simulate_uplink((fa, fb), chan, 0.0, np.random.default_rng(0), cfg)

    def test_noise_variance(self, cfg):
        n = 1_000_000
        m = n // cfg.n_s
        big = default_config(QPSK, m, 0)
        zero = np.zeros(m * big.n_s, dtype=complex)
        chan = ChannelRealization(taps=np.ones((2, 1)), relative_delay=0, cfo=np.zeros(2))
        sigma_n2 = 0.37
        out = simulate_uplink((zero, zero), chan, sigma_n2, np.random.default_rng(11), big)
        assert abs(np.mean(np.abs(out) ** 2) / sigma_n2 - 1.0) < 0.01


class TestNoiseModel:
    def test_mapping_monotone_decreasing(self):
        vals = [noise_var(db, 1 / 3, 2) for db in range(0, 20, 2)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_known_value(self):
        # Eb/N0 = 0 dB, rate 1/3, QPSK: sigma_n2 = 1 / (2/3) = 1.5
        assert abs(noise_var(0.0, 1 / 3, 2) - 1.5) < 1e-12

    def test_rejects_negative(self, cfg):
        frame = np.zeros(cfg.m_symbols * cfg.n_s, dtype=complex)
        chan = sample_flat(np.random.default_rng(0))
        with pytest.raises(ValueError, match="noise variance"):
            simulate_uplink((frame, frame), chan, -0.1, np.random.default_rng(0), cfg)


class TestPhaseTrajectory:
    def test_zero_cfo_constant_zero(self, cfg):
        chan = sample_flat(np.random.default_rng(0))
        traj = phase_trajectory(chan, default_config(QPSK, 6, 0))
        np.testing.assert_array_equal(traj, 0.0)

    def test_linear_drift_increment(self, cfg):
        chan = sample_flat(np.random.default_rng(0), cfo=(0.04, -0.02))
        traj = phase_trajectory(chan, default_config(QPSK, 6, 0))
        inc = np.diff(traj, axis=0)
        np.testing.assert_allclose(inc[:, 0], 2 * np.pi * 0.04 * cfg.n_s / 64, atol=1e-12)
        np.testing.assert_allclose(inc[:, 1], 2 * np.pi * -0.02 * cfg.n_s / 64, atol=1e-12)

    def test_mid_symbol_minimizes_worst_deviation(self, cfg):
        """Among constant offsets, the stored value minimizes the max
        deviation from the per-sample ramp within the DFT window."""
        cfo = 0.05
        chan = sample_flat(np.random.default_rng(0), cfo=(cfo, 0.0))
        m = 2
        traj = phase_trajectory(chan, cfg)
        n_idx = np.arange(m * cfg.n_s + cfg.n_cp, (m + 1) * cfg.n_s)
        ramp = 2 * np.pi * cfo * n_idx / 64
        stored = traj[m, 0]
        best = ramp.max() / 2 + ramp.min() / 2
        assert np.max(np.abs(ramp - stored)) <= np.max(np.abs(ramp - best)) + 1e-12
        for kappa in np.linspace(-0.3, 0.3, 61):
            assert np.max(np.abs(ramp - stored)) <= np.max(np.abs(ramp - (stored + kappa))) + 1e-12
