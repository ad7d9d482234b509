"""Tests for demodulation, pilot phases, evidence, and the EM-BP loop."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit

import pncsim.receiver as receiver_mod
from pncsim.channel import (
    ChannelRealization,
    noise_var,
    sample_flat,
    sample_selective,
    simulate_uplink,
)
from pncsim.codec import JointPairDecoder, RaCode, ra_encode
from pncsim.frame import (
    BPSK,
    QPSK,
    ToneMap,
    default_config,
    default_tone_map,
    make_constellation,
    map_bits,
    ofdm_modulate,
    transmit_frame,
)
from pncsim.receiver import (
    PhaseObjective,
    ReceiverConfig,
    build_phase_objective,
    demodulate,
    effective_noise_var,
    em_bp_receive,
    ls_pilot_phase,
    m_step,
    pair_evidence,
    particle_m_step,
    pnc_map,
)


@pytest.fixture(scope="module")
def cfg():
    return default_config(QPSK, 4, 0)


def unit_taps_channel(cfo_a=0.0, cfo_b=0.0, tau=0, phase_a=0.0, phase_b=0.0):
    return ChannelRealization(
        taps=np.exp(1j * np.array([[phase_a], [phase_b]])),
        relative_delay=tau,
        cfo=(cfo_a, cfo_b),
    )


class TestDemodulate:
    def test_single_tone_delta(self, cfg):
        grid = np.zeros((cfg.m_symbols, 64), dtype=complex)
        grid[:, 11] = 1.0
        freq = demodulate(ofdm_modulate(grid, cfg.n_cp), cfg)
        np.testing.assert_allclose(freq, grid, atol=1e-9)

    def test_roundtrip(self, cfg):
        rng = np.random.default_rng(0)
        grid = rng.standard_normal((cfg.m_symbols, 64)) + 1j * rng.standard_normal(
            (cfg.m_symbols, 64)
        )
        freq = demodulate(ofdm_modulate(grid, cfg.n_cp), cfg)
        np.testing.assert_allclose(freq, grid, atol=1e-9)

    def test_parseval(self, cfg):
        rng = np.random.default_rng(1)
        grid = rng.standard_normal((cfg.m_symbols, 64)) + 1j * rng.standard_normal(
            (cfg.m_symbols, 64)
        )
        samples = ofdm_modulate(grid, cfg.n_cp)
        windows = samples.reshape(cfg.m_symbols, cfg.n_s)[:, cfg.n_cp :]
        freq = demodulate(samples, cfg)
        np.testing.assert_allclose(
            np.sum(np.abs(windows) ** 2, axis=1),
            np.sum(np.abs(freq) ** 2, axis=1),
            atol=1e-9,
        )

    def test_rejects_wrong_length(self, cfg):
        with pytest.raises(ValueError):
            demodulate(np.zeros(cfg.m_symbols * cfg.n_s - 1, dtype=complex), cfg)


def _received_with_phases(cfg, theta, chan, seed=0, sigma_n2=0.0):
    """Transmit both nodes and rotate each node's symbols by fixed phases.

    Builds the frequency-domain frame directly from the per-tone model so
    tests can dial in exact per-symbol phases.
    """
    rng = np.random.default_rng(seed)
    tm, con = cfg.tone_map(), cfg.constellation()
    ra = RaCode.build(cfg.k_info, 3)
    info = rng.integers(0, 2, (2, cfg.k_info))
    frames = transmit_frame(ra_encode(info, ra), cfg, tm, con)
    ga, gb = np.fft.fft(
        frames.reshape(2, cfg.m_symbols, cfg.n_s)[..., cfg.n_cp :], norm="ortho", axis=-1
    )
    r = (
        np.exp(1j * theta[:, 0])[:, None] * ga * chan.h_freq[0][None, :]
        + np.exp(1j * theta[:, 1])[:, None] * gb * chan.h_freq[1][None, :]
    )
    if sigma_n2 > 0:
        r = r + np.sqrt(sigma_n2 / 2) * (
            rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
        )
    return r, info, ra


class TestLsPilotPhase:
    def test_noiseless_quarter_pi(self, cfg):
        tm = cfg.tone_map()
        chan = unit_taps_channel(phase_a=0.9, phase_b=-1.2)
        theta = np.zeros((cfg.m_symbols, 2))
        theta[:, 0] = np.pi / 4
        freq, _, _ = _received_with_phases(cfg, theta, chan)
        est = ls_pilot_phase(freq, tm, chan.h_freq)
        np.testing.assert_allclose(est[:, 0], np.pi / 4, atol=1e-9)
        np.testing.assert_allclose(np.exp(1j * est[:, 1]), 1.0, atol=1e-9)

    def test_zero_phase_noiseless(self, cfg):
        tm = cfg.tone_map()
        chan = unit_taps_channel(phase_a=0.3)
        theta = np.zeros((cfg.m_symbols, 2))
        freq, _, _ = _received_with_phases(cfg, theta, chan)
        est = ls_pilot_phase(freq, tm, chan.h_freq)
        np.testing.assert_allclose(np.exp(1j * est), 1.0, atol=1e-9)

    def test_wrapped_to_two_pi(self, cfg):
        tm = cfg.tone_map()
        chan = unit_taps_channel()
        theta = np.full((cfg.m_symbols, 2), -0.5)  # stored as 2*pi - 0.5
        freq, _, _ = _received_with_phases(cfg, theta, chan)
        est = ls_pilot_phase(freq, tm, chan.h_freq)
        assert np.all(est >= 0.0) and np.all(est < 2 * np.pi)
        np.testing.assert_allclose(est, 2 * np.pi - 0.5, atol=1e-9)

    def test_consistency_mean_and_pilot_count(self):
        """Estimator error is unbiased and its variance shrinks when a node
        owns more pilot tones (custom maps with 1 vs 2 pilots per node)."""
        cfg = default_config(QPSK, 1, 0)
        base = default_tone_map()

        def custom_map(n_pilots_a):
            return ToneMap(
                data_tones=base.data_tones,
                pilot_tones=(base.pilot_tones[0][:n_pilots_a], base.pilot_tones[1]),
            )

        sigma2 = 0.1  # per-tone noise, 10 dB below the unit pilot power
        true_theta = 1.0
        errs = {}
        for n_pilots in (1, 2):
            tm = custom_map(n_pilots)
            rng = np.random.default_rng(123)
            samples = []
            for _ in range(10_000):
                r = np.zeros((1, 64), dtype=complex)
                r[0, tm.pilot_tones[0]] = np.exp(1j * true_theta)
                r += np.sqrt(sigma2 / 2) * (
                    rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
                )
                est = ls_pilot_phase(r, tm, np.ones((2, 64), complex))
                samples.append(np.angle(np.exp(1j * (est[0, 0] - true_theta))))
            errs[n_pilots] = np.asarray(samples)
        for n_pilots in (1, 2):
            assert abs(errs[n_pilots].mean()) < 3 * errs[n_pilots].std() / 100.0
        assert errs[2].var() < errs[1].var()

    def test_zero_correlation_falls_back(self, cfg):
        """Silent pilots correlate to exactly 0, whose angle is 0, and no
        warning is raised."""
        tm = cfg.tone_map()
        freq = np.zeros((cfg.m_symbols, 64), dtype=complex)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            est = ls_pilot_phase(freq, tm, np.ones((2, 64), complex))
        np.testing.assert_array_equal(est, 0.0)


def oracle_evidence(r_tone, h_a, h_b, theta, points, sigma_w2):
    """Direct per-entry evaluation of the Gaussian log-evidence kernel."""
    q = len(points)
    out = np.zeros(q * q)
    for a in range(q):
        for b in range(q):
            hyp = (
                np.exp(1j * theta[0]) * points[a] * h_a
                + np.exp(1j * theta[1]) * points[b] * h_b
            )
            out[a * q + b] = -abs(r_tone - hyp) ** 2 / sigma_w2
    return out


def reference_pair_evidence(r, chan, tone_map, constellation, theta, sigma_w2):
    """The evidence build as first written, one full-size temporary per step."""
    data = tone_map.data_tones
    r = r[:, data]
    q = constellation.size
    joint = np.arange(q * q)
    xa, xb = constellation.points[joint // q], constellation.points[joint % q]
    rot_a = np.exp(1j * theta[:, 0])[:, None, None]
    rot_b = np.exp(1j * theta[:, 1])[:, None, None]
    hyp = rot_a * chan.h_freq[0][data][None, :, None] * xa[None, None, :]
    hyp += rot_b * chan.h_freq[1][data][None, :, None] * xb[None, None, :]
    log_k = -np.abs(r[:, :, None] - hyp) ** 2 / sigma_w2
    return log_k.reshape(-1, len(xa))


class TestPairEvidence:
    def test_bit_identical_to_reference(self, cfg):
        """The in-place build rounds every step as the reference does, so the
        tables of one seeded noisy frame agree bit for bit."""
        tm, con = cfg.tone_map(), cfg.constellation()
        chan = sample_selective(4, 1.0, np.random.default_rng(11), tau=2)
        theta = np.random.default_rng(12).uniform(0, 2 * np.pi, (cfg.m_symbols, 2))
        freq, _, _ = _received_with_phases(cfg, theta, chan, seed=13, sigma_n2=0.2)
        got = pair_evidence(freq, chan, tm, con, theta, 0.25).tables
        expect = reference_pair_evidence(freq, chan, tm, con, theta, 0.25)
        np.testing.assert_array_equal(got, expect)

    def test_matches_direct_formula(self, cfg):
        rng = np.random.default_rng(7)
        tm, con = cfg.tone_map(), cfg.constellation()
        chan = sample_selective(4, 1.0, rng, tau=3)
        r = rng.standard_normal((cfg.m_symbols, 64)) + 1j * rng.standard_normal(
            (cfg.m_symbols, 64)
        )
        theta = rng.uniform(0, 2 * np.pi, (cfg.m_symbols, 2))
        sigma_w2 = 0.31
        ev = pair_evidence(
            r, chan, tm, con, theta, sigma_w2
        )
        tables = ev.tables.reshape(cfg.m_symbols, len(tm.data_tones), -1)
        for m in (0, cfg.m_symbols - 1):
            for d in (0, 17, 47):
                tone = tm.data_tones[d]
                expect = oracle_evidence(
                    r[m, tone],
                    chan.h_freq[0][tone],
                    chan.h_freq[1][tone],
                    theta[m],
                    con.points,
                    sigma_w2,
                )
                # the kernel up to a per-tone constant, fixed here by each row's max
                np.testing.assert_allclose(
                    tables[m, d] - tables[m, d].max(), expect - expect.max(), atol=1e-12
                )

    def test_true_pair_attains_maximum_noiseless(self, cfg):
        tm, con = cfg.tone_map(), cfg.constellation()
        chan = unit_taps_channel(phase_a=0.4, phase_b=-0.9)
        rng = np.random.default_rng(9)
        theta = rng.uniform(0, 2 * np.pi, (cfg.m_symbols, 2))
        freq, (info_a, info_b), ra = _received_with_phases(cfg, theta, chan, seed=5)
        ev = pair_evidence(
            freq, chan, tm, con, theta, sigma_w2=0.2
        )
        coded_a = ra_encode(info_a, ra)
        coded_b = ra_encode(info_b, ra)
        ia = np.argmin(
            np.abs(map_bits(coded_a, con)[:, None] - con.points[None, :]), axis=1
        )
        ib = np.argmin(
            np.abs(map_bits(coded_b, con)[:, None] - con.points[None, :]), axis=1
        )
        true_idx = ia * con.size + ib
        np.testing.assert_array_equal(np.argmax(ev.tables, axis=1), true_idx)

    def test_larger_sigma_flattens(self, cfg):
        tm, con = cfg.tone_map(), cfg.constellation()
        chan = unit_taps_channel()
        rng = np.random.default_rng(10)
        r = rng.standard_normal((cfg.m_symbols, 64)) + 1j * rng.standard_normal(
            (cfg.m_symbols, 64)
        )
        theta = np.zeros((cfg.m_symbols, 2))
        narrow = pair_evidence(
            r, chan, tm, con, theta, sigma_w2=0.1
        )
        wide = pair_evidence(
            r, chan, tm, con, theta, sigma_w2=0.2
        )
        # a row's log range is its max/min probability ratio in logs
        range_n = narrow.tables.max(axis=1) - narrow.tables.min(axis=1)
        range_w = wide.tables.max(axis=1) - wide.tables.min(axis=1)
        assert np.all(range_w <= range_n + 1e-12)
        np.testing.assert_allclose(range_n / 2.0, range_w, rtol=1e-9)

    def test_never_all_zero_under_underflow(self, cfg):
        tm, con = cfg.tone_map(), cfg.constellation()
        chan = unit_taps_channel()
        r = np.full((cfg.m_symbols, 64), 1e6 + 1e6j)  # absurd residuals everywhere
        ev = pair_evidence(
            r, chan, tm, con, np.zeros((cfg.m_symbols, 2)), sigma_w2=1e-6
        )
        # the log domain cannot underflow, and the decoder scales each row by
        # its own max, so every symbol keeps a nonzero belief
        assert np.all(np.isfinite(ev.tables))
        decoder = JointPairDecoder(RaCode.build(cfg.k_info, seed=3), con)
        post = decoder.decode(ev, 5)
        assert np.all(np.isfinite(post.pair_symbol)) and np.all(np.isfinite(post.info_llr))
        np.testing.assert_allclose(post.pair_symbol.sum(axis=1), 1.0, rtol=0, atol=1e-12)


def oracle_objective(theta_pair, r_data, h_a, h_b, posterior, points):
    """Brute-force double sum over tones and joint symbol pairs."""
    q = len(points)
    total = 0.0
    for i in range(len(r_data)):
        for a in range(q):
            for b in range(q):
                hyp = (
                    np.exp(1j * theta_pair[0]) * points[a] * h_a[i]
                    + np.exp(1j * theta_pair[1]) * points[b] * h_b[i]
                )
                total -= posterior[i, a * q + b] * abs(r_data[i] - hyp) ** 2
    return total


def assert_equal_up_to_constant(got, expect, atol):
    """got - expect is one constant, to atol, at every sample of axis 0:
    the objective is known only up to a per-symbol constant."""
    diff = np.asarray(got) - np.asarray(expect)
    assert np.all(np.abs(diff - diff[0]) < atol), diff


class TestPhaseObjective:
    def _random_setup(self, cfg, seed):
        """One symbol's (1, N_d) tones, channels and (1, N_d, Q^2) posterior."""
        rng = np.random.default_rng(seed)
        tm, con = cfg.tone_map(), cfg.constellation()
        data = tm.data_tones
        r = rng.standard_normal((1, len(data))) + 1j * rng.standard_normal((1, len(data)))
        h_a = rng.standard_normal(len(data)) + 1j * rng.standard_normal(len(data))
        h_b = rng.standard_normal(len(data)) + 1j * rng.standard_normal(len(data))
        post = rng.random((1, len(data), con.size**2))
        post /= post.sum(axis=2, keepdims=True)
        return con, r, h_a, h_b, post

    def test_matches_brute_force(self, cfg):
        """value - brute force is the same constant at every sampled pair, to 1e-10."""
        con, r, h_a, h_b, post = self._random_setup(cfg, 21)
        obj = PhaseObjective(r, (h_a, h_b), post, con)
        rng = np.random.default_rng(22)
        got, expect = [], []
        for _ in range(6):
            th = rng.uniform(0, 2 * np.pi, 2)
            got.append(obj.value(th[0], th[1])[0])
            expect.append(oracle_objective(th, r[0], h_a, h_b, post[0], con.points))
        assert_equal_up_to_constant(got, expect, 1e-10)

    def test_rejects_single_row(self, cfg):
        con, r, h_a, h_b, post = self._random_setup(cfg, 21)
        with pytest.raises(ValueError, match=r"r_data must be \(M, N_d\) data tones"):
            PhaseObjective(r[0], (h_a, h_b), post[0], con)

    def test_free_function_matches_brute_force(self, cfg):
        """Whole-symbol objective: posterior-weighted data tones plus the
        known-symbol pilot tones (the other node is silent on them)."""
        rng = np.random.default_rng(30)
        tm, con = cfg.tone_map(), cfg.constellation()
        data = tm.data_tones
        chan = sample_selective(4, 1.0, rng)
        r_sym = rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
        post = rng.random((1, len(data), con.size**2))
        post /= post.sum(axis=2, keepdims=True)
        obj = build_phase_objective(r_sym, chan, tm, con, post)
        data_only = PhaseObjective(r_sym[:, data], chan.h_freq[:, data], post, con)
        got, got_data_only, expect, expect_data_only = [], [], [], []
        for th in [(1.1, 4.2), (0.3, 2.9), (5.0, 0.7)]:
            got.append(obj.value(*th)[0])
            got_data_only.append(data_only.value(*th)[0])
            expect_data_only.append(oracle_objective(
                th, r_sym[0, data], chan.h_freq[0][data], chan.h_freq[1][data], post[0],
                con.points,
            ))
            pilot_fit = 0.0
            for tone in tm.pilot_tones[0]:
                hyp = np.exp(1j * th[0]) * chan.h_freq[0][tone]
                pilot_fit -= abs(r_sym[0, tone] - hyp) ** 2
            for tone in tm.pilot_tones[1]:
                hyp = np.exp(1j * th[1]) * chan.h_freq[1][tone]
                pilot_fit -= abs(r_sym[0, tone] - hyp) ** 2
            expect.append(expect_data_only[-1] + pilot_fit)
        assert_equal_up_to_constant(got, expect, 1e-10)
        assert_equal_up_to_constant(got_data_only, expect_data_only, 1e-10)

    def test_noiseless_delta_posterior_peaks_at_truth(self, cfg):
        tm, con = cfg.tone_map(), cfg.constellation()
        chan = unit_taps_channel(phase_a=0.2, phase_b=1.9)
        rng = np.random.default_rng(23)
        theta = rng.uniform(0, 2 * np.pi, (cfg.m_symbols, 2))
        freq, (info_a, info_b), ra = _received_with_phases(cfg, theta, chan, seed=8)
        coded_a, coded_b = ra_encode(info_a, ra), ra_encode(info_b, ra)
        q = con.size
        ia = np.argmin(np.abs(map_bits(coded_a, con)[:, None] - con.points[None, :]), axis=1)
        ib = np.argmin(np.abs(map_bits(coded_b, con)[:, None] - con.points[None, :]), axis=1)
        joint = (ia * q + ib).reshape(cfg.m_symbols, -1)
        data = tm.data_tones
        m = 1
        post = np.zeros((1, len(data), q * q))
        post[0, np.arange(len(data)), joint[m]] = 1.0
        obj = PhaseObjective(freq[m : m + 1][:, data], chan.h_freq[:, data], post, con)
        at_truth = obj.value(theta[m, 0], theta[m, 1])
        rng2 = np.random.default_rng(24)
        others = rng2.uniform(0, 2 * np.pi, (50, 2))
        assert np.all(obj.value(others[:, 0], others[:, 1]) <= at_truth + 1e-12)

    def test_relabel_invariance_with_equal_mass(self, cfg):
        """Permuting joint entries that carry identical posterior mass and
        identical hypothesis values leaves the objective unchanged; here the
        uniform posterior makes the objective depend only on sums."""
        con, r, h_a, h_b, _ = self._random_setup(cfg, 25)
        q2 = con.size**2
        uniform = np.full((*r.shape, q2), 1.0 / q2)
        obj = PhaseObjective(r, (h_a, h_b), uniform, con)
        rng = np.random.default_rng(26)
        perm = rng.permutation(q2)
        obj_perm = PhaseObjective(r, (h_a, h_b), uniform[..., perm], con)
        th = rng.uniform(0, 2 * np.pi, 2)
        assert abs(obj.value(th[0], th[1]) - obj_perm.value(th[0], th[1])) < 1e-10

    def test_per_symbol_sum_equals_frame_sum(self, cfg):
        """Summing the per-symbol objectives, one one-row batch each, equals
        the whole-frame double sum evaluated symbol by symbol up to the sum of
        the symbols' constants, at every sampled frame of phase pairs
        (decoupling consistency)."""
        rng = np.random.default_rng(27)
        tm, con = cfg.tone_map(), cfg.constellation()
        data = tm.data_tones
        chan = sample_selective(4, 0.5, rng)
        r = rng.standard_normal((cfg.m_symbols, 64)) + 1j * rng.standard_normal(
            (cfg.m_symbols, 64)
        )
        post = rng.random((cfg.m_symbols, len(data), con.size**2))
        post /= post.sum(axis=2, keepdims=True)
        objs = [
            PhaseObjective(r[m : m + 1, data], chan.h_freq[:, data], post[m : m + 1], con)
            for m in range(cfg.m_symbols)
        ]
        per_symbol, frame_total = [], []
        for _ in range(3):
            theta = rng.uniform(0, 2 * np.pi, (cfg.m_symbols, 2))
            per_symbol.append(sum(o.value(*t)[0] for o, t in zip(objs, theta)))
            frame_total.append(sum(
                oracle_objective(
                    theta[m], r[m, data], chan.h_freq[0][data], chan.h_freq[1][data],
                    post[m], con.points,
                )
                for m in range(cfg.m_symbols)
            ))
        assert_equal_up_to_constant(per_symbol, frame_total, 1e-10)


def _noiseless_objective(peak, con, seed, n_tones=48):
    """Objective with a known maximum: noiseless tones sent at the (M, 2)
    phase pairs ``peak`` through random channels, with all posterior mass
    on the sent symbol pairs.  Up to each symbol's constant its value is
    -sum |r - e^{j theta_a} X_a H_a - e^{j theta_b} X_b H_b|^2, so the peak
    is the maximum, and the only one once the symbols' ratio X_a/X_b varies."""
    rng = np.random.default_rng(seed)
    peak = np.asarray(peak, dtype=float)
    q = con.size
    ia, ib = rng.integers(0, q, (2, *peak.shape[:-1], n_tones))
    h_a, h_b = rng.standard_normal((2, n_tones)) + 1j * rng.standard_normal((2, n_tones))
    r = (
        np.exp(1j * peak[..., :1]) * con.points[ia] * h_a
        + np.exp(1j * peak[..., 1:]) * con.points[ib] * h_b
    )
    post = np.zeros((*ia.shape, q * q))
    np.put_along_axis(post, (ia * q + ib)[..., None], 1.0, axis=-1)
    return PhaseObjective(r, (h_a, h_b), post, con)


class TestParticleMStep:
    def test_peak_on_grid_returned_exactly(self):
        peak = np.array([[2 * np.pi * 3 / 10, 2 * np.pi * 7 / 10]])
        obj = _noiseless_objective(peak, make_constellation(QPSK), seed=30)
        got = particle_m_step(obj, np.zeros((1, 2)), ReceiverConfig(sigma_w2=1e-3))
        np.testing.assert_allclose(got, peak, atol=1e-12)

    def test_p_zero_equals_grid_argmax(self):
        rx_cfg = ReceiverConfig(sigma_w2=0.3, particle_rounds=0)
        rng = np.random.default_rng(31)
        for seed in range(20):
            peak = rng.uniform(0, 2 * np.pi, (1, 2))
            obj = _noiseless_objective(peak, make_constellation(QPSK), seed, rng.integers(4, 49))
            got = particle_m_step(obj, np.zeros((1, 2)), rx_cfg)
            base = 2 * np.pi * np.arange(10) / 10
            ta, tb = np.meshgrid(base, base, indexing="ij")
            lattice = np.stack([ta.reshape(-1), tb.reshape(-1)], axis=1)
            vals = obj.value(lattice[:, 0], lattice[:, 1])
            np.testing.assert_allclose(got[0], lattice[np.argmax(vals)], atol=0)

    def test_improvement_over_coarse_grid(self):
        """The returned point never scores below the initial lattice argmax."""
        rng = np.random.default_rng(32)
        for seed in range(20):
            peak = rng.uniform(0, 2 * np.pi, (1, 2))
            obj = _noiseless_objective(peak, make_constellation(QPSK), seed, rng.integers(4, 49))
            rx_cfg = ReceiverConfig(sigma_w2=rng.uniform(0.01, 1.0))
            got = particle_m_step(obj, np.zeros((1, 2)), rx_cfg)
            base = 2 * np.pi * np.arange(10) / 10
            ta, tb = np.meshgrid(base, base, indexing="ij")
            lattice = np.stack([ta.reshape(-1), tb.reshape(-1)], axis=1)
            best0 = np.max(obj.value(lattice[:, 0], lattice[:, 1]))
            assert obj.value(got[0, 0], got[0, 1]) >= best0 - 1e-9

    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    @pytest.mark.parametrize("m", [1, 12])
    def test_lattice_values_match_objective(self, monkeypatch, mod, m):
        """At every lattice point of every round of the full-plane stage and
        two refine windows, the one-matmul lattice values equal
        ``PhaseObjective.value`` at that particle to 1e-10.  M = 1 is a
        one-row batch."""
        cfg = default_config(mod, 4, 0)
        rng = np.random.default_rng(38)
        r, (h_a, h_b), post, con = self._random_objectives(cfg, rng, m)
        theta = rng.uniform(0, 2 * np.pi, (m, 2))
        obj = PhaseObjective(r, (h_a, h_b), post, con)
        kernel = receiver_mod._lattice_values
        errors = []

        def checked(stats, centre, lattice):
            vals = kernel(stats, centre, lattice)
            particles = centre[:, None, :] + lattice[0]  # (M, L^2, 2)
            expect = obj.value(particles[..., 0].T, particles[..., 1].T).T
            errors.append(np.max(np.abs(vals - expect)))
            return vals

        monkeypatch.setattr(receiver_mod, "_lattice_values", checked)
        rx_cfg = ReceiverConfig(sigma_w2=0.3, em_refine_passes=2)
        m_step(obj, theta, rx_cfg)
        assert len(errors) == 3 * (1 + rx_cfg.particle_rounds)
        assert max(errors) < 1e-10

    @staticmethod
    def _particle_plane_search(objective, prev, rx_cfg, span):
        """Reference search: every particle of the (2, M, L^2) theta_a and
        theta_b planes is pulled towards its row's weighted mean and scored
        by ``objective.value``; returns each row's pick before wrapping."""
        l_grid, shrink = rx_cfg.particle_l, rx_cfg.particle_shrink
        base = (2.0 * np.pi if span is None else span) * np.arange(l_grid) / l_grid
        if span is not None:
            base = base - span * (l_grid - 1) / (2 * l_grid)
        base = base + prev.T[:, :, None]  # (2, M, L)
        particles = np.stack([base[0].repeat(l_grid, axis=1), np.tile(base[1], l_grid)])
        value = lambda p: objective.value(p[0].T, p[1].T).T  # (M, L^2)
        rows = np.arange(len(prev))
        grid0_vals = vals = value(particles)
        grid0_best = particles[:, rows, grid0_vals.argmax(axis=1)].T
        for _ in range(rx_cfg.particle_rounds):
            weights = np.exp((vals - vals.max(axis=1, keepdims=True)) / rx_cfg.sigma_w2)
            weights /= weights.sum(axis=1, keepdims=True)
            mean = (weights * particles).sum(axis=2, keepdims=True)
            particles = (1.0 - shrink) * particles + shrink * mean
            vals = value(particles)
        best = particles[:, rows, vals.argmax(axis=1)].T
        coarse = grid0_vals.max(axis=1) > vals.max(axis=1)
        return np.where(coarse[:, None], grid0_best, best)

    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_matches_particle_plane_reference(self, mod):
        """The lattice search picks what moving every particle of full
        (2, M, L^2) planes picks, over the full plane and refine windows;
        positions agree to rounding (1e-12 rad)."""
        rng = np.random.default_rng(39)
        r, (h_a, h_b), post, con = self._random_objectives(default_config(mod, 4, 0), rng, 50)
        obj = PhaseObjective(r, (h_a, h_b), post, con)
        for span in (None, 2 * np.pi * 0.2, 2 * np.pi * 0.04):
            prev = rng.uniform(0, 2 * np.pi, (50, 2))
            rx_cfg = ReceiverConfig(sigma_w2=rng.uniform(0.01, 1.0))
            got = particle_m_step(obj, prev, rx_cfg, span)
            expect = self._particle_plane_search(obj, prev, rx_cfg, span)
            assert np.max(np.abs(np.angle(np.exp(1j * (got - expect))))) < 1e-12

    def test_equivariant_under_phase_rotation(self, cfg):
        """Rotating the objective and the running estimate by (phi_a, phi_b)
        rotates the search result by the same pair.

        The rotated objective is built from the channels h_a e^{-j phi_a} and
        h_b e^{-j phi_b}, which rotate s_a, s_b and s_ab by e^{-j phi_a},
        e^{-j phi_b} and e^{-j (phi_a - phi_b)}.  Its value(theta) equals
        value(theta - phi), so a search that does not favour any absolute
        phase must follow the rotation exactly.  A lattice pinned at absolute
        phase 0 breaks this and always offers the zero-drift truth as a
        candidate.
        """
        con = cfg.constellation()
        n = len(cfg.tone_map().data_tones)
        rng = np.random.default_rng(33)
        for _ in range(200):
            r, h_a, h_b = (
                rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)
            )
            r = r[None]  # one symbol
            post = rng.random((1, n, con.size**2))
            post /= post.sum(axis=2, keepdims=True)
            obj = PhaseObjective(r, (h_a, h_b), post, con)
            phi = rng.uniform(0, 2 * np.pi, 2)
            rot = PhaseObjective(
                r, (h_a * np.exp(-1j * phi[0]), h_b * np.exp(-1j * phi[1])), post, con
            )
            prev = rng.uniform(0, 2 * np.pi, (1, 2))
            rx_cfg = ReceiverConfig(sigma_w2=rng.uniform(0.01, 1.0))
            got = particle_m_step(obj, prev, rx_cfg)
            got_rot = particle_m_step(rot, prev + phi, rx_cfg)
            err = np.abs(np.angle(np.exp(1j * (got_rot - got - phi))))
            assert np.all(err < 1e-9)

    @staticmethod
    def _random_objectives(cfg, rng, m):
        """PhaseObjective arguments for m random symbol rows sharing one channel."""
        con = cfg.constellation()
        n = len(cfg.tone_map().data_tones)
        r, h_a, h_b = (
            rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
            for shape in ((m, n), n, n)
        )
        post = rng.random((m, n, con.size**2))
        post /= post.sum(axis=2, keepdims=True)
        return r, (h_a, h_b), post, con

    def test_never_beats_exact_profile_oracle(self, cfg):
        """The search never scores above the exact maximum of the objective.

        For fixed theta_b the best theta_a is -angle(s_a - e^{-j theta_b} s_ab),
        which leaves the 1-D profile
        f(theta_b) = 2 Re(e^{j theta_b} s_b) + 2 |s_a - e^{-j theta_b} s_ab|.
        Its maximum comes from a dense grid whose every local maximum is
        refined by three nested sub-grids, to far below the 1e-9 tolerance.
        200 objectives run as four batched searches of 50 symbols each.
        """
        rng = np.random.default_rng(35)
        grid = np.linspace(0, 2 * np.pi, 4096, endpoint=False)
        step = grid[1]
        for sigma_w2 in (0.01, 0.1, 0.3, 1.0):
            obj = PhaseObjective(*self._random_objectives(cfg, rng, 50))
            prev = rng.uniform(0, 2 * np.pi, (50, 2))
            got = particle_m_step(obj, prev, ReceiverConfig(sigma_w2=sigma_w2))
            got_vals = obj.value(got[:, 0], got[:, 1])
            for i in range(50):
                s_a, s_b, s_ab = obj.stats[i]

                def profile(tb):
                    rb = np.exp(1j * tb)
                    return 2 * np.real(rb * s_b) + 2 * np.abs(s_a - np.conj(rb) * s_ab)

                vals = profile(grid)
                peaks = np.flatnonzero((vals >= np.roll(vals, 1)) & (vals >= np.roll(vals, -1)))
                best = -np.inf
                for tb in grid[peaks]:
                    half = step
                    for _ in range(3):
                        fine = tb + np.linspace(-half, half, 201)
                        tb = fine[np.argmax(profile(fine))]
                        half /= 100
                    best = max(best, profile(tb))
                assert got_vals[i] <= best + 1e-9

    def test_m_step_never_scores_below_its_input(self, cfg):
        """Every stage keeps its result only where it scores no lower than the
        running estimate, so no row of an M-step ends below its input.  Rows
        that start on the known maximum of a noiseless objective leave every
        refine window's lattice with only worse points, so they need the keep
        rule."""
        rng = np.random.default_rng(37)
        for passes in (0, 1, 2):
            for _ in range(10):
                theta = rng.uniform(0, 2 * np.pi, (20, 2))
                peak = theta + rng.uniform(-1, 1, (20, 2)) * (np.arange(20) % 2)[:, None]
                for obj in (
                    PhaseObjective(*self._random_objectives(cfg, rng, 20)),
                    _noiseless_objective(peak, cfg.constellation(), rng.integers(1 << 30)),
                ):
                    rx_cfg = ReceiverConfig(
                        sigma_w2=rng.uniform(0.01, 1.0), em_refine_passes=passes
                    )
                    got = m_step(obj, theta, rx_cfg)
                    before = obj.value(theta[:, 0], theta[:, 1])
                    assert np.all(obj.value(got[:, 0], got[:, 1]) >= before)

    def test_batched_equals_per_row_calls(self, cfg):
        """One M-step over a stacked objective (the full-plane stage and a
        refine stage, each with its keep rule) equals one call per row, each
        on a one-row batch.  A row whose posterior is all NaN, and so are its
        statistics, keeps its previous phases and leaves every other row
        bit-identical."""
        rng = np.random.default_rng(36)
        m, nan_row = 12, 5
        r, (h_a, h_b), post, con = self._random_objectives(cfg, rng, m)
        theta = rng.uniform(0, 2 * np.pi, (m, 2))
        rx_cfg = ReceiverConfig(sigma_w2=0.3, em_refine_passes=1)
        clean = m_step(PhaseObjective(r, (h_a, h_b), post, con), theta, rx_cfg)
        post[nan_row] = np.nan
        batched = PhaseObjective(r, (h_a, h_b), post, con)
        rows = [PhaseObjective(r[i : i + 1], (h_a, h_b), post[i : i + 1], con) for i in range(m)]
        assert np.all(np.isnan(batched.stats[nan_row]))
        np.testing.assert_allclose(
            batched.stats, np.concatenate([o.stats for o in rows]), rtol=1e-13
        )
        got = m_step(batched, theta, rx_cfg)
        expect = np.concatenate([m_step(rows[i], theta[i : i + 1], rx_cfg) for i in range(m)])
        assert np.max(np.abs(np.angle(np.exp(1j * (got - expect))))) < 1e-12
        np.testing.assert_array_equal(got[nan_row], theta[nan_row])
        others = np.arange(m) != nan_row
        np.testing.assert_array_equal(got[others], clean[others])

    def test_monte_carlo_accuracy_at_20db(self):
        """500 random trials with exact symbol knowledge at 20 dB.

        The single lattice pass cannot resolve below its cell size (argmax
        of a contracted lattice), so it is held to half the cell diagonal;
        the windowed refinement pass used by the EM loop must land within
        0.1 rad of the truth in at least 90% of trials.
        """
        con = make_constellation(QPSK)
        tm = default_tone_map()
        data = tm.data_tones
        sigma_n2 = noise_var(20.0, 1 / 3, 2)
        rx_cfg = ReceiverConfig(sigma_w2=effective_noise_var(sigma_n2, 0.1))
        cell = 2 * np.pi / 10
        ok_coarse = 0
        ok_fine = 0
        trials = 500
        for t in range(trials):
            rng = np.random.default_rng(40_000 + t)
            truth = rng.uniform(0, 2 * np.pi, 2)
            sym_a = con.points[rng.integers(0, con.size, len(data))]
            sym_b = con.points[rng.integers(0, con.size, len(data))]
            noise = np.sqrt(sigma_n2 / 2) * (
                rng.standard_normal(len(data)) + 1j * rng.standard_normal(len(data))
            )
            r = np.exp(1j * truth[0]) * sym_a + np.exp(1j * truth[1]) * sym_b + noise
            ia = np.argmin(np.abs(sym_a[:, None] - con.points[None, :]), axis=1)
            ib = np.argmin(np.abs(sym_b[:, None] - con.points[None, :]), axis=1)
            post = np.zeros((1, len(data), con.size**2))
            post[0, np.arange(len(data)), ia * con.size + ib] = 1.0
            obj = PhaseObjective(r[None], np.ones((2, len(data)), complex), post, con)
            coarse = particle_m_step(obj, np.zeros((1, 2)), rx_cfg)
            fine = particle_m_step(obj, coarse, rx_cfg, span=2 * cell)
            if obj.value(*fine[0]) < obj.value(*coarse[0]):
                fine = coarse
            err_c = np.max(np.abs(np.angle(np.exp(1j * (coarse - truth)))))
            err_f = np.max(np.abs(np.angle(np.exp(1j * (fine - truth)))))
            ok_coarse += err_c <= cell * np.sqrt(2) / 2 + 1e-9
            ok_fine += err_f < 0.1
        assert ok_coarse >= 0.90 * trials
        assert ok_fine >= 0.90 * trials


class TestShiftInvariance:
    """The phase objective counts up to a constant per symbol: adding any
    finite one to each symbol's values, in the lattice search and in the keep
    rule alike, leaves every M-step result where it was."""

    @pytest.mark.parametrize("passes", [0, 2])
    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_symbol_shift_keeps_m_step(self, monkeypatch, mod, passes):
        rng = np.random.default_rng(42)
        m = 20
        cfg = default_config(mod, 4, 0)
        obj = PhaseObjective(*TestParticleMStep._random_objectives(cfg, rng, m))
        shift = rng.uniform(-50.0, 50.0, m)
        kernel, value = receiver_mod._lattice_values, PhaseObjective.value
        calls = []

        def shifted_kernel(stats, centre, lattice):
            calls.append("lattice")
            return kernel(stats, centre, lattice) + shift[:, None]

        def shifted_value(self, theta_a, theta_b):
            calls.append("value")
            return value(self, theta_a, theta_b) + shift

        for sigma_w2 in (0.01, 0.1, 1.0):
            theta = rng.uniform(0, 2 * np.pi, (m, 2))
            rx_cfg = ReceiverConfig(sigma_w2=sigma_w2, em_refine_passes=passes)
            expect = m_step(obj, theta, rx_cfg)
            with monkeypatch.context() as patch:
                patch.setattr(receiver_mod, "_lattice_values", shifted_kernel)
                patch.setattr(PhaseObjective, "value", shifted_value)
                got = m_step(obj, theta, rx_cfg)
            assert np.max(np.abs(np.angle(np.exp(1j * (got - expect))))) < 1e-12
        assert {"lattice", "value"} <= set(calls)


_LLR_DRAW = st.one_of(st.just(0.0), st.floats(1e-3, 90.0), st.floats(-90.0, -1e-3))


class TestPncMap:
    """``pnc_map`` takes (2, k) info-bit LLRs, row 0 = node A."""

    def test_delta_posterior(self):
        assert pnc_map(np.array([[-50.0], [50.0]]))[0] == 1  # (1,0) -> xor 1
        assert pnc_map(np.array([[50.0], [50.0]]))[0] == 0

    def test_documented_example(self):
        # p0 = (0.8, 0.9): table (0.72, 0.08, 0.18, 0.02), P(xor=0) = 0.74
        assert pnc_map(np.log([[4.0], [9.0]]))[0] == 0
        # p0 = (0.8, 0.1): table (0.08, 0.72, 0.02, 0.18), P(xor=0) = 0.26
        assert pnc_map(np.log([[4.0], [1 / 9]]))[0] == 1

    def test_tie_breaks_to_zero(self):
        assert pnc_map(np.array([[0.0], [0.0]]))[0] == 0
        assert pnc_map(np.array([[0.0], [-3.0]]))[0] == 0  # one node uninformed

    @given(st.lists(st.tuples(_LLR_DRAW, _LLR_DRAW), min_size=1, max_size=16))
    @settings(max_examples=50, deadline=None)
    def test_matches_enumeration_oracle(self, pairs):
        """The sign product agrees with enumerating each pair's (b_a, b_b)
        product table.  |LLR| is drawn from [1e-3, 90] or exactly 0 (a tie):
        where |llr_a * llr_b| is below about 1e-16 the enumeration's own float
        sums round to a tie, while the sign product is the exact answer."""
        llrs = np.array(pairs).T
        got = pnc_map(llrs)
        for j, (p0a, p0b) in enumerate(expit(llrs).T):
            t = [p0a * p0b, p0a * (1 - p0b), (1 - p0a) * p0b, (1 - p0a) * (1 - p0b)]
            p = {0: t[0] + t[3], 1: t[1] + t[2]}
            expect = 1 if p[1] > p[0] else 0
            assert got[j] == expect


class TestEmBpReceive:
    def _simulate(self, cfg, em_iters, seed=0, sigma_n2=0.0, cfo=(0.0, 0.0), tau=0, **rx_kw):
        rng = np.random.default_rng(seed)
        tm, con = cfg.tone_map(), cfg.constellation()
        ra = RaCode.build(cfg.k_info, 3)
        info = rng.integers(0, 2, (2, cfg.k_info))
        frames = transmit_frame(ra_encode(info, ra), cfg, tm, con)
        chan = sample_selective(4, 1.0, rng, tau=tau, cfo=cfo)
        samples = simulate_uplink(frames, chan, sigma_n2, rng, cfg)
        freq = demodulate(samples, cfg)
        rx_cfg = ReceiverConfig(
            sigma_w2=effective_noise_var(sigma_n2, max(abs(cfo[0]), abs(cfo[1])) * 2),
            em_iters=em_iters,
            **rx_kw,
        )
        out = em_bp_receive(freq, chan, tm, JointPairDecoder(ra, con), rx_cfg)
        return out, info, (freq, chan, tm, con, ra, rx_cfg)

    def test_noiseless_zero_cfo_exact(self, cfg):
        out, (info_a, info_b), _ = self._simulate(cfg, em_iters=2, tau=7)
        for k in range(3):
            np.testing.assert_array_equal(out.xor_history[k], info_a ^ info_b)

    def test_k_zero_equals_manual_baseline(self, cfg):
        out, _, (freq, chan, tm, con, ra, rx_cfg) = self._simulate(
            cfg, em_iters=0, sigma_n2=0.3, cfo=(0.02, -0.03), seed=4
        )
        est = ls_pilot_phase(freq, tm, chan.h_freq)
        ev = pair_evidence(freq, chan, tm, con, est, rx_cfg.sigma_w2)
        post = JointPairDecoder(ra, con).decode(ev, rx_cfg.bp_iters)
        np.testing.assert_array_equal(out.xor_history[-1], pnc_map(post.info_llr))
        np.testing.assert_array_equal(out.theta_history[-1], est)

    def test_round_zero_decodes_cold(self, cfg):
        """With EM rounds to follow, round 0 is still the baseline: its XOR
        decisions are those of one decode from zero messages."""
        out, _, (freq, chan, tm, con, ra, rx_cfg) = self._simulate(
            cfg, em_iters=3, sigma_n2=0.3, cfo=(0.02, -0.03), seed=4
        )
        ev = pair_evidence(freq, chan, tm, con, out.theta_history[0], rx_cfg.sigma_w2)
        post = JointPairDecoder(ra, con).decode(ev, rx_cfg.bp_iters)
        np.testing.assert_array_equal(out.xor_history[0], pnc_map(post.info_llr))

    def test_frame_that_does_not_fill_the_code_is_rejected(self, cfg):
        """M is read from the frame: 4 demodulated symbols given to a decoder
        built for a 10-symbol code fail the decoder's evidence-shape check."""
        _, _, (freq, chan, tm, con, _, rx_cfg) = self._simulate(cfg, em_iters=1)
        long_code = RaCode.build(default_config(QPSK, 10, 0).k_info, 3)
        with pytest.raises(ValueError, match="evidence must cover all 480 data symbols"):
            em_bp_receive(freq, chan, tm, JointPairDecoder(long_code, con), rx_cfg)

    def test_history_shapes_and_wrap(self, cfg):
        out, _, _ = self._simulate(cfg, em_iters=3, sigma_n2=0.2, cfo=(0.04, 0.01), seed=5)
        assert out.theta_history.shape == (4, cfg.m_symbols, 2)
        assert out.xor_history.shape == (4, cfg.k_info)
        assert np.all(out.theta_history >= 0.0)
        assert np.all(out.theta_history < 2 * np.pi)

    def test_em_never_worsens_objective(self, cfg):
        """Under round k's objective, rebuilt from theta_history[k] (evidence,
        decode started from round k - 1's check messages as the EM loop
        does, objective), every symbol's phases of round k + 1 score at
        least as well as those of round k, with and without a refine pass."""
        for refine in (0, 1):
            out, _, (freq, chan, tm, con, ra, rx_cfg) = self._simulate(
                cfg, em_iters=4, sigma_n2=0.25, cfo=(0.045, -0.04), seed=6, em_refine_passes=refine
            )
            decoder = JointPairDecoder(ra, con)
            hist = out.theta_history
            assert np.all(np.isfinite(hist))
            messages = None
            for k in range(rx_cfg.em_iters):
                ev = pair_evidence(freq, chan, tm, con, hist[k], rx_cfg.sigma_w2)
                post = decoder.decode(ev, rx_cfg.bp_iters, start=messages)
                messages = post.messages
                tables = post.pair_symbol.reshape(cfg.m_symbols, -1, con.size**2)
                obj = build_phase_objective(freq, chan, tm, con, tables)
                value = lambda t: obj.value(t[..., 0], t[..., 1])
                assert np.all(value(hist[k + 1]) >= value(hist[k])), (refine, k)

    def test_phase_trajectory_tracking_zero_cfo(self, cfg):
        """With zero CFO the per-symbol estimates stay near one constant."""
        out, _, _ = self._simulate(cfg, em_iters=2, sigma_n2=0.1, cfo=(0.0, 0.0), seed=7)
        unit = np.exp(1j * out.theta_history[-1])
        spread = np.abs(unit - unit.mean(axis=0, keepdims=True))
        assert np.max(spread) < 0.35
