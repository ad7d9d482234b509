"""Tests for demodulation, pilot phases, evidence, and the EM-BP loop."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pncsim.channel import (
    ChannelRealization,
    NoiseModel,
    phase_trajectory,
    sample_flat,
    sample_selective,
    simulate_uplink,
)
from pncsim.codec import JointPairDecoder, RaCode, ra_encode
from pncsim.frame import (
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
        taps_a=np.array([np.exp(1j * phase_a)]),
        taps_b=np.array([np.exp(1j * phase_b)]),
        relative_delay=tau,
        cfo_a=cfo_a,
        cfo_b=cfo_b,
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
    info_a = rng.integers(0, 2, cfg.k_info)
    info_b = rng.integers(0, 2, cfg.k_info)
    ga = np.fft.fft(
        transmit_frame(ra_encode(info_a, ra), cfg, tm, con, "a").reshape(
            cfg.m_symbols, cfg.n_s
        )[:, cfg.n_cp :],
        norm="ortho",
        axis=1,
    )
    gb = np.fft.fft(
        transmit_frame(ra_encode(info_b, ra), cfg, tm, con, "b").reshape(
            cfg.m_symbols, cfg.n_s
        )[:, cfg.n_cp :],
        norm="ortho",
        axis=1,
    )
    r = (
        np.exp(1j * theta[:, 0])[:, None] * ga * chan.h_freq_a[None, :]
        + np.exp(1j * theta[:, 1])[:, None] * gb * chan.h_freq_b[None, :]
    )
    if sigma_n2 > 0:
        r = r + np.sqrt(sigma_n2 / 2) * (
            rng.standard_normal(r.shape) + 1j * rng.standard_normal(r.shape)
        )
    return r, (info_a, info_b), ra


class TestLsPilotPhase:
    def test_noiseless_quarter_pi(self, cfg):
        tm = cfg.tone_map()
        chan = unit_taps_channel(phase_a=0.9, phase_b=-1.2)
        theta = np.zeros((cfg.m_symbols, 2))
        theta[:, 0] = np.pi / 4
        freq, _, _ = _received_with_phases(cfg, theta, chan)
        est = ls_pilot_phase(freq, tm, chan.h_freq_a, chan.h_freq_b)
        np.testing.assert_allclose(est[:, 0], np.pi / 4, atol=1e-9)
        np.testing.assert_allclose(np.exp(1j * est[:, 1]), 1.0, atol=1e-9)

    def test_zero_phase_noiseless(self, cfg):
        tm = cfg.tone_map()
        chan = unit_taps_channel(phase_a=0.3)
        theta = np.zeros((cfg.m_symbols, 2))
        freq, _, _ = _received_with_phases(cfg, theta, chan)
        est = ls_pilot_phase(freq, tm, chan.h_freq_a, chan.h_freq_b)
        np.testing.assert_allclose(np.exp(1j * est), 1.0, atol=1e-9)

    def test_wrapped_to_two_pi(self, cfg):
        tm = cfg.tone_map()
        chan = unit_taps_channel()
        theta = np.full((cfg.m_symbols, 2), -0.5)  # stored as 2*pi - 0.5
        freq, _, _ = _received_with_phases(cfg, theta, chan)
        est = ls_pilot_phase(freq, tm, chan.h_freq_a, chan.h_freq_b)
        assert np.all(est >= 0.0) and np.all(est < 2 * np.pi)
        np.testing.assert_allclose(est, 2 * np.pi - 0.5, atol=1e-9)

    def test_consistency_mean_and_pilot_count(self):
        """Estimator error is unbiased and its variance shrinks when a node
        owns more pilot tones (custom maps with 1 vs 2 pilots per node)."""
        cfg = default_config(QPSK, 1, 0)
        base = default_tone_map()

        def custom_map(n_pilots_a):
            tones_a = base.pilot_tones_a[:n_pilots_a]
            dropped = base.pilot_tones_a[n_pilots_a:]
            return ToneMap(
                data_tones=base.data_tones,
                pilot_tones_a=tones_a,
                pilot_tones_b=base.pilot_tones_b,
                zero_tones=np.sort(np.concatenate([base.zero_tones, dropped])),
                pilot_values_a=base.pilot_values_a[:n_pilots_a],
                pilot_values_b=base.pilot_values_b,
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
                r[0, tm.pilot_tones_a] = np.exp(1j * true_theta) * tm.pilot_values_a
                r += np.sqrt(sigma2 / 2) * (
                    rng.standard_normal((1, 64)) + 1j * rng.standard_normal((1, 64))
                )
                est = ls_pilot_phase(
                    r, tm, np.ones(64, complex), np.ones(64, complex)
                )
                samples.append(np.angle(np.exp(1j * (est[0, 0] - true_theta))))
            errs[n_pilots] = np.asarray(samples)
        for n_pilots in (1, 2):
            assert abs(errs[n_pilots].mean()) < 3 * errs[n_pilots].std() / 100.0
        assert errs[2].var() < errs[1].var()

    def test_zero_correlation_falls_back(self, cfg):
        tm = cfg.tone_map()
        freq = np.zeros((cfg.m_symbols, 64), dtype=complex)
        with pytest.warns(UserWarning, match="zero pilot correlation"):
            est = ls_pilot_phase(freq, tm, np.ones(64, complex), np.ones(64, complex))
        np.testing.assert_array_equal(est, 0.0)


def oracle_evidence(r_tone, h_a, h_b, theta, points, sigma_w2):
    """Direct per-entry evaluation of the Gaussian evidence kernel."""
    q = len(points)
    out = np.zeros(q * q)
    for a in range(q):
        for b in range(q):
            hyp = (
                np.exp(1j * theta[0]) * points[a] * h_a
                + np.exp(1j * theta[1]) * points[b] * h_b
            )
            out[a * q + b] = np.exp(-abs(r_tone - hyp) ** 2 / sigma_w2)
    return out / out.sum()


def reference_pair_evidence(r, chan, tone_map, constellation, theta, sigma_w2):
    """The evidence build as first written, one full-size temporary per step."""
    data = tone_map.data_tones
    r = r[:, data]
    q = constellation.size
    joint = np.arange(q * q)
    xa, xb = constellation.points[joint // q], constellation.points[joint % q]
    rot_a = np.exp(1j * theta[:, 0])[:, None, None]
    rot_b = np.exp(1j * theta[:, 1])[:, None, None]
    hyp = rot_a * chan.h_freq_a[data][None, :, None] * xa[None, None, :]
    hyp += rot_b * chan.h_freq_b[data][None, :, None] * xb[None, None, :]
    log_k = -np.abs(r[:, :, None] - hyp) ** 2 / sigma_w2
    log_k -= log_k.max(axis=2, keepdims=True)
    tables = np.exp(log_k)
    tables /= tables.sum(axis=2, keepdims=True)
    return tables.reshape(-1, len(xa))


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
                    chan.h_freq_a[tone],
                    chan.h_freq_b[tone],
                    theta[m],
                    con.points,
                    sigma_w2,
                )
                np.testing.assert_allclose(tables[m, d], expect, atol=1e-12)

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
        ratio_n = narrow.tables.max(axis=1) / narrow.tables.min(axis=1)
        ratio_w = wide.tables.max(axis=1) / wide.tables.min(axis=1)
        assert np.all(ratio_w <= ratio_n + 1e-12)
        np.testing.assert_allclose(np.sqrt(ratio_n), ratio_w, rtol=1e-9)

    def test_never_all_zero_under_underflow(self, cfg):
        tm, con = cfg.tone_map(), cfg.constellation()
        chan = unit_taps_channel()
        r = np.full((cfg.m_symbols, 64), 1e6 + 1e6j)  # absurd residuals everywhere
        ev = pair_evidence(
            r, chan, tm, con, np.zeros((cfg.m_symbols, 2)), sigma_w2=1e-6
        )
        assert np.all(ev.tables.sum(axis=1) > 0)
        assert np.all(np.isfinite(ev.tables))


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


class TestPhaseObjective:
    def _random_setup(self, cfg, seed):
        rng = np.random.default_rng(seed)
        tm, con = cfg.tone_map(), cfg.constellation()
        data = tm.data_tones
        r = rng.standard_normal(len(data)) + 1j * rng.standard_normal(len(data))
        h_a = rng.standard_normal(len(data)) + 1j * rng.standard_normal(len(data))
        h_b = rng.standard_normal(len(data)) + 1j * rng.standard_normal(len(data))
        post = rng.random((len(data), con.size**2))
        post /= post.sum(axis=1, keepdims=True)
        return con, r, h_a, h_b, post

    def test_matches_brute_force(self, cfg):
        con, r, h_a, h_b, post = self._random_setup(cfg, 21)
        obj = PhaseObjective(r, h_a, h_b, post, con)
        rng = np.random.default_rng(22)
        for _ in range(6):
            th = rng.uniform(0, 2 * np.pi, 2)
            expect = oracle_objective(th, r, h_a, h_b, post, con.points)
            assert abs(obj.value(th[0], th[1]) - expect) < 1e-10

    def test_free_function_matches_brute_force(self, cfg):
        """Whole-symbol objective: posterior-weighted data tones plus the
        known-symbol pilot tones (the other node is silent on them)."""
        rng = np.random.default_rng(30)
        tm, con = cfg.tone_map(), cfg.constellation()
        chan = sample_selective(4, 1.0, rng)
        r_sym = rng.standard_normal(64) + 1j * rng.standard_normal(64)
        post = rng.random((len(tm.data_tones), con.size**2))
        post /= post.sum(axis=1, keepdims=True)
        th = (1.1, 4.2)
        got = build_phase_objective(r_sym, chan, tm, con, post).value(*th)
        expect = oracle_objective(
            th, r_sym[tm.data_tones], chan.h_freq_a[tm.data_tones],
            chan.h_freq_b[tm.data_tones], post, con.points,
        )
        for i, tone in enumerate(tm.pilot_tones_a):
            hyp = np.exp(1j * th[0]) * tm.pilot_values_a[i] * chan.h_freq_a[tone]
            expect -= abs(r_sym[tone] - hyp) ** 2
        for i, tone in enumerate(tm.pilot_tones_b):
            hyp = np.exp(1j * th[1]) * tm.pilot_values_b[i] * chan.h_freq_b[tone]
            expect -= abs(r_sym[tone] - hyp) ** 2
        assert abs(got - expect) < 1e-10
        data = tm.data_tones
        got_data_only = PhaseObjective(
            r_sym[data], chan.h_freq_a[data], chan.h_freq_b[data], post, con
        ).value(*th)
        expect_data_only = oracle_objective(
            th, r_sym[tm.data_tones], chan.h_freq_a[tm.data_tones],
            chan.h_freq_b[tm.data_tones], post, con.points,
        )
        assert abs(got_data_only - expect_data_only) < 1e-10

    def test_noiseless_delta_posterior_peak_is_zero_at_truth(self, cfg):
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
        post = np.zeros((len(data), q * q))
        post[np.arange(len(data)), joint[m]] = 1.0
        obj = PhaseObjective(
            freq[m, data], chan.h_freq_a[data], chan.h_freq_b[data], post, con
        )
        at_truth = obj.value(theta[m, 0], theta[m, 1])
        assert abs(at_truth) < 1e-9
        rng2 = np.random.default_rng(24)
        others = rng2.uniform(0, 2 * np.pi, (50, 2))
        assert np.all(obj.value(others[:, 0], others[:, 1]) <= at_truth + 1e-12)

    def test_relabel_invariance_with_equal_mass(self, cfg):
        """Permuting joint entries that carry identical posterior mass and
        identical hypothesis values leaves the objective unchanged; here the
        uniform posterior makes the objective depend only on sums."""
        con, r, h_a, h_b, _ = self._random_setup(cfg, 25)
        q2 = con.size**2
        uniform = np.full((len(r), q2), 1.0 / q2)
        obj = PhaseObjective(r, h_a, h_b, uniform, con)
        rng = np.random.default_rng(26)
        perm = rng.permutation(q2)
        obj_perm = PhaseObjective(r, h_a, h_b, uniform[:, perm], con)
        th = rng.uniform(0, 2 * np.pi, 2)
        assert abs(obj.value(th[0], th[1]) - obj_perm.value(th[0], th[1])) < 1e-10

    def test_per_symbol_sum_equals_frame_sum(self, cfg):
        """Summing the per-symbol objectives equals the whole-frame double
        sum evaluated symbol by symbol (decoupling consistency)."""
        rng = np.random.default_rng(27)
        tm, con = cfg.tone_map(), cfg.constellation()
        data = tm.data_tones
        chan = sample_selective(4, 0.5, rng)
        r = rng.standard_normal((cfg.m_symbols, 64)) + 1j * rng.standard_normal(
            (cfg.m_symbols, 64)
        )
        post = rng.random((cfg.m_symbols, len(data), con.size**2))
        post /= post.sum(axis=2, keepdims=True)
        theta = rng.uniform(0, 2 * np.pi, (cfg.m_symbols, 2))
        per_symbol = 0.0
        for m in range(cfg.m_symbols):
            obj = PhaseObjective(
                r[m, data], chan.h_freq_a[data], chan.h_freq_b[data], post[m], con
            )
            per_symbol += obj.value(theta[m, 0], theta[m, 1])
        frame_total = sum(
            oracle_objective(
                theta[m], r[m, data], chan.h_freq_a[data], chan.h_freq_b[data],
                post[m], con.points,
            )
            for m in range(cfg.m_symbols)
        )
        assert abs(per_symbol - frame_total) < 1e-10


class _QuadraticObjective:
    """Stand-in objective with a known analytic peak."""

    def __init__(self, peak, curvature=30.0):
        self.peak = np.asarray(peak, dtype=float)
        self.curvature = curvature

    def value(self, theta_a, theta_b):
        da = np.angle(np.exp(1j * (np.asarray(theta_a) - self.peak[0])))
        db = np.angle(np.exp(1j * (np.asarray(theta_b) - self.peak[1])))
        return -self.curvature * (da**2 + db**2)


class TestParticleMStep:
    def test_peak_on_grid_returned_exactly(self):
        peak = np.array([2 * np.pi * 3 / 10, 2 * np.pi * 7 / 10])
        obj = _QuadraticObjective(peak, curvature=200.0)
        got = particle_m_step(obj, np.zeros(2), ReceiverConfig(sigma_w2=1e-3))
        np.testing.assert_allclose(got, peak, atol=1e-12)

    def test_p_zero_equals_grid_argmax(self):
        rx_cfg = ReceiverConfig(sigma_w2=0.3, particle_rounds=0)
        rng = np.random.default_rng(31)
        for _ in range(20):
            peak = rng.uniform(0, 2 * np.pi, 2)
            obj = _QuadraticObjective(peak, curvature=rng.uniform(5, 100))
            got = particle_m_step(obj, np.zeros(2), rx_cfg)
            base = 2 * np.pi * np.arange(10) / 10
            ta, tb = np.meshgrid(base, base, indexing="ij")
            lattice = np.stack([ta.reshape(-1), tb.reshape(-1)], axis=1)
            vals = obj.value(lattice[:, 0], lattice[:, 1])
            np.testing.assert_allclose(got, lattice[np.argmax(vals)], atol=0)

    def test_improvement_over_coarse_grid(self):
        """The returned point never scores below the initial lattice argmax."""
        rng = np.random.default_rng(32)
        for _ in range(20):
            obj = _QuadraticObjective(rng.uniform(0, 2 * np.pi, 2), rng.uniform(3, 300))
            rx_cfg = ReceiverConfig(sigma_w2=rng.uniform(0.01, 1.0))
            got = particle_m_step(obj, np.zeros(2), rx_cfg)
            base = 2 * np.pi * np.arange(10) / 10
            ta, tb = np.meshgrid(base, base, indexing="ij")
            lattice = np.stack([ta.reshape(-1), tb.reshape(-1)], axis=1)
            best0 = np.max(obj.value(lattice[:, 0], lattice[:, 1]))
            assert obj.value(got[0], got[1]) >= best0 - 1e-9

    def test_degenerate_weights_return_previous(self):
        class NanObjective:
            def value(self, a, b):
                return np.full(np.broadcast(a, b).shape, np.nan)

        rx_cfg = ReceiverConfig(sigma_w2=0.1, particle_rounds=2, particle_l=4)
        prev = np.array([0.5, 1.5])
        with pytest.warns(UserWarning, match="degenerate particle weights"):
            got = particle_m_step(NanObjective(), prev, rx_cfg)
        np.testing.assert_array_equal(got, prev)

    def test_equivariant_under_phase_rotation(self, cfg):
        """Rotating the objective and the running estimate by (phi_a, phi_b)
        rotates the search result by the same pair.

        value(theta) of the rotated statistics equals value(theta - phi), so
        a search that does not favour any absolute phase must follow the
        rotation exactly.  A lattice pinned at absolute phase 0 breaks this
        and always offers the zero-drift truth as a candidate.
        """
        con = cfg.constellation()
        n = len(cfg.tone_map().data_tones)
        rng = np.random.default_rng(33)
        for _ in range(200):
            r, h_a, h_b = (
                rng.standard_normal(n) + 1j * rng.standard_normal(n) for _ in range(3)
            )
            post = rng.random((n, con.size**2))
            post /= post.sum(axis=1, keepdims=True)
            obj = PhaseObjective(r, h_a, h_b, post, con)
            phi = rng.uniform(0, 2 * np.pi, 2)
            rot = PhaseObjective(r, h_a, h_b, post, con)
            rot.s_a *= np.exp(-1j * phi[0])
            rot.s_b *= np.exp(-1j * phi[1])
            rot.s_ab *= np.exp(-1j * (phi[0] - phi[1]))
            prev = rng.uniform(0, 2 * np.pi, 2)
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
        return r, h_a, h_b, post, con

    def test_never_beats_exact_profile_oracle(self, cfg):
        """The search never scores above the exact maximum of the objective.

        For fixed theta_b the best theta_a is -angle(s_a - e^{-j theta_b} s_ab),
        which leaves the 1-D profile
        f(theta_b) = -c0 + 2 Re(e^{j theta_b} s_b) + 2 |s_a - e^{-j theta_b} s_ab|.
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
                c0, s_a, s_b, s_ab = obj.c0[i], obj.s_a[i], obj.s_b[i], obj.s_ab[i]

                def profile(tb):
                    rb = np.exp(1j * tb)
                    return -c0 + 2 * np.real(rb * s_b) + 2 * np.abs(s_a - np.conj(rb) * s_ab)

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

    def test_batched_equals_per_row_calls(self, cfg):
        """One M-step over a stacked objective (search, monotone guard and a
        refine pass) equals one single-symbol call per row.  A row whose
        statistics are all NaN keeps its previous phases with one warning
        per search, and leaves every other row bit-identical."""
        rng = np.random.default_rng(36)
        m, nan_row = 12, 5
        r, h_a, h_b, post, con = self._random_objectives(cfg, rng, m)
        theta = rng.uniform(0, 2 * np.pi, (m, 2))
        rx_cfg = ReceiverConfig(sigma_w2=0.3, em_refine_passes=1)
        clean = m_step(PhaseObjective(r, h_a, h_b, post, con), theta, rx_cfg)
        batched = PhaseObjective(r, h_a, h_b, post, con)
        rows = [PhaseObjective(r[i], h_a, h_b, post[i], con) for i in range(m)]
        for name in ("c0", "s_a", "s_b", "s_ab"):
            np.testing.assert_allclose(
                getattr(batched, name), [getattr(o, name) for o in rows], rtol=1e-13
            )
            getattr(batched, name)[nan_row] = np.nan
            setattr(rows[nan_row], name, np.nan)
        with warnings.catch_warnings(record=True) as caught_batched:
            warnings.simplefilter("always")
            got = m_step(batched, theta, rx_cfg)
        with warnings.catch_warnings(record=True) as caught_rows:
            warnings.simplefilter("always")
            expect = np.stack([m_step(rows[i], theta[i], rx_cfg) for i in range(m)])
        assert np.max(np.abs(np.angle(np.exp(1j * (got - expect))))) < 1e-12
        np.testing.assert_array_equal(got[nan_row], theta[nan_row])
        others = np.arange(m) != nan_row
        np.testing.assert_array_equal(got[others], clean[others])
        messages = [str(w.message) for w in caught_batched]
        assert messages == [str(w.message) for w in caught_rows]
        assert messages == ["degenerate particle weights; keeping previous phase"] * 2

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
        sigma_n2 = NoiseModel.from_ebn0_db(20.0, 1 / 3, 2).sigma_n2
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
            post = np.zeros((len(data), con.size**2))
            post[np.arange(len(data)), ia * con.size + ib] = 1.0
            obj = PhaseObjective(
                r, np.ones(len(data), complex), np.ones(len(data), complex), post, con
            )
            coarse = particle_m_step(obj, np.zeros(2), rx_cfg)
            fine = particle_m_step(obj, coarse, rx_cfg, center=coarse, span=2 * cell)
            if obj.value(fine[0], fine[1]) < obj.value(coarse[0], coarse[1]):
                fine = coarse
            err_c = np.max(np.abs(np.angle(np.exp(1j * (coarse - truth)))))
            err_f = np.max(np.abs(np.angle(np.exp(1j * (fine - truth)))))
            ok_coarse += err_c <= cell * np.sqrt(2) / 2 + 1e-9
            ok_fine += err_f < 0.1
        assert ok_coarse >= 0.90 * trials
        assert ok_fine >= 0.90 * trials


class TestPncMap:
    def test_delta_posterior(self):
        assert pnc_map(np.array([[0.0, 0.0, 1.0, 0.0]]))[0] == 1  # (1,0) -> xor 1
        assert pnc_map(np.array([[1.0, 0.0, 0.0, 0.0]]))[0] == 0

    def test_documented_example(self):
        assert pnc_map(np.array([[0.4, 0.1, 0.1, 0.4]]))[0] == 0  # P(xor=0)=0.8

    def test_tie_breaks_to_zero(self):
        assert pnc_map(np.array([[0.25, 0.25, 0.25, 0.25]]))[0] == 0

    @given(
        st.lists(
            st.tuples(
                st.floats(0.001, 1.0), st.floats(0.001, 1.0),
                st.floats(0.001, 1.0), st.floats(0.001, 1.0),
            ),
            min_size=1,
            max_size=16,
        )
    )
    @settings(max_examples=50, deadline=None)
    def test_matches_enumeration_oracle(self, rows):
        tables = np.array(rows)
        tables /= tables.sum(axis=1, keepdims=True)
        got = pnc_map(tables)
        for j, t in enumerate(tables):
            p = {0: t[0] + t[3], 1: t[1] + t[2]}
            expect = 1 if p[1] > p[0] else 0
            assert got[j] == expect


class TestEmBpReceive:
    def _simulate(self, cfg, em_iters, seed=0, sigma_n2=0.0, cfo=(0.0, 0.0), tau=0):
        rng = np.random.default_rng(seed)
        tm, con = cfg.tone_map(), cfg.constellation()
        ra = RaCode.build(cfg.k_info, 3)
        info_a = rng.integers(0, 2, cfg.k_info)
        info_b = rng.integers(0, 2, cfg.k_info)
        fa = transmit_frame(ra_encode(info_a, ra), cfg, tm, con, "a")
        fb = transmit_frame(ra_encode(info_b, ra), cfg, tm, con, "b")
        chan = sample_selective(4, 1.0, rng, tau=tau, cfo_a=cfo[0], cfo_b=cfo[1])
        samples = simulate_uplink(fa, fb, chan, NoiseModel(sigma_n2), rng, cfg)
        freq = demodulate(samples, cfg)
        rx_cfg = ReceiverConfig(
            sigma_w2=effective_noise_var(sigma_n2, max(abs(cfo[0]), abs(cfo[1])) * 2),
            em_iters=em_iters,
        )
        out = em_bp_receive(freq, chan, tm, JointPairDecoder(ra, con), rx_cfg)
        return out, (info_a, info_b), (freq, chan, tm, con, ra, rx_cfg)

    def test_noiseless_zero_cfo_exact(self, cfg):
        out, (info_a, info_b), _ = self._simulate(cfg, em_iters=2, tau=7)
        for k in range(3):
            np.testing.assert_array_equal(out.xor_history[k], info_a ^ info_b)

    def test_k_zero_equals_manual_baseline(self, cfg):
        out, _, (freq, chan, tm, con, ra, rx_cfg) = self._simulate(
            cfg, em_iters=0, sigma_n2=0.3, cfo=(0.02, -0.03), seed=4
        )
        est = ls_pilot_phase(freq, tm, chan.h_freq_a, chan.h_freq_b)
        ev = pair_evidence(freq, chan, tm, con, est, rx_cfg.sigma_w2)
        post = JointPairDecoder(ra, con).decode(ev, rx_cfg.bp_iters)
        np.testing.assert_array_equal(out.xor_history[-1], pnc_map(post.pair_bit))
        np.testing.assert_array_equal(out.theta_history[-1], est)

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
        """Each EM round's phases score at least as well as the previous
        round's under that round's own posterior-free final check: verify
        via the recorded histories that decoding still succeeds and phases
        stay finite (detailed per-symbol ascent is enforced in the loop)."""
        out, _, _ = self._simulate(cfg, em_iters=4, sigma_n2=0.25, cfo=(0.045, -0.04), seed=6)
        assert np.all(np.isfinite(out.theta_history))

    def test_phase_trajectory_tracking_zero_cfo(self, cfg):
        """With zero CFO the per-symbol estimates stay near one constant."""
        out, _, _ = self._simulate(cfg, em_iters=2, sigma_n2=0.1, cfo=(0.0, 0.0), seed=7)
        unit = np.exp(1j * out.theta_history[-1])
        spread = np.abs(unit - unit.mean(axis=0, keepdims=True))
        assert np.max(spread) < 0.35
