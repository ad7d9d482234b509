"""Tests for the repeat-accumulate code and the joint pair BP decoder."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import expit, logsumexp

from pncsim import codec
from pncsim.channel import noise_var, phase_trajectory, sample_flat, simulate_uplink
from pncsim.codec import JointPairDecoder, PairEvidence, RaCode, ra_encode
from pncsim.frame import BPSK, QPSK, FrameConfig, make_constellation, map_bits, transmit_frame
from pncsim.receiver import demodulate, effective_noise_var, pair_evidence, pnc_map


def oracle_encode(info_bits, interleaver):
    """Step-by-step repeat/interleave/accumulate, kept deliberately naive."""
    repeated = []
    for b in info_bits:
        repeated.extend([int(b)] * 3)
    mixed = [repeated[interleaver[t]] for t in range(len(interleaver))]
    out = []
    acc = 0
    for d in mixed:
        acc ^= d
        out.append(acc)
    return np.array(out)


def delta_evidence(coded_a, coded_b, constellation):
    """Log-evidence tables that are 0 on the transmitted pair, -inf elsewhere."""
    q = constellation.size
    sym_a = map_bits(coded_a, constellation)
    sym_b = map_bits(coded_b, constellation)
    idx_a = np.argmin(np.abs(sym_a[:, None] - constellation.points[None, :]), axis=1)
    idx_b = np.argmin(np.abs(sym_b[:, None] - constellation.points[None, :]), axis=1)
    tables = np.full((len(sym_a), q * q), -np.inf)
    tables[np.arange(len(sym_a)), idx_a * q + idx_b] = 0.0
    return PairEvidence(tables=tables)


def pair_evidence_awgn(coded_a, coded_b, constellation, h_a, h_b, sigma2, rng):
    """Log-evidence from superimposed transmission over scalar channels,
    shifted to a row maximum of 0 as ``pair_evidence`` shifts it."""
    q = constellation.size
    sym_a = map_bits(coded_a, constellation)
    sym_b = map_bits(coded_b, constellation)
    noise = math.sqrt(sigma2 / 2) * (
        rng.standard_normal(len(sym_a)) + 1j * rng.standard_normal(len(sym_a))
    )
    r = h_a * sym_a + h_b * sym_b + noise
    pa = constellation.points
    hyp = h_a * pa[np.repeat(np.arange(q), q)] + h_b * pa[np.tile(np.arange(q), q)]
    log_t = -np.abs(r[:, None] - hyp[None, :]) ** 2 / sigma2
    return PairEvidence(tables=log_t - log_t.max(axis=1, keepdims=True)), r


class TestRaEncode:
    def test_all_zero_info_gives_all_zero_codeword(self):
        ra = RaCode.build(16, seed=3)
        np.testing.assert_array_equal(ra_encode(np.zeros(16, dtype=int), ra), np.zeros(48))

    def test_rate_one_third_length(self):
        ra = RaCode.build(4, seed=3)
        assert ra_encode(np.array([1, 0, 1, 1]), ra).shape == (12,)

    def test_matches_step_by_step_oracle(self):
        """Also row by row: (..., k) bits encode along the last axis."""
        rng = np.random.default_rng(11)
        for seed in range(5):
            ra = RaCode.build(8, seed=seed)
            info = rng.integers(0, 2, 8)
            np.testing.assert_array_equal(
                ra_encode(info, ra), oracle_encode(info, ra.interleaver)
            )
        rows = rng.integers(0, 2, (2, 3, 8))
        coded = ra_encode(rows, ra)
        assert coded.shape == (2, 3, 24)
        for idx in np.ndindex(2, 3):
            np.testing.assert_array_equal(coded[idx], oracle_encode(rows[idx], ra.interleaver))

    def test_rejects_wrong_length(self):
        ra = RaCode.build(8, seed=0)
        with pytest.raises(ValueError):
            ra_encode(np.zeros(7, dtype=int), ra)

    def test_interleaver_must_be_permutation(self):
        with pytest.raises(ValueError):
            RaCode(k_info=2, interleaver=np.array([0, 1, 2, 3, 4, 4]))

    def test_same_seed_same_interleaver(self):
        np.testing.assert_array_equal(
            RaCode.build(32, seed=7).interleaver, RaCode.build(32, seed=7).interleaver
        )


def assert_llrs_toward_sent(info_llr, info_a, info_b):
    """Each node's LLR toward its sent bit exceeds log(2e9), so each marginal
    puts more than 1 - 5e-10 on the sent bit, and their product (the sent
    pair's probability) more than 1 - 1e-9."""
    toward = (1 - 2 * np.stack([info_a, info_b])) * info_llr
    np.testing.assert_array_less(np.log(2e9), toward)


class TestBpDecodeNoiseless:
    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_delta_evidence_gives_delta_posteriors(self, mod):
        rng = np.random.default_rng(2)
        con = make_constellation(mod)
        k = 16 if mod == BPSK else 32
        ra = RaCode.build(k, seed=5)
        info_a = rng.integers(0, 2, k)
        info_b = rng.integers(0, 2, k)
        ev = delta_evidence(ra_encode(info_a, ra), ra_encode(info_b, ra), con)
        post = JointPairDecoder(ra, con).decode(ev, 20)
        assert post.info_llr.shape == (2, k)
        assert_llrs_toward_sent(post.info_llr, info_a, info_b)
        # symbol posteriors are deltas on the transmitted pairs
        np.testing.assert_array_less(1.0 - 1e-9, post.pair_symbol.max(axis=1))
        hard = (post.info_llr < 0).astype(int)
        np.testing.assert_array_equal(hard[0] ^ hard[1], info_a ^ info_b)

    def test_single_iteration_already_delta(self):
        rng = np.random.default_rng(3)
        con = make_constellation(BPSK)
        ra = RaCode.build(12, seed=1)
        info_a = rng.integers(0, 2, 12)
        info_b = rng.integers(0, 2, 12)
        ev = delta_evidence(ra_encode(info_a, ra), ra_encode(info_b, ra), con)
        post = JointPairDecoder(ra, con).decode(ev, 1)
        assert_llrs_toward_sent(post.info_llr, info_a, info_b)


def single_user_ra_bp(bit_llrs, interleaver, k_info, iters, llr_max=30.0, pin=1e30):
    """Independent single-user RA sum-product decoder (flooding, plain loops).

    ``bit_llrs[t]`` is the fixed channel LLR of coded bit t.  Returns the
    posterior LLR of every info bit.
    """
    n = len(bit_llrs)
    j_of = [interleaver[t] // 3 for t in range(n)]
    to_prev = [0.0] * n
    to_cur = [0.0] * n
    to_info = [0.0] * n

    def clip(x):
        return max(-llr_max, min(llr_max, x))

    def boxplus(a, b):
        return 2.0 * math.atanh(math.tanh(0.5 * a) * math.tanh(0.5 * b))

    for _ in range(iters):
        totals = [0.0] * k_info
        for t in range(n):
            totals[j_of[t]] += to_info[t]
        in_info = [clip(totals[j_of[t]] - to_info[t]) for t in range(n)]
        in_cur = [
            clip(bit_llrs[t] + (to_prev[t + 1] if t < n - 1 else 0.0)) for t in range(n)
        ]
        in_prev = [pin] + [clip(bit_llrs[t - 1] + to_cur[t - 1]) for t in range(1, n)]
        to_prev = [0.0] + [boxplus(in_cur[t], in_info[t]) for t in range(1, n)]
        to_cur = [boxplus(in_prev[t], in_info[t]) for t in range(n)]
        to_info = [boxplus(in_prev[t], in_cur[t]) for t in range(n)]
    totals = [0.0] * k_info
    for t in range(n):
        totals[j_of[t]] += to_info[t]
    return np.array(totals)


class TestSingleUserConsistency:
    def test_flat_b_evidence_reduces_to_single_user_decoder(self):
        rng = np.random.default_rng(9)
        con = make_constellation(BPSK)
        k = 12
        ra = RaCode.build(k, seed=4)
        coded_a = ra_encode(rng.integers(0, 2, k), ra)
        # A-only noisy evidence, flat in the B coordinate
        sigma2 = 0.8
        noise = math.sqrt(sigma2 / 2) * (
            rng.standard_normal(3 * k) + 1j * rng.standard_normal(3 * k)
        )
        r = map_bits(coded_a, con) + noise
        log_e_a = -np.abs(r[:, None] - con.points[None, :]) ** 2 / sigma2
        tables = np.repeat(log_e_a, 2, axis=1)  # joint idx a*2+b flat over b
        post = JointPairDecoder(ra, con).decode(PairEvidence(tables=tables), 8)

        bit_llrs = log_e_a[:, 0] - log_e_a[:, 1]
        llr_oracle = single_user_ra_bp(
            np.clip(bit_llrs, -30, 30), ra.interleaver, k, iters=8
        )
        np.testing.assert_allclose(expit(post.info_llr[0]), expit(llr_oracle), atol=1e-9)
        # B stays uninformed
        np.testing.assert_allclose(expit(post.info_llr[1]), 0.5, atol=1e-9)


def exhaustive_pair_map(ra, log_t, constellation):
    """Exact joint MAP over all codeword pairs; returns XOR decisions.

    Enumerates every (codeword_a, codeword_b) pair, scores it with the
    log-evidence tables ``log_t``, and marginalizes the joint posterior to
    per-info-bit XOR decisions.
    """
    k = ra.k_info
    q = constellation.size
    n_words = 1 << k
    infos = ((np.arange(n_words)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.int64)
    codes = np.stack([ra_encode(infos[w], ra) for w in range(n_words)])
    sym_idx = codes  # BPSK: coded bit == point index
    assert q == 2
    loglik = np.zeros((n_words, n_words))
    for t in range(ra.n_coded):
        loglik += log_t[t][sym_idx[:, t][:, None] * q + sym_idx[None, :, t]]
    loglik -= loglik.max()
    post = np.exp(loglik)
    post /= post.sum()
    xor = np.zeros(k, dtype=np.int64)
    for j in range(k):
        a_j = infos[:, j]
        p_same = a_j @ post @ a_j + (1 - a_j) @ post @ (1 - a_j)
        p_diff = a_j @ post @ (1 - a_j) + (1 - a_j) @ post @ a_j
        xor[j] = int(p_diff > p_same)
    return xor


class TestAgainstExhaustiveMap:
    def test_xor_decisions_match_map_at_6db(self):
        """Loopy BP is approximate: require full-frame XOR agreement with the
        exact pairwise MAP in at least 95% of 200 random trials."""
        con = make_constellation(BPSK)
        k = 8
        ra = RaCode.build(k, seed=17)
        sigma2 = 3.0 / 10 ** (6.0 / 10.0)  # Eb/N0 = 6 dB, Eb = 3 Es at rate 1/3
        agree = 0
        trials = 200
        for t in range(trials):
            rng = np.random.default_rng(10_000 + t)
            info_a = rng.integers(0, 2, k)
            info_b = rng.integers(0, 2, k)
            h_a = np.exp(1j * rng.uniform(0, 2 * np.pi))
            h_b = np.exp(1j * rng.uniform(0, 2 * np.pi))
            ev, _ = pair_evidence_awgn(
                ra_encode(info_a, ra), ra_encode(info_b, ra), con, h_a, h_b, sigma2, rng
            )
            post = JointPairDecoder(ra, con).decode(ev, 20)
            bp_xor = pnc_map(post.info_llr)
            map_xor = exhaustive_pair_map(ra, ev.tables, con)
            agree += int(np.array_equal(bp_xor, map_xor))
        assert agree >= 0.95 * trials, f"BP agreed with MAP in only {agree}/{trials} trials"


class TestDecoderProperties:
    def _random_evidence(self, seed, n_sym, q_joint):
        rng = np.random.default_rng(seed)
        t = rng.random((n_sym, q_joint)) + 1e-6
        return PairEvidence(tables=np.log(t / t.sum(axis=1, keepdims=True)))

    def test_posteriors_normalized(self):
        con = make_constellation(QPSK)
        ra = RaCode.build(16, seed=2)
        ev = self._random_evidence(0, 24, 16)
        post = JointPairDecoder(ra, con).decode(ev, 5)
        assert post.info_llr.shape == (2, 16) and np.isfinite(post.info_llr).all()
        np.testing.assert_allclose(post.pair_symbol.sum(axis=1), 1.0, atol=1e-9)

    @given(st.integers(0, 2**31 - 1))
    @settings(max_examples=10, deadline=None)
    def test_posteriors_normalized_property(self, seed):
        con = make_constellation(BPSK)
        ra = RaCode.build(8, seed=3)
        ev = self._random_evidence(seed, 24, 4)
        post = JointPairDecoder(ra, con).decode(ev, 3)
        assert post.info_llr.shape == (2, 8) and np.isfinite(post.info_llr).all()
        np.testing.assert_allclose(post.pair_symbol.sum(axis=1), 1.0, atol=1e-9)

    def test_swap_symmetry(self):
        """Transposing every evidence table swaps the posterior coordinates."""
        con = make_constellation(BPSK)
        ra = RaCode.build(12, seed=6)
        ev = self._random_evidence(4, 36, 4)
        swapped = PairEvidence(tables=ev.tables[:, [0, 2, 1, 3]])
        post = JointPairDecoder(ra, con).decode(ev, 10)
        post_sw = JointPairDecoder(ra, con).decode(swapped, 10)
        np.testing.assert_allclose(post_sw.info_llr, post.info_llr[::-1], atol=1e-12)
        np.testing.assert_allclose(
            post_sw.pair_symbol, post.pair_symbol[:, [0, 2, 1, 3]], atol=1e-12
        )

    @pytest.mark.parametrize(
        "row", [[0.0, np.nan, -1.0, -2.0], [0.0, np.inf, -1.0, -2.0], [-np.inf] * 4],
        ids=["nan", "plus-inf", "all-minus-inf"],
    )
    def test_rejects_nonfinite_row_max(self, row):
        """A NaN, a +inf or an all -inf row has no finite maximum, and the
        error names its symbol."""
        con = make_constellation(BPSK)
        ra = RaCode.build(8, seed=2)
        tables = np.zeros((24, 4))
        tables[5] = row
        with pytest.raises(ValueError, match="not finite at symbol index 5"):
            JointPairDecoder(ra, con).decode(PairEvidence(tables=tables), 2)

    def test_rejects_wrong_coverage(self):
        con = make_constellation(BPSK)
        ra = RaCode.build(8, seed=2)
        with pytest.raises(ValueError, match="cover"):
            JointPairDecoder(ra, con).decode(PairEvidence(tables=np.ones((23, 4))), 2)

    def test_rejects_zero_iterations(self):
        con = make_constellation(BPSK)
        ra = RaCode.build(8, seed=2)
        with pytest.raises(ValueError):
            JointPairDecoder(ra, con).decode(PairEvidence(tables=np.ones((24, 4))), 0)

    def test_deterministic(self):
        con = make_constellation(QPSK)
        ra = RaCode.build(16, seed=2)
        ev = self._random_evidence(1, 24, 16)
        p1 = JointPairDecoder(ra, con).decode(ev, 6)
        p2 = JointPairDecoder(ra, con).decode(ev, 6)
        np.testing.assert_array_equal(p1.info_llr, p2.info_llr)
        np.testing.assert_array_equal(p1.pair_symbol, p2.pair_symbol)


def reference_decode(ra, constellation, log_tables, iters, llr_max=30.0, pin=1e30):
    """The joint decoder in its per-node form: one RA chain per node, evidence
    messages from full log p(bit = 0) / log p(bit = 1) priors (two
    ``logaddexp`` calls), and one two-tanh boxplus per check output.

    Same schedule and clip points as ``JointPairDecoder``; kept as the
    oracle that the stacked, matmul-based decoder must reproduce.
    """
    q = constellation.size
    b = constellation.bits_per_symbol
    n_sym = ra.n_coded // b
    joint = np.arange(q * q)
    shifts = np.arange(b - 1, -1, -1)
    bits = {"a": ((joint // q)[:, None] >> shifts) & 1, "b": ((joint % q)[:, None] >> shifts) & 1}
    masks = {
        u: np.stack([(bits[u][:, p] == v).astype(float) for p in range(b) for v in (0, 1)], axis=1)
        for u in ("a", "b")
    }
    info_of_check = ra.interleaver // ra.repeat

    def clip(x):
        return np.clip(x, -llr_max, llr_max)

    def boxplus(x, y):
        return 2.0 * np.arctanh(np.tanh(0.5 * x) * np.tanh(0.5 * y))

    def evidence_llrs(v2e):
        in_llr, contrib = {}, {}
        for u in ("a", "b"):
            llr = clip(v2e[u]).reshape(n_sym, b)
            in_llr[u] = llr
            lp = np.stack([-np.logaddexp(0.0, -llr), -np.logaddexp(0.0, llr)], axis=-1)
            contrib[u] = sum(lp[:, p, :][:, bits[u][:, p]] for p in range(b))
        full = log_tables + contrib["a"] + contrib["b"]
        flat = np.exp(full - full.max(axis=1, keepdims=True))
        out = {}
        with np.errstate(divide="ignore"):
            for u in ("a", "b"):
                sums = np.log(flat @ masks[u])
                out[u] = clip((sums[:, 0::2] - sums[:, 1::2] - in_llr[u]).reshape(-1))
        return out, full

    n = ra.n_coded
    zeros = {"to_prev": np.zeros(n), "to_cur": np.zeros(n), "to_info": np.zeros(n)}
    states = {"a": dict(zeros), "b": dict(zeros)}

    def v2e_of(st):
        v = st["to_cur"].copy()
        v[:-1] += st["to_prev"][1:]
        return v

    for _ in range(iters):
        msg_ev, _ = evidence_llrs({u: v2e_of(states[u]) for u in ("a", "b")})
        for u in ("a", "b"):
            st, msg = states[u], msg_ev[u]
            totals = np.bincount(info_of_check, weights=st["to_info"], minlength=ra.k_info)
            in_info = clip(totals[info_of_check] - st["to_info"])
            in_cur = msg.copy()
            in_cur[:-1] += st["to_prev"][1:]
            in_cur = clip(in_cur)
            in_prev = np.empty(n)
            in_prev[0] = pin
            in_prev[1:] = clip(msg[:-1] + st["to_cur"][:-1])
            to_prev = np.zeros(n)
            to_prev[1:] = boxplus(in_cur[1:], in_info[1:])
            states[u] = {
                "to_prev": to_prev,
                "to_cur": boxplus(in_prev, in_info),
                "to_info": boxplus(in_prev, in_cur),
            }
    info_llr = np.stack(
        [
            np.bincount(info_of_check, weights=states[u]["to_info"], minlength=ra.k_info)
            for u in ("a", "b")
        ]
    )
    _, full = evidence_llrs({u: v2e_of(states[u]) for u in ("a", "b")})
    return info_llr, np.exp(full - logsumexp(full, axis=1, keepdims=True))


class TestMatchesReferenceDecoder:
    """Full posteriors at the frame's real code lengths (M = 10 symbols)
    equal those of the per-node reference decoder up to rounding."""

    @pytest.mark.parametrize("iters", [1, 2, 20])
    @pytest.mark.parametrize("kind", ["awgn-0db", "awgn-6db", "delta"])
    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_posteriors_match(self, mod, kind, iters):
        con = make_constellation(mod)
        k = FrameConfig(m_symbols=10, modulation=mod).k_info
        ra = RaCode.build(k, seed=8)
        rng = np.random.default_rng(31)
        coded_a = ra_encode(rng.integers(0, 2, k), ra)
        coded_b = ra_encode(rng.integers(0, 2, k), ra)
        if kind == "delta":
            ev = delta_evidence(coded_a, coded_b, con)
            assert np.any(ev.tables == -np.inf)
        else:
            ebn0_db = float(kind[5:-2])
            sigma2 = 3.0 / (con.bits_per_symbol * 10 ** (ebn0_db / 10.0))
            h_a = np.exp(1j * rng.uniform(0, 2 * np.pi))
            h_b = 0.8 * np.exp(1j * rng.uniform(0, 2 * np.pi))
            ev, _ = pair_evidence_awgn(coded_a, coded_b, con, h_a, h_b, sigma2, rng)
        post = JointPairDecoder(ra, con).decode(ev, iters)
        ref_llr, ref_symbol = reference_decode(ra, con, ev.tables, iters)
        # each (b_a, b_b) entry is a product of two marginals, so P(bit = 0)
        # at atol 5e-11 per node bounds the pair table at the old 1e-10
        np.testing.assert_allclose(expit(post.info_llr), expit(ref_llr), rtol=0, atol=5e-11)
        np.testing.assert_allclose(post.pair_symbol, ref_symbol, rtol=0, atol=1e-10)
        np.testing.assert_array_equal(pnc_map(post.info_llr), pnc_map(ref_llr))


def flat_frame_evidence(mod, ebn0_db, seed):
    """Decoder and pair evidence of one flat-fading frame pair at the true phases."""
    cfg = FrameConfig(m_symbols=10, modulation=mod)
    con, tm = cfg.constellation(), cfg.tone_map()
    ra = RaCode.build(cfg.k_info, seed=8)
    rng = np.random.default_rng(seed)
    frames = transmit_frame(ra_encode(rng.integers(0, 2, (2, cfg.k_info)), ra), cfg, tm, con)
    chan = sample_flat(rng, tau=3, cfo=(0.02, -0.03))
    sigma_n2 = noise_var(ebn0_db, 1 / cfg.code_rate_inv, con.bits_per_symbol)
    r = demodulate(simulate_uplink(frames, chan, sigma_n2, rng, cfg), cfg)
    theta, sigma_w2 = phase_trajectory(chan, cfg), effective_noise_var(sigma_n2, 0.1)
    return JointPairDecoder(ra, con), pair_evidence(r, chan, tm, con, theta, sigma_w2)


class TestFixedPointExit:
    """BP stops once an iteration repeats the last one's check outputs, and
    its posteriors are bit for bit those of all 20 iterations."""

    @pytest.mark.parametrize("ebn0_db, converges", [(30.0, True), (0.0, False)])
    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_exit_keeps_posteriors(self, monkeypatch, mod, ebn0_db, converges):
        decoder, ev = flat_frame_evidence(mod, ebn0_db, seed=2)
        same, matches = codec._same_messages, []

        def recorded(a, b):
            matches.append(same(a, b))
            return matches[-1]

        monkeypatch.setattr(codec, "_same_messages", recorded)
        post = decoder.decode(ev, 20)
        if converges:  # it stopped early, at its first match
            assert len(matches) < 20 and matches.index(True) == len(matches) - 1
        else:
            assert matches == [False] * 20
        monkeypatch.setattr(codec, "_same_messages", lambda a, b: False)
        full = decoder.decode(ev, 20)
        assert post.info_llr.tobytes() == full.info_llr.tobytes()
        assert post.pair_symbol.tobytes() == full.pair_symbol.tobytes()


class TestWarmStart:
    """``decode`` may start from given check messages instead of zeros."""

    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_start_at_fixed_point_stops_after_one_iteration(self, monkeypatch, mod):
        """Started from the messages of a cold decode that reached its fixed
        point, the same evidence repeats them at once: one iteration, and
        the posteriors bit for bit the cold decode's."""
        decoder, ev = flat_frame_evidence(mod, 30.0, seed=2)
        cold = decoder.decode(ev, 20)
        same, matches = codec._same_messages, []

        def recorded(a, b):
            matches.append(same(a, b))
            return matches[-1]

        monkeypatch.setattr(codec, "_same_messages", recorded)
        warm = decoder.decode(ev, 20, start=cold.messages)
        assert matches == [True]
        for name in ("info_llr", "pair_symbol", "messages"):
            assert getattr(warm, name).tobytes() == getattr(cold, name).tobytes(), name

    def test_start_is_not_written(self):
        decoder, ev = flat_frame_evidence(QPSK, 0.0, seed=3)
        start = decoder.decode(ev, 3).messages
        kept = start.copy()
        warm = decoder.decode(ev, 20, start=start)
        assert start.tobytes() == kept.tobytes()
        assert not np.shares_memory(warm.messages, start)

    def test_rejects_wrong_shape(self):
        con = make_constellation(BPSK)
        decoder = JointPairDecoder(RaCode.build(8, seed=2), con)
        ev = PairEvidence(tables=np.ones((24, 4)))
        for shape in ((3, 2, 23), (2, 2, 24), (3, 24)):
            with pytest.raises(ValueError, match="start messages must have shape"):
                decoder.decode(ev, 2, start=np.zeros(shape))


class TestShiftInvariance:
    """Log-evidence counts up to a constant per symbol: adding any finite one
    to each row leaves the decisions and posteriors where they were."""

    @pytest.mark.parametrize("ebn0_db", [0.0, 6.0, 30.0])
    @pytest.mark.parametrize("mod", [BPSK, QPSK])
    def test_row_shift_keeps_posteriors(self, mod, ebn0_db):
        decoder, ev = flat_frame_evidence(mod, ebn0_db, seed=4)
        shift = np.random.default_rng(5).uniform(-50.0, 50.0, (len(ev.tables), 1))
        post = decoder.decode(ev, 20)
        moved = decoder.decode(PairEvidence(tables=ev.tables + shift), 20)
        np.testing.assert_array_equal(pnc_map(moved.info_llr), pnc_map(post.info_llr))
        np.testing.assert_allclose(moved.pair_symbol, post.pair_symbol, rtol=0, atol=1e-12)
        np.testing.assert_allclose(
            expit(moved.info_llr), expit(post.info_llr), rtol=0, atol=5e-13
        )
