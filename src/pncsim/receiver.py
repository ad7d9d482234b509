"""Relay receiver: OFDM demodulation, pilot phase tracking, EM-BP loop.

The pilot-only baseline estimates each node's per-symbol phase drift by
correlating the received pilot tones against the known pilot-times-channel
references, then runs one joint BP decode.  The EM-BP receiver iterates:
decode with the current phase pair, then re-estimate each OFDM symbol's
phase pair by maximizing the posterior-weighted fit of the received tones
with a shrinking particle grid, and finally decodes once more with the
converged phases before taking the per-bit XOR decision.  Each M-step is
one objective build and one particle search batched over all M symbols.
The grid's full-plane lattice is anchored at each symbol's running phase
estimate, not at absolute phase 0, so the search treats every true drift
alike.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .codec import JointPairDecoder, PairEvidence
from .frame import Constellation, FrameConfig, ToneMap

# Floor for the effective noise variance so that noiseless ablations yield
# delta-shaped evidence instead of dividing by zero.
_SIGMA_W2_FLOOR = 1e-12


@dataclass(frozen=True)
class ReceiverConfig:
    """Tunables of the relay receiver; each shares its name with its INI key,
    except em_iters, the largest reported EM iteration count."""

    sigma_w2: float
    em_iters: int = 0
    bp_iters: int = 20
    # shrinking-grid search: a particle_l x particle_l lattice over the full
    # phase plane, anchored at the running estimate
    particle_rounds: int = 4
    particle_l: int = 10
    particle_shrink: float = 0.1
    # Extra windowed passes of the particle search around the running
    # winner, each narrowing the lattice span by 2/particle_l.  The coarse
    # lattice alone quantizes phases to 2*pi/particle_l, which caps tracking
    # accuracy well above what the data tones support; 0 keeps the bare
    # single-pass search.
    em_refine_passes: int = 0

    def __post_init__(self):
        if not 0 < self.sigma_w2 < np.inf:
            raise ValueError("sigma_w2 must be positive and finite")
        if self.em_iters < 0:
            raise ValueError("em_iters must be >= 0")
        if self.bp_iters < 1:
            raise ValueError("bp_iters must be >= 1")
        if self.particle_rounds < 0:
            raise ValueError("particle_rounds must be >= 0")
        if self.particle_l < 2:
            raise ValueError("particle_l must be >= 2")
        if not 0 < self.particle_shrink < 1:
            raise ValueError("particle_shrink must lie in (0, 1)")
        if self.em_refine_passes < 0:
            raise ValueError("em_refine_passes must be >= 0")


def _wrap(theta: np.ndarray) -> np.ndarray:
    """Wrap angles into [0, 2pi), guarding the floating-point boundary."""
    out = np.mod(theta, 2.0 * np.pi)
    return np.where(out >= 2.0 * np.pi, 0.0, out)


def effective_noise_var(sigma_n2: float, cfo_spread: float) -> float:
    """Noise-plus-ICI variance the receiver assumes per tone.

    The ICI term uses the small-CFO approximation at the edge of the CFO
    range (|cfo| <= cfo_spread/2), summed over both nodes, for unit per-node
    per-tone signal power: 2 * (pi*cfo_spread/2)^2 / 3.
    """
    ici = 2.0 * (np.pi * cfo_spread / 2.0) ** 2 / 3.0
    return max(sigma_n2 + ici, _SIGMA_W2_FLOOR)


def demodulate(samples: np.ndarray, config: FrameConfig) -> np.ndarray:
    """Strip each symbol's cyclic prefix and take the unitary DFT: (M, N) tones."""
    samples = np.asarray(samples)
    n_total = config.m_symbols * config.n_s
    if samples.shape != (n_total,):
        raise ValueError(f"expected {n_total} samples, got {samples.shape}")
    blocks = samples.reshape(config.m_symbols, config.n_s)[:, config.n_cp :]
    return np.fft.fft(blocks, norm="ortho", axis=1)


def ls_pilot_phase(
    r: np.ndarray,
    tone_map: ToneMap,
    h_a: np.ndarray,
    h_b: np.ndarray,
) -> np.ndarray:
    """Least-squares pilot correlation phases, independently per node and symbol.

    Returns the (m_symbols, 2) phase pairs of the demodulated frame ``r`` in
    [0, 2pi), column 0 = node A.  The correlation reference is the known
    pilot symbol times the known channel, so the angle is the phase drift
    alone.  A zero-magnitude correlation falls back to the previous symbol's
    estimate (0 for the first symbol).
    """
    m_symbols = r.shape[0]
    theta = np.zeros((m_symbols, 2))
    refs = (
        (tone_map.pilot_tones_a, tone_map.pilot_values_a, h_a),
        (tone_map.pilot_tones_b, tone_map.pilot_values_b, h_b),
    )
    for col, (tones, values, h) in enumerate(refs):
        corr = r[:, tones] @ np.conj(values * h[tones])
        mags = np.abs(corr)
        for m in range(m_symbols):
            if mags[m] == 0.0:
                warnings.warn("zero pilot correlation; reusing previous phase estimate")
                theta[m, col] = theta[m - 1, col] if m > 0 else 0.0
            else:
                theta[m, col] = np.angle(corr[m])
    return _wrap(theta)


def pair_evidence(
    r: np.ndarray,
    chan: ChannelRealization,
    tone_map: ToneMap,
    constellation: Constellation,
    theta: np.ndarray,
    sigma_w2: float,
) -> PairEvidence:
    """Gaussian channel evidence on every data tone for every symbol pair.

    Entry (m, i, a*Q+b) is proportional to
    exp(-|R_{m,i} - e^{j theta_a,m} X_a H_a,i - e^{j theta_b,m} X_b H_b,i|^2
    / sigma_w2), normalized per tone in the log domain so no table can
    underflow to all zeros.
    """
    data = tone_map.data_tones
    r = r[:, data]  # (M, N_d)
    q = constellation.size
    # each node's (M, N_d, Q) hypotheses; entry a*Q+b of a tone is their pair
    # sum, built in one complex buffer that the residual then overwrites
    h = np.stack([chan.h_freq_a[data], chan.h_freq_b[data]], axis=1)  # (N_d, 2)
    hyp = (np.exp(1j * theta)[:, None, :] * h)[..., None] * constellation.points
    resid = hyp[:, :, 0, :, None] + hyp[:, :, 1, None, :]
    np.subtract(r[:, :, None, None], resid, out=resid)
    log_k = np.abs(resid).reshape(*r.shape, q * q)  # later steps run in place
    np.square(log_k, out=log_k)
    log_k /= -sigma_w2
    log_k -= log_k.max(axis=2, keepdims=True)
    tables = np.exp(log_k, out=log_k)
    tables /= tables.sum(axis=2, keepdims=True)
    return PairEvidence(tables=tables.reshape(-1, q * q))


class PhaseObjective:
    """Posterior-weighted fit of the OFDM symbols' phase drift pairs.

    value(theta_a, theta_b) returns the negative expected squared residual
    of each symbol's received occupied tones against the phase-rotated
    hypothesis: data tones averaged over the decoder's joint symbol
    posterior, pilot tones against their known symbols (the other node is
    silent there).  Larger is better; exactly 0 only for a perfect noiseless
    fit.  The sums over tones and symbol pairs are folded into four
    sufficient statistics c0, s_a, s_b, s_ab, so evaluation is O(1) per
    phase pair.  They are (M,) arrays for (M, N_d) data tones with an
    (M, N_d, Q^2) posterior, and scalars for one symbol's (N_d,) row.
    """

    def __init__(
        self,
        r_data: np.ndarray,
        h_a_data: np.ndarray,
        h_b_data: np.ndarray,
        posterior: np.ndarray,
        constellation: Constellation,
        pilot_a: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
        pilot_b: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
    ):
        # One real matmul gives each tone's posterior means of |X_a|^2,
        # |X_b|^2, X_a, X_b and X_a conj(X_b); one weighted sum over the tones
        # follows, so no (..., N_d, Q^2) product is built.
        pair = lambda a, b: np.array([abs(a) ** 2, abs(b) ** 2, a, b, a * np.conj(b)]).T
        q, points = constellation.size, constellation.points
        xa, xb = points.repeat(q), np.tile(points, q)  # joint entry a*Q + b
        terms = np.ascontiguousarray(pair(xa, xb)).view(np.float64)  # (Q^2, 10) real
        means = (posterior @ terms).view(np.complex128)  # (..., N_d, 5)
        means[..., 2:4] *= np.conj(r_data)[..., None]
        stats = (means * pair(h_a_data, h_b_data)).sum(axis=-2)
        self.c0 = (np.abs(r_data) ** 2).sum(axis=-1) + stats[..., 0].real + stats[..., 1].real
        # pilot tones: known symbol for the owner, silence from the other
        for col, pilot in ((2, pilot_a), (3, pilot_b)):
            if pilot is not None:
                r_p, h_p, vals = pilot
                ref = vals * h_p
                self.c0 += (np.abs(r_p) ** 2).sum(axis=-1) + (np.abs(ref) ** 2).sum()
                stats[..., col] += np.conj(r_p) @ ref
        self.s_a, self.s_b, self.s_ab = stats[..., 2], stats[..., 3], stats[..., 4]

    def value(self, theta_a, theta_b):
        # Re(e^{jx} s) = |s| cos(x + angle(s)): three real cosines, no complex exp
        return 2.0 * (
            np.abs(self.s_a) * np.cos(theta_a + np.angle(self.s_a))
            + np.abs(self.s_b) * np.cos(theta_b + np.angle(self.s_b))
            - np.abs(self.s_ab) * np.cos(theta_a - theta_b + np.angle(self.s_ab))
        ) - self.c0


def build_phase_objective(
    r: np.ndarray,
    chan: ChannelRealization,
    tone_map: ToneMap,
    constellation: Constellation,
    posterior: np.ndarray,
) -> PhaseObjective:
    """Objective for the (M, N) tones under the (M, N_d, Q^2) posterior, or
    for one (N,) row under its (N_d, Q^2) posterior, with the pilot anchors."""
    data = tone_map.data_tones
    pa, pb = tone_map.pilot_tones_a, tone_map.pilot_tones_b
    pilot_a = (r[..., pa], chan.h_freq_a[pa], tone_map.pilot_values_a)
    pilot_b = (r[..., pb], chan.h_freq_b[pb], tone_map.pilot_values_b)
    h_a, h_b = chan.h_freq_a[data], chan.h_freq_b[data]
    return PhaseObjective(r[..., data], h_a, h_b, posterior, constellation, pilot_a, pilot_b)


def particle_m_step(
    objective: PhaseObjective,
    prev_theta: np.ndarray,
    rx_cfg: ReceiverConfig,
    center: np.ndarray | None = None,
    span: float = 2.0 * np.pi,
) -> np.ndarray:
    """Maximize the symbols' phase objectives with a shrinking particle grid.

    ``prev_theta`` (and ``center``) is (M, 2) for an objective over M
    symbols or (2,) for one, and so is the result.  With L = particle_l, the
    particles of all rows run as one (2, M, L^2) array of theta_a and
    theta_b planes, and no row affects another.  Start from the L x L
    lattice covering ``span`` per axis (by default the full plane, anchored
    at ``prev_theta``: prev_theta + 2pi*i/L; pass ``center`` and a smaller
    span to refine around a known candidate); for each of particle_rounds
    rounds, weight a row's particles by exp((value - row max)/sigma_w2) and
    pull them towards their weighted mean by particle_shrink; finally return
    each row's best particle of the last round, or its initial lattice
    argmax if that scores higher.  A row with degenerate weights returns its
    own ``prev_theta``, with one warning.

    Because the lattice rides on the running estimate rather than on
    absolute phase 0, rotating the objective by (phi_a, phi_b) and
    ``prev_theta`` by the same pair rotates the result by that pair; no
    absolute phase is ever favoured as a candidate.
    """
    prev = np.asarray(prev_theta, dtype=float)
    rows = np.arange(prev.size // 2)
    l_grid, shrink = rx_cfg.particle_l, rx_cfg.particle_shrink
    base = span * np.arange(l_grid) / l_grid
    if center is None:
        base = base + prev.reshape(-1, 2).T[:, :, None]  # (2, M, L)
    else:
        base = base - span * (l_grid - 1) / (2 * l_grid) + np.reshape(center, (-1, 2)).T[:, :, None]
    # particle i*L + j pairs theta_a offset i with theta_b offset j
    particles = np.stack([base[0].repeat(l_grid, axis=1), np.tile(base[1], l_grid)])
    # (L^2, M) views broadcast against the objective's (M,) statistics
    grid0_vals = objective.value(particles[0].T, particles[1].T).T
    grid0_best = particles[:, rows, grid0_vals.argmax(axis=1)].T

    vals = grid0_vals
    degenerate = np.zeros(len(rows), dtype=bool)
    for _ in range(rx_cfg.particle_rounds):
        shifted = vals - vals.max(axis=1, keepdims=True)
        weights = np.exp(shifted / rx_cfg.sigma_w2)
        total = weights.sum(axis=1)
        bad = ~(np.isfinite(total) & (total > 0.0))
        for _ in range(np.count_nonzero(bad & ~degenerate)):
            warnings.warn("degenerate particle weights; keeping previous phase")
        degenerate |= bad
        weights /= total[:, None]
        mean = (weights * particles).sum(axis=2, keepdims=True)  # (2, M, 1)
        particles = (1.0 - shrink) * particles + shrink * mean
        vals = objective.value(particles[0].T, particles[1].T).T

    best = particles[:, rows, vals.argmax(axis=1)].T
    # never return a particle worse than the coarse grid argmax
    coarse = grid0_vals.max(axis=1) > vals.max(axis=1)
    best = _wrap(np.where(coarse[:, None], grid0_best, best))
    best[degenerate] = prev.reshape(-1, 2)[degenerate]
    return best.reshape(prev.shape)


def m_step(objective: PhaseObjective, theta: np.ndarray, rx_cfg: ReceiverConfig) -> np.ndarray:
    """One EM M-step on the (M, 2) phases of an M-symbol objective, or the
    (2,) phases of one symbol: the particle search, then per row the
    monotone guard and the refine passes."""
    value = lambda t: objective.value(t[..., 0], t[..., 1])
    cand = particle_m_step(objective, theta, rx_cfg)
    # Keep the previous pair unless the search improves the objective: the
    # search returns lattice-descended points, whose quantization error can
    # exceed the pilot estimate's, so each EM round could degrade good phases.
    cand = np.where((value(cand) < value(theta))[..., None], theta, cand)
    span = 2.0 * np.pi
    for _ in range(rx_cfg.em_refine_passes):
        span *= 2.0 / rx_cfg.particle_l
        fine = particle_m_step(objective, cand, rx_cfg, cand, span)
        cand = np.where((value(fine) >= value(cand))[..., None], _wrap(fine), cand)
    return cand


@dataclass(eq=False)
class EmBpResult:
    """Everything one EM-BP run produces, including per-iteration history.

    Index k of the histories corresponds to a receiver that stopped after k
    EM iterations (k = 0 is the pilot-only baseline), so a single run at
    the largest wanted k serves every smaller k as well.
    """

    theta_history: np.ndarray  # (em_iters+1, m_symbols, 2)
    xor_history: np.ndarray  # (em_iters+1, k_info)


def pnc_map(pair_bit_posteriors: np.ndarray) -> np.ndarray:
    """Per-bit XOR decision from (b_a, b_b) tables; ties decide 0."""
    t = np.asarray(pair_bit_posteriors)
    p_xor1 = t[:, 1] + t[:, 2]
    p_xor0 = t[:, 0] + t[:, 3]
    return (p_xor1 > p_xor0).astype(np.int64)


def em_bp_receive(
    r: np.ndarray,
    chan: ChannelRealization,
    tone_map: ToneMap,
    decoder: JointPairDecoder,
    rx_cfg: ReceiverConfig,
) -> EmBpResult:
    """Run pilot initialization, the EM-BP loop, and the final XOR decision.

    M comes from the demodulated (M, N) frame ``r``; the code, its k_info and
    the constellation from ``decoder``, which rejects a frame that does not
    fill its code.  The final phases and XOR decisions are the last entries
    of the histories.  With ``em_iters == 0`` this is the pilot-only
    baseline: LS phases followed by a single BP decode.
    """
    constellation = decoder.constellation
    m_symbols = r.shape[0]
    k_total = rx_cfg.em_iters

    theta = ls_pilot_phase(r, tone_map, chan.h_freq_a, chan.h_freq_b)
    theta_history = np.empty((k_total + 1, m_symbols, 2))
    xor_history = np.empty((k_total + 1, decoder.ra.k_info), dtype=np.int64)
    theta_history[0] = theta

    for k in range(k_total + 1):
        evidence = pair_evidence(r, chan, tone_map, constellation, theta, rx_cfg.sigma_w2)
        posterior = decoder.decode(evidence, rx_cfg.bp_iters)
        xor_history[k] = pnc_map(posterior.pair_bit)
        if k == k_total:
            break
        tables = posterior.pair_symbol.reshape(m_symbols, -1, constellation.size**2)
        obj = build_phase_objective(r, chan, tone_map, constellation, tables)
        theta = m_step(obj, theta, rx_cfg)
        theta_history[k + 1] = theta

    return EmBpResult(theta_history=theta_history, xor_history=xor_history)
