"""Relay receiver: OFDM demodulation, pilot phase tracking, EM-BP loop.

The pilot-only baseline estimates each node's per-symbol phase drift by
correlating the received pilot tones against the known pilot-times-channel
references, then runs one joint BP decode.  The EM-BP receiver iterates:
decode with the current phase pair, then re-estimate each OFDM symbol's
phase pair by maximizing the posterior-weighted fit of the received tones
with a shrinking particle grid, and finally decodes once more with the
converged phases before taking the per-bit XOR decision.  The phase
objective is built once per frame, with the frame's fixed terms, and each
M-step refits it to the round's posterior before 1 + em_refine_passes
particle searches, each batched over all M symbols.  The grid's full-plane
lattice is anchored at each symbol's running phase estimate, not at
absolute phase 0, so the search treats every true drift alike.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .channel import ChannelRealization
from .codec import JointPairDecoder, PairEvidence
from .frame import Constellation, FrameConfig, ToneMap

# Floor for the effective noise variance, and the least sigma_w2 a receiver
# accepts: it keeps sigma_w2 > 0, so the noiseless point gives delta evidence.
_SIGMA_W2_FLOOR = 1e-12


@dataclass(frozen=True)
class ReceiverConfig:
    """Tunables of the relay receiver; each shares its name with its INI key
    but sigma_w2, set per SNR point, and em_iters, the largest reported K."""

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
        if not _SIGMA_W2_FLOOR <= self.sigma_w2 < np.inf:
            raise ValueError(f"sigma_w2 must be finite and >= {_SIGMA_W2_FLOOR:g}")
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


def ls_pilot_phase(r: np.ndarray, tone_map: ToneMap, h_freq: np.ndarray) -> np.ndarray:
    """Least-squares pilot correlation phases, independently per node and symbol.

    Returns the (m_symbols, 2) phase pairs of the demodulated frame ``r`` in
    [0, 2pi), column 0 = node A.  The pilot symbol is +1, so the correlation
    reference is the known channel, row u of the (2, N) ``h_freq``, on node
    u's pilot tones, and the angle is the phase drift alone (0 where the
    correlation is exactly 0).
    """
    corr = [r[:, tones] @ np.conj(h[tones]) for tones, h in zip(tone_map.pilot_tones, h_freq)]
    return _wrap(np.angle(np.stack(corr, axis=1)))


def pair_evidence(
    r: np.ndarray,
    chan: ChannelRealization,
    tone_map: ToneMap,
    constellation: Constellation,
    theta: np.ndarray,
    sigma_w2: float,
) -> PairEvidence:
    """Gaussian log-evidence on every data tone for every symbol pair.

    Entry (m, i, a*Q+b) is log p(R | X_a, X_b) up to a per-tone constant,
    -|R_{m,i} - e^{j theta_a,m} X_a H_a,i - e^{j theta_b,m} X_b H_b,i|^2
    / sigma_w2, shifted to a tone maximum of exactly 0 so that the decoder's
    priors keep their low bits at the sigma_w2 floor (entries near -1e12).
    """
    data = tone_map.data_tones
    r = r[:, data]  # (M, N_d)
    q = constellation.size
    # each node's (M, N_d, Q) hypotheses; entry a*Q+b of a tone is their pair
    # sum, built in one complex buffer that the residual then overwrites
    h = chan.h_freq[:, data].T  # (N_d, 2)
    hyp = (np.exp(1j * theta)[:, None, :] * h)[..., None] * constellation.points
    resid = hyp[:, :, 0, :, None] + hyp[:, :, 1, None, :]
    np.subtract(r[:, :, None, None], resid, out=resid)
    log_k = np.abs(resid).reshape(*r.shape, q * q)  # later steps run in place
    np.square(log_k, out=log_k)
    log_k /= -sigma_w2
    log_k -= log_k.max(axis=2, keepdims=True)
    return PairEvidence(tables=log_k.reshape(-1, q * q))


class PhaseObjective:
    """Posterior-weighted fit of the OFDM symbols' phase drift pairs.

    value(theta_a, theta_b) returns, up to a per-symbol constant, the
    negative expected squared residual of each symbol's received occupied
    tones against the phase-rotated hypothesis: data tones averaged over
    the decoder's joint symbol posterior, and each node's pilot tones
    against the known +1 that node sends on its own pilot tones (the other
    node sends nothing on them).  The constant is every term that no phase
    changes: the received, hypothesis and pilot energies.  Like the pair
    evidence, the objective is known only up to it, which moves no argmax
    and no comparison of one symbol's phase pairs.  Larger is better.
    ``r_data`` is a frame's (M, N_d) data tones with an (M, N_d, Q^2)
    ``posterior``, ``h_data`` the (2, N_d) channel pair on the data tones,
    and ``pilots`` holds, node A first, each node's (r_p, h_p) pair of the
    (M, P) received pilot tones and its channel there, taken from a
    ``ToneMap``; ``pilots=()`` leaves the data-only objective.  The sums
    over tones and symbol pairs are folded into the (M, 3) complex
    ``stats`` = [s_a, s_b, s_ab], so value(theta_a, theta_b) is
    2 Re(s_a e^{j theta_a} + s_b e^{j theta_b} - s_ab e^{j(theta_a - theta_b)}),
    O(1) per phase pair.
    """

    def __init__(
        self,
        r_data: np.ndarray,
        h_data: np.ndarray,
        posterior: np.ndarray,
        constellation: Constellation,
        pilots=(),
    ):
        if np.ndim(r_data) != 2:
            raise ValueError(f"r_data must be (M, N_d) data tones, got shape {np.shape(r_data)}")
        # All but the posterior is fixed for a frame and kept for fit: one
        # real matmul gives each tone's posterior means of X_a, X_b and
        # X_a conj(X_b); one weighted sum over the tones follows, so no
        # (M, N_d, Q^2) product is built.
        pair = lambda a, b: np.array([a, b, a * np.conj(b)]).T
        q, points = constellation.size, constellation.points
        xa, xb = points.repeat(q), np.tile(points, q)  # joint entry a*Q + b
        self._terms = np.ascontiguousarray(pair(xa, xb)).view(np.float64)
        self._r_conj = np.conj(r_data)[..., None]
        self._h_pair = pair(*h_data)
        # pilot tones: the owner's +1 through its channel, silence from the other
        self._pilot_corr = [np.conj(r_p) @ h_p for r_p, h_p in pilots]
        self.fit(posterior)

    def fit(self, posterior: np.ndarray) -> PhaseObjective:
        """Set the statistics for ``posterior``, another posterior of the same
        frame, in place; returns self."""
        means = (posterior @ self._terms).view(np.complex128)  # (M, N_d, 3)
        means[..., :2] *= self._r_conj
        self.stats = (means * self._h_pair).sum(axis=1)
        for col, corr in enumerate(self._pilot_corr):
            self.stats[:, col] += corr
        return self

    def value(self, theta_a, theta_b):
        s_a, s_b, s_ab = self.stats.T
        rotated = s_a * np.exp(1j * theta_a) + s_b * np.exp(1j * theta_b)
        return 2.0 * (rotated - s_ab * np.exp(1j * (theta_a - theta_b))).real


def build_phase_objective(
    r: np.ndarray,
    chan: ChannelRealization,
    tone_map: ToneMap,
    constellation: Constellation,
    posterior: np.ndarray,
) -> PhaseObjective:
    """Objective for the (M, N) tones under the (M, N_d, Q^2) posterior, with
    the pilot anchors: each node sends the known +1 on its own ``tone_map``
    pilot tones and nothing on the other node's, so any per-node pilot
    split, another ``pilot_tones`` pair, anchors the phases the same way."""
    data = tone_map.data_tones
    pilots = [(r[:, tones], h[tones]) for tones, h in zip(tone_map.pilot_tones, chan.h_freq)]
    return PhaseObjective(r[:, data], chan.h_freq[:, data], posterior, constellation, pilots)


@functools.lru_cache(maxsize=64)
def _lattice(l_grid: int, span: float | None, rho: float) -> tuple[np.ndarray, np.ndarray]:
    """Read-only (L^2, 2) offsets (rho*o_i, rho*o_j) of particle i*L + j, with
    base offsets o = 2pi*i/L (``span`` None) or a ``span`` window centred on
    0, and the (6, L^2) table of their phasors that ``_lattice_values`` reads."""
    base = (2.0 * np.pi if span is None else span) * np.arange(l_grid) / l_grid
    if span is not None:
        base = base - span * (l_grid - 1) / (2 * l_grid)
    offsets = rho * np.stack([base.repeat(l_grid), np.tile(base, l_grid)], axis=1)
    # Re(s k e^{jx}) = [Re s, Im s] . [Re, Im](k e^{-jx}) for real k: the
    # objective's weights k = 2, 2, -2 on theta_a, theta_b, theta_a - theta_b
    a, b = offsets.T
    phasors = np.exp(-1j * np.stack([a, b, a - b], axis=1)) * [2.0, 2.0, -2.0]  # (L^2, 3)
    table = np.ascontiguousarray(phasors.view(np.float64).T)  # (6, L^2)
    offsets.flags.writeable = table.flags.writeable = False
    return offsets, table


# (M, 2) centres @ _ANGLES are the angles theta_a, theta_b and theta_a - theta_b
_ANGLES = np.array([[1.0, 0.0, 1.0], [0.0, 1.0, -1.0]])


def _lattice_values(stats: np.ndarray, centre: np.ndarray, lattice) -> np.ndarray:
    """Objective (M, L^2) on the lattice around the (M, 2) centres (c_a, c_b):
    the real view of the (M, 3) s_a e^{jc_a}, s_b e^{jc_b}, s_ab e^{j(c_a-c_b)}
    times the phasor table."""
    rotated = stats * np.exp(1j * (centre @ _ANGLES))
    return rotated.view(np.float64) @ lattice[1]


def particle_m_step(
    objective: PhaseObjective,
    prev_theta: np.ndarray,
    rx_cfg: ReceiverConfig,
    span: float | None = None,
) -> np.ndarray:
    """Maximize the symbols' phase objectives with a shrinking particle grid.

    ``prev_theta`` and the result are the (M, 2) phases of an objective
    over M symbols.  With L = particle_l, start from an L x L lattice per
    row: with ``span`` None the full plane anchored at
    ``prev_theta`` (prev_theta + 2pi*i/L), else a window of ``span`` per
    axis centred on ``prev_theta``; for each of particle_rounds rounds,
    weight a row's particles by exp((value - row max)/sigma_w2) and pull
    them towards their weighted mean by particle_shrink; finally return each
    row's best particle of the last round, or its initial lattice argmax if
    that scores higher, wrapped into [0, 2pi).  No row affects another.  A
    row's best particle weighs exp(0) = 1, so its weights sum to at least 1
    whenever its values are finite; a row of NaN values returns NaN, which
    ``m_step``'s keep rule never takes.

    The pull is affine with one factor for all particles, so a row's cloud
    stays a product lattice, its centre plus the base lattice shrunk by
    (1 - particle_shrink)^r after r rounds, and each round is one (M, 6) @
    (6, L^2) matmul against a cached phasor table (``_lattice``).

    Because the lattice rides on the running estimate rather than on
    absolute phase 0, rotating the objective by (phi_a, phi_b) and
    ``prev_theta`` by the same pair rotates the result by that pair; no
    absolute phase is ever favoured as a candidate.
    """
    centre = prev_theta
    l_grid, shrink, rho = rx_cfg.particle_l, rx_cfg.particle_shrink, 1.0
    lattice = _lattice(l_grid, span, rho)
    vals = grid0_vals = _lattice_values(objective.stats, centre, lattice)
    grid0_best = centre + lattice[0][grid0_vals.argmax(axis=1)]
    for _ in range(rx_cfg.particle_rounds):
        weights = np.exp((vals - vals.max(axis=1, keepdims=True)) / rx_cfg.sigma_w2)
        centre = centre + shrink * (weights @ lattice[0]) / weights.sum(axis=1, keepdims=True)
        rho *= 1.0 - shrink
        lattice = _lattice(l_grid, span, rho)
        vals = _lattice_values(objective.stats, centre, lattice)

    best = centre + lattice[0][vals.argmax(axis=1)]
    # never return a particle worse than the coarse grid argmax
    coarse = grid0_vals.max(axis=1) > vals.max(axis=1)
    return _wrap(np.where(coarse[:, None], grid0_best, best))


def m_step(objective: PhaseObjective, theta: np.ndarray, rx_cfg: ReceiverConfig) -> np.ndarray:
    """One EM M-step on the (M, 2) phases of an M-symbol objective, in
    1 + em_refine_passes particle searches.

    Stage 0 searches the full plane anchored at the running estimate; each
    later stage a window centred on it, its span shrunk from 2pi by
    2/particle_l per stage.  A row keeps a stage's result only if it scores
    no lower than the running estimate: the searches return lattice-descended
    points, whose quantization error can exceed the pilot estimate's, so an
    unguarded EM round could degrade good phases.
    """
    value = lambda t: objective.value(t[..., 0], t[..., 1])
    span = 2.0 * np.pi
    for stage in range(1 + rx_cfg.em_refine_passes):
        found = particle_m_step(objective, theta, rx_cfg, span if stage else None)
        theta = np.where((value(found) >= value(theta))[..., None], found, theta)
        span *= 2.0 / rx_cfg.particle_l
    return theta


@dataclass(eq=False)
class EmBpResult:
    """Everything one EM-BP run produces, including per-iteration history.

    Index k of the histories corresponds to a receiver that stopped after k
    EM iterations (k = 0 is the pilot-only baseline), so a single run at
    the largest wanted k serves every smaller k as well.
    """

    theta_history: np.ndarray  # (em_iters+1, m_symbols, 2)
    xor_history: np.ndarray  # (em_iters+1, k_info)


def pnc_map(info_llr: np.ndarray) -> np.ndarray:
    """Per-bit XOR decision from the two nodes' (2, k) info-bit LLRs; ties decide 0.

    For independent bits P(xor = 0) - P(xor = 1) = tanh(L_a / 2) tanh(L_b / 2),
    so the XOR is 1 exactly where the two LLRs have opposite signs.
    """
    return (info_llr[0] * info_llr[1] < 0).astype(np.int64)


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
    baseline: LS phases followed by a single BP decode.  Round 0 decodes
    from zero messages; each later round's decode starts from the check
    messages the round before it left, since the M-step moves the evidence
    only by a phase update, and keeps the full ``bp_iters`` budget.
    """
    constellation = decoder.constellation
    m_symbols = r.shape[0]
    k_total = rx_cfg.em_iters

    theta = ls_pilot_phase(r, tone_map, chan.h_freq)
    theta_history = np.empty((k_total + 1, m_symbols, 2))
    xor_history = np.empty((k_total + 1, decoder.ra.k_info), dtype=np.int64)
    theta_history[0] = theta

    # round 0 decodes from zero messages, and its M-step builds the objective
    # with the frame's fixed terms, which later rounds refit
    messages = obj = None
    for k in range(k_total + 1):
        evidence = pair_evidence(r, chan, tone_map, constellation, theta, rx_cfg.sigma_w2)
        posterior = decoder.decode(evidence, rx_cfg.bp_iters, start=messages)
        messages = posterior.messages
        xor_history[k] = pnc_map(posterior.info_llr)
        if k == k_total:
            break
        tables = posterior.pair_symbol.reshape(m_symbols, -1, constellation.size**2)
        if obj is None:
            obj = build_phase_objective(r, chan, tone_map, constellation, tables)
        else:
            obj.fit(tables)
        theta = m_step(obj, theta, rx_cfg)
        theta_history[k + 1] = theta

    return EmBpResult(theta_history=theta_history, xor_history=xor_history)
