"""Discrete-time two-way relay uplink: fading, delay, residual CFO, noise.

The two nodes' sample streams are convolved with their own multipath taps,
node B is delayed by a sub-CP sample offset, each stream picks up a linear
per-sample phase ramp from its residual CFO, and complex white noise is
added at the relay.  Inter-carrier interference is not modeled separately;
it emerges from the per-sample rotation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .frame import FrameConfig


@dataclass(eq=False)
class ChannelRealization:
    """One draw of the uplink channel pair.

    ``h_freq_a``/``h_freq_b`` are the length-N frequency responses seen in
    the DFT window, N = ``FrameConfig.n_fft``; node B's includes the phase
    ramp of its relative delay.  The tap counts are the lengths of the tap
    arrays.  CFOs are normalized to the subcarrier spacing.
    """

    taps_a: np.ndarray
    taps_b: np.ndarray
    relative_delay: int
    cfo_a: float
    cfo_b: float
    h_freq_a: np.ndarray = field(init=False)
    h_freq_b: np.ndarray = field(init=False)

    def __post_init__(self):
        self.taps_a = np.asarray(self.taps_a, dtype=complex)
        self.taps_b = np.asarray(self.taps_b, dtype=complex)
        if self.relative_delay < 0:
            raise ValueError("relative delay must be nonnegative")
        n_fft = FrameConfig.n_fft
        self.h_freq_a = np.fft.fft(self.taps_a, n=n_fft)
        ramp = np.exp(-2j * np.pi * np.arange(n_fft) * self.relative_delay / n_fft)
        self.h_freq_b = np.fft.fft(self.taps_b, n=n_fft) * ramp

    def delay_spread_ok(self, n_cp: int) -> bool:
        """Whether the delays stay within the cyclic prefix."""
        la, lb = len(self.taps_a), len(self.taps_b)
        return max(la - 1, self.relative_delay + lb - 1) <= n_cp


@dataclass(frozen=True)
class NoiseModel:
    """Per-sample complex noise variance at the relay frontend.

    ``sigma_n2 = 0`` is allowed for noiseless ablations; the Eb/N0
    constructor always yields a positive variance.
    """

    sigma_n2: float

    def __post_init__(self):
        if self.sigma_n2 < 0:
            raise ValueError("noise variance must be nonnegative")

    @classmethod
    def from_ebn0_db(cls, ebn0_db: float, code_rate: float, bits_per_symbol: int) -> "NoiseModel":
        """Map a target Eb/N0 to the time-domain noise variance.

        The received symbol energy per node per data tone is 1 by
        construction (unit-energy constellation, unit-power channel), and
        the unitary DFT makes the per-tone noise variance equal sigma_n2.
        Each data tone carries code_rate * bits_per_symbol source bits, so
        Eb = 1 / (code_rate * bits_per_symbol) and

            sigma_n2 = 1 / (code_rate * bits_per_symbol * Eb/N0).

        Strictly decreasing in Eb/N0.  Pilot and CP overhead are not
        charged to Eb.
        """
        ebn0 = 10.0 ** (ebn0_db / 10.0)
        return cls(1.0 / (code_rate * bits_per_symbol * ebn0))


def exp_power_profile(n_taps: int, decay: float) -> np.ndarray:
    """Tap power profile proportional to exp(-decay*l), normalized to sum 1."""
    p = np.exp(-decay * np.arange(n_taps))
    return p / p.sum()


def _draw_taps(rng: np.random.Generator, profile: np.ndarray) -> np.ndarray:
    scale = np.sqrt(profile / 2.0)
    return scale * (rng.standard_normal(len(profile)) + 1j * rng.standard_normal(len(profile)))


def sample_flat(
    rng: np.random.Generator,
    tau: int = 0,
    cfo_a: float = 0.0,
    cfo_b: float = 0.0,
) -> ChannelRealization:
    """Flat Rayleigh fading: one unit-mean-power tap per node."""
    profile = np.ones(1)
    return ChannelRealization(
        taps_a=_draw_taps(rng, profile),
        taps_b=_draw_taps(rng, profile),
        relative_delay=tau,
        cfo_a=cfo_a,
        cfo_b=cfo_b,
    )


def sample_selective(
    n_taps: int,
    decay: float,
    rng: np.random.Generator,
    tau: int = 0,
    cfo_a: float = 0.0,
    cfo_b: float = 0.0,
) -> ChannelRealization:
    """Tapped-delay-line Rayleigh fading with exponential power decay."""
    if n_taps < 1:
        raise ValueError("need at least one tap")
    if decay < 0:
        raise ValueError("decay factor must be nonnegative")
    profile = exp_power_profile(n_taps, decay)
    return ChannelRealization(
        taps_a=_draw_taps(rng, profile),
        taps_b=_draw_taps(rng, profile),
        relative_delay=tau,
        cfo_a=cfo_a,
        cfo_b=cfo_b,
    )


def simulate_uplink(
    frame_a: np.ndarray,
    frame_b: np.ndarray,
    chan: ChannelRealization,
    noise: NoiseModel,
    rng: np.random.Generator,
    config: FrameConfig,
) -> np.ndarray:
    """Superimpose both nodes' frames at the relay, per-sample model.

    Each node's stream is convolved with its taps; node B's is delayed by
    the relative offset; each then rotates by exp(j*2*pi*cfo*n/N) at
    receiver sample index n; complex white noise is added.  The output is
    truncated to the frame length (tails past the last DFT window are
    irrelevant to demodulation).
    """
    n_total = config.m_symbols * config.n_s
    if len(frame_a) != n_total or len(frame_b) != n_total:
        raise ValueError("frames must be m_symbols * n_s samples long")
    if not chan.delay_spread_ok(config.n_cp):
        raise ValueError("delay spread exceeds the cyclic prefix")
    n = np.arange(n_total)
    sig_a = np.convolve(frame_a, chan.taps_a)[:n_total]
    sig_b_full = np.convolve(frame_b, chan.taps_b)
    sig_b = np.zeros(n_total, dtype=complex)
    tau = chan.relative_delay
    take = min(n_total - tau, len(sig_b_full))
    if take > 0:
        sig_b[tau : tau + take] = sig_b_full[:take]
    out = sig_a * np.exp(2j * np.pi * chan.cfo_a * n / config.n_fft)
    out += sig_b * np.exp(2j * np.pi * chan.cfo_b * n / config.n_fft)
    if noise.sigma_n2 > 0:
        scale = np.sqrt(noise.sigma_n2 / 2.0)
        out += scale * (rng.standard_normal(n_total) + 1j * rng.standard_normal(n_total))
    return out


def phase_trajectory(chan: ChannelRealization, config: FrameConfig) -> np.ndarray:
    """Per-OFDM-symbol phase drift pairs (config.m_symbols, 2) implied by
    the per-sample CFO ramp, column 0 = node A.

    The single-phase summary of symbol m is the ramp value at the middle of
    its DFT window, sample index m*n_s + n_cp + (N-1)/2; for a linear ramp
    that midpoint minimizes the worst-case deviation within the window.
    Used for scoring estimates only, never shown to the receiver.
    """
    m = np.arange(config.m_symbols)
    mid = m * config.n_s + config.n_cp + (config.n_fft - 1) / 2.0
    return np.stack(
        [2 * np.pi * chan.cfo_a * mid / config.n_fft, 2 * np.pi * chan.cfo_b * mid / config.n_fft],
        axis=1,
    )
