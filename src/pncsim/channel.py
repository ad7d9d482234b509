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
    """One draw of the uplink channel pair, row 0 = node A, row 1 = node B.

    ``taps`` is (2, L), both nodes having the same tap count L, and ``cfo``
    the (2,) CFOs normalized to the subcarrier spacing.  ``h_freq`` is the
    (2, N) frequency responses seen in the DFT window, N =
    ``FrameConfig.n_fft``; node B's row includes the phase ramp of its
    relative delay.
    """

    taps: np.ndarray
    relative_delay: int
    cfo: np.ndarray
    h_freq: np.ndarray = field(init=False)

    def __post_init__(self):
        self.taps = np.asarray(self.taps, dtype=complex)
        self.cfo = np.asarray(self.cfo, dtype=float)
        if self.taps.ndim != 2 or self.taps.shape[0] != 2 or self.taps.shape[1] < 1:
            raise ValueError(f"taps must be a (2, L >= 1) array, got shape {self.taps.shape}")
        if self.cfo.shape != (2,):
            raise ValueError(f"cfo must be a (2,) pair, got shape {self.cfo.shape}")
        if self.relative_delay < 0:
            raise ValueError("relative delay must be nonnegative")
        n_fft = FrameConfig.n_fft
        self.h_freq = np.fft.fft(self.taps, n=n_fft, axis=1)
        self.h_freq[1] *= np.exp(-2j * np.pi * np.arange(n_fft) * self.relative_delay / n_fft)


def max_delay(n_taps: int) -> int:
    """Largest relative delay keeping n_taps taps per node inside the CP (< 0: none)."""
    return FrameConfig.n_cp + 1 - n_taps


def noise_var(ebn0_db: float, code_rate: float, bits_per_symbol: int) -> float:
    """Map a target Eb/N0 to the time-domain noise variance.

    The received symbol energy per node per data tone is 1 by
    construction (unit-energy constellation, unit-power channel), and
    the unitary DFT makes the per-tone noise variance equal sigma_n2.
    Each data tone carries code_rate * bits_per_symbol source bits, so
    Eb = 1 / (code_rate * bits_per_symbol) and

        sigma_n2 = 1 / (code_rate * bits_per_symbol * Eb/N0).

    Strictly decreasing in Eb/N0; an Eb/N0 of inf dB gives exactly 0.0.
    Pilot and CP overhead are not charged to Eb.
    """
    ebn0 = 10.0 ** (ebn0_db / 10.0)
    return 1.0 / (code_rate * bits_per_symbol * ebn0)


def exp_power_profile(n_taps: int, decay: float) -> np.ndarray:
    """Tap power profile proportional to exp(-decay*l), normalized to sum 1."""
    with np.errstate(over="ignore"):  # a huge decay gives -inf past tap 0: power 0
        p = np.exp(-decay * np.arange(n_taps))
    return p / p.sum()


def sample_flat(rng: np.random.Generator, tau: int = 0, cfo=(0.0, 0.0)) -> ChannelRealization:
    """Flat Rayleigh fading: one unit-mean-power tap per node."""
    return sample_selective(1, 0.0, rng, tau, cfo)


def sample_selective(
    n_taps: int,
    decay: float,
    rng: np.random.Generator,
    tau: int = 0,
    cfo=(0.0, 0.0),
) -> ChannelRealization:
    """Tapped-delay-line Rayleigh fading with exponential power decay; one
    draw, laid out [node][re, im], gives node A's real then imaginary parts, then B's."""
    if n_taps < 1:
        raise ValueError("need at least one tap")
    if decay < 0:
        raise ValueError("decay factor must be nonnegative")
    draw = rng.standard_normal((2, 2, n_taps))
    taps = np.sqrt(exp_power_profile(n_taps, decay) / 2.0) * (draw[:, 0] + 1j * draw[:, 1])
    return ChannelRealization(taps=taps, relative_delay=tau, cfo=cfo)


def simulate_uplink(
    frames: np.ndarray,
    chan: ChannelRealization,
    sigma_n2: float,
    rng: np.random.Generator,
    config: FrameConfig,
) -> np.ndarray:
    """Superimpose both nodes' (2, n) frames at the relay, per-sample model.

    Each node's stream is convolved with its taps; node B's is delayed by
    the relative offset; each then rotates by exp(j*2*pi*cfo*n/N) at
    receiver sample index n; complex white noise of per-sample variance
    ``sigma_n2`` is added (none at 0, the noiseless point).  The output is
    truncated to the frame length (tails past the last DFT window are
    irrelevant to demodulation).
    """
    n_total = config.m_symbols * config.n_s
    if np.shape(frames) != (2, n_total):
        raise ValueError("frames must be a (2, m_symbols * n_s) array of sample streams")
    if sigma_n2 < 0:
        raise ValueError("noise variance must be nonnegative")
    if chan.relative_delay > max_delay(chan.taps.shape[1]):
        raise ValueError("delay spread exceeds the cyclic prefix")
    n = np.arange(n_total)
    sig = np.zeros((2, n_total), dtype=complex)
    for node, delay in enumerate((0, chan.relative_delay)):
        sig[node, delay:] = np.convolve(frames[node], chan.taps[node])[: n_total - delay]
    out = (sig * np.exp(2j * np.pi * chan.cfo[:, None] * n / config.n_fft)).sum(axis=0)
    if sigma_n2 > 0:
        scale = np.sqrt(sigma_n2 / 2.0)
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
    mid = np.arange(config.m_symbols) * config.n_s + config.n_cp + (config.n_fft - 1) / 2.0
    return 2 * np.pi * chan.cfo * mid[:, None] / config.n_fft
