"""OFDM numerology, tone allocation, and constellation conventions.

Everything here is shared by the transmitters, the uplink channel model,
and the relay receiver: the 64-tone frame layout, the per-node pilot
assignment, and the BPSK/QPSK bit labelings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

BPSK = "bpsk"
QPSK = "qpsk"
MODULATIONS = (BPSK, QPSK)

# 802.11a-style 64-tone layout: occupied tones are the logical subcarriers
# -26..-1 and +1..+26; DC and the outer +-27..+-31 band stay empty as guard
# tones. Of the four 802.11 pilot positions, node A owns {-21, -7} and node
# B owns {+7, +21}; each node nulls the other's pilot tones. Logical index
# k (negative = upper half) sits in DFT bin k mod N.
_PILOT_TONES = ((-21, -7), (7, 21))


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-energy symbol alphabet with an integer bit labeling.

    ``points[v]`` is the symbol whose bit group, read MSB first, encodes the
    integer ``v``.  BPSK maps bit 0 to +1 and bit 1 to -1; QPSK uses the
    Gray labeling with 00 -> (1+1j)/sqrt(2).  Each of the Q = ``size``
    points carries log2(Q) bits.
    """

    points: np.ndarray

    @property
    def size(self) -> int:
        return len(self.points)

    @property
    def bits_per_symbol(self) -> int:
        return self.size.bit_length() - 1


def make_constellation(modulation: str) -> Constellation:
    if modulation == BPSK:
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
        return Constellation(points)
    if modulation == QPSK:
        s = 1.0 / np.sqrt(2.0)
        # index = 2*b0 + b1, point = ((1-2*b0) + 1j*(1-2*b1))/sqrt(2)
        points = np.array([s + 1j * s, s - 1j * s, -s + 1j * s, -s - 1j * s])
        return Constellation(points)
    raise ValueError(f"unknown modulation {modulation!r}")


@dataclass(frozen=True, eq=False)
class ToneMap:
    """Data tones and the (node A, node B) pair of pilot tone sets among the
    ``FrameConfig.n_fft`` DFT bins.

    A node sends the known pilot symbol +1 on its own pilot tones in every
    OFDM symbol and nothing on the other node's; every bin in none of the
    three sets is a null tone.  A custom per-node pilot split is just
    another ``pilot_tones`` pair.
    """

    data_tones: np.ndarray
    pilot_tones: tuple[np.ndarray, np.ndarray]

    def __post_init__(self):
        if len(self.pilot_tones) != 2:
            raise ValueError("pilot_tones must hold one tone set per node")
        tones = np.concatenate([self.data_tones, *self.pilot_tones]).tolist()
        if len(set(tones)) < len(tones) or not all(0 <= k < FrameConfig.n_fft for k in tones):
            raise ValueError(f"tone sets must be distinct bins in [0, {FrameConfig.n_fft})")

    @property
    def n_data(self) -> int:
        return len(self.data_tones)


def default_tone_map() -> ToneMap:
    """Build the 802.11a-style tone map of the FrameConfig.n_fft = 64 tone frame."""
    bins = lambda tones: np.array([k % FrameConfig.n_fft for k in tones])
    pilots = sum(_PILOT_TONES, ())
    data = [k for k in range(-26, 27) if k != 0 and k not in pilots]
    return ToneMap(bins(data), tuple(bins(tones) for tones in _PILOT_TONES))


@dataclass(frozen=True)
class FrameConfig:
    """OFDM numerology and code parameters for one frame.

    It owns the frame layout the other modules read: the 64-tone DFT size,
    the 16-sample cyclic prefix and the code rate 1/code_rate_inv = 1/3,
    which ``RaCode`` reads; the tone split comes from ``tone_map()``.
    """

    n_fft = 64
    n_cp = 16
    code_rate_inv = 3

    m_symbols: int
    modulation: str
    em_outer_iters: int = 0

    def __post_init__(self):
        if self.m_symbols < 1:
            raise ValueError("a frame needs at least one OFDM symbol")
        if self.em_outer_iters < 0:
            raise ValueError("em_outer_iters must be >= 0")
        if self.modulation not in MODULATIONS:
            raise ValueError(f"unknown modulation {self.modulation!r}")
        if self.n_coded_bits % self.code_rate_inv:
            raise ValueError("coded bits per frame must divide by the code rate")

    @cached_property
    def n_data(self) -> int:
        """Data tones per OFDM symbol, counted once from the tone layout."""
        return self.tone_map().n_data

    @property
    def n_s(self) -> int:
        """Time-domain samples per OFDM symbol including the cyclic prefix."""
        return self.n_cp + self.n_fft

    @cached_property
    def n_coded_bits(self) -> int:
        """Coded bits per node per frame (exactly fills the data tones)."""
        return self.n_data * self.m_symbols * self.constellation().bits_per_symbol

    @property
    def k_info(self) -> int:
        """Information bits per node per frame."""
        return self.n_coded_bits // self.code_rate_inv

    def tone_map(self) -> ToneMap:
        return default_tone_map()

    def constellation(self) -> Constellation:
        return make_constellation(self.modulation)


def default_config(modulation: str, m_symbols: int, em_iters: int = 0) -> FrameConfig:
    """Frame configuration with the standard 64-tone numerology."""
    return FrameConfig(m_symbols=m_symbols, modulation=modulation, em_outer_iters=em_iters)


def map_bits(bits: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Map (..., n) bits onto (..., n / b) symbols, b bits per symbol, MSB first."""
    bits = np.asarray(bits, dtype=np.int64)
    b = constellation.bits_per_symbol
    if bits.shape[-1] % b:
        raise ValueError(f"bit count {bits.shape[-1]} not divisible by {b}")
    groups = bits.reshape(*bits.shape[:-1], -1, b)
    weights = 1 << np.arange(b - 1, -1, -1)
    return constellation.points[groups @ weights]


def build_payload_grid(data_symbols: np.ndarray, tone_map: ToneMap) -> np.ndarray:
    """Place both nodes' (2, n) data symbols, row 0 = node A, and each
    node's +1 pilots onto the (2, M, N) tone grid."""
    data_symbols = np.asarray(data_symbols).reshape(2, -1, tone_map.n_data)
    grid = np.zeros((*data_symbols.shape[:2], FrameConfig.n_fft), dtype=complex)
    grid[..., tone_map.data_tones] = data_symbols
    for node, tones in enumerate(tone_map.pilot_tones):  # the sets may differ in size
        grid[node, :, tones] = 1.0
    return grid


def ofdm_modulate(grid: np.ndarray, n_cp: int) -> np.ndarray:
    """Unitary IDFT per OFDM symbol plus cyclic prefix: (..., M, N) -> (..., M * n_s) samples."""
    x = np.fft.ifft(grid, norm="ortho", axis=-1)
    with_cp = np.concatenate([x[..., -n_cp:], x], axis=-1)
    return with_cp.reshape(*grid.shape[:-2], -1)


def transmit_frame(
    coded_bits: np.ndarray, config: FrameConfig, tone_map: ToneMap, constellation: Constellation
) -> np.ndarray:
    """Both nodes' (2, n_coded_bits) coded bits, row 0 = node A ->
    constellation symbols -> the (2, m_symbols * n_s) pilot-bearing OFDM
    sample streams."""
    if np.shape(coded_bits) != (2, config.n_coded_bits):
        raise ValueError("coded bits must be a (2, n_coded_bits) pair filling the data tones")
    symbols = map_bits(coded_bits, constellation)
    grid = build_payload_grid(symbols, tone_map)
    return ofdm_modulate(grid, config.n_cp)
