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
_PILOT_TONES_A = (-21, -7)
_PILOT_TONES_B = (7, 21)


@dataclass(frozen=True, eq=False)
class Constellation:
    """Unit-energy symbol alphabet with an integer bit labeling.

    ``points[v]`` is the symbol whose bit group, read MSB first, encodes the
    integer ``v``.  BPSK maps bit 0 to +1 and bit 1 to -1; QPSK uses the
    Gray labeling with 00 -> (1+1j)/sqrt(2).
    """

    points: np.ndarray
    bits_per_symbol: int

    @property
    def size(self) -> int:
        return len(self.points)


def make_constellation(modulation: str) -> Constellation:
    if modulation == BPSK:
        points = np.array([1.0 + 0.0j, -1.0 + 0.0j])
        return Constellation(points, bits_per_symbol=1)
    if modulation == QPSK:
        s = 1.0 / np.sqrt(2.0)
        # index = 2*b0 + b1, point = ((1-2*b0) + 1j*(1-2*b1))/sqrt(2)
        points = np.array([s + 1j * s, s - 1j * s, -s + 1j * s, -s - 1j * s])
        return Constellation(points, bits_per_symbol=2)
    raise ValueError(f"unknown modulation {modulation!r}")


@dataclass(frozen=True, eq=False)
class ToneMap:
    """Partition of the ``FrameConfig.n_fft`` DFT bins into data, per-node pilot and zero tones.

    ``pilot_values_a``/``pilot_values_b`` are the known unit-magnitude
    symbols a node transmits on its own pilot tones; they are constant
    across OFDM symbols (all +1).
    """

    data_tones: np.ndarray
    pilot_tones_a: np.ndarray
    pilot_tones_b: np.ndarray
    zero_tones: np.ndarray
    pilot_values_a: np.ndarray
    pilot_values_b: np.ndarray

    def __post_init__(self):
        sets = [
            set(self.data_tones.tolist()),
            set(self.pilot_tones_a.tolist()),
            set(self.pilot_tones_b.tolist()),
            set(self.zero_tones.tolist()),
        ]
        total = sum(len(s) for s in sets)
        union = set().union(*sets)
        if total != FrameConfig.n_fft or union != set(range(FrameConfig.n_fft)):
            raise ValueError("tone sets must partition the DFT bins")
        if sets[1] & sets[2]:
            raise ValueError("pilot tone sets of the two nodes must be disjoint")
        for vals in (self.pilot_values_a, self.pilot_values_b):
            if not np.allclose(np.abs(vals), 1.0, atol=1e-12):
                raise ValueError("pilot values must have unit magnitude")

    @property
    def n_data(self) -> int:
        return len(self.data_tones)


def default_tone_map() -> ToneMap:
    """Build the 802.11a-style tone map of the FrameConfig.n_fft = 64 tone frame."""
    n_fft = FrameConfig.n_fft
    active = [k for k in range(-26, 27) if k != 0]
    pilots = set(_PILOT_TONES_A) | set(_PILOT_TONES_B)
    data = np.array([k % n_fft for k in active if k not in pilots])
    pilot_a = np.array([k % n_fft for k in _PILOT_TONES_A])
    pilot_b = np.array([k % n_fft for k in _PILOT_TONES_B])
    used = set(data.tolist()) | set(pilot_a.tolist()) | set(pilot_b.tolist())
    zero = np.array(sorted(set(range(n_fft)) - used))
    return ToneMap(
        data_tones=data,
        pilot_tones_a=pilot_a,
        pilot_tones_b=pilot_b,
        zero_tones=zero,
        pilot_values_a=np.ones(len(pilot_a), dtype=complex),
        pilot_values_b=np.ones(len(pilot_b), dtype=complex),
    )


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
    """Map a bit vector onto constellation symbols (MSB-first bit groups)."""
    bits = np.asarray(bits, dtype=np.int64)
    b = constellation.bits_per_symbol
    if bits.size % b:
        raise ValueError(f"bit count {bits.size} not divisible by {b}")
    groups = bits.reshape(-1, b)
    weights = 1 << np.arange(b - 1, -1, -1)
    return constellation.points[groups @ weights]


def demap_bits(symbols: np.ndarray, constellation: Constellation) -> np.ndarray:
    """Hard nearest-point demapping; exact inverse of map_bits on clean symbols."""
    symbols = np.asarray(symbols)
    idx = np.argmin(np.abs(symbols[:, None] - constellation.points[None, :]), axis=1)
    b = constellation.bits_per_symbol
    shifts = np.arange(b - 1, -1, -1)
    return ((idx[:, None] >> shifts) & 1).astype(np.int64).reshape(-1)


def build_payload_grid(data_symbols: np.ndarray, tone_map: ToneMap, node: str) -> np.ndarray:
    """Place one node's data symbols and pilots onto the (M, N) tone grid."""
    data_symbols = np.asarray(data_symbols).reshape(-1, tone_map.n_data)
    grid = np.zeros((len(data_symbols), FrameConfig.n_fft), dtype=complex)
    grid[:, tone_map.data_tones] = data_symbols
    if node == "a":
        grid[:, tone_map.pilot_tones_a] = tone_map.pilot_values_a
    elif node == "b":
        grid[:, tone_map.pilot_tones_b] = tone_map.pilot_values_b
    else:
        raise ValueError("node must be 'a' or 'b'")
    return grid


def ofdm_modulate(grid: np.ndarray, n_cp: int) -> np.ndarray:
    """Unitary IDFT per OFDM symbol plus cyclic prefix, flattened to samples."""
    x = np.fft.ifft(grid, norm="ortho", axis=1)
    with_cp = np.concatenate([x[:, -n_cp:], x], axis=1)
    return with_cp.reshape(-1)


def transmit_frame(
    coded_bits: np.ndarray,
    config: FrameConfig,
    tone_map: ToneMap,
    constellation: Constellation,
    node: str,
) -> np.ndarray:
    """Coded bits -> constellation symbols -> pilot-bearing OFDM samples."""
    if coded_bits.size != config.n_coded_bits:
        raise ValueError("coded bit count does not fill the frame's data tones")
    symbols = map_bits(coded_bits, constellation)
    grid = build_payload_grid(symbols, tone_map, node)
    return ofdm_modulate(grid, config.n_cp)
