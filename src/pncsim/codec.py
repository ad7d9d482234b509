"""Rate-1/3 repeat-accumulate code and the joint pair-symbol BP decoder.

Both end nodes use the same encoder: repeat each info bit three times,
permute the repeated stream with a fixed seeded interleaver, and run the
result through a binary accumulator (only the accumulator output is
transmitted).  The relay decodes both codewords at once on a single factor
graph: every data tone carries a joint evidence factor over the pair of
transmitted symbols (X_a, X_b), and two parallel copies of the RA check
structure (one per node) hang off those factors.  Messages through the
code constraints are per-node binary messages; the coupling between the
nodes happens entirely inside the joint evidence factors.

The decoder is sum-product with a flooding schedule in the log/LLR domain;
both nodes' chains are stacked into (2, n) message arrays and updated in
one pass per iteration (see ``JointPairDecoder``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frame import Constellation, FrameConfig

# Messages are clipped so that boxplus stays away from atanh(1) and so that
# near-deltas (noiseless evidence) remain representable: exp(-30) ~ 1e-13.
_LLR_MAX = 30.0
_LLR_PIN = 1e30  # pseudo-message for the constant zero state ahead of the chain


@dataclass(frozen=True, eq=False)
class RaCode:
    """Regular repeat-accumulate code shared by both end nodes."""

    repeat = FrameConfig.code_rate_inv  # the code rate is 1/repeat

    k_info: int
    interleaver: np.ndarray

    def __post_init__(self):
        n = self.k_info * self.repeat
        perm = np.asarray(self.interleaver)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError(f"interleaver must be a permutation of 0..{self.repeat}k-1")

    @classmethod
    def build(cls, k_info: int, seed: int) -> "RaCode":
        """Code with a uniformly random interleaver drawn from ``seed``."""
        perm = np.random.default_rng(seed).permutation(k_info * cls.repeat)
        return cls(k_info=k_info, interleaver=perm)

    @property
    def n_coded(self) -> int:
        return self.k_info * self.repeat


def ra_encode(info_bits: np.ndarray, ra_code: RaCode) -> np.ndarray:
    """Encode: repeat, interleave, then accumulate (c_t = c_{t-1} xor d_t)."""
    info_bits = np.asarray(info_bits, dtype=np.int64)
    if info_bits.shape != (ra_code.k_info,):
        raise ValueError(f"expected {ra_code.k_info} info bits, got {info_bits.shape}")
    repeated = np.repeat(info_bits, ra_code.repeat)
    mixed = repeated[ra_code.interleaver]
    return np.bitwise_xor.accumulate(mixed)


@dataclass(eq=False)
class PairEvidence:
    """Per data symbol: p(received | X_a, X_b) over the joint alphabet.

    ``tables`` has shape (n_symbols, Q*Q) where entry a*Q + b corresponds to
    node A sending point ``a`` and node B point ``b``.  Symbols are ordered
    OFDM-symbol-major, then by data-tone position.
    """

    tables: np.ndarray


@dataclass(eq=False)
class PairPosterior:
    """Joint posteriors produced by BP: per-tone symbol pairs and info-bit pairs.

    ``pair_bit[j]`` is the table over (b_a, b_b) in the order 00, 01, 10, 11.
    """

    pair_symbol: np.ndarray  # (n_symbols, Q*Q)
    pair_bit: np.ndarray  # (k_info, 4)


def _clip(llr: np.ndarray) -> np.ndarray:
    return np.clip(llr, -_LLR_MAX, _LLR_MAX)


class JointPairDecoder:
    """Sum-product decoder over the two coupled RA chains (flooding schedule).

    Both chains run side by side: every per-coded-bit message is a (2, n)
    array, row 0 for node A and row 1 for node B, and one flooding step
    updates every check of both chains at once.  The evidence side works on
    (Q^2, n_symbols) arrays, so per-symbol reductions run down short
    columns.  A joint entry's log-prior is the sum of its bits'
    log p(bit = v) = log p(bit = 1) + [v = 0] * llr.  The log p(bit = 1)
    terms are the same for all Q^2 entries of a symbol and cancel in the
    per-symbol max shift and in every ratio of beliefs, so they are
    dropped, and the log-prior becomes one matmul of the incoming LLRs with
    a fixed 0/1 matrix.  A decoder instance holds only static structure
    (interleaver layout and bit labelings); ``decode`` is a pure function of
    the evidence, so one instance may be reused across frames.
    """

    def __init__(self, ra_code: RaCode, constellation: Constellation):
        self.ra = ra_code
        self.constellation = constellation
        q = constellation.size
        b = constellation.bits_per_symbol
        n = ra_code.n_coded
        if n % b:
            raise ValueError("coded bits must fill whole symbols")
        self.n_symbols = n // b
        self.q_joint = q * q
        joint = np.arange(self.q_joint)
        shifts = np.arange(b - 1, -1, -1)
        # [bit p (MSB first) of node u's point is 0] per joint entry, column u*b + p
        zero = np.concatenate(
            [((joint // q)[:, None] >> shifts) & 1, ((joint % q)[:, None] >> shifts) & 1], axis=1
        ) == 0
        # (Q^2, 2b): zero_bit @ (clipped incoming LLRs, (2b, n_symbols)) is
        # every joint entry's log-prior, up to a constant per symbol
        self.zero_bit = zero.astype(float)
        # (4b, Q^2): belief sums over bit = 0 for all 2b bits, then over bit = 1
        self.masks = np.concatenate([zero, ~zero], axis=1).T.astype(float)
        # info bit feeding each check; node B's bits are counted in bins k..2k-1
        info = ra_code.interleaver // ra_code.repeat
        self.info_of_check = np.stack([info, info + ra_code.k_info])

    def _beliefs(self, log_tables, v2e):
        """Belief of every joint entry, scaled so each symbol's largest is 1.

        ``log_tables`` is the log-evidence as (Q^2, n_symbols) and ``v2e``
        (2, n) the code-side extrinsic LLRs of both nodes' coded bits.  The
        belief of a joint entry is its evidence times each involved bit's
        incoming probability, without the per-symbol constant
        prod p(bit = 1).  Returns the (Q^2, n_symbols) beliefs and the
        clipped incoming LLRs as (2b, n_symbols), row u*b + p.
        """
        b = self.constellation.bits_per_symbol
        x = _clip(v2e).reshape(2, self.n_symbols, b).transpose(0, 2, 1).reshape(2 * b, -1)
        full = log_tables + self.zero_bit @ x
        return np.exp(full - full.max(axis=0)), x

    def _evidence_llrs(self, beliefs, x):
        """Messages from the joint evidence factors to every coded bit, (2, n).

        Within the set of entries sharing bit value v at position p, that
        bit's own factor is the constant p(bit = v), so the extrinsic message
        is the masked belief sums minus the incoming LLR.
        """
        b = self.constellation.bits_per_symbol
        with np.errstate(divide="ignore"):
            sums = np.log(self.masks @ beliefs)
        llrs = sums[: 2 * b] - sums[2 * b :] - x
        return _clip(llrs.reshape(2, b, -1).transpose(0, 2, 1).reshape(2, -1))

    def decode(self, evidence: PairEvidence, inner_iters: int) -> PairPosterior:
        if inner_iters < 1:
            raise ValueError("inner_iters must be >= 1")
        tables = np.asarray(evidence.tables, dtype=float)
        if tables.shape != (self.n_symbols, self.q_joint):
            raise ValueError(
                f"evidence must cover all {self.n_symbols} data symbols "
                f"with {self.q_joint}-entry tables, got {tables.shape}"
            )
        if np.any(tables < 0):
            raise ValueError("evidence tables must be nonnegative")
        dead = ~np.any(tables > 0, axis=1)
        if np.any(dead):
            raise ValueError(
                f"evidence table all-zero at symbol index {int(np.flatnonzero(dead)[0])}"
            )
        with np.errstate(divide="ignore"):
            # symbol-minor: per-symbol max and sums reduce over axis 0, vectorised across symbols
            log_tables = np.log(np.ascontiguousarray(tables.T))

        k = self.ra.k_info
        n = self.ra.n_coded
        bins = self.info_of_check.reshape(-1)
        # check-to-variable messages of both chains
        to_prev = np.zeros((2, n))  # check t -> coded bit t-1 (column 0 unused)
        to_cur = np.zeros((2, n))  # check t -> coded bit t
        to_info = np.zeros((2, n))  # check t -> info bit feeding check t
        v2e = np.zeros((2, n))  # code-side extrinsic LLR of each coded bit
        in_prev = np.empty((2, n))
        in_prev[:, 0] = _LLR_PIN  # c_{-1} is the constant 0
        for _ in range(inner_iters):
            msg_ev = self._evidence_llrs(*self._beliefs(log_tables, v2e))
            # variable-to-check messages
            totals = np.bincount(bins, weights=to_info.reshape(-1), minlength=2 * k)
            in_info = _clip(totals[self.info_of_check] - to_info)
            in_cur = msg_ev.copy()
            in_cur[:, :-1] += to_prev[:, 1:]
            in_cur = _clip(in_cur)
            in_prev[:, 1:] = _clip(msg_ev[:, :-1] + to_cur[:, :-1])
            # check-node boxplus, each input's tanh taken once
            t_prev = np.tanh(0.5 * in_prev)
            t_cur = np.tanh(0.5 * in_cur)
            t_info = np.tanh(0.5 * in_info)
            to_prev = 2.0 * np.arctanh(t_cur * t_info)
            to_cur = 2.0 * np.arctanh(t_prev * t_info)
            to_info = 2.0 * np.arctanh(t_prev * t_cur)
            v2e = to_cur.copy()
            v2e[:, :-1] += to_prev[:, 1:]

        # beliefs with the final messages
        info_llr = np.bincount(bins, weights=to_info.reshape(-1), minlength=2 * k)
        # P(bit = 0); info_llr sums three clipped-scale messages, so exp stays finite
        p0 = 1.0 / (1.0 + np.exp(-info_llr))
        p0a, p0b = p0[:k], p0[k:]
        pair_bit = np.stack(
            [p0a * p0b, p0a * (1 - p0b), (1 - p0a) * p0b, (1 - p0a) * (1 - p0b)], axis=1
        )
        pair_bit /= pair_bit.sum(axis=1, keepdims=True)

        beliefs, _ = self._beliefs(log_tables, v2e)
        pair_symbol = np.ascontiguousarray((beliefs / beliefs.sum(axis=0)).T)
        return PairPosterior(pair_symbol=pair_symbol, pair_bit=pair_bit)
