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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.special import expit, logsumexp

from .frame import Constellation

# Messages are clipped so that boxplus stays away from atanh(1) and so that
# near-deltas (noiseless evidence) remain representable: exp(-30) ~ 1e-13.
_LLR_MAX = 30.0
_LLR_PIN = 1e30  # pseudo-message for the constant zero state ahead of the chain


@dataclass(frozen=True, eq=False)
class RaCode:
    """Regular repeat-accumulate code shared by both end nodes."""

    k_info: int
    interleaver: np.ndarray
    repeat: int = 3

    def __post_init__(self):
        n = self.k_info * self.repeat
        perm = np.asarray(self.interleaver)
        if perm.shape != (n,) or not np.array_equal(np.sort(perm), np.arange(n)):
            raise ValueError("interleaver must be a permutation of 0..3k-1")

    @classmethod
    def build(cls, k_info: int, seed: int) -> "RaCode":
        """Code with a uniformly random interleaver drawn from ``seed``."""
        perm = np.random.default_rng(seed).permutation(k_info * 3)
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


def _boxplus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Check-node combination of two LLRs."""
    return 2.0 * np.arctanh(np.tanh(0.5 * a) * np.tanh(0.5 * b))


def _clip(llr: np.ndarray) -> np.ndarray:
    return np.clip(llr, -_LLR_MAX, _LLR_MAX)


class _NodeChainState:
    """Check-to-variable messages of one node's RA chain (flooding schedule)."""

    def __init__(self, n: int):
        self.to_prev = np.zeros(n)  # check t -> coded bit t-1 (t >= 1)
        self.to_cur = np.zeros(n)  # check t -> coded bit t
        self.to_info = np.zeros(n)  # check t -> info bit feeding check t


class JointPairDecoder:
    """Sum-product decoder over the two coupled RA chains.

    A decoder instance holds only static structure (interleaver layout and
    bit labelings); ``decode`` is a pure function of the evidence, so one
    instance may be reused across frames.
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
        idx_a, idx_b = joint // q, joint % q
        shifts = np.arange(b - 1, -1, -1)
        # bit p (MSB first) of each node's point index, per joint entry
        self.bits = {
            "a": ((idx_a[:, None] >> shifts) & 1).astype(np.int64),
            "b": ((idx_b[:, None] >> shifts) & 1).astype(np.int64),
        }
        # mask matrix per node: column 2p+v selects joint entries whose bit p
        # equals v, so one matmul yields every marginal sum at once
        self.masks = {
            u: np.stack(
                [(self.bits[u][:, p] == v).astype(float) for p in range(b) for v in (0, 1)],
                axis=1,
            )
            for u in ("a", "b")
        }
        self.info_of_check = ra_code.interleaver // ra_code.repeat

    def _evidence_llrs(self, log_tables, v2e_a, v2e_b):
        """Messages from the joint evidence factors to every coded bit.

        ``v2e_u`` are the code-side extrinsic LLRs of node u's coded bits.
        Returns the new evidence-to-bit LLRs for both nodes, shape (n,).

        The belief of a joint entry is the evidence times each involved
        bit's incoming probability; within the set of entries sharing bit
        value v at position p, that bit's own factor is the constant
        p(bit=v), so the extrinsic message reduces to the masked belief sums
        minus the incoming LLR.
        """
        b = self.constellation.bits_per_symbol
        lp = {}
        in_llr = {}
        contrib = {}
        for u, v2e in (("a", v2e_a), ("b", v2e_b)):
            llr = _clip(v2e).reshape(self.n_symbols, b)
            in_llr[u] = llr
            # log p(bit=0), log p(bit=1) per symbol position
            lp[u] = np.stack(
                [-np.logaddexp(0.0, -llr), -np.logaddexp(0.0, llr)], axis=-1
            )
            c = np.zeros((self.n_symbols, self.q_joint))
            for p in range(b):
                c += lp[u][:, p, :][:, self.bits[u][:, p]]
            contrib[u] = c
        full = log_tables + contrib["a"] + contrib["b"]
        flat = np.exp(full - full.max(axis=1, keepdims=True))
        out = {}
        with np.errstate(divide="ignore"):
            for u in ("a", "b"):
                sums = np.log(flat @ self.masks[u])  # (n_symbols, 2b)
                llrs = sums[:, 0::2] - sums[:, 1::2] - in_llr[u]
                out[u] = _clip(llrs.reshape(-1))
        return out["a"], out["b"], full

    def _chain_inputs(self, msg_ev, st: _NodeChainState):
        """Variable-to-check messages of one RA chain."""
        n = self.ra.n_coded
        totals = np.bincount(self.info_of_check, weights=st.to_info, minlength=self.ra.k_info)
        in_info = _clip(totals[self.info_of_check] - st.to_info)
        in_cur = msg_ev.copy()
        in_cur[:-1] += st.to_prev[1:]
        in_cur = _clip(in_cur)
        in_prev = np.empty(n)
        in_prev[0] = _LLR_PIN  # c_{-1} is the constant 0
        in_prev[1:] = _clip(msg_ev[:-1] + st.to_cur[:-1])
        return in_prev, in_cur, in_info

    @staticmethod
    def _v2e(st: _NodeChainState) -> np.ndarray:
        """Code-side extrinsic LLR of each coded bit (towards the evidence)."""
        v = st.to_cur.copy()
        v[:-1] += st.to_prev[1:]
        return v

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
            log_tables = np.log(tables)

        states = {"a": _NodeChainState(self.ra.n_coded), "b": _NodeChainState(self.ra.n_coded)}
        msg_ev = {"a": None, "b": None}
        for _ in range(inner_iters):
            msg_ev["a"], msg_ev["b"], _ = self._evidence_llrs(
                log_tables, self._v2e(states["a"]), self._v2e(states["b"])
            )
            for u in ("a", "b"):
                st = states[u]
                in_prev, in_cur, in_info = self._chain_inputs(msg_ev[u], st)
                new = _NodeChainState(self.ra.n_coded)
                new.to_prev[1:] = _boxplus(in_cur[1:], in_info[1:])
                new.to_cur = _boxplus(in_prev, in_info)
                new.to_info = _boxplus(in_prev, in_cur)
                states[u] = new

        # beliefs with the final messages
        info_llr = {}
        for u in ("a", "b"):
            info_llr[u] = np.bincount(
                self.info_of_check, weights=states[u].to_info, minlength=self.ra.k_info
            )
        p0a, p0b = expit(info_llr["a"]), expit(info_llr["b"])
        pair_bit = np.stack(
            [p0a * p0b, p0a * (1 - p0b), (1 - p0a) * p0b, (1 - p0a) * (1 - p0b)], axis=1
        )
        pair_bit /= pair_bit.sum(axis=1, keepdims=True)

        _, _, full = self._evidence_llrs(
            log_tables, self._v2e(states["a"]), self._v2e(states["b"])
        )
        pair_symbol = np.exp(full - logsumexp(full, axis=1, keepdims=True))
        return PairPosterior(pair_symbol=pair_symbol, pair_bit=pair_bit)
