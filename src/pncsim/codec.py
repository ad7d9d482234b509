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
    """Encode each row of (..., k_info) bits along the last axis: repeat,
    interleave, then accumulate (c_t = c_{t-1} xor d_t)."""
    info_bits = np.asarray(info_bits, dtype=np.int64)
    if info_bits.shape[-1:] != (ra_code.k_info,):
        raise ValueError(f"expected {ra_code.k_info} info bits, got {info_bits.shape}")
    repeated = np.repeat(info_bits, ra_code.repeat, axis=-1)
    mixed = repeated[..., ra_code.interleaver]
    return np.bitwise_xor.accumulate(mixed, axis=-1)


@dataclass(eq=False)
class PairEvidence:
    """Per data symbol: log p(received | X_a, X_b) over the joint alphabet, up to a constant.

    ``tables`` has shape (n_symbols, Q*Q) where entry a*Q + b corresponds to
    node A sending point ``a`` and node B point ``b``.  Symbols are ordered
    OFDM-symbol-major, then by data-tone position; ``pair_evidence`` shifts
    each row to a maximum of exactly 0."""

    tables: np.ndarray


@dataclass(eq=False)
class PairPosterior:
    """What BP returns: per-tone symbol-pair posteriors and info-bit LLRs.

    ``info_llr[u, j]`` is log p(b = 0) / p(b = 1) of node u's info bit j,
    row 0 = node A.  BP gives the two nodes' info bits as independent
    marginals, so these two rows carry all it knows of the bit pairs.
    """

    pair_symbol: np.ndarray  # (n_symbols, Q*Q)
    info_llr: np.ndarray  # (2, k_info)
    # the final check outputs (to_prev, to_cur, to_info), (3, 2, n); the
    # ``start`` of a later decode of nearby evidence
    messages: np.ndarray


def _same_messages(a: np.ndarray, b: np.ndarray) -> bool:
    probe = (a.item(0), a.item(-1)) == (b.item(0), b.item(-1))  # node A's first, B's last
    return probe and a.tobytes() == b.tobytes()


def _extrinsic(to_prev: np.ndarray, to_cur: np.ndarray) -> np.ndarray:
    """Code-side extrinsic LLR of each coded bit, (2, n): c_t hears checks t and t + 1."""
    v2e = to_cur.copy()
    v2e[:, :-1] += to_prev[:, 1:]
    return v2e


def _clip(llr: np.ndarray, out=None) -> np.ndarray:
    # the two ufuncs are what np.clip computes, without its dispatch layers
    return np.minimum(np.maximum(llr, -_LLR_MAX, out=out), _LLR_MAX, out=out)


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
    the evidence and the start messages, so one instance may be reused
    across frames.
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
        full = self.zero_bit @ x
        full += log_tables
        full -= full.max(axis=0)
        return np.exp(full, out=full), x

    def _evidence_llrs(self, beliefs, x):
        """Messages from the joint evidence factors to every coded bit, (2, n).

        Within the set of entries sharing bit value v at position p, that
        bit's own factor is the constant p(bit = v), so the extrinsic message
        is the masked belief sums minus the incoming LLR.  A sum can be 0
        (log -inf), so the caller ignores divide-by-zero.
        """
        b = self.constellation.bits_per_symbol
        sums = self.masks @ beliefs
        np.log(sums, out=sums)
        llrs = sums[: 2 * b] - sums[2 * b :]
        llrs -= x
        llrs = llrs.reshape(2, b, -1).transpose(0, 2, 1).reshape(2, -1)
        return _clip(llrs, out=llrs)

    def decode(
        self, evidence: PairEvidence, inner_iters: int, start: np.ndarray | None = None
    ) -> PairPosterior:
        """Run up to ``inner_iters`` flooding iterations on ``evidence``.

        Rows of log-evidence count up to a constant; each row's max must be
        finite.  ``start`` holds the check outputs (to_prev, to_cur, to_info)
        the first iteration reads, as ``PairPosterior.messages`` returns them,
        (3, 2, n); None starts from zero messages.  It is copied, never written.
        Returns the symbol-pair posteriors, each node's info-bit LLRs and the
        final check outputs.
        """
        if inner_iters < 1:
            raise ValueError("inner_iters must be >= 1")
        tables = np.asarray(evidence.tables, dtype=float)
        if tables.shape != (self.n_symbols, self.q_joint):
            raise ValueError(
                f"evidence must cover all {self.n_symbols} data symbols "
                f"with {self.q_joint}-entry tables, got {tables.shape}"
            )
        bad = np.flatnonzero(~np.isfinite(tables.max(axis=1)))  # NaN, +inf or all -inf
        if bad.size:
            raise ValueError(f"evidence row max not finite at symbol index {bad[0]}")
        k, n = self.ra.k_info, self.ra.n_coded
        if start is None:
            start = np.zeros((3, 2, n))
        elif np.shape(start) != (3, 2, n):
            raise ValueError(f"start messages must have shape (3, 2, {n}), got {np.shape(start)}")
        bins = self.info_of_check.reshape(-1)
        # variable-to-check inputs (in_prev, in_cur, in_info) and check-to-variable outputs
        # (to_prev, to_cur, to_info) of both chains, each stacked into one (3, 2, n) buffer so
        # the boxplus runs as one tanh, three products and one arctanh over all three.  The
        # next iteration depends on the outputs alone, so BP stops once two in a row are equal.
        ins = np.empty((3, 2, n))
        in_prev, in_cur, in_info = ins  # check t's inputs from c_{t-1}, c_t, its info bit
        cur, old = [(b, *b) for b in (np.array(start, dtype=float), np.empty((3, 2, n)))]
        outs, to_prev, to_cur, to_info = cur  # to_prev[:, 0] is unused
        tanhs = np.empty((3, 2, n))
        t_prev, t_cur, t_info = tanhs
        with np.errstate(divide="ignore"):
            # symbol-minor: per-symbol max and sums reduce over axis 0, vectorised across symbols
            log_tables = np.ascontiguousarray(tables.T)
            for _ in range(inner_iters):
                v2e = _extrinsic(to_prev, to_cur)
                msg_ev = self._evidence_llrs(*self._beliefs(log_tables, v2e))
                totals = np.bincount(bins, weights=to_info.reshape(-1), minlength=2 * k)
                np.subtract(totals[self.info_of_check], to_info, out=in_info)
                np.add(msg_ev[:, :-1], to_prev[:, 1:], out=in_cur[:, :-1])
                in_cur[:, -1] = msg_ev[:, -1]
                np.add(msg_ev[:, :-1], to_cur[:, :-1], out=in_prev[:, 1:])
                _clip(ins, out=ins)
                in_prev[:, 0] = _LLR_PIN  # c_{-1} is the constant 0
                # check-node boxplus, each input's tanh taken once
                np.multiply(ins, 0.5, out=tanhs)
                np.tanh(tanhs, out=tanhs)
                cur, old = old, cur
                outs, to_prev, to_cur, to_info = cur
                np.multiply(t_cur, t_info, out=to_prev)
                np.multiply(t_prev, t_info, out=to_cur)
                np.multiply(t_prev, t_cur, out=to_info)
                np.arctanh(outs, out=outs)
                outs *= 2.0
                if _same_messages(outs, old[0]):
                    break
            # beliefs with the final messages
            beliefs, _ = self._beliefs(log_tables, _extrinsic(to_prev, to_cur))

        # an info bit hears only its three checks, so their sum is its posterior LLR
        info_llr = np.bincount(bins, weights=to_info.reshape(-1), minlength=2 * k)
        pair_symbol = np.ascontiguousarray((beliefs / beliefs.sum(axis=0)).T)
        return PairPosterior(
            pair_symbol=pair_symbol, info_llr=info_llr.reshape(2, k), messages=outs
        )
