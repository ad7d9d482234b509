"""In-memory span tracing of pncsim from outside the package.

``install`` replaces the module attributes that pncsim's own callers look
up (for example ``pncsim.receiver.pair_evidence``, which ``em_bp_receive``
resolves through the module globals, or ``JointPairDecoder.decode``) with
wrappers that record one span per call: name, start, end, parent span and
trial id.  ``restore`` puts the originals back.  Spans stay in memory and
are written out once, at the end of a run.
"""

from __future__ import annotations

import functools
import json
import time
from collections import defaultdict

import numpy as np

# (layer name, owner of the attribute below pncsim, attribute) per wrapped callable.
# The span of run_single_trial carries the trial id; everything it calls
# nests below it.
TARGETS = (
    ("harness.trial", "harness", "run_single_trial"),
    ("codec.encode", "harness", "ra_encode"),
    ("frame.transmit", "frame", "transmit_frame"),
    ("channel.draw", "channel", "sample_flat"),
    ("channel.draw", "channel", "sample_selective"),
    ("channel.uplink", "channel", "simulate_uplink"),
    ("receiver.demod", "receiver", "demodulate"),
    ("receiver.em_bp", "receiver", "em_bp_receive"),
    ("receiver.ls", "receiver", "ls_pilot_phase"),
    ("receiver.evidence", "receiver", "pair_evidence"),
    ("receiver.objective", "receiver", "build_phase_objective"),
    ("receiver.particle", "receiver", "particle_m_step"),
    ("codec.decode", "codec.JointPairDecoder", "decode"),
)


class Tracer:
    """Collects spans as (name, start, end, parent index, trial id)."""

    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._trial = None
        self._originals: list[tuple[object, str, object]] = []
        self.decode_entry_iters = 0  # joint-table entries x BP iterations
        # (theta_history, xor_history) of every em_bp_receive call, kept by
        # reference and summarised after the run by em_counts()
        self.em_histories: list[tuple] = []

    def span(self, name: str, fn, *args, trial=None, **kwargs):
        """Run ``fn`` inside a span; a non-None ``trial`` opens a new trial id."""
        outer_trial = self._trial
        if trial is not None:
            self._trial = trial
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        rec = [name, time.perf_counter(), 0.0, parent, self._trial]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            return fn(*args, **kwargs)
        finally:
            rec[2] = time.perf_counter()
            self._stack.pop()
            self._trial = outer_trial

    def _wrap(self, name: str, fn):
        if name == "harness.trial":

            @functools.wraps(fn)
            def wrapper(ctx, snr_idx, trial_idx, *args, **kwargs):
                trial = (ctx.cfg.master_seed, snr_idx, trial_idx)
                return self.span(name, fn, ctx, snr_idx, trial_idx, *args, trial=trial, **kwargs)

        elif name == "codec.decode":

            @functools.wraps(fn)
            def wrapper(decoder, evidence, inner_iters, *args, **kwargs):
                self.decode_entry_iters += evidence.tables.size * inner_iters
                return self.span(name, fn, decoder, evidence, inner_iters, *args, **kwargs)

        elif name == "receiver.em_bp":

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                out = self.span(name, fn, *args, **kwargs)
                self.em_histories.append((out.theta_history, out.xor_history))
                return out

        else:

            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                return self.span(name, fn, *args, **kwargs)

        return wrapper

    def em_counts(self) -> dict[str, int]:
        """M-step updates and EM rounds, and how many of them changed nothing."""
        counts = {"updates": 0, "unchanged": 0, "rounds": 0, "rounds_no_change": 0}
        for theta, xor in self.em_histories:
            same_theta = np.all(theta[1:] == theta[:-1], axis=2)  # (rounds, M)
            counts["updates"] += same_theta.size
            counts["unchanged"] += int(same_theta.sum())
            counts["rounds"] += len(xor) - 1
            counts["rounds_no_change"] += int(np.all(xor[1:] == xor[:-1], axis=1).sum())
        return counts

    def install(self, pncsim) -> None:
        for name, owner_path, attr in TARGETS:
            owner = pncsim
            for part in owner_path.split("."):
                owner = getattr(owner, part)
            original = owner.__dict__[attr]
            self._originals.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original))

    def restore(self) -> None:
        while self._originals:
            owner, attr, original = self._originals.pop()
            setattr(owner, attr, original)

    def write(self, path) -> None:
        """One JSON object per span, in start order."""
        with open(path, "w") as fh:
            for name, start, end, parent, trial in self.spans:
                fh.write(
                    json.dumps(
                        {"name": name, "start": start, "end": end, "parent": parent, "trial": trial}
                    )
                    + "\n"
                )


def layer_table(spans) -> dict[str, dict[str, float]]:
    """Per span name: call count, total seconds and self seconds.

    A span's self time is its duration minus the durations of its direct
    children; children never outlive their parent, so the self times of a
    span and all its descendants add up to the span's own duration.
    """
    child_time = defaultdict(float)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, dict[str, float]] = defaultdict(
        lambda: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    )
    for idx, (name, start, end, _, _) in enumerate(spans):
        row = table[name]
        row["calls"] += 1
        row["total_s"] += end - start
        row["self_s"] += end - start - child_time[idx]
    return dict(table)
