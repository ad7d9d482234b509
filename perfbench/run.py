"""pnc-sim benchmark: drive ``pncsim.harness.run_experiment`` on a fixed workload.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload flat-qpsk-em7 --seed 1 --seconds 30 --trace 0

The workloads are the ``perfbench/workloads/*.ini`` experiment files.  The
run imports pncsim from ``src/`` of the checkout it sits in and refuses to
run without it.  Load comes from this one process, in a closed loop: each
``run_experiment`` call starts when the previous one returned.  Call ``i``
uses master seed ``seed * 1000 + i`` (call 0 is a one-trial warm-up), so the
seed fixes every input.  Calls repeat until ``--seconds`` have passed and
at least ``check_calls`` calls and ``MIN_TRIALS`` trials are done.

``--trace 0`` prints the end-to-end metrics.  ``--trace 1`` prints the
per-layer metrics of a separate traced run: each call is replayed right
after it returned, serially, and traced (see ``spans.py``).  Every run
checks the outputs: each trial's metrics must be finite and correctly
shaped, the result rows must add up to the trials, and each receiver's
XOR BER over the first ``check_calls`` calls must agree with
``reference.json``.  The last line of standard output is one JSON object;
a failed check exits 1.
A full report, and the spans of a traced run, go to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from spans import Tracer, layer_table

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

# Why each workload exists is recorded in BENCHMARK.json.  The value is the
# number of leading run_experiment calls whose trials form the BER check
# sample, fixed so the checked BER is a function of commit and seed only.
CHECK_CALLS = {
    "flat-qpsk-em7": 6,
    "bpsk-pilot-only": 16,
    "selective-refine-sweep": 2,
}
MIN_TRIALS = 110  # p90 needs at least ten samples above it
SETUP_PROBES = 7
# Two-sided normal quantile for a 95% family-wise level over up to 500 BER
# checks (Bonferroni, alpha = 1e-4 per check): a correct program fails a
# run's check by chance far less often than once per benchmark campaign.
CHECK_Z = 3.89

END_TO_END_UNITS = {
    "trials_per_s": "1/s",
    "trial_ms_p50": "ms",
    "trial_ms_p90": "ms",
    "sweep_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER_UNITS = {
    "frame.transmit_ms": "ms/trial",
    "channel.draw_ms": "ms/trial",
    "channel.uplink_ms": "ms/trial",
    "receiver.demod_ms": "ms/trial",
    "receiver.ls_ms": "ms/trial",
    "harness.trial_glue_ms": "ms/trial",
    "codec.decode_ms": "ms/call",
    "codec.decode_calls": "calls/trial",
    "codec.decode_share": "ratio",
    "codec.encode_ms": "ms/call",
    "codec.table_entry_iters_per_s": "1/s",
    "receiver.evidence_ms": "ms/trial",
    "receiver.evidence_calls": "calls/trial",
    "receiver.objective_ms": "ms/trial",
    "receiver.particle_ms": "ms/trial",
    "receiver.particle_calls": "calls/trial",
    "receiver.mstep_ms": "ms/trial",
    "receiver.mstep_share": "ratio",
    "receiver.zero_pilot_events": "count",
    "receiver.degenerate_weight_events": "count",
    "receiver.mstep_unchanged_share": "ratio",
    "receiver.em_rounds_no_change_share": "ratio",
    "harness.frames": "frames/call",
    "harness.batches": "batches/call",
    "harness.run_overhead_ms": "ms/call",
    "harness.parallel_efficiency": "ratio",
    "codec.setup_ms": "ms",
    "cli.load_config_ms": "ms",
    "setup.import_ms": "ms",
    "harness.pool_start_ms": "ms",
    "trace.traced_trials_per_s": "1/s",
    "trace.untraced_trials_per_s": "1/s",
    "trace.overhead_share": "ratio",
    "trace.self_coverage": "ratio",
    "check.xor_ber": "ratio",
}

# per-layer metrics derived from other measurements rather than timed
COMPUTED = {
    "codec.table_entry_iters_per_s": "symbols x Q^2 x BP iterations / decode time",
}


class BenchError(Exception):
    """The benchmark cannot run here (no sources, bad arguments)."""


# ---------------------------------------------------------------- trials


def check_trial(metrics, n_reported: int, k_info: int) -> str | None:
    """Why one trial's TrialMetrics are unusable, or None when they are fine."""
    err = np.asarray(metrics.xor_errors)
    mse = np.asarray(metrics.mse)
    if err.shape != (n_reported,):
        return f"xor_errors shape {err.shape}, expected ({n_reported},)"
    if mse.shape != (n_reported, 2):
        return f"mse shape {mse.shape}, expected ({n_reported}, 2)"
    if metrics.bits != k_info:
        return f"bits {metrics.bits}, expected {k_info}"
    if not np.issubdtype(err.dtype, np.integer):
        return f"xor_errors dtype {err.dtype} is not integer"
    if np.any(err < 0) or np.any(err > k_info):
        return f"xor_errors {err.tolist()} outside [0, {k_info}]"
    if not np.all(np.isfinite(mse)) or np.any(mse < 0) or np.any(mse > 4.0 + 1e-9):
        return f"mse {mse.tolist()} not finite in [0, 4]"
    return None


class TrialRecorder:
    """Times and checks every trial by wrapping ``harness.run_single_trial``.

    ``run_experiment`` resolves the function through the harness module
    globals, in this process and in forked pool workers alike.  Workers
    cannot hand records back through the harness, so they append them to
    one file per process, which ``collect`` reads after the call returned
    (the pool is joined by then).
    """

    def __init__(self, harness, spool: Path):
        self.harness = harness
        self.spool = spool
        self.parent = os.getpid()
        self.records: list[dict] = []
        self._original = None
        self._fh = None

    def install(self, span=None) -> None:
        """Wrap the trial function; with a tracer's ``span``, the checks of
        each trial get a span of their own, so no layer is charged for them."""
        original = self._original = self.harness.run_single_trial
        check = check_trial if span is None else functools.partial(span, "bench.check", check_trial)

        def timed(ctx, snr_idx, trial_idx, *args, **kwargs):
            rec = {"trial": [ctx.cfg.master_seed, snr_idx, trial_idx]}
            t0 = time.perf_counter()
            try:
                m = original(ctx, snr_idx, trial_idx, *args, **kwargs)
            except Exception as exc:
                rec.update(s=time.perf_counter() - t0, problem=f"raised {exc!r}")
                self._sink(rec)
                raise
            rec["s"] = time.perf_counter() - t0
            rec["problem"] = check(m, len(ctx.report_ks), ctx.frame_cfg.k_info)
            if rec["problem"] is None:
                rec["errors"] = [int(e) for e in m.xor_errors]
                rec["bits"] = int(m.bits)
            self._sink(rec)
            return m

        self.harness.run_single_trial = timed

    def restore(self) -> None:
        if self._original is not None:
            self.harness.run_single_trial = self._original
            self._original = None

    def _sink(self, rec: dict) -> None:
        if os.getpid() == self.parent:
            self.records.append(rec)
            return
        if self._fh is None:  # first trial in this worker process
            self._fh = open(self.spool / f"{os.getpid()}.jsonl", "a")
        self._fh.write(json.dumps(rec) + "\n")
        self._fh.flush()

    def collect(self) -> list[dict]:
        """Every record since the last collect, in trial order."""
        out, self.records = self.records, []
        for path in sorted(self.spool.glob("*.jsonl")):
            with open(path) as fh:
                out.extend(json.loads(line) for line in fh)
            path.unlink()
        out.sort(key=lambda r: r["trial"])
        return out


@dataclass
class Call:
    """One run_experiment call: its config, wall time, rows and trials."""

    cfg: object
    wall: float
    rows: list | None  # None when the call raised
    trials: list[dict] = field(default_factory=list)
    problem: str | None = None


def run_call(harness, recorder: TrialRecorder, cfg, span=None) -> Call:
    """Time one run_experiment call, from the call to its return."""
    t0 = time.perf_counter()
    try:
        if span is None:
            result = harness.run_experiment(cfg)
        else:
            result = span("harness.run_experiment", harness.run_experiment, cfg)
    except Exception as exc:
        return Call(cfg, time.perf_counter() - t0, None, recorder.collect(), f"raised {exc!r}")
    wall = time.perf_counter() - t0
    return Call(cfg, wall, result.rows, recorder.collect())


def run_calls(
    harness, recorder, cfg, seed: int, budget_s: float, min_calls: int, min_trials: int,
    probes=None, after=None,
) -> list[Call]:
    """Closed-loop calls with seeds seed*1000+1, +2, ... until the budget is spent.

    Set-up probes, when given, run between calls as the budget is used up.
    ``after``, when given, runs after each call that returned, inside the
    budget.
    """
    calls: list[Call] = []
    t_start = time.perf_counter()
    while (
        len(calls) < min_calls
        or sum(len(c.trials) for c in calls) < min_trials
        or time.perf_counter() - t_start < budget_s
    ):
        i = len(calls) + 1
        if i >= 1000:
            break
        call = run_call(harness, recorder, harness.with_overrides(cfg, master_seed=seed * 1000 + i))
        calls.append(call)
        if call.rows is None:
            break
        if after is not None:
            after(call)
        if probes is not None:
            probes.due((time.perf_counter() - t_start) / budget_s)
    if probes is not None:
        probes.due(1.0)
    return calls


class TracedReplays:
    """After each measured call, the same call (same seeds) serially: first
    untraced when the workload is parallel, then traced.

    Running the replays right after their call, rather than all after the
    measured run, exposes the traced and the untraced trials to the same
    phases of a shared host, so their ratio measures the tracing overhead.
    The receiver's warnings are recorded during traced replays only, so
    each event counts once.
    """

    def __init__(self, pncsim, recorder: TrialRecorder, tracer: Tracer):
        self.pncsim = pncsim
        self.harness = pncsim.harness
        self.recorder = recorder
        self.tracer = tracer
        self.serial: list[Call] = []
        self.traced: list[Call] = []
        self.caught: list = []

    def __call__(self, call: Call) -> None:
        serial_cfg = self.harness.with_overrides(call.cfg, jobs=1)
        if call.cfg.jobs > 1:
            self.serial.append(run_call(self.harness, self.recorder, serial_cfg))
        self.recorder.restore()
        self.tracer.install(self.pncsim)
        self.recorder.install(self.tracer.span)
        try:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                self.traced.append(run_call(self.harness, self.recorder, serial_cfg, self.tracer.span))
            self.caught.extend(caught)
        finally:
            self.recorder.restore()
            self.tracer.restore()
            self.recorder.install()


# ---------------------------------------------------------------- checks


def receiver_labels(cfg) -> list[str]:
    return [name if name == "baseline" else f"{name}_k{k}" for name, k in cfg.reported()]


def ber_sample(calls: list[Call], n_reported: int) -> dict:
    """Pooled errors, bits and per-frame error fractions of each receiver."""
    frames = [t for c in calls for t in c.trials if t["problem"] is None]
    return {
        "frames": len(frames),
        "errors": [sum(t["errors"][i] for t in frames) for i in range(n_reported)],
        "bits": sum(t["bits"] for t in frames),
        "fractions": [[t["errors"][i] / t["bits"] for t in frames] for i in range(n_reported)],
    }


def check_rows(call: Call, n_reported: int) -> str | None:
    """The call's result rows must add up to the trials it ran."""
    if call.rows is None:
        return call.problem
    if any(t["problem"] for t in call.trials):
        return next(t["problem"] for t in call.trials if t["problem"])
    snrs = call.cfg.snr_db_list
    if len(call.rows) != n_reported * len(snrs):
        return f"{len(call.rows)} result rows, expected {n_reported * len(snrs)}"
    for i in range(n_reported):
        rows = call.rows[i * len(snrs) : (i + 1) * len(snrs)]
        for snr_idx, row in enumerate(rows):
            trials = [t for t in call.trials if t["trial"][1] == snr_idx]
            if row.frames != len(trials):
                return f"row frames {row.frames} != {len(trials)} trials run"
            if row.errors != sum(t["errors"][i] for t in trials):
                return f"row errors {row.errors} != sum of trial errors"
            if row.bits != sum(t["bits"] for t in trials):
                return f"row bits {row.bits} != sum of trial bits"
            if not (math.isfinite(row.mse_a) and math.isfinite(row.mse_b)):
                return "non-finite MSE in a result row"
    return None


def check_ber(harness, sample: dict, labels: list[str], reference: dict | None) -> tuple[bool, list[str]]:
    """Each receiver's BER must agree with the reference at CHECK_Z.

    Errors arrive in bursts (a lost frame costs many bits at once), so the
    bit count overstates the information in the sample.  The interval uses
    the effective sample size frames * p(1-p) / s^2, with s^2 the per-frame
    variance of the error fraction measured when the reference was recorded.
    """
    if reference is None:
        return False, ["no reference recorded for this workload"]
    ok = True
    lines = []
    for i, label in enumerate(labels):
        ref = reference[label]
        p_ref = ref["errors"] / ref["bits"]
        p_hat = sample["errors"][i] / sample["bits"]
        n_eff = sample["frames"] * p_ref * (1 - p_ref) / ref["frame_var"]
        lo, hi = harness.wilson_interval(p_hat * n_eff, n_eff, CHECK_Z)
        inside = lo <= p_ref <= hi
        ok &= inside
        lines.append(
            f"{label}: ber {p_hat:.5f} over {sample['frames']} frames, "
            f"interval [{lo:.5f}, {hi:.5f}] {'contains' if inside else 'MISSES'} "
            f"reference {p_ref:.5f}"
        )
    return ok, lines


def rows_key(rows) -> list[tuple]:
    """Everything a result row holds except its wall time."""
    return [
        (r.receiver, r.em_iters, r.snr_db, r.ber, r.mse_a, r.mse_b, r.bits, r.frames, r.errors)
        for r in rows
    ]


# ---------------------------------------------------------------- set-up


class SetupProbes:
    """Set-up timings of SETUP_PROBES fresh interpreters (``setup_probe.py``).

    The probes run one at a time, spread over the measured run, so that the
    median samples the slow and the fast phases of a shared host alike.
    """

    def __init__(self, ini: Path, jobs: int):
        self.cmd = [sys.executable, str(BENCH / "setup_probe.py"), str(ROOT / "src"), str(ini), str(jobs)]
        self.results: list[dict] = []

    def due(self, fraction: float) -> None:
        """Run probes until the given fraction of them is done."""
        while len(self.results) < min(SETUP_PROBES, math.ceil(SETUP_PROBES * fraction)):
            done = subprocess.run(self.cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
            if done.returncode != 0:
                raise RuntimeError(f"setup probe failed: {done.stderr.strip()}")
            self.results.append(json.loads(done.stdout.strip().splitlines()[-1]))

    def median(self, key: str) -> float:
        return statistics.median(p[key] for p in self.results)


# ---------------------------------------------------------------- metrics


def end_to_end(calls, probes) -> dict:
    times = [t["s"] for c in calls for t in c.trials]
    frames = len(times)
    wall = sum(c.wall for c in calls)
    rss_kb = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    return {
        "trials_per_s": frames / wall,
        "trial_ms_p50": 1e3 * statistics.median(times),
        "trial_ms_p90": 1e3 * statistics.quantiles(times, n=10)[8],
        "sweep_s": statistics.median(c.wall for c in calls),
        "setup_s": probes.median("setup_s"),
        "peak_rss_mb": rss_kb / 1024.0,
    }


def per_layer(
    tracer, table, caught, calls_a, calls_s, calls_t, probes, jobs: int, batch: int, xor_ber
) -> dict:
    def row(name):
        return table.get(name, {"calls": 0, "total_s": 0.0, "self_s": 0.0})

    trial = row("harness.trial")
    n = trial["calls"]
    trial_s = trial["total_s"]

    def per_trial_ms(name):
        return 1e3 * row(name)["self_s"] / n

    def per_call_ms(name):
        r = row(name)
        return 1e3 * r["total_s"] / r["calls"] if r["calls"] else 0.0

    decode = row("codec.decode")
    mstep_s = (
        row("receiver.em_bp")["total_s"]
        - row("receiver.evidence")["total_s"]
        - decode["total_s"]
        - row("receiver.ls")["total_s"]
    )
    # self times of every span inside a trial, against the trial wall time
    # the recorder measured around the traced trials
    covered = sum(
        r["self_s"] for name, r in table.items() if name not in ("harness.run_experiment", "bench.check")
    )
    traced_trial_s = sum(t["s"] for c in calls_t for t in c.trials)
    messages = [str(w.message) for w in caught]
    em = tracer.em_counts()
    frames_per_call = [sum(r.frames for r in c.rows[: len(c.cfg.snr_db_list)]) for c in calls_a]
    batches_per_call = [
        sum(-(-r.frames // batch) for r in c.rows[: len(c.cfg.snr_db_list)]) for c in calls_a
    ]
    serial_trial_s = sum(t["s"] for c in calls_s for t in c.trials)
    untraced_tps = sum(len(c.trials) for c in calls_s) / sum(c.wall for c in calls_s)
    traced_tps = sum(len(c.trials) for c in calls_t) / sum(c.wall for c in calls_t)
    return {
        "frame.transmit_ms": per_trial_ms("frame.transmit"),
        "channel.draw_ms": per_trial_ms("channel.draw"),
        "channel.uplink_ms": per_trial_ms("channel.uplink"),
        "receiver.demod_ms": per_trial_ms("receiver.demod"),
        "receiver.ls_ms": per_trial_ms("receiver.ls"),
        "harness.trial_glue_ms": per_trial_ms("harness.trial"),
        "codec.decode_ms": per_call_ms("codec.decode"),
        "codec.decode_calls": decode["calls"] / n,
        "codec.decode_share": decode["total_s"] / trial_s,
        "codec.encode_ms": per_call_ms("codec.encode"),
        "codec.table_entry_iters_per_s": tracer.decode_entry_iters / decode["total_s"],
        "receiver.evidence_ms": per_trial_ms("receiver.evidence"),
        "receiver.evidence_calls": row("receiver.evidence")["calls"] / n,
        "receiver.objective_ms": per_trial_ms("receiver.objective"),
        "receiver.particle_ms": per_trial_ms("receiver.particle"),
        "receiver.particle_calls": row("receiver.particle")["calls"] / n,
        "receiver.mstep_ms": 1e3 * mstep_s / n,
        "receiver.mstep_share": mstep_s / trial_s,
        "receiver.zero_pilot_events": sum("zero pilot correlation" in m for m in messages),
        "receiver.degenerate_weight_events": sum("degenerate particle weights" in m for m in messages),
        # shares of zero M-step updates or EM rounds (pilot-only) read 0
        "receiver.mstep_unchanged_share": em["unchanged"] / max(em["updates"], 1),
        "receiver.em_rounds_no_change_share": em["rounds_no_change"] / max(em["rounds"], 1),
        "harness.frames": statistics.mean(frames_per_call),
        "harness.batches": statistics.mean(batches_per_call),
        "harness.run_overhead_ms": 1e3
        * row("harness.run_experiment")["self_s"]
        / row("harness.run_experiment")["calls"],
        "harness.parallel_efficiency": serial_trial_s / (jobs * sum(c.wall for c in calls_a)),
        "codec.setup_ms": 1e3 * probes.median("codec_setup_s"),
        "cli.load_config_ms": 1e3 * probes.median("load_config_s"),
        "setup.import_ms": 1e3 * probes.median("import_s"),
        "harness.pool_start_ms": 1e3 * probes.median("pool_start_s"),
        "trace.traced_trials_per_s": traced_tps,
        "trace.untraced_trials_per_s": untraced_tps,
        "trace.overhead_share": 1.0 - traced_tps / untraced_tps,
        "trace.self_coverage": covered / traced_trial_s,
        "check.xor_ber": xor_ber,
    }


# ---------------------------------------------------------------- entry point


def provenance(seed: int, workload: str, jobs: int) -> dict:
    import scipy

    nproc = len(os.sched_getaffinity(0))
    return {
        "workload": workload,
        "seed": seed,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "nproc": nproc,
        "jobs": jobs,
        "machine": platform.machine(),
        "note": (
            f"{nproc} usable cores: batch-barrier effects above {nproc} jobs are not measured"
        ),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return "unknown"


def import_pncsim():
    """Import pncsim from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    if not (src / "pncsim" / "__init__.py").is_file():
        raise BenchError(f"no pncsim sources in {src}")
    sys.path.insert(0, str(src))
    import pncsim

    if Path(pncsim.__file__).resolve().parent != (src / "pncsim").resolve():
        raise BenchError(f"imported pncsim from {pncsim.__file__}, not from {src}")
    return pncsim


def load_workload(harness, name: str, nproc: int):
    cfg = harness.load_config(str(BENCH / "workloads" / f"{name}.ini"))
    return harness.with_overrides(cfg, jobs=min(cfg.jobs, nproc))


def load_reference(name: str) -> dict | None:
    if not REFERENCE.is_file():
        return None
    return json.loads(REFERENCE.read_text()).get(name)


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Measure one workload; returns (final JSON object, full report)."""
    pncsim = import_pncsim()
    harness = pncsim.harness
    nproc = len(os.sched_getaffinity(0))
    cfg = load_workload(harness, workload, nproc)
    jobs = cfg.jobs
    n_rep = len(cfg.reported())
    labels = receiver_labels(cfg)
    check_calls = CHECK_CALLS[workload]
    ini = BENCH / "workloads" / f"{workload}.ini"

    spool = OUT / "trials"
    spool.mkdir(parents=True, exist_ok=True)
    for stale in spool.glob("*.jsonl"):
        stale.unlink()
    recorder = TrialRecorder(harness, spool)
    recorder.install()

    probes = SetupProbes(ini, jobs)
    # warm-up: one serial trial on its own seed, not measured
    run_call(harness, recorder, harness.with_overrides(cfg, master_seed=seed * 1000, trials_per_snr=1, jobs=1))

    report = {"provenance": provenance(seed, workload, jobs), "setup_probes": probes.results}
    if not trace:
        calls = run_calls(harness, recorder, cfg, seed, seconds, check_calls, MIN_TRIALS, probes)
        replays = []
    else:
        tracer = Tracer()
        after = TracedReplays(pncsim, recorder, tracer)
        calls = run_calls(harness, recorder, cfg, seed, seconds, check_calls, 0, probes, after)
        serial = after.serial if jobs > 1 else calls
        traced = after.traced
        replays = after.serial + traced
    recorder.restore()

    problems = [(c.cfg.master_seed, check_rows(c, n_rep)) for c in calls + replays]
    problems = [f"call seed {ms}: {p}" for ms, p in problems if p]
    for c in replays:
        original = next(o for o in calls if o.cfg.master_seed == c.cfg.master_seed)
        if c.rows is not None and original.rows is not None and rows_key(c.rows) != rows_key(original.rows):
            problems.append(f"call seed {c.cfg.master_seed}: replay with jobs={c.cfg.jobs} changed the results")
    if trace and (len(traced) != len(calls) or len(serial) != len(calls)):
        problems.append("a replay is missing")

    sample = ber_sample(calls[:check_calls], n_rep)
    # pooled over the check sample, for the strongest receiver, which
    # reported() lists last; a function of commit and seed only
    xor_ber = sample["errors"][-1] / sample["bits"] if sample["bits"] else math.nan
    ber_ok, ber_lines = (False, ["check sample incomplete"])
    if len(calls) >= check_calls and sample["frames"] > 0:
        ber_ok, ber_lines = check_ber(harness, sample, labels, load_reference(workload))
    if not ber_ok:
        problems.append("BER check failed")

    all_calls = calls + replays
    attempted = sum(len(c.trials) for c in all_calls)
    failed = sum(1 for c in all_calls for t in c.trials if t["problem"])
    report.update(
        check={"ok": not problems, "problems": problems, "ber": ber_lines, "ber_sample_frames": sample["frames"]},
        attempted=attempted,
        failed=failed,
        failed_share=failed / max(attempted, 1),
        xor_ber=xor_ber,
        trial_samples=sum(len(c.trials) for c in calls),
        calls=len(calls),
        call_walls=[c.wall for c in calls],
        trial_s=[[t["s"] for t in c.trials] for c in calls],
    )
    metrics = {}
    if all(c.rows is not None for c in all_calls):
        if trace:
            batch = harness._BATCH
            table = layer_table(tracer.spans)
            metrics = per_layer(
                tracer, table, after.caught, calls, serial, traced, probes, jobs, batch, xor_ber
            )
            report["layers"] = {
                name: {"calls": r["calls"], "self_ms": 1e3 * r["self_s"], "total_ms": 1e3 * r["total_s"]}
                for name, r in sorted(table.items())
            }
            tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl")
            units = PER_LAYER_UNITS
        else:
            metrics = end_to_end(calls, probes)
            units = END_TO_END_UNITS
        metrics = {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}
    report["metrics"] = metrics
    final = {"correct": not problems, "attempted": max(attempted, 1), "failed": failed, "metrics": metrics}
    return final, report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(CHECK_CALLS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        print("error: --seed must be >= 0 and --seconds > 0", file=sys.stderr)
        return 2
    try:
        final, report = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / f"report-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, default=str)
    )
    prov = report["provenance"]
    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}")
    print(f"# provenance {json.dumps(prov)}")
    print(
        f"# trials {report['trial_samples']} in {report['calls']} calls; "
        f"attempted {report['attempted']}, failed {report['failed']}"
    )
    for line in report["check"]["ber"]:
        print(f"# check {line}")
    for problem in report["check"]["problems"]:
        print(f"# FAILED {problem}")
    for name, layer in report.get("layers", {}).items():
        print(f"# layer {name}: {layer['calls']} calls, self {layer['self_ms']:.3f} ms")
    for name, m in final["metrics"].items():
        note = f"  (computed: {COMPUTED[name]})" if name in COMPUTED else ""
        print(f"{name} = {m['value']:.6g} {m['unit']}{note}")
    # reported outside the JSON metrics: failed_share is 0 on a correct
    # program, and xor_ber is gated by the BER check rather than a bound
    print(f"failed_share = {report['failed_share']:.6g} ratio")
    print(f"xor_ber = {report['xor_ber']:.6g} ratio  (strongest receiver, BER check sample)")
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
