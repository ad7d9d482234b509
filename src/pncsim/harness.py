"""Monte Carlo experiment driver: SNR sweeps, BER/MSE metrics, CSV output.

Every trial draws a fresh channel, CFO pair, delay, and payload, then runs
all configured receivers on the identical received samples (the EM-BP run
at the largest requested iteration count also yields every smaller count,
including the pilot-only baseline, from its per-iteration history).  Trial
RNG streams are derived from (master_seed, snr index, trial index), so
results are bit-identical whether trials run serially or in parallel.
"""

import configparser
import contextlib
import csv
import multiprocessing
import os
import time
import types
import typing
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import channel as chan_mod
from . import frame as frame_mod
from . import receiver as rx_mod
from .codec import JointPairDecoder, RaCode, ra_encode

_BATCH = 8  # stop-condition check granularity; fixed so results never depend on jobs
TRIAL_BYTES_LIMIT = 2 * 2**30  # configs whose trial needs more are refused up front


def _ini(section: str, default, *, key: str = "", none: str = "", lowercase: bool = False):
    """A config field read from ``key`` (by default the field's own name) in
    ``[section]`` of the experiment file.  Its parser follows its annotation;
    the word ``none`` reads as None, and ``lowercase`` folds the value's case."""
    meta = {"section": section, "key": key, "none": none, "lowercase": lowercase}
    return field(default=default, metadata=meta)


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo sweep."""

    # inf runs a point without receiver noise
    snr_db_list: tuple[float, ...] = _ini("run", (4.0, 6.0, 8.0, 10.0, 12.0), key="snr_db")
    trials_per_snr: int = _ini("run", 1000)
    min_errors: int = _ini("run", 100)
    # one lost frame contributes ~k_info/2 XOR errors, so burst-dominated
    # points can hit min_errors after a handful of frames; a frame floor
    # keeps such points statistically meaningful
    min_frames: int = _ini("run", 1)
    modulation: str = _ini("frame", frame_mod.QPSK, lowercase=True)
    m_symbols: int = _ini("frame", 10)
    interleaver_seed: int = _ini("code", 2024)
    channel_kind: str = _ini("channel", "flat", key="kind", lowercase=True)  # "flat" or "selective"
    n_taps: int = _ini("channel", 4, key="taps")
    decay: float = _ini("channel", 1.0)
    delta: float = _ini("channel", 0.1)
    # None draws uniformly from the CP-safe range
    tau: int | None = _ini("channel", None, none="random")
    receivers: tuple[str, ...] = _ini("receiver", ("baseline", "em_bp"), lowercase=True)
    em_bp_k: tuple[int, ...] = _ini("receiver", (7,))
    bp_iters: int = _ini("receiver", rx_mod.ReceiverConfig.bp_iters)
    particle_rounds: int = _ini("receiver", rx_mod.ReceiverConfig.particle_rounds)
    particle_l: int = _ini("receiver", rx_mod.ReceiverConfig.particle_l)
    particle_shrink: float = _ini("receiver", rx_mod.ReceiverConfig.particle_shrink)
    em_refine_passes: int = _ini("receiver", rx_mod.ReceiverConfig.em_refine_passes)
    master_seed: int = _ini("run", 1)
    output_path: str = _ini("run", "result.csv", key="out")
    jobs: int = _ini("run", 1)

    def __post_init__(self):
        """Reject every invalid setting here, before the first trial runs."""
        snrs = self.snr_db_list
        if not snrs or any(np.isnan(snrs)) or len(set(snrs)) != len(snrs):
            raise ValueError(f"snr list must be non-empty, not NaN and distinct, got {snrs}")
        if self.trials_per_snr < 1:
            raise ValueError("trials_per_snr must be >= 1")
        if self.min_errors < 0 or self.min_frames < 0:
            raise ValueError("min_errors and min_frames must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.master_seed < 0 or self.interleaver_seed < 0:
            raise ValueError("master_seed and interleaver_seed must be >= 0")
        if not 0 <= self.delta <= 1:  # past 1, |cfo| exceeds half a subcarrier spacing
            raise ValueError("delta must lie in [0, 1]")
        if not 0 <= self.decay < np.inf:
            raise ValueError("decay must be finite and >= 0")
        if self.channel_kind not in ("flat", "selective"):
            raise ValueError(f"unknown channel kind {self.channel_kind!r}")
        frame_cfg = frame_mod.default_config(self.modulation, self.m_symbols)
        # node B's delayed taps must end inside the cyclic prefix, whatever the kind
        if self.n_taps < 1 or chan_mod.max_delay(self.n_taps) < 0:
            raise ValueError(f"taps must lie in [1, {chan_mod.max_delay(1) + 1}]")
        tau_max = chan_mod.max_delay(self.taps)
        if self.tau is not None and not 0 <= self.tau <= tau_max:
            raise ValueError(f"tau must lie in [0, {tau_max}] for {self.taps} taps")
        bad = set(self.receivers) - {"baseline", "em_bp"}
        if bad:
            raise ValueError(f"unknown receivers {sorted(bad)}")
        if not self.receivers or len(set(self.receivers)) != len(self.receivers):
            raise ValueError(f"receivers must be non-empty and distinct, got {self.receivers}")
        if "em_bp" in self.receivers and not self.em_bp_k:
            raise ValueError("em_bp requested but no iteration counts given")
        if any(k < 1 for k in self.em_bp_k) or len(set(self.em_bp_k)) != len(self.em_bp_k):
            raise ValueError(f"em_bp_k must list distinct counts >= 1, got {self.em_bp_k}")
        rx_cfg = _points(self, frame_cfg)[0][1]  # every point runs the same sizes
        need, limit = _trial_bytes(frame_cfg, rx_cfg) / 2**30, TRIAL_BYTES_LIMIT / 2**30
        if need > limit:
            raise ValueError(f"one trial needs {need:.3g} GiB, over the {limit:g} GiB limit")

    @property
    def taps(self) -> int:
        """Taps per node: n_taps on a selective channel, one on a flat one."""
        return self.n_taps if self.channel_kind == "selective" else 1

    def reported(self) -> list[tuple[str, int]]:
        """(receiver label, em iteration count) rows, in output order."""
        rows = []
        if "baseline" in self.receivers:
            rows.append(("baseline", 0))
        if "em_bp" in self.receivers:
            rows.extend(("em_bp", k) for k in sorted(self.em_bp_k))
        return rows


def _points(cfg: ExperimentConfig, frame_cfg: frame_mod.FrameConfig) -> tuple:
    """Per SNR point, the relay's noise variance and the receiver settings,
    run to the largest reported K.  Raises ValueError on a point whose
    noise leaves the range the evidence can square, or on a bad tunable."""
    rate, bits = 1.0 / frame_cfg.code_rate_inv, frame_cfg.constellation().bits_per_symbol
    tunables = {name: getattr(cfg, name) for name in _RX_TUNABLES}
    tunables["em_iters"] = max(k for _, k in cfg.reported())
    points = []
    for snr_db in cfg.snr_db_list:  # delta <= 1 bounds the ICI term, so only the noise can overflow
        try:
            sigma_n2 = chan_mod.noise_var(snr_db, rate, bits)
        except ArithmeticError:  # Eb/N0 overflows, or underflows to 0
            sigma_n2 = np.inf
        # a tone's squared residual is sigma_n2 times an Exp(1) draw, so under
        # this bound it overflows with probability below e^-4096
        if not sigma_n2 < np.finfo(float).max / 2**12:
            raise ValueError(f"snr_db = {snr_db}: noise out of range")
        sigma_w2 = rx_mod.effective_noise_var(sigma_n2, cfg.delta)
        points.append((sigma_n2, rx_mod.ReceiverConfig(sigma_w2=sigma_w2, **tunables)))
    return tuple(points)


def _trial_bytes(frame_cfg: frame_mod.FrameConfig, rx_cfg: rx_mod.ReceiverConfig) -> int:
    """Estimated peak bytes of one trial's arrays: the (M, N_d, Q^2) evidence
    and decoder tables; per coded bit, the decoder's messages and the sample
    streams; with an M-step, the particle search's (M, L^2) arrays and its
    cached 64 L^2-byte lattice tables; the K + 1 history rows.  The byte
    counts were fitted, on the high side, to the tracemalloc peaks of single
    trials at M = 10000 (BPSK and QPSK) and L = 800."""
    m, l2, k = frame_cfg.m_symbols, rx_cfg.particle_l**2, rx_cfg.em_iters
    tables = (1 + rx_cfg.em_refine_passes) * (1 + rx_cfg.particle_rounds)
    tables = min(tables, rx_mod._lattice.cache_parameters()["maxsize"])
    search = 40 * m * l2 + 64 * l2 * tables if k else 0
    decode = 48 * m * frame_cfg.n_data * frame_cfg.constellation().size**2
    decode += 512 * frame_cfg.n_coded_bits
    return decode + search + (k + 1) * (16 * m + 8 * frame_cfg.k_info)


# the ReceiverConfig fields an ExperimentConfig sets under the same name
_RX_TUNABLES = tuple(
    f.name for f in fields(rx_mod.ReceiverConfig) if f.name in ExperimentConfig.__dataclass_fields__
)


@dataclass
class ResultRow:
    receiver: str
    em_iters: int
    snr_db: float
    ber: float
    mse_a: float
    mse_b: float
    bits: int
    frames: int
    seconds: float
    errors: int = 0  # kept for interval computation; not a CSV column


@dataclass
class ExperimentResult:
    rows: list[ResultRow] = field(default_factory=list)

    def row(self, receiver: str, em_iters: int, snr_db: float) -> ResultRow:
        for r in self.rows:
            if r.receiver == receiver and r.em_iters == em_iters and r.snr_db == snr_db:
                return r
        raise KeyError((receiver, em_iters, snr_db))


def mse_metric(estimated, truth) -> np.ndarray:
    """Per-node mean of |e^{j est} - e^{j true}|^2 over the OFDM symbols."""
    est, tru = np.asarray(estimated), np.asarray(truth)
    if est.shape != tru.shape:
        raise ValueError(f"shape mismatch: {est.shape} vs {tru.shape}")
    return np.mean(np.abs(np.exp(1j * est) - np.exp(1j * tru)) ** 2, axis=0)


def wilson_interval(errors: int, total: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if total <= 0:
        return (0.0, 1.0)
    p = errors / total
    denom = 1.0 + z * z / total
    center = (p + z * z / (2 * total)) / denom
    half = z * np.sqrt(p * (1 - p) / total + z * z / (4 * total * total)) / denom
    return (max(0.0, center - half), min(1.0, center + half))


@dataclass(eq=False)
class TrialMetrics:
    """Per-frame outcome for every reported receiver (same index order)."""

    xor_errors: np.ndarray  # (n_reported,)
    bits: int
    mse: np.ndarray  # (n_reported, 2)


@dataclass(eq=False)
class _TrialContext:
    """Static per-experiment objects shared by all trials."""

    cfg: ExperimentConfig
    frame_cfg: frame_mod.FrameConfig
    tone_map: frame_mod.ToneMap
    decoder: JointPairDecoder
    report_ks: tuple
    points: tuple[tuple[float, rx_mod.ReceiverConfig], ...]  # per SNR point: (sigma_n2, rx_cfg)


def _make_context(cfg: ExperimentConfig) -> _TrialContext:
    frame_cfg = frame_mod.default_config(cfg.modulation, cfg.m_symbols)
    ra_code = RaCode.build(frame_cfg.k_info, cfg.interleaver_seed)
    return _TrialContext(
        cfg=cfg,
        frame_cfg=frame_cfg,
        tone_map=frame_cfg.tone_map(),
        decoder=JointPairDecoder(ra_code, frame_cfg.constellation()),
        report_ks=tuple(k for _, k in cfg.reported()),
        points=_points(cfg, frame_cfg),
    )


def run_single_trial(ctx: _TrialContext, snr_idx: int, trial_idx: int) -> TrialMetrics:
    """One frame pair end to end; all reported receivers see the same samples."""
    cfg = ctx.cfg
    fc = ctx.frame_cfg
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, snr_idx, trial_idx])
    )
    tau = cfg.tau
    if tau is None:
        tau = int(rng.integers(0, chan_mod.max_delay(cfg.taps) + 1))
    cfo = np.zeros(2)
    if cfg.delta > 0:
        cfo = rng.uniform(-cfg.delta / 2, cfg.delta / 2, size=2)
    chan = chan_mod.sample_selective(cfg.taps, cfg.decay, rng, tau, cfo)

    info = rng.integers(0, 2, (2, fc.k_info))  # node A's row is drawn first
    coded = ra_encode(info, ctx.decoder.ra)
    frames = frame_mod.transmit_frame(coded, fc, ctx.tone_map, ctx.decoder.constellation)
    sigma_n2, rx_cfg = ctx.points[snr_idx]
    samples = chan_mod.simulate_uplink(frames, chan, sigma_n2, rng, fc)
    freq = rx_mod.demodulate(samples, fc)
    out = rx_mod.em_bp_receive(freq, chan, ctx.tone_map, ctx.decoder, rx_cfg)
    truth = chan_mod.phase_trajectory(chan, fc)
    true_xor = np.bitwise_xor(*info)
    errors = np.array(
        [int(np.sum(out.xor_history[k] != true_xor)) for k in ctx.report_ks]
    )
    mse = np.stack([mse_metric(out.theta_history[k], truth) for k in ctx.report_ks])
    return TrialMetrics(xor_errors=errors, bits=fc.k_info, mse=mse)


_WORKER_CTX: _TrialContext | None = None
_WORKER_NEXT = None  # the shared trial counter, in a pool worker


def _init_worker(ctx: _TrialContext, next_trial=None):
    global _WORKER_CTX, _WORKER_NEXT
    _WORKER_CTX = ctx
    _WORKER_NEXT = next_trial


def _end_trials(next_trial, stop) -> None:
    """Set the shared counter to stop, so no process starts another trial."""
    with next_trial.get_lock():
        next_trial.value = stop


def _take_trials(ctx, next_trial, snr_idx, stop) -> list[tuple[int, TrialMetrics]]:
    """Run the trials whose index this process takes from next_trial until
    it reaches stop.  A trial that raises sets the counter to stop, so no
    process starts another one."""
    done = []
    while True:
        with next_trial.get_lock():
            trial_idx = next_trial.value
            if trial_idx >= stop:
                return done
            next_trial.value = trial_idx + 1
        try:
            done.append((trial_idx, run_single_trial(ctx, snr_idx, trial_idx)))
        except BaseException:
            _end_trials(next_trial, stop)
            raise


def _worker_trials(snr_idx, stop) -> list[tuple[int, TrialMetrics]]:
    return _take_trials(_WORKER_CTX, _WORKER_NEXT, snr_idx, stop)


@contextlib.contextmanager
def trial_runner(cfg: ExperimentConfig):
    """Yield ``(ctx, run)``: ``run(snr_idx, start, stop)`` returns the
    TrialMetrics of trials [start, stop) of one SNR point, in trial order.
    The calling process and min(jobs, trials_per_snr, usable CPUs) - 1 pool
    workers, one task each per call, take the trial indices from one shared
    counter, so the list is the same for any jobs.  A failed trial, or a
    dead worker (BrokenProcessPool), stops every process from starting
    another; the pool stops at the end of the with block, after each
    worker's trial in progress, on an error or interrupt too."""
    ctx = _make_context(cfg)
    next_trial = multiprocessing.Value("q", 0)
    pool = None
    # a worker past the trial cap would get no trial, one past the CPUs the
    # process may run on (its affinity set) would only queue for them
    workers = min(cfg.jobs, cfg.trials_per_snr, len(os.sched_getaffinity(0))) - 1
    if workers > 0:
        pool = ProcessPoolExecutor(workers, initializer=_init_worker, initargs=(ctx, next_trial))

    def run(snr_idx: int, start: int, stop: int) -> list[TrialMetrics]:
        def end_on_failure(part):  # results skip it: it may run after the next call starts
            if not part.cancelled() and part.exception() is not None:
                _end_trials(next_trial, stop)

        next_trial.value = start
        parts = [pool.submit(_worker_trials, snr_idx, stop) for _ in range(workers)]
        for part in parts:
            part.add_done_callback(end_on_failure)
        done = _take_trials(ctx, next_trial, snr_idx, stop)
        done += [d for part in parts for d in part.result()]
        return [m for _, m in sorted(done, key=lambda d: d[0])]

    try:
        yield ctx, run
    finally:
        if pool is not None:
            pool.shutdown(cancel_futures=True)


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the sweep: per SNR, run trials until the error-count policy
    (>= min_errors XOR-bit errors for every reported receiver, after at
    least min_frames frames) or the trial cap is met, whichever comes first.

    The policy is checked only at multiples of _BATCH frames (and at the
    cap), so the trials run never depend on jobs.  One frame adds at most
    k_info errors per receiver, so each check runs every trial up to the
    first such multiple at which the policy could hold, as one trial_runner
    call, and sums the results in trial order.

    A point stops on the fewest errors over all reported receivers, so a
    change to the em_bp receiver alone can change how many frames an
    adaptively stopped point runs, and with them its baseline rows; only a
    point that runs to its trial cap keeps them."""
    reported = cfg.reported()
    n_rep = len(reported)
    result = ExperimentResult()
    with trial_runner(cfg) as (ctx, run):
        k_info = ctx.frame_cfg.k_info
        for snr_idx, snr_db in enumerate(cfg.snr_db_list):
            t0 = time.perf_counter()
            errors = np.zeros(n_rep, dtype=np.int64)
            mse_sum = np.zeros((n_rep, 2))
            bits = 0
            frames = 0
            while True:
                shortfall = -(-(cfg.min_errors - int(errors.min())) // k_info)
                need = min(max(cfg.min_frames, 1, frames + shortfall), cfg.trials_per_snr)
                if need <= frames:  # the policy holds, or the cap is met
                    break
                stop = min(-(-need // _BATCH) * _BATCH, cfg.trials_per_snr)
                for m in run(snr_idx, frames, stop):
                    errors += m.xor_errors
                    mse_sum += m.mse
                    bits += m.bits
                    frames += 1
            elapsed = time.perf_counter() - t0
            for i, (name, k) in enumerate(reported):
                result.rows.append(
                    ResultRow(
                        receiver=name,
                        em_iters=k,
                        snr_db=snr_db,
                        ber=errors[i] / bits,
                        mse_a=mse_sum[i, 0] / frames,
                        mse_b=mse_sum[i, 1] / frames,
                        bits=bits,
                        frames=frames,
                        seconds=elapsed,
                        errors=int(errors[i]),
                    )
                )
    # deterministic row order: receiver block first, SNR ascending inside
    order = {rep: i for i, rep in enumerate(reported)}
    result.rows.sort(key=lambda r: (order[(r.receiver, r.em_iters)], r.snr_db))
    return result


# every ResultRow field but errors is a CSV column, read back by its annotation
_CSV_TYPES = {f.name: f.type for f in fields(ResultRow) if f.name != "errors"}
CSV_COLUMNS = tuple(_CSV_TYPES)


def emit_csv(result: ExperimentResult, path: str) -> None:
    """Write one row per (receiver, em_iters, snr); floats use shortest
    round-trip decimal form, so parsing recovers them exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in result.rows:
            writer.writerow(
                repr(float(getattr(r, name))) if cast is float else getattr(r, name)
                for name, cast in _CSV_TYPES.items()
            )


def parse_csv(path: str) -> list[ResultRow]:
    """Inverse of emit_csv.  errors is no column, but ber = errors / bits
    rounds to the nearest float, so round(ber * bits) is the count exactly."""
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        rows = (ResultRow(**{n: cast(rec[n]) for n, cast in _CSV_TYPES.items()}) for rec in reader)
        return [replace(r, errors=round(r.ber * r.bits)) for r in rows]


def _ini_parser(hint, none: str = "", lowercase: bool = False):
    """Parser of one stripped INI value into a field annotated ``hint``."""
    if typing.get_origin(hint) is types.UnionType:  # T | None
        (inner,) = (t for t in typing.get_args(hint) if t is not type(None))
        parse = _ini_parser(inner)
        return lambda raw: None if raw.lower() == none else parse(raw)
    if typing.get_origin(hint) is tuple:  # tuple[T, ...], a comma list
        parse = _ini_parser(typing.get_args(hint)[0], lowercase=lowercase)
        return lambda raw: tuple(parse(s.strip()) for s in raw.split(",") if s.strip())
    return str.lower if lowercase else hint


# (section, key) of the experiment file -> (ExperimentConfig field, parser);
# configparser has already stripped the raw values
_INI_KEYS = {
    (f.metadata["section"], f.metadata["key"] or f.name): (
        f.name,
        _ini_parser(f.type, f.metadata["none"], f.metadata["lowercase"]),
    )
    for f in fields(ExperimentConfig)
}


def load_config(path: str) -> ExperimentConfig:
    """Read the key = value experiment file (sections mirror the modules).

    Every section and key must appear in ``_INI_KEYS``; ``;`` also starts an
    inline comment, and ``%`` is a literal character.  ``[DEFAULT]`` is no
    special section, so it is an unknown one.  A missing file raises
    FileNotFoundError, anything else that is not a valid experiment raises
    ValueError.
    """
    # no header can name the empty default section
    parser = configparser.ConfigParser(
        inline_comment_prefixes=(";",), interpolation=None, default_section=""
    )
    sections = dict.fromkeys(section for section, _ in _INI_KEYS)
    kw = {}
    try:
        if not parser.read(path):
            raise FileNotFoundError(path)
        for section in parser.sections():
            if section not in sections:
                raise ValueError(f"unknown section [{section}]; valid: {', '.join(sections)}")
            for key, raw in parser[section].items():
                if (section, key) not in _INI_KEYS:
                    valid = ", ".join(k for s, k in _INI_KEYS if s == section)
                    raise ValueError(f"unknown key {key!r} in [{section}]; valid keys: {valid}")
                name, parse = _INI_KEYS[section, key]
                try:
                    kw[name] = parse(raw)
                except ValueError as exc:
                    raise ValueError(f"[{section}] {key} = {raw!r}: {exc}") from None
    except configparser.Error as exc:
        raise ValueError(str(exc)) from None
    return ExperimentConfig(**kw)


def with_overrides(cfg: ExperimentConfig, **overrides) -> ExperimentConfig:
    """Config with CLI overrides applied (None values are ignored)."""
    actual = {k: v for k, v in overrides.items() if v is not None}
    return replace(cfg, **actual)
