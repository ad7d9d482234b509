"""Monte Carlo experiment driver: SNR sweeps, BER/MSE metrics, CSV output.

Every trial draws a fresh channel, CFO pair, delay, and payload, then runs
all configured receivers on the identical received samples (the EM-BP run
at the largest requested iteration count also yields every smaller count,
including the pilot-only baseline, from its per-iteration history).  Trial
RNG streams are derived from (master_seed, snr index, trial index), so
results are bit-identical whether trials run serially or in parallel.
"""

from __future__ import annotations

import configparser
import csv
import multiprocessing
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import channel as chan_mod
from . import frame as frame_mod
from . import receiver as rx_mod
from .codec import JointPairDecoder, RaCode, ra_encode

_BATCH = 8  # stop-condition check granularity; fixed so results never depend on jobs


@dataclass(frozen=True)
class ExperimentConfig:
    """Full description of one Monte Carlo sweep."""

    snr_db_list: tuple = (4.0, 6.0, 8.0, 10.0, 12.0)
    trials_per_snr: int = 1000
    min_errors: int = 100
    # one lost frame contributes ~k_info/2 XOR errors, so burst-dominated
    # points can hit min_errors after a handful of frames; a frame floor
    # keeps such points statistically meaningful
    min_frames: int = 1
    modulation: str = frame_mod.QPSK
    m_symbols: int = 10
    interleaver_seed: int = 2024
    channel_kind: str = "flat"  # "flat" or "selective"
    n_taps: int = 4
    decay: float = 1.0
    delta: float = 0.1
    tau: int | None = None  # None draws uniformly from the CP-safe range
    receivers: tuple = ("baseline", "em_bp")
    em_bp_k: tuple = (7,)
    bp_iters: int = 20
    particle_rounds: int = 4
    particle_l: int = 10
    particle_shrink: float = 0.1
    em_refine_passes: int = 0
    sigma_w2_override: float | None = None
    noiseless: bool = False
    master_seed: int = 1
    output_path: str = "result.csv"
    jobs: int = 1

    def __post_init__(self):
        """Reject every invalid setting here, before the first trial runs."""
        snrs = self.snr_db_list
        if not snrs or not all(np.isfinite(snrs)) or len(set(snrs)) != len(snrs):
            raise ValueError(f"snr list must be non-empty, finite and distinct, got {snrs}")
        if self.trials_per_snr < 1:
            raise ValueError("trials_per_snr must be >= 1")
        if self.min_errors < 0 or self.min_frames < 0:
            raise ValueError("min_errors and min_frames must be >= 0")
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.master_seed < 0 or self.interleaver_seed < 0:
            raise ValueError("master_seed and interleaver_seed must be >= 0")
        if not 0 <= self.delta < np.inf:
            raise ValueError("delta must be finite and >= 0")
        if not 0 <= self.decay < np.inf:
            raise ValueError("decay must be finite and >= 0")
        if self.channel_kind not in ("flat", "selective"):
            raise ValueError(f"unknown channel kind {self.channel_kind!r}")
        frame_cfg = frame_mod.default_config(self.modulation, self.m_symbols, 0)
        # node B's delayed taps must end inside the cyclic prefix
        taps = self.n_taps if self.channel_kind == "selective" else 1
        if not 1 <= taps <= frame_cfg.n_cp + 1:
            raise ValueError(f"taps must lie in [1, {frame_cfg.n_cp + 1}]")
        if self.tau is not None and not 0 <= self.tau <= frame_cfg.n_cp + 1 - taps:
            raise ValueError(f"tau must lie in [0, {frame_cfg.n_cp + 1 - taps}] for {taps} taps")
        bad = set(self.receivers) - {"baseline", "em_bp"}
        if bad:
            raise ValueError(f"unknown receivers {sorted(bad)}")
        if not self.receivers:
            raise ValueError("at least one receiver must be configured")
        if "em_bp" in self.receivers and not self.em_bp_k:
            raise ValueError("em_bp requested but no iteration counts given")
        if any(k < 1 for k in self.em_bp_k):
            raise ValueError("em_bp iteration counts must be >= 1")
        self.receiver_config(sigma_n2=0.0)  # bp/particle/refine/sigma_w2 checks

    def reported(self) -> list[tuple[str, int]]:
        """(receiver label, em iteration count) rows, in output order."""
        rows = []
        if "baseline" in self.receivers:
            rows.append(("baseline", 0))
        if "em_bp" in self.receivers:
            rows.extend(("em_bp", k) for k in sorted(self.em_bp_k))
        return rows

    def receiver_config(self, sigma_n2: float) -> rx_mod.ReceiverConfig:
        """Receiver tunables for one SNR point, run to the largest reported K."""
        sigma_w2 = self.sigma_w2_override
        if sigma_w2 is None:
            sigma_w2 = rx_mod.effective_noise_var(sigma_n2, self.delta)
        return rx_mod.ReceiverConfig(
            sigma_w2=sigma_w2,
            em_iters=max(k for _, k in self.reported()),
            bp_iters=self.bp_iters,
            particle_rounds=self.particle_rounds,
            particle_l=self.particle_l,
            particle_shrink=self.particle_shrink,
            em_refine_passes=self.em_refine_passes,
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
    config: ExperimentConfig
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


def _make_context(cfg: ExperimentConfig) -> _TrialContext:
    ks = tuple(k for _, k in cfg.reported())
    frame_cfg = frame_mod.default_config(cfg.modulation, cfg.m_symbols, max(ks))
    ra_code = RaCode.build(frame_cfg.k_info, cfg.interleaver_seed)
    return _TrialContext(
        cfg=cfg,
        frame_cfg=frame_cfg,
        tone_map=frame_cfg.tone_map(),
        decoder=JointPairDecoder(ra_code, frame_cfg.constellation()),
        report_ks=ks,
    )


def run_single_trial(
    ctx: _TrialContext, snr_idx: int, trial_idx: int, sigma_n2: float
) -> TrialMetrics:
    """One frame pair end to end; all reported receivers see the same samples."""
    cfg = ctx.cfg
    fc = ctx.frame_cfg
    rng = np.random.default_rng(
        np.random.SeedSequence([cfg.master_seed, snr_idx, trial_idx])
    )
    if cfg.channel_kind == "flat":
        n_taps_b = 1
        draw = lambda tau, ca, cb: chan_mod.sample_flat(rng, tau, ca, cb)
    else:
        n_taps_b = cfg.n_taps
        draw = lambda tau, ca, cb: chan_mod.sample_selective(
            cfg.n_taps, cfg.decay, rng, tau, ca, cb
        )
    if cfg.tau is None:
        tau = int(rng.integers(0, fc.n_cp - n_taps_b + 2))
    else:
        tau = cfg.tau
    if cfg.delta > 0:
        cfo_a, cfo_b = rng.uniform(-cfg.delta / 2, cfg.delta / 2, size=2)
    else:
        cfo_a = cfo_b = 0.0
    chan = draw(tau, cfo_a, cfo_b)

    info_a = rng.integers(0, 2, fc.k_info)
    info_b = rng.integers(0, 2, fc.k_info)
    frame_a = frame_mod.transmit_frame(
        ra_encode(info_a, ctx.decoder.ra), fc, ctx.tone_map, ctx.decoder.constellation, "a"
    )
    frame_b = frame_mod.transmit_frame(
        ra_encode(info_b, ctx.decoder.ra), fc, ctx.tone_map, ctx.decoder.constellation, "b"
    )
    samples = chan_mod.simulate_uplink(
        frame_a, frame_b, chan, chan_mod.NoiseModel(sigma_n2), rng, fc
    )
    freq = rx_mod.demodulate(samples, fc)
    rx_cfg = cfg.receiver_config(sigma_n2)
    out = rx_mod.em_bp_receive(freq, chan, ctx.tone_map, ctx.decoder, rx_cfg)
    truth = chan_mod.phase_trajectory(chan, fc)
    true_xor = np.bitwise_xor(info_a, info_b)
    errors = np.array(
        [int(np.sum(out.xor_history[k] != true_xor)) for k in ctx.report_ks]
    )
    mse = np.stack([mse_metric(out.theta_history[k], truth) for k in ctx.report_ks])
    return TrialMetrics(xor_errors=errors, bits=fc.k_info, mse=mse)


_WORKER_CTX: _TrialContext | None = None


def _init_worker(ctx: _TrialContext):
    global _WORKER_CTX
    _WORKER_CTX = ctx


def _worker_trial(args) -> TrialMetrics:
    snr_idx, trial_idx, sigma_n2 = args
    return run_single_trial(_WORKER_CTX, snr_idx, trial_idx, sigma_n2)


def _sigma_n2_for(cfg: ExperimentConfig, frame_cfg: frame_mod.FrameConfig, snr_db: float) -> float:
    if cfg.noiseless:
        return 0.0
    return chan_mod.NoiseModel.from_ebn0_db(
        snr_db, 1.0 / frame_cfg.code_rate_inv, frame_cfg.bits_per_symbol
    ).sigma_n2


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Execute the sweep: per SNR, run trials until the error-count policy
    (>= min_errors XOR-bit errors for every reported receiver) or the trial
    cap is met, whichever comes first."""
    ctx = _make_context(cfg)
    reported = cfg.reported()
    n_rep = len(reported)
    result = ExperimentResult(config=cfg)
    pool = None
    if cfg.jobs > 1:
        pool = multiprocessing.Pool(cfg.jobs, initializer=_init_worker, initargs=(ctx,))
    try:
        for snr_idx, snr_db in enumerate(cfg.snr_db_list):
            sigma_n2 = _sigma_n2_for(cfg, ctx.frame_cfg, snr_db)
            t0 = time.perf_counter()
            errors = np.zeros(n_rep, dtype=np.int64)
            mse_sum = np.zeros((n_rep, 2))
            bits = 0
            frames = 0
            while frames < cfg.trials_per_snr and (
                frames < cfg.min_frames
                or frames == 0
                or int(errors.min()) < cfg.min_errors
            ):
                batch = range(frames, min(frames + _BATCH, cfg.trials_per_snr))
                tasks = [(snr_idx, t, sigma_n2) for t in batch]
                if pool is not None:
                    metrics = pool.map(_worker_trial, tasks)
                else:
                    metrics = [run_single_trial(ctx, *t) for t in tasks]
                for m in metrics:
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
    finally:
        if pool is not None:
            pool.close()
            pool.join()
    # deterministic row order: receiver block first, SNR ascending inside
    order = {rep: i for i, rep in enumerate(reported)}
    result.rows.sort(key=lambda r: (order[(r.receiver, r.em_iters)], r.snr_db))
    return result


CSV_COLUMNS = ("receiver", "em_iters", "snr_db", "ber", "mse_a", "mse_b", "bits", "frames", "seconds")


def emit_csv(result: ExperimentResult, path: str) -> None:
    """Write one row per (receiver, em_iters, snr); floats use shortest
    round-trip decimal form, so parsing recovers them exactly."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in result.rows:
            writer.writerow(
                [
                    r.receiver,
                    r.em_iters,
                    repr(float(r.snr_db)),
                    repr(float(r.ber)),
                    repr(float(r.mse_a)),
                    repr(float(r.mse_b)),
                    r.bits,
                    r.frames,
                    repr(float(r.seconds)),
                ]
            )


def parse_csv(path: str) -> list[ResultRow]:
    """Inverse of emit_csv (errors are not serialized and read back as 0)."""
    rows = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if tuple(reader.fieldnames or ()) != CSV_COLUMNS:
            raise ValueError(f"unexpected CSV header in {path}")
        for rec in reader:
            rows.append(
                ResultRow(
                    receiver=rec["receiver"],
                    em_iters=int(rec["em_iters"]),
                    snr_db=float(rec["snr_db"]),
                    ber=float(rec["ber"]),
                    mse_a=float(rec["mse_a"]),
                    mse_b=float(rec["mse_b"]),
                    bits=int(rec["bits"]),
                    frames=int(rec["frames"]),
                    seconds=float(rec["seconds"]),
                )
            )
    return rows


def _csv(cast):
    return lambda raw: tuple(cast(s.strip()) for s in raw.split(",") if s.strip())


def _none_if(word: str, cast):
    return lambda raw: None if raw.lower() == word else cast(raw)


def _bool(raw: str) -> bool:
    if raw.lower() not in configparser.ConfigParser.BOOLEAN_STATES:
        raise ValueError("not a boolean")
    return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]


# (section, key) of the experiment file -> (ExperimentConfig field, parser);
# configparser has already stripped the raw values
_INI_KEYS = {
    ("frame", "modulation"): ("modulation", str.lower),
    ("frame", "m_symbols"): ("m_symbols", int),
    ("code", "interleaver_seed"): ("interleaver_seed", int),
    ("channel", "kind"): ("channel_kind", str.lower),
    ("channel", "taps"): ("n_taps", int),
    ("channel", "decay"): ("decay", float),
    ("channel", "delta"): ("delta", float),
    ("channel", "tau"): ("tau", _none_if("random", int)),
    ("receiver", "receivers"): ("receivers", _csv(str)),
    ("receiver", "em_bp_k"): ("em_bp_k", _csv(int)),
    ("receiver", "bp_iters"): ("bp_iters", int),
    ("receiver", "particle_rounds"): ("particle_rounds", int),
    ("receiver", "particle_l"): ("particle_l", int),
    ("receiver", "particle_shrink"): ("particle_shrink", float),
    ("receiver", "em_refine_passes"): ("em_refine_passes", int),
    ("receiver", "sigma_w2"): ("sigma_w2_override", _none_if("auto", float)),
    ("run", "snr_db"): ("snr_db_list", _csv(float)),
    ("run", "trials_per_snr"): ("trials_per_snr", int),
    ("run", "min_errors"): ("min_errors", int),
    ("run", "min_frames"): ("min_frames", int),
    ("run", "noiseless"): ("noiseless", _bool),
    ("run", "master_seed"): ("master_seed", int),
    ("run", "out"): ("output_path", str),
    ("run", "jobs"): ("jobs", int),
}


def load_config(path: str) -> ExperimentConfig:
    """Read the key = value experiment file (sections mirror the modules).

    Every section and key must appear in ``_INI_KEYS``; ``;`` also starts an
    inline comment.  A missing file raises FileNotFoundError, anything else
    that is not a valid experiment raises ValueError.
    """
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
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
