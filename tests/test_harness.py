"""Tests for the experiment driver, metrics, CSV output, and CLI."""

import configparser
import dataclasses
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

from pncsim import channel, cli, harness
from pncsim.frame import FrameConfig, default_config
from pncsim.harness import (
    _INI_KEYS,
    CSV_COLUMNS,
    ExperimentConfig,
    emit_csv,
    load_config,
    mse_metric,
    parse_csv,
    run_experiment,
    wilson_interval,
    with_overrides,
)
from pncsim.receiver import ReceiverConfig

ROOT = Path(__file__).resolve().parents[1]


class TestMseMetric:
    def test_identical_zero(self):
        t = np.random.default_rng(0).uniform(0, 2 * np.pi, (6, 2))
        np.testing.assert_allclose(mse_metric(t, t), 0.0, atol=1e-15)

    def test_antipodal_four(self):
        t = np.random.default_rng(1).uniform(0, 2 * np.pi, (6, 2))
        np.testing.assert_allclose(mse_metric(t + np.pi, t), 4.0, atol=1e-12)

    def test_wrap_invariance(self):
        t = np.random.default_rng(2).uniform(0, 2 * np.pi, (6, 2))
        np.testing.assert_allclose(mse_metric(t + 2 * np.pi, t), 0.0, atol=1e-12)

    def test_per_node_split(self):
        t = np.zeros((4, 2))
        est = t.copy()
        est[:, 1] += np.pi
        np.testing.assert_allclose(mse_metric(est, t), [0.0, 4.0], atol=1e-12)

    def test_rejects_mismatch(self):
        with pytest.raises(ValueError):
            mse_metric(np.zeros((3, 2)), np.zeros((4, 2)))


class TestWilson:
    def test_zero_errors(self):
        lo, hi = wilson_interval(0, 1000)
        assert lo == 0.0 and 0.0 < hi < 0.01

    def test_contains_point_estimate(self):
        lo, hi = wilson_interval(17, 300)
        assert lo < 17 / 300 < hi

    def test_shrinks_with_n(self):
        w1 = np.diff(wilson_interval(10, 100))
        w2 = np.diff(wilson_interval(100, 1000))
        assert w2 < w1


class TestExperimentConfig:
    def test_rejects_empty_snr(self):
        with pytest.raises(ValueError):
            ExperimentConfig(snr_db_list=())

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            ExperimentConfig(trials_per_snr=0)

    def test_rejects_negative_delta(self):
        with pytest.raises(ValueError):
            ExperimentConfig(delta=-0.1)

    def test_rejects_unknown_receiver(self):
        with pytest.raises(ValueError):
            ExperimentConfig(receivers=("baseline", "zf"))

    def test_reported_order(self):
        cfg = ExperimentConfig(em_bp_k=(7, 1))
        assert cfg.reported() == [("baseline", 0), ("em_bp", 1), ("em_bp", 7)]

    def test_trial_size_limit(self):
        """A config whose trial would hold more than TRIAL_BYTES_LIMIT bytes of
        arrays is refused; the particle search counts only with an M-step."""
        with pytest.raises(ValueError, match=r"one trial needs [\d.]+ GiB, over the 2 GiB limit"):
            ExperimentConfig(particle_l=3000)
        ExperimentConfig(particle_l=3000, receivers=("baseline",))
        ExperimentConfig(particle_l=1000)


def _tiny_config(**kw):
    defaults = dict(
        snr_db_list=(6.0,),
        trials_per_snr=4,
        min_errors=10**9,
        m_symbols=2,
        em_bp_k=(1,),
        master_seed=9,
    )
    defaults.update(kw)
    return ExperimentConfig(**defaults)


class _Drawn(Exception):
    """Ends a trial once its channel is drawn."""


@pytest.mark.parametrize("taps", range(1, FrameConfig.n_cp + 2))
def test_cp_delay_rule_is_shared(tmp_path, monkeypatch, taps):
    """The config check, the random draw and the uplink accept the same
    delays: node B's last tap may reach the last CP sample, no further."""
    tau_max = FrameConfig.n_cp + 1 - taps
    path = tmp_path / "exp.ini"
    path.write_text(f"[channel]\nkind = selective\ntaps = {taps}\ntau = {tau_max}\n")
    assert load_config(path).tau == tau_max
    path.write_text(f"[channel]\nkind = selective\ntaps = {taps}\ntau = {tau_max + 1}\n")
    monkeypatch.setattr(harness, "run_experiment", lambda cfg: pytest.fail("ran trials"))
    assert cli.main(["run", str(path)]) == 2

    fc = default_config("qpsk", 1)
    frame = np.zeros(fc.m_symbols * fc.n_s, dtype=complex)
    rng = np.random.default_rng(taps)
    for tau in range(tau_max + 2):
        chan = channel.sample_selective(taps, 0.5, rng, tau)
        if tau <= tau_max:
            channel.simulate_uplink((frame, frame), chan, 0.1, rng, fc)
        else:
            with pytest.raises(ValueError, match="cyclic prefix"):
                channel.simulate_uplink((frame, frame), chan, 0.1, rng, fc)

    drawn = []

    def record(n_taps, decay, rng, tau, *cfo):
        drawn.append(tau)
        raise _Drawn

    monkeypatch.setattr(channel, "sample_selective", record)
    ctx = harness._make_context(_tiny_config(channel_kind="selective", n_taps=taps, tau=None))
    for trial_idx in range(300):
        with pytest.raises(_Drawn):
            harness.run_single_trial(ctx, 0, trial_idx)
    assert set(drawn) == set(range(tau_max + 1))


# (receiver, em_iters, snr_db, errors, bits, frames, mse_a, mse_b) per row of
# each pinned-seed run of TestRunExperiment.test_pinned_seed_golden
_GOLDEN_ROWS = {
    "tiny-selective": [
        ("baseline", 0, 6.0, 57, 256, 4, 0.4033697682690225, 0.09243666901104974),
        ("baseline", 0, 10.0, 0, 256, 4, 0.02165348458046274, 0.06506893837894917),
        ("em_bp", 1, 6.0, 47, 256, 4, 0.3248138249482496, 0.026782881058414792),
        ("em_bp", 1, 10.0, 0, 256, 4, 0.0023740084267349524, 0.0013359237173776405),
        ("em_bp", 2, 6.0, 43, 256, 4, 0.33355341290137647, 0.016240280031217913),
        ("em_bp", 2, 10.0, 0, 256, 4, 0.002631000721252815, 0.0008944252909650842),
    ],
    "flat-qpsk-em7": [
        ("baseline", 0, 8.0, 1254, 7680, 24, 0.20714726075508172, 0.2380986899457508),
        ("em_bp", 1, 8.0, 1205, 7680, 24, 0.18549875348447545, 0.2138000224935542),
        ("em_bp", 7, 8.0, 1157, 7680, 24, 0.17760590241942453, 0.21228154674192778),
    ],
    "bpsk-pilot-only": [
        ("baseline", 0, 8.0, 647, 3840, 24, 0.3415182058195861, 0.3349610224299652),
    ],
    "selective-refine-sweep": [
        ("baseline", 0, 6.0, 1554, 7680, 24, 0.16177894773591026, 0.17720330240440643),
        ("baseline", 0, 10.0, 274, 7680, 24, 0.07983356145508118, 0.1317950328924206),
        ("em_bp", 1, 6.0, 1066, 7680, 24, 0.0946997714671524, 0.09962201832055163),
        ("em_bp", 1, 10.0, 134, 7680, 24, 0.029813847693346645, 0.06626814233148291),
        ("em_bp", 7, 6.0, 367, 7680, 24, 0.06286592827410808, 0.026213447108749108),
        ("em_bp", 7, 10.0, 111, 7680, 24, 0.036030656669552734, 0.05820279112481715),
    ],
}


# `pnc-sim run` on argv[2:] whose every process, on its first trial, leaves
# a file named by its pid in the directory argv[1]
_MARKED_CLI = """
import os, sys
from pncsim import cli, harness
trial = harness.run_single_trial
def marked(ctx, snr_idx, trial_idx):
    open(os.path.join(sys.argv[1], str(os.getpid())), "w").close()
    return trial(ctx, snr_idx, trial_idx)
harness.run_single_trial = marked
sys.exit(cli.main(sys.argv[2:]))
"""


def _group_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


class TestRunExperiment:
    def test_noiseless_zero_cfo_ber_zero(self):
        cfg = _tiny_config(snr_db_list=(math.inf,), delta=0.0, trials_per_snr=10)
        result = run_experiment(cfg)
        for row in result.rows:
            assert row.ber == 0.0
            assert row.frames == 10

    def test_seed_determinism_bit_identical_csv(self, tmp_path):
        """Identical config and seed reproduce the CSV bit for bit, apart
        from the wall-time column, which is observability metadata and not
        part of the deterministic result."""
        cfg = _tiny_config(trials_per_snr=6)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        emit_csv(run_experiment(cfg), p1)
        emit_csv(run_experiment(cfg), p2)

        def strip_seconds(path):
            lines = path.read_text().splitlines()
            return [",".join(line.split(",")[:-1]) for line in lines]

        assert strip_seconds(p1) == strip_seconds(p2)

    def test_parallel_matches_serial(self, monkeypatch):
        """Every row field but the wall time agrees for jobs = 1, 2 and 3
        (the calling process and up to two workers sharing the trial
        counter, with three usable CPUs), and the rule stops a point only
        at a multiple of the batch size."""
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        cases = [
            dict(trials_per_snr=6),
            # min_errors unreachable: 3 batches, the last one short
            dict(trials_per_snr=20),
            # stopped by min_errors after min_frames, before the cap
            dict(trials_per_snr=64, min_frames=16, min_errors=450),
            # the error floor (700 / k_info frames), not min_frames, sets the
            # first submission; stopped after four more
            dict(trials_per_snr=64, min_frames=8, min_errors=700),
            # high SNR: few errors per frame, stopped after six more submissions
            dict(snr_db_list=(12.0,), trials_per_snr=64, min_errors=200),
            # no frame floor and no error target: one batch, as at least one
            # frame must run
            dict(trials_per_snr=20, min_frames=0, min_errors=0),
        ]
        untimed = lambda rows: [dataclasses.replace(r, seconds=0.0) for r in rows]
        for kw in cases:
            cfg = _tiny_config(**kw)
            serial = run_experiment(cfg)
            for jobs in (2, 3):
                parallel = run_experiment(with_overrides(cfg, jobs=jobs))
                assert untimed(serial.rows) == untimed(parallel.rows)
            frames = serial.rows[0].frames
            if cfg.min_errors == 0:
                assert frames == harness._BATCH
            elif cfg.min_errors < 10**9:
                assert cfg.min_frames < frames < cfg.trials_per_snr
                assert frames % harness._BATCH == 0
            else:
                assert frames == cfg.trials_per_snr

    @pytest.fixture
    def thread_pool(self, monkeypatch):
        """Replace the process pool by a thread pool that logs the worker
        count, every check's tasks, and every trial the calling process or
        a worker thread runs, in the order they happen.  The process may
        use 64 CPUs, so only jobs and the trial cap bound the workers."""
        log = {"workers": [], "events": []}
        caller = threading.get_ident()
        trial = harness.run_single_trial

        def logged_trial(ctx, snr_idx, trial_idx):
            log["events"].append(("trial", snr_idx, trial_idx, threading.get_ident() == caller))
            return trial(ctx, snr_idx, trial_idx)

        class LoggedPool(ThreadPoolExecutor):
            """Logs a check at a call's first task; the call's other tasks
            join it, until it holds one task per worker."""

            def __init__(self, max_workers, initializer, initargs):
                log["workers"].append(max_workers)
                super().__init__(max_workers, initializer=initializer, initargs=initargs)
                self.tasks = None

            def submit(self, fn, *args):
                if self.tasks is None or len(self.tasks) == self._max_workers:
                    self.tasks = []
                    log["events"].append(("check", self.tasks))
                self.tasks.append(args)
                return super().submit(fn, *args)

        monkeypatch.setattr(harness, "_WORKER_CTX", None)
        monkeypatch.setattr(harness, "_WORKER_NEXT", None)
        monkeypatch.setattr(harness, "run_single_trial", logged_trial)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", LoggedPool)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)))
        return log

    @staticmethod
    def _checks(log):
        """[(tasks, ids of the trials run until the next check)] per check."""
        checks = []
        for event in log["events"]:
            if event[0] == "check":
                checks.append((event[1], []))
            else:
                checks[-1][1].append(event[2])
        return checks

    def test_dispatch_submits_until_rule_can_hold(self, thread_pool):
        """Each check sends one task per worker, and the calling process and
        the workers run every trial up to the first multiple of _BATCH at
        which the stopping rule could hold, each exactly once; no trial
        past the stop point runs."""
        batch = harness._BATCH
        cfg = _tiny_config(snr_db_list=(6.0, 10.0), trials_per_snr=20, jobs=2)
        result = run_experiment(cfg)
        checks = self._checks(thread_pool)
        assert [tasks for tasks, _ in checks] == [[(0, 20)], [(1, 20)]]
        assert [sorted(ids) for _, ids in checks] == [list(range(20))] * 2
        assert [r.frames for r in result.rows] == [20] * len(result.rows)

        k_info = result.rows[0].bits // result.rows[0].frames
        for jobs in (2, 3):
            for kw in (
                dict(min_frames=8, min_errors=700),  # error floor sets the first block
                dict(min_frames=24, min_errors=700),  # min_frames sets it
                dict(snr_db_list=(12.0,), min_errors=200),
            ):
                thread_pool["events"].clear()
                cfg = _tiny_config(trials_per_snr=64, jobs=jobs, **kw)
                frames = run_experiment(cfg).rows[0].frames
                checks = self._checks(thread_pool)
                assert len(checks) > 1 and frames < cfg.trials_per_snr
                first = max(cfg.min_frames, 1, -(-cfg.min_errors // k_info))
                start = 0
                for i, (tasks, ids) in enumerate(checks):
                    assert len(tasks) == jobs - 1 and len(set(tasks)) == 1
                    stop = tasks[0][1]
                    if i == 0:
                        assert stop == min(-(-first // batch) * batch, cfg.trials_per_snr)
                    assert stop == cfg.trials_per_snr or stop % batch == 0
                    assert sorted(ids) == list(range(start, stop))
                    start = stop
                assert start == frames
        trials = [e for e in thread_pool["events"] if e[0] == "trial"]
        assert {in_caller for *_, in_caller in trials} == {True, False}

    def test_counter_hands_out_each_trial_once_under_contention(self, monkeypatch):
        """Seven worker threads and the calling process take 4000 instant
        trials on a short switch interval: a lost update of the shared
        counter would run a trial twice."""
        ran = []

        def instant_trial(ctx, snr_idx, trial_idx):
            ran.append(trial_idx)
            n_rep = len(ctx.report_ks)
            return harness.TrialMetrics(np.zeros(n_rep, dtype=np.int64), 1, np.zeros((n_rep, 2)))

        monkeypatch.setattr(harness, "_WORKER_CTX", None)
        monkeypatch.setattr(harness, "_WORKER_NEXT", None)
        monkeypatch.setattr(harness, "run_single_trial", instant_trial)
        monkeypatch.setattr(harness, "ProcessPoolExecutor", ThreadPoolExecutor)
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: set(range(64)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            result = run_experiment(_tiny_config(trials_per_snr=4000, jobs=8))
        finally:
            sys.setswitchinterval(interval)
        assert sorted(ran) == list(range(4000))
        assert result.rows[0].frames == 4000

    def test_workers_capped_by_trials(self, thread_pool):
        """The calling process is one of the jobs, and a worker past a
        point's trial cap would never get a trial, so min(jobs, trials) - 1
        workers start; with none to start, no pool is made."""
        run_experiment(_tiny_config(trials_per_snr=4, jobs=16))
        assert thread_pool["workers"] == [3]
        assert [len(tasks) for tasks, _ in self._checks(thread_pool)] == [3]
        thread_pool["events"].clear()
        run_experiment(_tiny_config(trials_per_snr=1, jobs=2))
        run_experiment(_tiny_config(trials_per_snr=4, jobs=1))
        assert thread_pool["workers"] == [3]
        assert not any(e[0] == "check" for e in thread_pool["events"])
        assert [e[2:] for e in thread_pool["events"]] == [(0, True)] + [(t, True) for t in range(4)]

    def test_workers_capped_by_usable_cpus(self, thread_pool, monkeypatch):
        """A jobs value far past the CPUs is accepted, and the pool gets one
        worker fewer than the CPUs the process may run on."""
        monkeypatch.setattr(harness.os, "sched_getaffinity", lambda pid: {0, 1, 2})
        result = run_experiment(_tiny_config(trials_per_snr=8, jobs=10**6))
        assert thread_pool["workers"] == [2]
        assert [len(tasks) for tasks, _ in self._checks(thread_pool)] == [2]
        assert result.rows[0].frames == 8

    @pytest.mark.parametrize("where", ["caller", "worker"])
    def test_failing_trial_raises_and_ends_the_pool(self, monkeypatch, where):
        """A trial that raises, in the calling process or in a pool worker,
        ends run_experiment with its exception, and no process is left
        running.  The trials on the other side sleep first, so the failing
        side takes an index, and the failure stops that side from taking
        most of the rest."""
        caller = os.getpid()
        trial = harness.run_single_trial
        others = multiprocessing.Value("i", 0)

        def failing_trial(ctx, snr_idx, trial_idx):
            if (os.getpid() == caller) == (where == "caller"):
                raise RuntimeError(f"trial {trial_idx} failed in the {where}")
            with others.get_lock():
                others.value += 1
            time.sleep(0.2)
            return trial(ctx, snr_idx, trial_idx)

        monkeypatch.setattr(harness, "run_single_trial", failing_trial)
        with pytest.raises(RuntimeError, match=f"failed in the {where}"):
            run_experiment(_tiny_config(trials_per_snr=24, jobs=2))
        assert multiprocessing.active_children() == []
        assert others.value < 12

    @pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2, reason="needs a pool worker")
    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGKILL], ids=["sigint", "sigkill"])
    def test_interrupt_ends_a_parallel_run(self, tmp_path, sig):
        """Once the calling process and the pool worker of a two-job
        ``pnc-sim run`` both run trials, SIGINT to its process group, as
        Ctrl-C sends it, ends the run by the interrupt within 20 s; SIGKILL
        to the worker alone, as the OOM killer sends it, fails the run with
        exit code 1 and BrokenProcessPool's message within 20 s, though the
        calling process has most of 10^6 trials left.  Either way no
        process of the group is left.  A run that waits for a dead task's
        result would wait forever; the subprocess timeout fails the test
        instead of hanging it."""
        marks = tmp_path / "marks"
        marks.mkdir()
        ini = tmp_path / "long.ini"
        ini.write_text(
            "[frame]\nmodulation = bpsk\nm_symbols = 2\n[receiver]\nreceivers = baseline\n"
            "[run]\nsnr_db = 8\ntrials_per_snr = 1000000\nmin_errors = 1000000000\njobs = 2\n"
        )
        err = tmp_path / "stderr.txt"
        with open(err, "w") as err_fh:
            proc = subprocess.Popen(
                [sys.executable, "-c", _MARKED_CLI, str(marks), "run", str(ini),
                 "--out", str(tmp_path / "out.csv")],
                env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
                start_new_session=True,
                stdout=subprocess.DEVNULL,
                stderr=err_fh,
            )
        try:
            deadline = time.monotonic() + 60
            while len(list(marks.iterdir())) < 2 and proc.poll() is None:
                assert time.monotonic() < deadline, "the run never started its trials"
                time.sleep(0.05)
            if sig == signal.SIGINT:
                os.killpg(proc.pid, signal.SIGINT)
                assert proc.wait(timeout=20) == -signal.SIGINT
            else:
                (worker,) = {int(mark.name) for mark in marks.iterdir()} - {proc.pid}
                os.kill(worker, signal.SIGKILL)
                assert proc.wait(timeout=20) == 1
                assert "terminated abruptly" in err.read_text()
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.wait()
        deadline = time.monotonic() + 5
        while _group_alive(proc.pid):  # an orphaned worker keeps the group
            assert time.monotonic() < deadline, "a process of the run outlived it"
            time.sleep(0.05)

    def test_trial_range_matches_serial_trials(self):
        """Trials [5, 13) of the second SNR point come back in trial order,
        bit for bit the same as serial run_single_trial calls, for jobs = 1,
        2 and 3."""
        cfg = _tiny_config(snr_db_list=(6.0, 10.0), trials_per_snr=16)
        with harness.trial_runner(cfg) as (ctx, _):
            serial = [harness.run_single_trial(ctx, 1, t) for t in range(5, 13)]
        assert len({m.mse.tobytes() for m in serial}) == 8  # the order shows
        for jobs in (1, 2, 3):
            with harness.trial_runner(with_overrides(cfg, jobs=jobs)) as (_, run):
                got = run(1, 5, 13)
            assert len(got) == len(serial)
            for g, s in zip(got, serial):
                assert np.array_equal(g.xor_errors, s.xor_errors) and g.bits == s.bits
                assert g.mse.tobytes() == s.mse.tobytes()
        assert multiprocessing.active_children() == []

    def test_error_count_policy_stops_early(self):
        cfg = _tiny_config(snr_db_list=(0.0,), trials_per_snr=200, min_errors=10)
        result = run_experiment(cfg)
        row = result.rows[0]
        assert row.errors >= 10
        assert row.frames < 200

    def test_paired_receivers_same_frames(self):
        cfg = _tiny_config(em_bp_k=(1, 2))
        result = run_experiment(cfg)
        frames = {r.frames for r in result.rows}
        bits = {r.bits for r in result.rows}
        assert len(frames) == 1 and len(bits) == 1

    def test_fixed_tau_respected(self):
        cfg = _tiny_config(tau=12, channel_kind="selective", trials_per_snr=3)
        run_experiment(cfg)  # delay-within-CP must hold for every trial

    @pytest.mark.parametrize("case", list(_GOLDEN_ROWS))
    def test_pinned_seed_golden(self, case):
        """Exact rows for a pinned seed: a refactor that claims to keep the
        CSV unchanged must reproduce them bit for bit, every field but
        ``seconds`` (``ber`` is ``errors / bits``).  The tiny config covers
        the baseline, the M-step and the refine path on a selective channel;
        the three benchmark workloads, at master seed 5 with 24 trials per
        point on two jobs, add flat QPSK, the BPSK pilot-only baseline
        (4-entry joint tables) and the stopping rule.  The workload rows
        were recorded once, with the two nodes still written out per node in
        the channel, frame, receiver and trial code.  The history below
        concerns the tiny config's rows up to its last entry.
        The em_bp MSEs were re-recorded when the decoder began building its
        evidence messages from matmuls: they moved in the last digits only,
        and every error, bit and frame count stayed the same.  They were
        re-recorded again when the M-step was batched over all symbols (sums
        over tones and particles in another order, and the objective read
        through cosines), again with every count unchanged; old -> new:
        (em_bp, 1, 6.0)  mse_a 0.32481382494824956 -> 0.3248138249482494,
                         mse_b 0.026782881058414764 -> 0.02678288105841484;
        (em_bp, 1, 10.0) mse_a 0.0023740084267349177 -> 0.002374008426734954,
                         mse_b 0.0013359237173776203 -> 0.0013359237173776154;
        (em_bp, 2, 6.0)  mse_a 0.32874832047749697 -> 0.3287483204774968,
                         mse_b 0.016367548982308064 -> 0.016367548982308168;
        (em_bp, 2, 10.0) mse_a 0.0026310007212528045 -> 0.0026310007212528076,
                         mse_b 0.0008944252909650686 -> 0.0008944252909650478.
        They were re-recorded again when each EM round after the first began
        its decode from the previous round's check messages; the baseline
        rows, the 10 dB rows and the K = 1 MSEs (whose phases come from the
        cold round-0 decode) stayed the same; old -> new:
        (em_bp, 1, 6.0)  errors 48 -> 47;
        (em_bp, 2, 6.0)  errors 45 -> 43,
                         mse_a 0.3287483204774968 -> 0.33355341290137613,
                         mse_b 0.016367548982308168 -> 0.016240280031217868.
        They were re-recorded again when the particle search began scoring
        its lattice with one matmul per round (the cloud kept as a centre
        plus a shrunk product lattice, so positions and values round
        differently), with every count unchanged; old -> new:
        (em_bp, 1, 6.0)  mse_a 0.3248138249482494 -> 0.3248138249482501,
                         mse_b 0.02678288105841484 -> 0.026782881058414705;
        (em_bp, 1, 10.0) mse_a 0.002374008426734954 -> 0.002374008426734928,
                         mse_b 0.0013359237173776154 -> 0.0013359237173776366;
        (em_bp, 2, 6.0)  mse_a 0.33355341290137613 -> 0.3335534129013769,
                         mse_b 0.016240280031217868 -> 0.01624028003121785;
        (em_bp, 2, 10.0) mse_a 0.0026310007212528076 -> 0.0026310007212527776,
                         mse_b 0.0008944252909650478 -> 0.000894425290965068.
        The em_bp MSEs of all rows were re-recorded when the pair evidence
        began reaching the decoder as max-shifted logs, without the exp,
        normalisation and log between them, with every count unchanged;
        old -> new:
        tiny-selective
        (em_bp, 1, 6.0)  mse_a 0.3248138249482501 -> 0.32481382494825006,
                         mse_b 0.026782881058414705 -> 0.02678288105841479;
        (em_bp, 2, 6.0)  mse_a 0.3335534129013769 -> 0.33355341290137674,
                         mse_b 0.01624028003121785 -> 0.016240280031217913;
        flat-qpsk-em7
        (em_bp, 1, 8.0)  mse_a 0.18549875348447542 -> 0.1854987534844754;
        (em_bp, 7, 8.0)  mse_a 0.17760590241821253 -> 0.1776059024188585,
                         mse_b 0.2122815467419278 -> 0.21228154674192756;
        selective-refine-sweep
        (em_bp, 1, 6.0)  mse_a 0.09469977146715226 -> 0.09469977146715232,
                         mse_b 0.09962201832055044 -> 0.09962201832055034;
        (em_bp, 1, 10.0) mse_a 0.029813847693346662 -> 0.02981384769334665,
                         mse_b 0.06626814233148288 -> 0.06626814233148291;
        (em_bp, 7, 6.0)  mse_a 0.06286592827582294 -> 0.06286592827545116,
                         mse_b 0.026213447106932578 -> 0.026213447107158606;
        (em_bp, 7, 10.0) mse_a 0.03603065666955303 -> 0.036030656669553504,
                         mse_b 0.05820279112481713 -> 0.05820279112482044.
        They were re-recorded again when the phase objective dropped the
        per-symbol constant that no phase changes (its values, and with
        them the particle weights and the keep rule, round differently),
        with every count and the tiny config's rows unchanged; old -> new:
        flat-qpsk-em7
        (em_bp, 1, 8.0)  mse_a 0.1854987534844754 -> 0.18549875348447534;
        (em_bp, 7, 8.0)  mse_a 0.1776059024188585 -> 0.17760590241885846;
        selective-refine-sweep
        (em_bp, 1, 10.0) mse_b 0.06626814233148291 -> 0.0662681423314829;
        (em_bp, 7, 6.0)  mse_a 0.06286592827545116 -> 0.06286592827529425,
                         mse_b 0.026213447107158606 -> 0.02621344710729144;
        (em_bp, 7, 10.0) mse_a 0.036030656669553504 -> 0.03603065666955687,
                         mse_b 0.05820279112482044 -> 0.05820279112482077.
        The em_bp MSEs were re-recorded again when the decoder began running
        BP on likelihoods normalised once per decode, in place of shifting
        every iteration's log-beliefs by their maxima (the beliefs round
        differently), with every count and the baseline rows unchanged;
        old -> new:
        tiny-selective
        (em_bp, 1, 6.0)  mse_a 0.32481382494825006 -> 0.32481382494825;
        (em_bp, 1, 10.0) mse_a 0.002374008426734928 -> 0.0023740084267349247,
                         mse_b 0.0013359237173776366 -> 0.001335923717377628;
        (em_bp, 2, 6.0)  mse_a 0.33355341290137674 -> 0.3335534129013767,
                         mse_b 0.016240280031217913 -> 0.016240280031217882;
        (em_bp, 2, 10.0) mse_a 0.0026310007212527776 -> 0.002631000721252787,
                         mse_b 0.000894425290965068 -> 0.0008944252909650898;
        flat-qpsk-em7
        (em_bp, 1, 8.0)  mse_a 0.18549875348447534 -> 0.1854987534844754,
                         mse_b 0.2138000224935542 -> 0.21380002249355415;
        (em_bp, 7, 8.0)  mse_a 0.17760590241885846 -> 0.1776059024185942,
                         mse_b 0.21228154674192756 -> 0.21228154674192776;
        selective-refine-sweep
        (em_bp, 1, 6.0)  mse_a 0.09469977146715232 -> 0.0946997714671523;
        (em_bp, 1, 10.0) mse_a 0.02981384769334665 -> 0.029813847693346645,
                         mse_b 0.0662681423314829 -> 0.06626814233148291;
        (em_bp, 7, 6.0)  mse_a 0.06286592827529425 -> 0.06286592827710709,
                         mse_b 0.02621344710729144 -> 0.026213447106156407;
        (em_bp, 7, 10.0) mse_a 0.03603065666955687 -> 0.036030656669553636,
                         mse_b 0.05820279112482077 -> 0.05820279112482076.
        The em_bp MSEs were re-recorded again when the pair evidence and the
        phase objective began reading one pair kernel, the likelihood
        expanded into three cross terms with the pair-independent energies
        dropped, and the objective was rebuilt at each M-step instead of
        refitted (both round differently), with every count and the baseline
        rows unchanged; old -> new:
        tiny-selective
        (em_bp, 1, 6.0)  mse_a 0.32481382494825 -> 0.3248138249482496,
                         mse_b 0.02678288105841479 -> 0.026782881058414792;
        (em_bp, 1, 10.0) mse_a 0.0023740084267349247 -> 0.0023740084267349524,
                         mse_b 0.001335923717377628 -> 0.0013359237173776405;
        (em_bp, 2, 6.0)  mse_a 0.3335534129013767 -> 0.33355341290137647,
                         mse_b 0.016240280031217882 -> 0.016240280031217913;
        (em_bp, 2, 10.0) mse_a 0.002631000721252787 -> 0.002631000721252815,
                         mse_b 0.0008944252909650898 -> 0.0008944252909650842;
        flat-qpsk-em7
        (em_bp, 1, 8.0)  mse_a 0.1854987534844754 -> 0.18549875348447545,
                         mse_b 0.21380002249355415 -> 0.2138000224935542;
        (em_bp, 7, 8.0)  mse_a 0.1776059024185942 -> 0.17760590241942453,
                         mse_b 0.21228154674192776 -> 0.21228154674192778;
        selective-refine-sweep
        (em_bp, 1, 6.0)  mse_a 0.0946997714671523 -> 0.0946997714671524,
                         mse_b 0.09962201832055034 -> 0.09962201832055163;
        (em_bp, 7, 6.0)  mse_a 0.06286592827710709 -> 0.06286592827410808,
                         mse_b 0.026213447106156407 -> 0.026213447108749108;
        (em_bp, 7, 10.0) mse_a 0.036030656669553636 -> 0.036030656669552734,
                         mse_b 0.05820279112482076 -> 0.05820279112481715."""
        if case == "tiny-selective":
            cfg = _tiny_config(
                snr_db_list=(6.0, 10.0),
                em_bp_k=(1, 2),
                channel_kind="selective",
                decay=0.25,
                em_refine_passes=1,
            )
        else:
            cfg = load_config(ROOT / "perfbench" / "workloads" / f"{case}.ini")
            cfg = dataclasses.replace(cfg, master_seed=5, trials_per_snr=24, jobs=2)
        rows = run_experiment(cfg).rows
        got = [
            (r.receiver, r.em_iters, r.snr_db, r.errors, r.bits, r.frames, r.mse_a, r.mse_b)
            for r in rows
        ]
        assert got == _GOLDEN_ROWS[case]
        assert all(r.ber == r.errors / r.bits for r in rows)


class TestCsv:
    def test_roundtrip_exact(self, tmp_path):
        cfg = _tiny_config(trials_per_snr=5)
        result = run_experiment(cfg)
        path = tmp_path / "out.csv"
        emit_csv(result, path)
        back = parse_csv(path)
        assert len(back) == len(result.rows)
        for orig, rec in zip(result.rows, back):
            assert rec.receiver == orig.receiver
            assert rec.em_iters == orig.em_iters
            assert rec.snr_db == orig.snr_db
            assert rec.ber == orig.ber  # exact float round trip
            assert rec.mse_a == orig.mse_a
            assert rec.mse_b == orig.mse_b
            assert rec.bits == orig.bits
            assert rec.frames == orig.frames
            assert rec.seconds == orig.seconds
            assert rec.errors == orig.errors  # round(ber * bits)

    def test_header_and_row_order(self, tmp_path):
        cfg = _tiny_config(snr_db_list=(8.0, 4.0), em_bp_k=(1,), trials_per_snr=2)
        path = tmp_path / "out.csv"
        emit_csv(run_experiment(cfg), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        recs = [line.split(",")[:3] for line in lines[1:]]
        assert [r[0] for r in recs] == ["baseline", "baseline", "em_bp", "em_bp"]
        assert [float(r[2]) for r in recs] == [4.0, 8.0, 4.0, 8.0]

    def test_float_columns_print_as_floats(self, tmp_path):
        """Columns annotated float print in float form even from an int,
        such as the SNR of a config built in code."""
        row = harness.ResultRow("baseline", 0, 8, 0, 0.5, 0.25, 10, 1, 2)
        path = tmp_path / "out.csv"
        emit_csv(harness.ExperimentResult([row]), path)
        assert path.read_text().splitlines()[1] == "baseline,0,8.0,0.0,0.5,0.25,10,1,2.0"
        assert parse_csv(path) == [row]

    def test_noiseless_row_roundtrip(self, tmp_path):
        """The noiseless point's SNR, inf, prints as inf and reads back."""
        row = harness.ResultRow("em_bp", 7, math.inf, 0.0, 1e-32, 2e-32, 320, 1, 0.5)
        path = tmp_path / "out.csv"
        emit_csv(harness.ExperimentResult([row]), path)
        assert path.read_text().splitlines()[1] == "em_bp,7,inf,0.0,1e-32,2e-32,320,1,0.5"
        assert parse_csv(path) == [row]

    def test_parse_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_csv(path)


def _ini_pairs(path) -> set[tuple[str, str]]:
    """The (section, key) pairs an experiment file sets."""
    parser = configparser.ConfigParser(inline_comment_prefixes=(";",))
    parser.read(path)
    return {(section, key) for section in parser.sections() for key in parser[section]}


CONFIG_TEXT = """
[frame]
modulation = qpsk
m_symbols = 2

[code]
interleaver_seed = 11

[channel]
kind = selective
taps = 4
decay = 0.5
delta = 0.05
tau = random

[receiver]
receivers = baseline, em_bp
em_bp_k = 1
bp_iters = 10

[run]
snr_db = 5.0, 7.0
trials_per_snr = 3
min_errors = 1000000
master_seed = 123
out = {out}
"""


class TestConfigFileAndCli:
    def test_load_config(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.format(out=tmp_path / "r.csv"))
        cfg = load_config(path)
        assert cfg.modulation == "qpsk"
        assert cfg.m_symbols == 2
        assert cfg.interleaver_seed == 11
        assert cfg.channel_kind == "selective"
        assert cfg.decay == 0.5
        assert cfg.delta == 0.05
        assert cfg.tau is None
        assert cfg.snr_db_list == (5.0, 7.0)
        assert cfg.bp_iters == 10
        assert cfg.master_seed == 123

    def test_every_ini_key_reaches_its_field(self, tmp_path):
        """One file sets every key to a non-default value; modulation, kind
        and each receivers entry are lowercased, out keeps its case, and the
        sentinel word random gives way to a value."""
        out = tmp_path / "Runs" / "Flat.CSV"
        path = tmp_path / "exp.ini"
        path.write_text(
            "[frame]\nmodulation = BPSK\nm_symbols = 3\n"
            "[code]\ninterleaver_seed = 7\n"
            "[channel]\nkind = Selective\ntaps = 3\ndecay = 0.5\ndelta = 0.05\ntau = 3\n"
            "[receiver]\nreceivers = EM_BP\nem_bp_k = 2, 5\nbp_iters = 12\n"
            "particle_rounds = 2\nparticle_l = 6\nparticle_shrink = 0.2\n"
            "em_refine_passes = 1\n"
            "[run]\nsnr_db = 5, 9.5\ntrials_per_snr = 40\nmin_errors = 7\nmin_frames = 3\n"
            f"master_seed = 99\nout = {out}\njobs = 3\n"
        )
        assert _ini_pairs(path) == set(_INI_KEYS)
        cfg = load_config(path)
        assert cfg == ExperimentConfig(
            snr_db_list=(5.0, 9.5),
            trials_per_snr=40,
            min_errors=7,
            min_frames=3,
            modulation="bpsk",
            m_symbols=3,
            interleaver_seed=7,
            channel_kind="selective",
            n_taps=3,
            decay=0.5,
            delta=0.05,
            tau=3,
            receivers=("em_bp",),
            em_bp_k=(2, 5),
            bp_iters=12,
            particle_rounds=2,
            particle_l=6,
            particle_shrink=0.2,
            em_refine_passes=1,
            master_seed=99,
            output_path=str(out),
            jobs=3,
        )
        default = ExperimentConfig()
        for f in dataclasses.fields(ExperimentConfig):
            assert getattr(cfg, f.name) != getattr(default, f.name), f.name

    def test_percent_is_literal(self, tmp_path):
        path = tmp_path / "exp.ini"
        path.write_text("[run]\nout = run_100%.csv\n")
        assert load_config(path).output_path == "run_100%.csv"

    def test_missing_file_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_config(tmp_path / "absent.ini")

    def test_cli_run(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.format(out=out))
        code = cli.main(["run", str(path), "--snr", "6.0", "--trials", "2"])
        assert code == 0
        rows = parse_csv(out)
        assert {r.snr_db for r in rows} == {6.0}
        assert all(r.frames == 2 for r in rows)
        lines = capsys.readouterr().out.splitlines()
        assert lines[-1] == f"wrote {out}"
        # one summary line per CSV row, in CSV order, naming the row's XOR
        # error count and no bit-level interval
        assert len(lines) == len(rows) + 1
        for row, line in zip(rows, lines):
            assert line.split()[:2] == [row.receiver, f"k={row.em_iters}"]
            assert f" errors={row.errors} " in line
            assert "[" not in line

    def test_cli_run_noiseless_point(self, tmp_path, capsys):
        out = tmp_path / "result.csv"
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.format(out=out))
        assert cli.main(["run", str(path), "--snr", "inf", "--trials", "2"]) == 0
        assert {r.snr_db for r in parse_csv(out)} == {math.inf}
        lines = capsys.readouterr().out.splitlines()[:-1]
        assert lines and all(" snr=  inf dB " in line for line in lines)

    @pytest.mark.parametrize(
        "text, args, named",
        [
            ("[run]\nsnr_db =\n", [], None),
            ("[channel]\ntau = 40\n", [], None),
            ("[channel]\nkind = selective\ntaps = 20\n", [], None),
            ("[channel]\nkind = flat\ntaps = -3\n", [], "taps"),
            ("[channel]\nkind = flat\ntaps = 18\n", [], "taps"),
            ("[run]\nsnr_db = nan\n", [], None),
            ("[run]\nsnr_db = -inf\n", [], "snr_db"),
            ("[frame]\nmodulation = 16qam\n", [], None),
            ("[receiver]\nbp_iters = 0\n", [], "bp_iters"),
            ("[receiver]\nparticle_l = 1\n", [], "particle_l"),
            ("[receiver]\nparticle_shrink = 1.5\n", [], "particle_shrink"),
            ("[receiver]\nparticle_rounds = -1\n", [], "particle_rounds"),
            ("[receiver]\nsigma_w2 = 0\n", [], "sigma_w2"),
            ("[receiver]\nem_refine_passes = -1\n", [], "em_refine_passes"),
            ("[receiver]\nls_includes_channel = false\n", [], "ls_includes_channel"),
            ("[run]\njobs = 1\n[run]\njobs = 2\n", [], None),
            ("jobs = 1\n", [], None),
            ("[DEFAULT]\ntrials_per_snr = 5\nbogus = 1\n", [], "DEFAULT"),
            ("[run]\n[DEFAULT]\njobs = 2\n", [], "DEFAULT"),
            ("[run]\njobs = 0\n", [], None),
            ("[run]\njobs = -2\n", [], None),
            ("[run]\n", ["--jobs", "0"], None),
            ("[run]\nmin_frames = -3\n", [], None),
            ("[run]\nsnr_db = 8, 8\n", [], None),
            ("[reciever]\nbp_iters = 10\n", [], "reciever"),
            ("[run]\ntrails_per_snr = 10\n", [], "trails_per_snr"),
            ("[run]\nout = no_such_dir/x.csv\n", [], "no_such_dir/x.csv"),
            ("[run]\n", ["--out", "no_such_dir/x.csv"], "no_such_dir/x.csv"),
            ("[run]\nsnr_db = 1e308\n", [], "snr_db"),
            ("[run]\nsnr_db = -1e308\n", [], "snr_db"),
            ("[run]\nsnr_db = -3079\n", [], "snr_db = -3079.0: noise out of range"),
            ("[channel]\ndelta = 1e300\n", [], "delta"),
            ("[channel]\ndelta = 1.5\n", [], "delta"),
            ("[receiver]\nsigma_w2 = 1e-320\n", [], "sigma_w2"),
            ("[run]\n", ["--snr", "4, x"], None),
            ("[run]\n", ["--snr", "abc"], "--snr 'abc': "),
            ("[receiver]\nem_bp_k = 2, 2\n", [], "em_bp_k"),
            ("[receiver]\nreceivers = baseline, baseline, em_bp\n", [], "receivers"),
            ("[run]\n", ["--out", "."], "is a directory"),
            ("[run]\nout =\n", [], "output path '' has an empty file name"),
            ("[run]\n", ["--out", ""], "output path '' has an empty file name"),
            ("[run]\nout = .csv\n", [], "output path '.csv' has an empty file name"),
            ("[run]\n", ["--out", ".csv"], "output path '.csv' has an empty file name"),
            ("[receiver]\nparticle_l = 3000\n", [], "GiB limit"),
            ("[frame]\nm_symbols = 2000000\n", [], "GiB limit"),
        ],
        ids=[
            "empty-snr", "tau-past-cp", "taps-past-cp", "flat-taps-negative",
            "flat-taps-past-cp", "snr-nan", "snr-minus-inf", "modulation",
            "bp-iters", "particle-l", "particle-shrink", "particle-rounds", "sigma-w2",
            "refine-passes", "removed-key",
            "duplicate-section", "no-section", "default-only", "default-with-run",
            "jobs-zero", "jobs-negative",
            "cli-jobs-zero", "min-frames", "duplicate-snr", "section-typo", "key-typo",
            "out-dir-missing", "cli-out-dir-missing", "snr-overflow", "snr-underflow",
            "snr-noise-overflow", "delta-overflow", "delta-past-one", "sigma-w2-subnormal", "cli-snr-malformed",
            "cli-snr-named", "em-bp-k-repeated", "receivers-repeated", "cli-out-is-dir",
            "out-empty", "cli-out-empty", "out-dot-csv", "cli-out-dot-csv",
            "trial-too-big-particles", "trial-too-big-frame",
        ],
    )
    def test_cli_invalid_config_exit_code(self, tmp_path, capsys, monkeypatch, text, args, named):
        """Every invalid config exits 2 with one error line, before any trial."""

        def no_run(cfg):
            raise AssertionError("an invalid config reached run_experiment")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        path = tmp_path / "bad.ini"
        path.write_text(text)
        assert cli.main(["run", str(path), *args]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: invalid config: ")
        if named is not None:
            assert named in err

    @pytest.mark.parametrize(
        "out", ["", ".csv", "sub/.csv"], ids=["empty", "dot-csv", "sub-dot-csv"]
    )
    def test_cli_sweep_c_rejects_empty_out(self, tmp_path, capsys, monkeypatch, out):
        """A prefix with an empty file name would write _c0.25.csv and
        _c1.csv to its directory; it exits 2 before any trial, as for ``run``."""

        def no_run(cfg):
            raise AssertionError("an invalid config reached run_experiment")

        monkeypatch.setattr(harness, "run_experiment", no_run)
        monkeypatch.chdir(tmp_path)
        (tmp_path / "sub").mkdir()
        path = tmp_path / "bad.ini"
        path.write_text(f"[run]\nout = {out}\n")
        assert cli.main(["sweep-c", str(path)]) == 2
        assert capsys.readouterr().err == (
            f"error: invalid config: output path {out!r} has an empty file name\n"
        )
        assert sorted(p.name for p in tmp_path.rglob("*")) == ["bad.ini", "sub"]

    def test_readme_and_workload_inis_load(self, tmp_path):
        """The README example and the benchmark workloads load, and the
        loader table sets every ExperimentConfig field exactly once."""
        fields = sorted(name for name, _ in _INI_KEYS.values())
        assert fields == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        # each receiver tunable has one name, from the INI key to ReceiverConfig
        ini_keys = {key for _, key in _INI_KEYS}
        rx_fields = {f.name for f in dataclasses.fields(ReceiverConfig)} - {"em_iters", "sigma_w2"}
        assert rx_fields <= ini_keys
        readme = (ROOT / "README.md").read_text()
        path = tmp_path / "experiment.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
        assert _ini_pairs(path) == set(_INI_KEYS)  # the example names every key
        assert load_config(path) == ExperimentConfig(
            snr_db_list=(8.0, 12.0, 16.0, 20.0), trials_per_snr=2000, em_bp_k=(1, 7)
        )
        workloads = sorted((ROOT / "perfbench" / "workloads").glob("*.ini"))
        assert len(workloads) == 3
        for ini in workloads:
            assert load_config(ini).jobs == 2

    def test_cli_missing_config_exit_code(self, tmp_path):
        assert cli.main(["run", str(tmp_path / "nope.ini")]) == 2

    def test_cli_sweep_c(self, tmp_path, capsys):
        out = tmp_path / "sweep.csv"
        path = tmp_path / "exp.ini"
        path.write_text(CONFIG_TEXT.format(out=out))
        code = cli.main(
            ["sweep-c", str(path), "--snr", "6.0", "--trials", "2", "--out", str(out)]
        )
        assert code == 0
        for decay in ("0.25", "1"):
            rows = parse_csv(tmp_path / f"sweep_c{decay}.csv")
            assert len(rows) == 2  # baseline + em_bp at one SNR
