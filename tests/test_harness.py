"""Tests for the experiment driver, metrics, CSV output, and CLI."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from pncsim import cli, harness
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


class TestRunExperiment:
    def test_noiseless_zero_cfo_ber_zero(self):
        cfg = _tiny_config(noiseless=True, delta=0.0, trials_per_snr=10)
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

    def test_parallel_matches_serial(self, tmp_path):
        cfg = _tiny_config(trials_per_snr=6)
        serial = run_experiment(cfg)
        parallel = run_experiment(with_overrides(cfg, jobs=2))
        for r1, r2 in zip(serial.rows, parallel.rows):
            assert (r1.receiver, r1.em_iters, r1.ber, r1.mse_a, r1.mse_b) == (
                r2.receiver, r2.em_iters, r2.ber, r2.mse_a, r2.mse_b,
            )

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

    def test_pinned_seed_golden(self):
        """Exact rows for a pinned seed: a refactor that claims to keep the
        CSV unchanged must reproduce them bit for bit.  The config covers
        the baseline, the M-step and the refine path on a selective channel.
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
                         mse_b 0.0008944252909650686 -> 0.0008944252909650478."""
        cfg = _tiny_config(
            snr_db_list=(6.0, 10.0),
            em_bp_k=(1, 2),
            channel_kind="selective",
            decay=0.25,
            em_refine_passes=1,
        )
        got = [
            (r.receiver, r.em_iters, r.snr_db, r.errors, r.bits, r.frames, r.mse_a, r.mse_b)
            for r in run_experiment(cfg).rows
        ]
        assert got == [
            ("baseline", 0, 6.0, 57, 256, 4, 0.4033697682690225, 0.09243666901104974),
            ("baseline", 0, 10.0, 0, 256, 4, 0.02165348458046274, 0.06506893837894917),
            ("em_bp", 1, 6.0, 48, 256, 4, 0.3248138249482494, 0.02678288105841484),
            ("em_bp", 1, 10.0, 0, 256, 4, 0.002374008426734954, 0.0013359237173776154),
            ("em_bp", 2, 6.0, 45, 256, 4, 0.3287483204774968, 0.016367548982308168),
            ("em_bp", 2, 10.0, 0, 256, 4, 0.0026310007212528076, 0.0008944252909650478),
        ]


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

    def test_header_and_row_order(self, tmp_path):
        cfg = _tiny_config(snr_db_list=(8.0, 4.0), em_bp_k=(1,), trials_per_snr=2)
        path = tmp_path / "out.csv"
        emit_csv(run_experiment(cfg), path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(CSV_COLUMNS)
        recs = [line.split(",")[:3] for line in lines[1:]]
        assert [r[0] for r in recs] == ["baseline", "baseline", "em_bp", "em_bp"]
        assert [float(r[2]) for r in recs] == [4.0, 8.0, 4.0, 8.0]

    def test_parse_rejects_foreign_header(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(ValueError):
            parse_csv(path)


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
            assert f" errors={round(row.ber * row.bits)} " in line
            assert "[" not in line

    @pytest.mark.parametrize(
        "text, args, named",
        [
            ("[run]\nsnr_db =\n", [], None),
            ("[channel]\ntau = 40\n", [], None),
            ("[channel]\nkind = selective\ntaps = 20\n", [], None),
            ("[run]\nsnr_db = nan\n", [], None),
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
            ("[run]\njobs = 0\n", [], None),
            ("[run]\njobs = -2\n", [], None),
            ("[run]\n", ["--jobs", "0"], None),
            ("[run]\nmin_frames = -3\n", [], None),
            ("[run]\nsnr_db = 8, 8\n", [], None),
            ("[reciever]\nbp_iters = 10\n", [], "reciever"),
            ("[run]\ntrails_per_snr = 10\n", [], "trails_per_snr"),
            ("[run]\nout = no_such_dir/x.csv\n", [], "no_such_dir/x.csv"),
            ("[run]\n", ["--out", "no_such_dir/x.csv"], "no_such_dir/x.csv"),
        ],
        ids=[
            "empty-snr", "tau-past-cp", "taps-past-cp", "snr-nan", "modulation",
            "bp-iters", "particle-l", "particle-shrink", "particle-rounds", "sigma-w2",
            "refine-passes", "removed-key",
            "duplicate-section", "no-section", "jobs-zero", "jobs-negative",
            "cli-jobs-zero", "min-frames", "duplicate-snr", "section-typo", "key-typo",
            "out-dir-missing", "cli-out-dir-missing",
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

    def test_readme_and_workload_inis_load(self, tmp_path):
        """The README example and the benchmark workloads load, and the
        loader table sets every ExperimentConfig field exactly once."""
        fields = sorted(name for name, _ in _INI_KEYS.values())
        assert fields == sorted(f.name for f in dataclasses.fields(ExperimentConfig))
        # each receiver tunable has one name, from the INI key to ReceiverConfig
        ini_keys = {key for _, key in _INI_KEYS}
        rx_fields = {f.name for f in dataclasses.fields(ReceiverConfig)} - {"em_iters"}
        assert rx_fields <= ini_keys
        readme = (ROOT / "README.md").read_text()
        path = tmp_path / "experiment.ini"
        path.write_text(readme.split("```ini\n", 1)[1].split("```", 1)[0])
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
