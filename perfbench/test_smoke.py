"""Smoke test of the benchmark at a tiny size.

Run from the root of the checkout:  python3 -m pytest -q perfbench/test_smoke.py
"""

import json
import math
import shutil
import subprocess
import sys
from dataclasses import replace

import pytest

import run

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


@pytest.fixture
def tiny(monkeypatch):
    """Two trials per SNR point, one call, one set-up probe."""
    original = run.load_workload

    def load_tiny(harness, name, nproc):
        cfg = original(harness, name, nproc)
        return replace(cfg, trials_per_snr=2, min_frames=1)

    monkeypatch.setattr(run, "load_workload", load_tiny)
    monkeypatch.setattr(run, "MIN_TRIALS", 0)
    monkeypatch.setattr(run, "SETUP_PROBES", 1)
    monkeypatch.setattr(run, "CHECK_CALLS", dict.fromkeys(run.CHECK_CALLS, 1))


def test_spec_matches_the_benchmark():
    assert WORKLOADS == list(run.CHECK_CALLS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == run.PER_LAYER_UNITS


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics(tiny, workload):
    final, report = run.run(workload, seed=1, seconds=0.01, trace=False)
    assert final["correct"], report["check"]
    assert final["failed"] == 0 and final["attempted"] >= 1
    assert {k: m["unit"] for k, m in final["metrics"].items()} == run.END_TO_END_UNITS
    for name, m in final["metrics"].items():
        assert math.isfinite(m["value"]) and m["value"] > 0, name


@pytest.mark.parametrize("workload", WORKLOADS)
def test_per_layer_metrics(tiny, workload):
    final, report = run.run(workload, seed=1, seconds=0.01, trace=True)
    assert final["correct"], report["check"]
    metrics = {k: m["value"] for k, m in final["metrics"].items()}
    assert {k: m["unit"] for k, m in final["metrics"].items()} == run.PER_LAYER_UNITS
    assert all(math.isfinite(v) for v in metrics.values())
    # the layers' self times account for the trial wall time the recorder
    # measured around each traced trial, less the recorder's own wrapper
    assert 0.95 < metrics["trace.self_coverage"] <= 1.0
    expected_decodes = {"bpsk-pilot-only": 1, "flat-qpsk-em7": 8, "selective-refine-sweep": 8}
    assert metrics["codec.decode_calls"] == expected_decodes[workload]
    if workload == "bpsk-pilot-only":
        assert metrics["receiver.particle_calls"] == 0
    else:
        assert metrics["receiver.particle_calls"] > 0
    for layer in report["layers"].values():
        assert layer["calls"] > 0 and layer["self_ms"] >= 0


def test_output_check_rejects_a_wrong_reference(tiny, monkeypatch, capsys):
    def wrong(name):  # a reference with a BER of 0.9
        ref = json.loads(run.REFERENCE.read_text())[name]
        return {label: dict(r, errors=r["bits"] * 9 // 10) for label, r in ref.items() if label != "provenance"}

    monkeypatch.setattr(run, "load_reference", wrong)
    code = run.main(["--workload", "bpsk-pilot-only", "--seed", "1", "--seconds", "0.01"])
    out = capsys.readouterr().out.splitlines()
    assert code == 1
    assert json.loads(out[-1])["correct"] is False
    assert any("MISSES" in line for line in out)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0], "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
