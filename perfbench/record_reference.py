"""Record the XOR BER reference that run.py checks every run against.

Usage (from the root of a source checkout):

    python3 perfbench/record_reference.py [--seed 900]

For each workload, runs REFERENCE_CALLS run_experiment calls exactly as
the benchmark makes them (master seeds seed*1000+1, +2, ...) and stores,
per reported receiver, the pooled errors, bits and frames and the variance
of the per-frame error fraction, with the provenance of the recording.
Re-record only in a change that alters the benchmark, and say why.
"""

import argparse
import json
import os
import statistics

import run

REFERENCE_CALLS = {
    "flat-qpsk-em7": 40,
    "bpsk-pilot-only": 80,
    "selective-refine-sweep": 24,
}


def record(seed: int) -> dict:
    pncsim = run.import_pncsim()
    harness = pncsim.harness
    nproc = len(os.sched_getaffinity(0))
    out = {}
    for name, n_calls in REFERENCE_CALLS.items():
        cfg = run.load_workload(harness, name, nproc)
        spool = run.OUT / "trials"
        spool.mkdir(parents=True, exist_ok=True)
        recorder = run.TrialRecorder(harness, spool)
        recorder.install()
        try:
            calls = run.run_calls(harness, recorder, cfg, seed, 0.0, n_calls, 0)
        finally:
            recorder.restore()
        problems = [p for p in (run.check_rows(c, len(cfg.reported())) for c in calls) if p]
        if problems or len(calls) != n_calls:
            raise RuntimeError(f"{name}: reference run failed: {problems}")
        sample = run.ber_sample(calls, len(cfg.reported()))
        out[name] = {
            label: {
                "errors": sample["errors"][i],
                "bits": sample["bits"],
                "frames": sample["frames"],
                "frame_var": statistics.variance(sample["fractions"][i]),
            }
            for i, label in enumerate(run.receiver_labels(cfg))
        }
        out[name]["provenance"] = run.provenance(seed, name, cfg.jobs)
        print(name, json.dumps(out[name]), flush=True)
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=900)
    args = parser.parse_args()
    reference = record(args.seed)
    run.REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    print(f"wrote {run.REFERENCE}")


if __name__ == "__main__":
    main()
