"""Time a fresh interpreter's set-up for one workload and print it as JSON.

Usage: python3 setup_probe.py <src dir> <workload .ini> <jobs>

Measures, in this order and in one process: ``import pncsim``,
``load_config`` of the workload file, the codec context build
(``RaCode.build`` and ``JointPairDecoder``), and, when the workload runs
more than one job, the start of the worker pool exactly as
``run_experiment`` creates it.  The pool is closed and joined untimed.
"""

import json
import multiprocessing
import sys
import time


def main(src: str, ini: str, jobs: int) -> dict:
    t0 = time.perf_counter()
    sys.path.insert(0, src)
    import pncsim
    from pncsim import frame, harness

    t1 = time.perf_counter()
    cfg = harness.load_config(ini)
    t2 = time.perf_counter()
    ks = [k for _, k in cfg.reported()]
    frame_cfg = frame.default_config(cfg.modulation, cfg.m_symbols, max(ks))
    ra_code = pncsim.RaCode.build(frame_cfg.k_info, cfg.interleaver_seed)
    pncsim.JointPairDecoder(ra_code, frame_cfg.constellation())
    t3 = time.perf_counter()
    pool_s = 0.0
    if jobs > 1:
        ctx = harness._make_context(cfg)
        t4 = time.perf_counter()
        pool = multiprocessing.Pool(jobs, initializer=harness._init_worker, initargs=(ctx,))
        pool_s = time.perf_counter() - t4
        pool.close()
        pool.join()
    return {
        "import_s": t1 - t0,
        "load_config_s": t2 - t1,
        "codec_setup_s": t3 - t2,
        "pool_start_s": pool_s,
        "setup_s": (t3 - t0) + pool_s,
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1], sys.argv[2], int(sys.argv[3]))))
