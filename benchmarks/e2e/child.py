"""One workload, one mode, in this fresh interpreter.

Started by ``run.py`` with the package on ``PYTHONPATH``; prints the
run's record as the last line of stdout.
"""

from __future__ import annotations

import argparse
import os
import shutil
import sys

from lib import WORKLOADS, Config, HostProbe, emit


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    cfg = Config(
        args.workload, args.seed, args.seconds, bool(args.trace), args.smoke
    )
    if cfg.workload.startswith("wire_"):
        import wire as module
    elif cfg.workload == "api_scan_warm":
        import api_scan as module
    else:
        import shard_cold as module
    # Dirty pages other runs left behind are flushed now, not by this
    # run's first fsync.
    os.sync()
    # The end-to-end timings are reported at reference host speed; the
    # traced run's per-layer numbers are as measured.
    probe = None
    try:
        if not cfg.trace:
            probe = HostProbe(cfg.scratch("host.log"))
        result = module.run(cfg, probe)
    finally:
        if probe is not None:
            probe.stop()
        shutil.rmtree(cfg.scratch_dir, ignore_errors=True)
    emit(cfg, result, module.exercised(cfg))
    return 0


if __name__ == "__main__":
    sys.exit(main())
