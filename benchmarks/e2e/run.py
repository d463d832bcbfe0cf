"""The end-to-end benchmark: four workloads, each in a fresh interpreter.

One run of one workload (what the driver of ``BENCHMARK.json`` calls)::

    python3 benchmarks/e2e/run.py --workload wire_snapshot_full \\
        --seed 2000 --seconds 18 --trace 0

prints, as the last line of stdout, ``{"correct", "attempted", "failed",
"metrics"}`` with every end-to-end metric (``--trace 0``) or every
per-layer metric (``--trace 1``) of ``BENCHMARK.json``.

Without ``--trace`` it runs the named workload — or all four — untraced
and then traced, and prints one JSON document with every metric by name
and unit per workload::

    python3 benchmarks/e2e/run.py [--seed N] [--workload NAME] [--smoke]
        [--repeat K] [--out FILE] [--append-history FILE]
    python3 benchmarks/e2e/run.py --compare A.json B.json

See README.md beside this file for what the workloads and metrics mean.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import subprocess
import sys
import time
from typing import Any, Dict, List, Optional

from compare import compare
from lib import HERE, SRC, WORKLOADS, child_env, load_spec

#: A child that has not finished by now is killed with everything it
#: started; the driver allows a run 180 s.
CHILD_TIMEOUT_S = 170.0


def run_child(
    workload: str, seed: int, seconds: float, trace: int, smoke: bool
) -> Dict[str, Any]:
    """Run one workload in one mode in a fresh interpreter; returns its
    record.  The child leads its own session so that, should it hang or
    die, its servers and pool workers can be killed with it."""
    argv = [
        sys.executable, os.path.join(HERE, "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", repr(seconds), "--trace", str(trace),
    ]
    if smoke:
        argv.append("--smoke")
    proc = subprocess.Popen(
        argv, env=child_env(), stdout=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        out, _err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        reap_session(proc.pid)
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} (trace {trace}) exited {proc.returncode} "
            "without a result"
        )
    return json.loads(lines[-1])


def reap_session(pgid: int, patience_s: float = 5.0) -> None:
    """Kill whatever is left of a child's session and wait until the
    process group is empty (its members are not ours to ``wait`` for)."""
    deadline = time.monotonic() + patience_s
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            return
        time.sleep(0.05)


def contract_line(record: Dict[str, Any]) -> str:
    return json.dumps({
        key: record[key]
        for key in ("correct", "attempted", "failed", "metrics")
    })


def full_run(args: argparse.Namespace, seconds: float) -> Dict[str, Any]:
    """Every selected workload, untraced then traced, ``--repeat`` times
    on consecutive seeds."""
    names = [args.workload] if args.workload else list(WORKLOADS)
    doc: Dict[str, Any] = {
        "benchmark": "benchmarks/e2e",
        "seed": args.seed, "seconds": seconds, "smoke": args.smoke,
        "repeat": args.repeat, "workloads": {},
    }
    for name in names:
        runs: List[Dict[str, Any]] = []
        for k in range(args.repeat):
            seed = args.seed + k
            pair = {}
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                print(f"{name} seed {seed} trace {trace} ...",
                      file=sys.stderr, flush=True)
                record = run_child(name, seed, seconds, trace, args.smoke)
                doc.setdefault("machine", record["machine"])
                pair[key] = {
                    k2: record[k2] for k2 in (
                        "correct", "attempted", "failed", "metrics",
                        "notes", "errors",
                    )
                }
                pair["exercised"] = record["exercised"]
            pair["seed"] = seed
            runs.append(pair)
        doc["workloads"][name] = runs
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter
    )
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: "
                        "run_seconds of BENCHMARK.json; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None)
    parser.add_argument("--smoke", action="store_true",
                        help="200 objects, 1 s phases: does it run at all")
    parser.add_argument("--repeat", type=int, default=1,
                        help="runs per workload, on seeds SEED, SEED+1, ...")
    parser.add_argument("--out", metavar="FILE",
                        help="also write the document here")
    parser.add_argument("--append-history", metavar="FILE",
                        help="append the document as one JSONL line")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)

    if args.compare:
        return compare(*args.compare)
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"run.py: no program to measure: {SRC}/repro is missing",
              file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = 1.0 if args.smoke else float(load_spec()["run_seconds"])

    if args.trace is not None:
        if args.workload is None:
            parser.error("--trace needs --workload")
        record = run_child(
            args.workload, args.seed, seconds, args.trace, args.smoke
        )
        for err in record["errors"]:
            print(f"failed: {err}", file=sys.stderr)
        if args.append_history:
            with open(args.append_history, "a", encoding="utf-8") as f:
                f.write(json.dumps(record) + "\n")
        print(contract_line(record))
        return 0

    doc = full_run(args, seconds)
    text = json.dumps(doc, indent=1)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as f:
            f.write(text + "\n")
    if args.append_history:
        with open(args.append_history, "a", encoding="utf-8") as f:
            f.write(json.dumps(doc) + "\n")
    print(text)
    clean = all(
        run[mode]["correct"]
        for runs in doc["workloads"].values() for run in runs
        for mode in ("end_to_end", "per_layer")
    )
    return 0 if clean else 1


if __name__ == "__main__":
    sys.exit(main())
