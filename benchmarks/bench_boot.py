"""Boot cost of the query service: how soon and how big ``repro serve`` is.

Every crash-restart and every benchmark boot pays it.  Run as a script,
it spawns ``python -m repro serve --objects N --seed S`` ``k`` times and
prints medians of: spawn to the listening line, spawn to the first
whole-fleet SNAPSHOT reply, and the server's peak resident set
(``VmHWM``) at the listening line and after ``_REPLIES`` whole-fleet
replies.
Then the same boot split in a fresh interpreter, ``k`` times: importing
what ``cmd_serve`` imports, registering the fleet from a generator as
``cmd_serve`` does (generation and transcription interleaved), and the
first SNAPSHOT; plus the generation's µs per unit (timed on a second,
separate generation of the fleet) and the tracemalloc bytes per unit of
the generated objects (on a third, traced generation of at most 2 000
flights).  Report only, nothing asserted::

    PYTHONPATH=src python benchmarks/bench_boot.py [--objects 10000] [--seed 2000] [-k 5]

Point ``PYTHONPATH`` at another checkout's ``src`` for its numbers.
``test_boot_report_runs`` runs the report at 200 objects (pytest only).
"""

import argparse
import ast
import inspect
import json
import os
import signal
import statistics
import subprocess
import sys
import textwrap
import time

from repro import cli
from repro.server.client import ServerClient

FLEET = "fleet"

#: Whole-fleet replies read before the second ``VmHWM`` sample.
_REPLIES = 20

#: The in-process split, run in a fresh interpreter so the imports are
#: cold: ``{imports}`` is ``cmd_serve``'s import statements.
SPLIT = """
import json, time, tracemalloc
tic = time.perf_counter()
{imports}
imported = time.perf_counter()
gen = FlightGenerator(seed={seed})
executor = FleetExecutor()
executor.register_fleet("fleet", (gen.flight(legs=4) for _ in range({objects})))
booted = time.perf_counter()
executor.snapshot_rows("fleet", 0.0)
read = time.perf_counter()
units = executor.stats()["fleet.fleet.units"]
gen = FlightGenerator(seed={seed})
tic_gen = time.perf_counter()
mappings = [gen.flight(legs=4) for _ in range({objects})]
generated = time.perf_counter() - tic_gen
del mappings
gen = FlightGenerator(seed={seed})
tracemalloc.start()
sample = [gen.flight(legs=4) for _ in range(min({objects}, 2000))]
traced = tracemalloc.get_traced_memory()[0]
tracemalloc.stop()
print(json.dumps({{"imports_s": imported - tic, "boot_s": booted - imported,
                   "first_read_s": read - booted,
                   "generate_us_per_unit": generated / units * 1e6,
                   "bytes_per_unit": traced / sum(len(m.units) for m in sample)}}))
"""


def serve_imports() -> str:
    """``import repro.cli`` plus the import statements of ``cmd_serve``."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(cli.cmd_serve)))
    stmts = [
        ast.unparse(node) for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom))
    ]
    return "\n".join(["import repro.cli", *stmts])


def _env() -> dict:
    env = dict(os.environ)
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env["PYTHONPATH"] = src + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` (``VmHWM`` in /proc), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def spawn_once(objects: int, seed: int) -> dict:
    """Seconds from spawn to the listening line and to the first
    whole-fleet reply of one ``repro serve``, and its peak resident set
    at the listening line and after ``_REPLIES`` whole-fleet replies."""
    argv = [sys.executable, "-m", "repro", "serve",
            "--objects", str(objects), "--seed", str(seed)]
    spawned = time.perf_counter()
    proc = subprocess.Popen(argv, env=_env(), stdout=subprocess.PIPE,
                            stderr=subprocess.DEVNULL, text=True)
    try:
        line = proc.stdout.readline()
        listening = time.perf_counter()
        listening_hwm = vm_hwm_mb(proc.pid)
        port = int(line.split("listening on ")[1].split(",")[0].rsplit(":", 1)[1])
        with ServerClient("127.0.0.1", port) as client:
            reply = client.snapshot(FLEET, 0.0)
            answered = time.perf_counter()
            if reply.fields.get("objects") != str(objects):
                raise RuntimeError(f"not a whole-fleet reply: {reply.fields}")
            for i in range(1, _REPLIES):
                client.snapshot(FLEET, float(i))
        loaded_hwm = vm_hwm_mb(proc.pid)
    finally:
        proc.send_signal(signal.SIGTERM)
        try:
            proc.wait(timeout=30)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()
        proc.stdout.close()
    return {"listening_s": listening - spawned, "first_reply_s": answered - spawned,
            "listening_hwm_mb": listening_hwm, "loaded_hwm_mb": loaded_hwm}


def split_once(objects: int, seed: int) -> dict:
    """The boot's parts, timed in a fresh interpreter."""
    code = SPLIT.format(imports=serve_imports(), objects=objects, seed=seed)
    out = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, check=True, timeout=300)
    return json.loads(out.stdout)


def measure(objects: int, seed: int, k: int) -> dict:
    """Median of ``k`` spawns and of ``k`` in-process splits."""
    runs = [spawn_once(objects, seed) for _ in range(k)]
    splits = [split_once(objects, seed) for _ in range(k)]
    return {
        name: statistics.median(r[name] for r in rows)
        for rows in (runs, splits)
        for name in rows[0]
    }


def test_boot_report_runs():
    """The report runs end to end at 200 objects; its numbers are for
    reading, not asserting."""
    stats = measure(200, 2000, 1)
    assert 0 < stats["listening_s"] <= stats["first_reply_s"]
    assert 0 < stats["listening_hwm_mb"] <= stats["loaded_hwm_mb"]
    assert all(stats[n] > 0 for n in (
        "imports_s", "boot_s", "first_read_s", "generate_us_per_unit", "bytes_per_unit"))


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--objects", type=int, default=10_000)
    parser.add_argument("--seed", type=int, default=2000)
    parser.add_argument("-k", type=int, default=5, help="spawns and splits each")
    args = parser.parse_args()
    stats = measure(args.objects, args.seed, args.k)
    print(f"boot of repro serve --objects {args.objects} --seed {args.seed}, "
          f"median of {args.k}")
    for name, value in stats.items():
        if name.endswith("_s"):
            print(f"  {name:20s} {value:7.3f} s")
        elif name.endswith("_mb"):
            print(f"  {name:20s} {value:7.1f} MB")
        else:
            print(f"  {name:20s} {value:7.1f}")
