"""Shared pieces of the end-to-end benchmark: statistics, the host-speed
calibration, spans, result records, and handles on the server processes
under test.

Nothing here imports ``repro`` at module level — ``run.py`` (the parent)
uses the statistics and the metric tables without the package on its
path; only the workload children import the system under test.
"""

from __future__ import annotations

import json
import math
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

#: When this interpreter started (``lib`` is the first import of every
#: child): the origin of the in-process workloads' ``setup_s``.
START = time.perf_counter()

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(os.path.dirname(HERE))
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = (
    "wire_snapshot_full",
    "wire_window_ingest",
    "api_scan_warm",
    "shard_window_cold",
)

#: Every this-many-th read is kept whole and compared with the reference
#: after the measured phase (verifying inline would steal the load
#: generator's CPU from the closed loop).
CHECK_EVERY = 50


def load_spec() -> Dict[str, Any]:
    """``BENCHMARK.json`` — the one place metric names and units live."""
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


# ---------------------------------------------------------------------------
# Sizes
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Config:
    """One child run: which workload, which seed, how long, how big."""

    workload: str
    seed: int
    seconds: float
    trace: bool
    smoke: bool

    @property
    def windowed(self) -> bool:
        """The wire workload with window reads and the ingest feed."""
        return self.workload == "wire_window_ingest"

    @property
    def wire_objects(self) -> int:
        return 200 if self.smoke else 10_000

    @property
    def api_objects(self) -> int:
        return 200 if self.smoke else 20_000

    @property
    def planes(self) -> int:
        return 40 if self.smoke else 400

    @property
    def shard_objects(self) -> int:
        return 200 if self.smoke else 100_000

    @property
    def shards(self) -> int:
        return 4 if self.smoke else 16

    @property
    def warmup(self) -> float:
        return max(0.2, 0.1 * self.seconds)

    @property
    def scratch_dir(self) -> str:
        return os.path.join(
            OUT, f"{self.workload}-{self.seed}-{int(self.trace)}-{os.getpid()}"
        )

    def scratch(self, name: str) -> str:
        """A path for a file of this run (WAL, shard store, recorded
        replies) under the ignored output directory: everything the
        benchmark writes stays inside the checkout, and ``child.py``
        removes it when the run ends."""
        os.makedirs(self.scratch_dir, exist_ok=True)
        return os.path.join(self.scratch_dir, name)

    @property
    def spans_path(self) -> str:
        """Where a traced run leaves its spans (the one file kept)."""
        os.makedirs(OUT, exist_ok=True)
        return os.path.join(OUT, f"spans-{self.workload}-{self.seed}.jsonl")


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

#: The fewest samples one block of a run's series may hold.
_MIN_BLOCK = 5


def quantile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank quantile: the smallest sample with at least a share
    ``q`` of the samples at or below it (of 5 samples, the p95 is the
    largest and the p50 the third)."""
    ordered = sorted(samples)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def _blocks(samples: Sequence[Any]) -> List[Sequence[Any]]:
    """``samples`` cut into twenty consecutive blocks — ten or five when
    that would leave a block under ``_MIN_BLOCK``, one when five would
    too."""
    n = len(samples)
    for count in (20, 10, 5):
        size = n // count
        if size >= _MIN_BLOCK:
            return [samples[i * size:(i + 1) * size] for i in range(count)]
    return [samples]


def steady_quantile(samples: Sequence[float], q: float) -> float:
    """Median over consecutive blocks of each block's ``q``-quantile.

    One stall of the sandbox (a neighbour's burst, a page-cache flush)
    lands in a few blocks and leaves the median of the blocks alone;
    anything the program does throughout the run moves all of them.
    With a few dozen samples a block's p95 is its slowest read, so what
    is reported is the typical slowest-of-a-handful — not a 95th
    percentile in the textbook sense, but one a single slow pass cannot
    move.
    """
    return statistics.median(quantile(b, q) for b in _blocks(samples))


def steady(
    begin: float, reads: Sequence[Tuple[float, float]], host: "HostSpeed",
) -> Dict[str, float]:
    """The read metrics of one measured phase, at reference host speed.

    ``reads`` are ``(completion time, latency in ms)`` in completion
    order, ``begin`` when the phase started.  They are cut into
    consecutive blocks; each block's p50 and p95 are divided, and its
    completion rate multiplied, by the host's slowdown over the block's
    own stretch of time (``host.factor``); the medians over the blocks
    are reported.  ``raw_*`` are the same medians without the factor and
    ``host_factor`` the median factor, for the record's notes.
    """
    rows = []
    edge = begin
    for block in _blocks(reads):
        end = block[-1][0]
        ms = [latency for _done, latency in block]
        rows.append((
            quantile(ms, 0.50), quantile(ms, 0.95),
            len(block) / (end - edge), host.factor(edge, end),
        ))
        edge = end
    mid = statistics.median
    return {
        "read_p50_ms": mid(p50 / f for p50, _p95, _rate, f in rows),
        "read_p95_ms": mid(p95 / f for _p50, p95, _rate, f in rows),
        "reads_per_s": mid(rate * f for _p50, _p95, rate, f in rows),
        "raw_read_p50_ms": mid(p50 for p50, _p95, _rate, _f in rows),
        "raw_read_p95_ms": mid(p95 for _p50, p95, _rate, _f in rows),
        "raw_reads_per_s": mid(rate for _p50, _p95, rate, _f in rows),
        "host_factor": mid(f for _p50, _p95, _rate, f in rows),
        "blocks": len(rows),
    }


def median(samples: Sequence[float]) -> float:
    return statistics.median(samples) if samples else 0.0


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


# ---------------------------------------------------------------------------
# Host speed
# ---------------------------------------------------------------------------
#
# The sandbox's cores change speed under the benchmark: the same pure
# Python loop takes 0.7x to 1.8x its usual time for seconds to minutes
# on end, one core independently of the other, with no steal time
# reported (README, "Steadiness").  A run sits inside such a stretch, so
# no statistic of its own latencies removes it.  What does is a fixed
# piece of work, none of it the program's, timed beside the reads: the
# timing metrics are reported divided by how much slower than
# ``CAL_REF_MS`` that work ran in the same second.

#: What ``Calibration.run`` reads on this sandbox in its usual state,
#: which makes a reported millisecond a millisecond of a usual stretch.
#: A constant of the benchmark: changing it rescales every timing metric.
CAL_REF_MS = 2.6


class Calibration:
    """The fixed work: a little of each kind the program does in Python
    — integer bytecode, framing and parsing reply-like lines, and a walk
    over objects scattered through a heap too large for the core's own
    caches (what slows most when a neighbour fills the shared one)."""

    HEAP = 100_000
    WALK = 5_000

    def __init__(self) -> None:
        rng = random.Random(0)
        self._heap = [
            (rng.uniform(0.0, 1e4), rng.uniform(0.0, 1e4), i)
            for i in range(self.HEAP)
        ]
        rng.shuffle(self._heap)  # list order is not address order
        self._at = 0

    def run(self) -> float:
        """Do the work once; returns the CPU milliseconds this thread
        spent on it.  CPU time, so waiting for the GIL or for a core is
        not counted; a core that runs slower is."""
        tic = time.thread_time()
        total = 0
        for i in range(6_000):
            total += i * i
        lines = [f"ROW obj={i} x={i * 1.5!r} y={i * 2.5!r}" for i in range(800)]
        for line in lines:
            dict(part.split("=", 1) for part in line.split(" ")[1:])
        area = 0.0
        for x, y, _i in self._heap[self._at:self._at + self.WALK]:
            area += x * y
        self._at = (self._at + self.WALK) % self.HEAP
        return (time.thread_time() - tic) * 1e3


class HostSpeed:
    """Calibration samples ``(when, ms)`` and the slowdown they
    show over a stretch of time.  ``when`` is ``time.perf_counter()``,
    which on Linux is CLOCK_MONOTONIC and so the same clock in every
    process of the run."""

    #: With no sample inside a stretch, this many nearest ones stand in.
    NEAREST = 4

    def samples(self) -> List[Tuple[float, float]]:
        raise NotImplementedError

    def factor(self, t0: float, t1: float) -> float:
        """Mean calibration time of the samples taken in ``[t0, t1]`` as a
        multiple of ``CAL_REF_MS``: 1.25 means the host ran a quarter
        slower than usual there."""
        samples = self.samples()
        if not samples:
            raise RuntimeError("no calibration sample was taken")
        inside = [ms for t, ms in samples if t0 <= t <= t1]
        if not inside:
            mid = (t0 + t1) / 2.0
            nearest = sorted(samples, key=lambda s: abs(s[0] - mid))
            inside = [ms for _t, ms in nearest[:self.NEAREST]]
        return statistics.fmean(inside) / CAL_REF_MS


class InlineCal(HostSpeed):
    """Samples taken by the measuring thread itself, between its reads:
    the in-process workloads, whose one thread is wherever the scheduler
    put it, and the calibration with it."""

    #: Seconds between samples: the calibration is about 3 % of the
    #: thread's time.
    EVERY = 0.1

    def __init__(self) -> None:
        self._work = Calibration()
        self._samples: List[Tuple[float, float]] = []
        self._due = 0.0

    def tick(self) -> None:
        """Take a sample if one is due (call between reads, never
        inside a timed one)."""
        now = time.perf_counter()
        if now >= self._due:
            self._samples.append((now, self._work.run()))
            self._due = time.perf_counter() + self.EVERY

    def samples(self) -> List[Tuple[float, float]]:
        return self._samples


class HostProbe(HostSpeed):
    """``hostprobe.py`` in a process of its own, sampling every core in
    turn four times a second: the wire workloads, whose work is spread
    over the load generator's and the server's cores, and every
    workload's set-up."""

    def __init__(self, path: str):
        self.path = path
        self.proc: Optional[subprocess.Popen] = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "hostprobe.py"), path]
        )
        # Nothing may ask for a factor before there is a sample.
        deadline = time.perf_counter() + 10.0
        while not self.samples():
            if self.proc.poll() is not None or time.perf_counter() > deadline:
                self.stop()
                raise RuntimeError("hostprobe.py took no sample")
            time.sleep(0.01)

    def samples(self) -> List[Tuple[float, float]]:
        """Every sample written so far (the probe flushes each round)."""
        out = []
        try:
            with open(self.path, encoding="ascii") as f:
                for line in f:
                    when, _cpu, ms = line.split()
                    out.append((float(when), float(ms)))
        except (OSError, ValueError):
            pass  # not started yet, or a line half written
        return out

    def stop(self) -> None:
        if self.proc is not None:
            self.proc.kill()
            self.proc.wait()
            self.proc = None


# ---------------------------------------------------------------------------
# Spans
# ---------------------------------------------------------------------------


class Tracer:
    """In-memory spans, written out as JSONL when the run ends.

    A span is ``{rid, name, parent, start_ns, end_ns}``; ``parent`` is
    the index of the enclosing span (-1 for a root) and spans of one
    replayed request or one cycle pass share ``rid``.  Spans are only
    ever opened from the benchmark's own files, around calls into the
    program's public functions.
    """

    def __init__(self) -> None:
        self.spans: List[List[Any]] = []
        self._stack: List[int] = []
        self.rid = 0

    @contextmanager
    def span(self, name: str) -> Iterator[None]:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        rec = [self.rid, name, parent, time.perf_counter_ns(), 0]
        self.spans.append(rec)
        self._stack.append(idx)
        try:
            yield
        finally:
            rec[4] = time.perf_counter_ns()
            self._stack.pop()

    def durations_ms(self) -> Dict[str, List[float]]:
        """Span durations by name, in milliseconds."""
        out: Dict[str, List[float]] = {}
        for _rid, name, _parent, start, end in self.spans:
            out.setdefault(name, []).append((end - start) / 1e6)
        return out

    def self_ms(self) -> Dict[str, List[float]]:
        """Self time by name: a span's duration minus its children's."""
        child_ns = [0] * len(self.spans)
        for _rid, _name, parent, start, end in self.spans:
            if parent >= 0:
                child_ns[parent] += end - start
        out: Dict[str, List[float]] = {}
        for i, (_rid, name, _parent, start, end) in enumerate(self.spans):
            out.setdefault(name, []).append((end - start - child_ns[i]) / 1e6)
        return out

    def write(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for rid, name, parent, start, end in self.spans:
                f.write(json.dumps({
                    "rid": rid, "name": name, "parent": parent,
                    "start_ns": start, "end_ns": end,
                }) + "\n")


# ---------------------------------------------------------------------------
# Processes
# ---------------------------------------------------------------------------


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set of ``pid`` (``VmHWM`` in /proc), in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError(f"no VmHWM for pid {pid}")


def child_env() -> Dict[str, str]:
    """Environment of every process the benchmark starts: the package
    on the path, temp files inside the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    tmp = os.path.join(OUT, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env["TMPDIR"] = tmp
    # str hashes differ per process unless pinned; the program's dicts
    # and sets should collide the same way on every run.
    env["PYTHONHASHSEED"] = "0"
    return env


class ServerProc:
    """One ``python -m repro serve`` process under test."""

    def __init__(
        self, objects: int, seed: int, wal: Optional[str] = None,
        profile: bool = False,
    ):
        argv = [sys.executable, "-m", "repro"]
        if profile:
            argv.append("--profile")
        argv += ["serve", "--objects", str(objects), "--seed", str(seed)]
        if wal is not None:
            argv += ["--wal", wal]
        self.spawned = time.perf_counter()
        self.proc = subprocess.Popen(
            argv, cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL, text=True,
        )
        try:
            boot = self.proc.stdout.readline()
            self.listening = time.perf_counter()
            # "repro serve: listening on 127.0.0.1:PORT, fleet ..."
            self.port = int(boot.split("listening on ")[1].split(",")[0]
                            .rsplit(":", 1)[1])
        except (IndexError, ValueError):
            self.kill()
            raise RuntimeError(f"server did not boot: {boot!r}") from None

    @property
    def pid(self) -> int:
        return self.proc.pid

    def kill(self) -> None:
        """SIGKILL and reap: nothing is flushed, nothing is drained."""
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGKILL)
        self.proc.wait()
        self.proc.stdout.close()


# ---------------------------------------------------------------------------
# Result record
# ---------------------------------------------------------------------------


@dataclass
class Result:
    """What one child run hands back to ``run.py``."""

    attempted: int = 0
    failed: int = 0
    values: Dict[str, float] = field(default_factory=dict)
    notes: Dict[str, Any] = field(default_factory=dict)
    errors: List[str] = field(default_factory=list)

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.errors) < 20:
            self.errors.append(what)


def machine() -> Dict[str, Any]:
    """Where the numbers were taken: they are this sandbox's, not a
    device's."""
    import numpy

    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = ""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return {
        "git_sha": sha,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def emit(cfg: Config, result: Result, layers: Sequence[str]) -> None:
    """Print the child's record as the last stdout line.

    ``metrics`` holds every name of the mode's table in
    ``BENCHMARK.json`` — the driver's contract.  Every end-to-end metric
    is measured by every workload.  Of the per-layer metrics a workload
    measures ``layers``; one of a layer it never enters reads 0: that is
    the measured count of calls into it and the measured time spent
    there.
    """
    spec = load_spec()
    table = spec["per_layer"] if cfg.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    exercised = layers if cfg.trace else list(units)
    missing = [n for n in exercised if n not in result.values]
    unknown = [n for n in result.values if n not in units]
    if missing or unknown:
        raise RuntimeError(
            f"metric table drift: missing {missing}, unknown {unknown}"
        )
    metrics = {
        name: {"value": result.values.get(name, 0), "unit": unit}
        for name, unit in units.items()
    }
    record = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
        "workload": cfg.workload,
        "seed": cfg.seed,
        "seconds": cfg.seconds,
        "trace": int(cfg.trace),
        "smoke": cfg.smoke,
        "exercised": sorted(exercised),
        "notes": result.notes,
        "errors": result.errors,
        "machine": machine(),
    }
    print(json.dumps(record), flush=True)
