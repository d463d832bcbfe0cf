"""Operation-counting observability for the Section-5 complexity claims.

The paper's only quantitative statements are asymptotic: ``atinstant``
locates its unit with O(log n) probes of the unit array (Section 5.1),
and ``inside`` scans the refinement partition in O(n + m) and answers
each plumbline test in O(segments) (Section 5.2).  Wall-clock timing
cannot distinguish a log-factor regression from interpreter jitter, so
this module counts the work the kernels actually do:

* **counters** — monotonically increasing operation counts
  (``mapping.unit_at.probes``, ``plumbline.segments``, ...);
* **timers** — total seconds and call counts per named scope;
* **high-water gauges** — the maximum value ever recorded for a name.

Everything funnels through one process-local :class:`Counters` registry.
Collection is *disabled by default* (``repro.config.OBS_ENABLED``); an
instrumented hot path pays exactly one module-attribute branch
(``if obs.enabled:``) when disabled.

Usage::

    from repro import obs

    obs.enable()
    with obs.scope("inside") as s:
        s.add("unit_pairs")        # counts inside.unit_pairs
        ...                        # scope exit records the elapsed time
    print(obs.report())

    with obs.capture() as counters:   # enable + reset, restore on exit
        mapping.unit_at(t)
        probes = counters.get("mapping.unit_at.probes")

The CLI exposes the same data via ``python -m repro --profile <cmd>``.
"""

from __future__ import annotations

import time
from typing import Dict, FrozenSet, Optional, Tuple

from repro.config import OBS_ENABLED

__all__ = [
    "COUNTER_NAMES",
    "GAUGE_NAMES",
    "TIMER_NAMES",
    "Counters",
    "add",
    "capture",
    "counters",
    "disable",
    "enable",
    "enabled",
    "get",
    "high_water",
    "report",
    "reset",
    "scope",
    "snapshot",
]

#: Global collection switch.  Instrumented code guards every recording
#: with ``if obs.enabled:`` so the disabled fast path costs one branch.
enabled: bool = OBS_ENABLED

# ---------------------------------------------------------------------------
# Name registries (MOD004)
# ---------------------------------------------------------------------------
# Every counter/timer/gauge name written anywhere in repro must be
# declared here.  ``repro-lint`` (rule MOD004) cross-checks the two
# directions statically: a write site using an unregistered name is a
# typo'd write-only counter; a registered name never written is dead
# weight.  Keep the literals AST-parseable (no comprehensions, no
# concatenation).  Readers need no registration: ``report()`` and the
# CLI's ``--profile`` dump whatever was recorded.

#: Every monotone counter name in the codebase.
COUNTER_NAMES: FrozenSet[str] = frozenset({
    # temporal kernels (Section 5.1)
    "mapping.unit_at.calls",
    "mapping.unit_at.probes",
    "mapping.at_periods.calls",
    "mapping.at_periods.steps",
    "refinement.calls",
    "refinement.unit_visits",
    "refinement.boundaries",
    "refinement.visits",
    "refinement.pieces",
    # geometric kernels (Section 5.2)
    "plumbline.calls",
    "plumbline.segments",
    "plumbline.crossings",
    "plumbline.point_tests",
    "inside.unit_pairs",
    "inside.crossing_quads",
    "inside.crossings",
    "inside.plumbline_tests",
    "inside.bbox_fast_path",
    "atinstant.msegs_evaluated",
    # storage layer (Section 4)
    "storage.page_reads",
    "storage.page_writes",
    "storage.flob_writes",
    "storage.flob_pages_written",
    "storage.flob_reads",
    "storage.flob_pages_read",
    "storage.darray_reads",
    "storage.checksum_failures",
    "storage.quarantined",
    "buffer.hits",
    "buffer.misses",
    "buffer.retries",
    # write-ahead log (crash safety)
    "wal.records",
    "wal.syncs",
    "wal.commits",
    "wal.checkpoints",
    "wal.recovered",
    "wal.truncated_tails",
    "rtree.nodes_visited",
    # columnar backend (per-kernel calls/rows via _record_rows)
    "vector.locate_units.calls",
    "vector.locate_units.rows",
    "vector.locate_units.passes",
    "vector.atinstant_batch.calls",
    "vector.atinstant_batch.rows",
    "vector.ureal_atinstant_batch.calls",
    "vector.ureal_atinstant_batch.rows",
    "vector.bbox_filter.calls",
    "vector.bbox_filter.rows",
    "vector.bbox_filter.hits",
    "vector.plumbline.calls",
    "vector.plumbline.rows",
    "vector.plumbline.segments",
    "vector.on_boundary.calls",
    "vector.on_boundary.rows",
    "vector.inside_prefilter.calls",
    "vector.inside_prefilter.rows",
    "vector.batch_select.calls",
    "vector.batch_select.rows",
    "vector.window_times_batch.calls",
    "vector.window_times_batch.rows",
    "vector.window_intervals_batch.calls",
    "vector.window_intervals_batch.rows",
    "vector.path_length_batch.calls",
    "vector.path_length_batch.rows",
    "vector.path_length_batch.pairs",
    # backend ladder rungs (via count_fallback("vector", reason))
    "vector.fallback_to_scalar",
    "vector.fallback_to_scalar.upoint_column",
    "vector.fallback_to_scalar.ureal_column",
    "vector.fallback_to_scalar.bbox_column",
    "vector.fallback_to_scalar.predicate",
    # columnar cache (repro.vector.cache)
    "colcache.hits",
    "colcache.misses",
    "colcache.invalidations",
    # persistent column store (repro.vector.store)
    "colstore.hits",
    "colstore.rebuilds",
    "colstore.validations",
    "colstore.bytes_mapped",
    # parallel execution (via count_fallback("parallel", reason))
    "parallel.chunks",
    "parallel.fallback",
    "parallel.fallback.workers",
    "parallel.fallback.small_fleet",
    "parallel.fallback.no_pool",
    "parallel.fallback.error",
    "parallel.shm_reclaimed",
    # worker-failure recovery (repro.parallel.pool.run_tasks)
    "parallel.worker_deaths",
    "parallel.chunk_retries",
    "parallel.fallback.pool_broken",
    # STR bulk loading (RTree3D.bulk_load)
    "rtree.bulk_loaded",
    # incremental column maintenance (live ingest)
    "colcache.extended",
    # query service (repro.server)
    "server.sessions",
    "server.queries",
    "server.reply_bytes",
    "server.errors",
    "ingest.units",
    "ingest.group_commits",
    "ingest.replayed",
    # resilience: deadlines, admission control, idempotent retries
    "server.timeouts",
    "server.shed",
    "ingest.dedup_hits",
    "client.retries",
    "client.timeouts",
    # lock-order witness (repro.analysis.dynlock)
    "dynlock.acquisitions",
    "dynlock.edges",
    # sharded execution (repro.shard: scatter-gather + residency)
    "shard.scatters",
    "shard.hits",
    "shard.maps",
    "shard.evictions",
    "shard.pruned",
    "shard.rebuilds",
    # sharded degradation (via count_fallback("sharded", reason))
    "shard.fallback",
    "shard.fallback.column",
})

#: Every timed-scope name (``obs.scope(name)`` / ``add_time``).
TIMER_NAMES: FrozenSet[str] = frozenset({
    "inside",
    "atinstant",
})

#: Every high-water gauge name.
GAUGE_NAMES: FrozenSet[str] = frozenset({
    "vector.rows_per_call",
    "parallel.workers",
    "server.query_p50_ms",
    "server.query_p99_ms",
    "server.inflight",
    # resident-byte high-water marks of the two byte-budgeted caches
    "colcache.bytes",
    "shard.resident_bytes",
})


class Counters:
    """A registry of named counters, timers, and high-water gauges."""

    __slots__ = ("_counts", "_timers", "_highs")

    def __init__(self) -> None:
        self._counts: Dict[str, int] = {}
        self._timers: Dict[str, Tuple[int, float]] = {}
        self._highs: Dict[str, float] = {}

    def reset(self) -> None:
        """Drop every recorded value."""
        self._counts.clear()
        self._timers.clear()
        self._highs.clear()

    # -- recording --------------------------------------------------------

    def add(self, name: str, n: int = 1) -> None:
        """Increment counter ``name`` by ``n``."""
        self._counts[name] = self._counts.get(name, 0) + n

    def add_time(self, name: str, seconds: float) -> None:
        """Record one timed call of ``seconds`` under ``name``."""
        calls, total = self._timers.get(name, (0, 0.0))
        self._timers[name] = (calls + 1, total + seconds)

    def high_water(self, name: str, value: float) -> None:
        """Raise gauge ``name`` to ``value`` if it exceeds the current mark."""
        if value > self._highs.get(name, float("-inf")):
            self._highs[name] = value

    # -- reading ----------------------------------------------------------

    def get(self, name: str) -> int:
        """Current value of counter ``name`` (0 if never incremented)."""
        return self._counts.get(name, 0)

    def timer(self, name: str) -> Tuple[int, float]:
        """``(calls, total_seconds)`` of timer ``name``."""
        return self._timers.get(name, (0, 0.0))

    def gauge(self, name: str) -> Optional[float]:
        """High-water mark of gauge ``name``, or None if never set."""
        return self._highs.get(name)

    def snapshot(self) -> Dict[str, Dict[str, object]]:
        """All recorded values as plain dicts (counters/timers/gauges)."""
        return {
            "counters": dict(self._counts),
            "timers": dict(self._timers),
            "gauges": dict(self._highs),
        }

    def report(self) -> str:
        """A formatted table of everything recorded so far."""
        lines = []
        if self._counts:
            width = max(len(k) for k in self._counts)
            lines.append("-- counters " + "-" * max(1, width + 4))
            for name in sorted(self._counts):
                lines.append(f"{name.ljust(width)}  {self._counts[name]:>12}")
        if self._timers:
            width = max(len(k) for k in self._timers)
            lines.append("-- timers " + "-" * max(1, width + 6))
            for name in sorted(self._timers):
                calls, total = self._timers[name]
                avg_us = total / calls * 1e6 if calls else 0.0
                lines.append(
                    f"{name.ljust(width)}  {calls:>8} calls  "
                    f"{total * 1e3:>10.3f} ms  {avg_us:>10.1f} us/call"
                )
        if self._highs:
            width = max(len(k) for k in self._highs)
            lines.append("-- high-water " + "-" * max(1, width + 2))
            for name in sorted(self._highs):
                lines.append(f"{name.ljust(width)}  {self._highs[name]:>12g}")
        if not lines:
            return "(no observations recorded)"
        return "\n".join(lines)


#: The process-local registry all module-level helpers write to.
counters = Counters()


def enable() -> None:
    """Turn collection on."""
    global enabled
    enabled = True


def disable() -> None:
    """Turn collection off (instrumented paths cost one branch)."""
    global enabled
    enabled = False


def reset() -> None:
    """Clear the process-local registry."""
    counters.reset()


def add(name: str, n: int = 1) -> None:
    """Increment a counter when collection is enabled."""
    if enabled:
        counters.add(name, n)


def high_water(name: str, value: float) -> None:
    """Record a high-water gauge value when collection is enabled."""
    if enabled:
        counters.high_water(name, value)


def get(name: str) -> int:
    """Read a counter from the process-local registry."""
    return counters.get(name)


def snapshot() -> Dict[str, Dict[str, object]]:
    """Snapshot of the process-local registry."""
    return counters.snapshot()


def report() -> str:
    """Formatted table of the process-local registry."""
    return counters.report()


class scope:
    """Context manager timing a named scope and namespacing its counts.

    ``with obs.scope("inside") as s:`` records one timed call under
    ``inside`` on exit; ``s.add("unit_pairs")`` increments the counter
    ``inside.unit_pairs``.  When collection is disabled the scope is a
    no-op costing one branch on entry and one on exit.
    """

    __slots__ = ("name", "_t0")

    def __init__(self, name: str) -> None:
        self.name = name
        self._t0: Optional[float] = None

    def __enter__(self) -> "scope":
        if enabled:
            self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        if self._t0 is not None:
            counters.add_time(self.name, time.perf_counter() - self._t0)
            self._t0 = None

    def add(self, suffix: str, n: int = 1) -> None:
        """Increment the counter ``<scope name>.<suffix>``."""
        if enabled:
            counters.add(f"{self.name}.{suffix}", n)

    def high_water(self, suffix: str, value: float) -> None:
        """Record the gauge ``<scope name>.<suffix>``."""
        if enabled:
            counters.high_water(f"{self.name}.{suffix}", value)


class capture:
    """Enable + reset collection for a block, restoring the prior state.

    Yields the process-local :class:`Counters` registry::

        with obs.capture() as c:
            m.unit_at(3.0)
        assert c.get("mapping.unit_at.calls") == 1

    The registry is reset on *entry* (so the block observes only its own
    work) but left intact on exit for post-mortem inspection.
    """

    __slots__ = ("_prev",)

    def __enter__(self) -> Counters:
        self._prev = enabled
        counters.reset()
        enable()
        return counters

    def __exit__(self, *exc) -> None:
        if not self._prev:
            disable()
