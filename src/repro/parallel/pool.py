"""The worker pool of the ``parallel`` backend.

One lazily created ``fork``-context process pool per parent process.
Workers receive tiny payloads — an operation name, a shared-column
descriptor and an object range — attach the segment once (each worker
keeps a small CLOCK table of attachments, :mod:`repro.residency`), take
a zero-copy chunk view, and run the kernel the operator table
(:mod:`repro.vector.backends`) names for that operation on it.

Observability crosses the process boundary explicitly: when the parent
is profiling, each task runs under ``obs.capture`` and ships its counter
snapshot back with the result; the parent merges the snapshots so
``vector.*`` kernel counters stay accurate under ``--backend parallel``.
"""

from __future__ import annotations

import atexit
import multiprocessing
import os
import signal
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro import config, faults, obs
from repro import deadline as deadline_mod
from repro.analysis import dynlock
from repro.errors import InvalidValue, ReproError
from repro.parallel import shmcol
from repro.residency import Residency
from repro.vector.backends import OPERATIONS

# ---------------------------------------------------------------------------
# Worker-count policy
# ---------------------------------------------------------------------------

_workers_override: Optional[int] = None

#: Resolved once: ``os.cpu_count()`` reads sysfs, and every gather asks.
_CPU_COUNT = os.cpu_count() or 1


def set_workers(n: Optional[int]) -> None:
    """Set this process's default worker count (``None`` = use config).

    ``0`` means "one worker per CPU core".  The CLI's ``--workers`` flag
    lands here.
    """
    global _workers_override
    if n is not None:
        n = int(n)
        if n < 0:
            raise InvalidValue(f"workers must be >= 0, got {n}")
    _workers_override = n


def get_workers() -> Optional[int]:
    """The process-wide worker-count override, if any."""
    return _workers_override


def effective_workers(requested: Optional[int] = None) -> int:
    """Resolve a per-call ``workers=`` value to a concrete pool size."""
    n = requested if requested is not None else _workers_override
    if n is None:
        n = config.DEFAULT_WORKERS
    n = int(n)
    if n < 0:
        raise InvalidValue(f"workers must be >= 0, got {n}")
    if n == 0:
        n = _CPU_COUNT
    return n


# ---------------------------------------------------------------------------
# Pool lifecycle
# ---------------------------------------------------------------------------

_pool: Optional[Any] = None
_pool_size = 0

# Serializes pool (re)creation and shutdown.  The query service reaches
# get_pool() from several asyncio.to_thread workers at once; unguarded,
# two racing creators would each fork a pool and the loser's processes
# leak.  Safe across fork(): the lock is only ever held by the parent's
# control path — worker children never touch this module's lifecycle
# functions, and they exit via os._exit (no atexit), so a copy
# inherited held is inert.
# modlint: disable=MOD010 parent-side control lock, never held by worker code; a fork-inherited held copy is unreachable in the child
_POOL_LOCK = dynlock.rlock("parallel.pool")


def _worker_reset_signals() -> None:
    """Restore default signal dispositions in freshly forked workers.

    Fork workers inherit the parent's Python-level handlers — and the
    CLI matrix commands install drain handlers that *catch* SIGTERM and
    merely set a flag.  A worker blocked on the shared task-queue
    semaphore would then "catch" ``Pool.terminate()``'s SIGTERM, return
    from the handler, and resume waiting: unkillable, hanging the
    terminate-side ``join()`` forever.  SIGTERM must kill a worker;
    SIGINT stays parent-side (the dispatcher drains and retries).

    Workers are forked with SIGTERM blocked (:func:`get_pool`) and
    unblock it here, once the default disposition is back: a
    ``terminate()`` that arrives before this ran stays pending and then
    kills, instead of being swallowed by the inherited handler.
    """
    signal.signal(signal.SIGTERM, signal.SIG_DFL)
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    signal.pthread_sigmask(signal.SIG_UNBLOCK, {signal.SIGTERM})


def _worker_init(slots: Any) -> None:
    """Initializer of every pool worker: default signal dispositions,
    then a core of its own.

    Forked workers start on whichever core the scheduler picks at that
    moment and are woken there from then on; on a small machine both
    workers of a two-chunk batch regularly end up on one core (the
    dispatching thread holds the other) and the chunks run one after
    the other for the rest of the pool's life — or side by side, if the
    fork happened to fall differently.  Worker ``k`` (``slots`` counts
    them across respawns) is therefore pinned to the ``k``-th core this
    process may use, wrapping around, so that what a batch costs does
    not depend on where its workers were born.
    """
    _worker_reset_signals()
    if not hasattr(os, "sched_setaffinity"):  # pragma: no cover - non-Linux
        return
    with slots.get_lock():
        slot = slots.value
        slots.value += 1
    cores = sorted(os.sched_getaffinity(0))
    if len(cores) > 1:
        os.sched_setaffinity(0, {cores[slot % len(cores)]})


def get_pool(n: int) -> Any:
    """The shared pool, (re)created to hold exactly ``n`` workers."""
    global _pool, _pool_size
    with _POOL_LOCK:
        if _pool is not None and _pool_size != n:
            shutdown()
        if _pool is None:
            if "fork" in multiprocessing.get_all_start_methods():
                ctx = multiprocessing.get_context("fork")
            else:  # pragma: no cover - non-POSIX fallback
                ctx = multiprocessing.get_context()
            # Blocked across the fork — and in the pool's own threads,
            # which fork the replacements of dead workers — until each
            # worker has reset its dispositions.
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGTERM})
            try:
                _pool = ctx.Pool(
                    processes=n, initializer=_worker_init,
                    initargs=(ctx.Value("i", 0),),
                )
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
            _pool_size = n
            if obs.enabled:
                obs.counters.high_water("parallel.workers", n)
        return _pool


def shutdown() -> None:
    """Terminate the pool (idempotent; re-created lazily on next use)."""
    global _pool, _pool_size
    with _POOL_LOCK:
        if _pool is not None:
            _pool.terminate()
            _pool.join()
        _pool = None
        _pool_size = 0


atexit.register(shutdown)


class PoolBroken(Exception):
    """The pool lost workers twice dispatching one batch.

    An internal control signal for the dispatcher, deliberately *not* a
    :class:`~repro.errors.ReproError`: the executors re-raise library
    errors verbatim but must catch this one and fall back in-process,
    so it needs to be distinguishable from both.
    """


#: How long one ``AsyncResult`` wait runs before the dispatcher checks
#: worker liveness (and the active deadline).  A dead worker's chunk
#: never completes — ``multiprocessing.Pool`` silently repopulates the
#: pool but abandons the in-flight task — so this poll is the *only*
#: thing standing between a SIGKILL and an infinite hang.
_POLL_S = 0.05


def run_tasks(
    n_workers: int,
    payloads: Sequence[Tuple[Any, ...]],
    deadline: Optional[Any] = None,
) -> List[Any]:
    """Dispatch ``payloads`` to the pool, surviving worker deaths.

    The resilient replacement for a bare ``Pool.map``: each chunk is
    dispatched as its own ``AsyncResult`` and the dispatcher polls with
    a bounded wait, comparing the worker processes captured *at
    dispatch* against their exit codes.  A worker death (OOM-killed,
    SIGKILLed by the chaos matrix, segfaulted C extension) is detected
    within ``_POLL_S``; completed chunks are harvested, the pool is
    torn down and respawned once, and only the lost chunks re-run
    (``parallel.worker_deaths``/``parallel.chunk_retries``).  A second
    death raises :class:`PoolBroken` — the caller's cue to finish the
    query in-process rather than chase a dying machine.

    Results are returned in payload order.  ``deadline`` (or the
    thread-local active deadline) is checked at every poll, so an
    expired budget cancels the wait instead of riding it out.
    """
    if deadline is None:
        deadline = deadline_mod.current()
    payloads = list(payloads)
    results: Dict[int, Any] = {}
    pending: List[int] = list(range(len(payloads)))
    respawned = False
    while pending:
        worker_pool = get_pool(n_workers)
        # The liveness probe must watch *this* attempt's workers: Pool
        # quietly replaces dead processes, so a stale capture would see
        # a past generation's corpses and cry wolf forever.
        procs = list(getattr(worker_pool, "_pool", None) or [])
        kill_idx = -1
        if faults.active and should_kill_worker():
            kill_idx = pending[0]
        inflight = [
            (
                idx,
                worker_pool.apply_async(
                    run_task, (tuple(payloads[idx]) + ((idx == kill_idx),),)
                ),
            )
            for idx in pending
        ]
        died = False
        queue = list(inflight)
        while queue:
            idx, ar = queue[0]
            try:
                results[idx] = ar.get(timeout=_POLL_S)
                queue.pop(0)
                continue
            except multiprocessing.TimeoutError:
                pass
            except ReproError:
                raise  # library errors behave exactly as in-process
            if deadline is not None:
                deadline.check()
            if any(p.exitcode is not None for p in procs):
                died = True
                break
        if not died:
            return [results[i] for i in range(len(payloads))]
        # Harvest everything that finished before the death, then
        # retry only the chunks the dead worker took down with it.
        still_pending: List[int] = []
        for idx, ar in inflight:
            if idx in results:
                continue
            if ar.ready():
                try:
                    results[idx] = ar.get(timeout=0)
                    continue
                except ReproError:
                    raise
                except Exception:
                    pass
            still_pending.append(idx)
        dead = sum(1 for p in procs if p.exitcode is not None)
        if obs.enabled:
            obs.counters.add("parallel.worker_deaths", dead)
            obs.counters.add("parallel.chunk_retries", len(still_pending))
        shutdown()
        if respawned:
            raise PoolBroken(
                f"pool lost {dead} worker(s) twice dispatching one batch"
            )
        respawned = True
        pending = still_pending
    return [results[i] for i in range(len(payloads))]


def should_kill_worker() -> bool:
    """Parent-side consult of the ``parallel.worker_kill`` failpoint.

    The policy lives in the *parent*: forked workers inherit a copy of
    the armed state, so a worker-side consult of a ``once`` policy
    would fire once in **every** worker.  Instead the dispatcher asks
    here, per dispatch attempt, and marks exactly one chunk payload;
    the worker that receives the mark SIGKILLs itself.
    """
    return faults.should_fire("parallel.worker_kill")


def _merge_counters(snapshot: Mapping[str, Any]) -> None:
    """Fold one worker's counter snapshot into this process's counters.

    The names are dynamic here by construction — they are whatever the
    worker-side kernels (whose own call sites the linter *does* check)
    recorded; counters are merged with ``add``, gauges with
    ``high_water``.
    """
    if not obs.enabled:
        return
    for name, value in snapshot.get("counters", {}).items():
        obs.counters.add(name, int(value))
    for name, value in snapshot.get("gauges", {}).items():
        obs.counters.high_water(name, float(value))


# ---------------------------------------------------------------------------
# Worker-side task entry points
# ---------------------------------------------------------------------------

#: Worker-local table of attached columns, keyed by ``(kind, name)``: the
#: ``upoint`` and ``bbox`` columns of one store share an ``mmap://`` name.
_ATTACHED: Residency[Tuple[str, str], shmcol.AttachedColumn] = Residency(
    on_evict=lambda _key, wrapper: wrapper.close()
)
_ATTACH_LIMIT = 16


def _attached_column(descriptor: shmcol.Descriptor) -> Any:
    key = descriptor[:2]
    wrapper = _ATTACHED.get(key)
    if wrapper is None:
        wrapper = shmcol.attach(descriptor)
        _ATTACHED.put(key, wrapper, 1)
        _ATTACHED.fit(_ATTACH_LIMIT)
    return wrapper.column


def run_task(
    payload: Tuple[Any, ...]
) -> Tuple[Any, Optional[Dict[str, Any]]]:
    """Worker entry point: one op over one chunk of one shared column.

    ``op`` names a row of :data:`repro.vector.backends.OPERATIONS` — the
    same entry the parent's in-process path resolves — whose kernel runs
    over a zero-copy view of objects ``[lo, hi)``.  The optional seventh
    payload element is the dispatcher's worker-kill mark (see
    :func:`should_kill_worker`): the marked worker dies by SIGKILL
    *before* touching the column, simulating an external kill — no
    cleanup, no exception, just a corpse for the dispatcher to find.
    """
    op, descriptor, lo, hi, extra, profiled = payload[:6]
    if len(payload) > 6 and payload[6]:
        os.kill(os.getpid(), signal.SIGKILL)
    entry = OPERATIONS[op]
    view = _attached_column(descriptor).chunk(lo, hi)
    if profiled:
        with obs.capture() as counters:
            out = entry.kernel(view, *extra)
        snap = counters.snapshot()
        return out, {"counters": snap["counters"], "gauges": snap["gauges"]}
    return entry.kernel(view, *extra), None
