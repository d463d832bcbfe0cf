"""Deterministic failpoint injection for the storage and query layers.

A *failpoint* is a named hook compiled into a hot path (page writes,
WAL syncs, FLOB chain writes, ...).  Disarmed — the default — every
site costs one module-attribute branch (``if faults.active:``), the
same discipline :mod:`repro.obs` uses.  Armed, the site consults its
*trigger policy* and either raises a typed error or performs a
site-specific corruption (a torn write, a flipped bit), letting the
fault matrix (:mod:`repro.faultmatrix`, one scenario per name below)
prove that recovery and detection actually work.

Every failpoint name is a string literal registered in
:data:`FAILPOINT_NAMES`; ``repro-lint`` rule MOD006 cross-checks the
call sites against the registry in both directions (mirror of the
MOD004 obs-name rule).

Trigger policies (all deterministic)::

    once            fire on the first check, then disarm
    every:N         fire on every Nth check (N, 2N, ...)
    after:K         skip K checks, fire on check K+1, then disarm
    prob:P[:SEED]   fire with probability P per check, seeded RNG

Arming::

    faults.arm("wal.sync_crash")                    # programmatic
    faults.arm_spec("flob.write_crash=after:1")     # config/CLI --faults
    REPRO_FAULTS="pagefile.torn_write=once" ...     # environment

    with faults.injected("wal.append_crash"):       # test fixture
        ...

Injection sites call :func:`fail` (raise a typed error when the policy
fires) or :func:`should_fire` (site-specific behaviour, e.g. writing
half a page)::

    if faults.active:
        faults.fail("pagefile.read_transient", TransientIOError)
"""

from __future__ import annotations

import os
import random
from typing import Dict, FrozenSet, Iterator, Optional, Tuple, Type

from repro.errors import InvalidValue, SimulatedCrash

__all__ = [
    "FAILPOINT_NAMES",
    "FaultPolicy",
    "active",
    "arm",
    "arm_spec",
    "armed",
    "disarm",
    "fail",
    "fired",
    "injected",
    "parse_policy",
    "should_fire",
]

# ---------------------------------------------------------------------------
# Name registry (MOD006)
# ---------------------------------------------------------------------------
# Every failpoint name placed anywhere in repro must be declared here.
# ``repro-lint`` (rule MOD006) cross-checks the two directions
# statically: a ``fail``/``should_fire`` site using an unregistered name
# is a typo that can never be armed; a registered name with no site is
# dead weight.  Keep the literals AST-parseable (no comprehensions).

#: Every failpoint name in the codebase, with its site's semantics:
FAILPOINT_NAMES: FrozenSet[str] = frozenset({
    # page file (repro.storage.pages)
    "pagefile.write_crash",     # crash before a page write
    "pagefile.torn_write",      # write half the page slot, then crash
    "pagefile.read_transient",  # transient read error (retryable)
    "pagefile.read_bitflip",    # flip one bit of the raw slot pre-verify
    # FLOB chains (repro.storage.flob)
    "flob.write_crash",         # crash between pages of a chain write
    # write-ahead log (repro.storage.wal)
    "wal.append_crash",         # crash before buffering a record
    "wal.sync_crash",           # crash at the fsync barrier (tail lost)
    "wal.torn_tail",            # sync persists only half the tail
    # tuple store / catalog commit points
    "tuplestore.commit_crash",  # crash after durable commit, pre-apply
    "catalog.create_crash",     # crash before logging a catalog change
    # persistent column store (repro.vector.store)
    "colstore.write_crash",     # crash between column-file writes
    "colstore.manifest_crash",  # crash before the manifest update
    # shared-memory column packing (repro.parallel.shmcol)
    "shmcol.pack_crash",        # crash after segment creation, mid-copy
    # query service ingest path (repro.server.ingest)
    "wal.group_commit_crash",   # crash at the group-commit sync barrier
    "server.ingest_crash",      # crash after durable sync, pre-apply
    # live degradation (the fault matrix's live rows)
    "server.conn_drop",         # drop the connection after the work,
                                # before the response reaches the wire
    "server.slow_client",       # stall one session's response writes
                                # (a peer that stops reading)
    "parallel.worker_kill",     # SIGKILL the fork worker handed the
                                # marked chunk, mid-query
    "ingest.dup_send",          # client re-sends an acked INGEST with
                                # the same sequence token
    "shard.evict_during_query", # evict every resident shard between
                                # per-shard kernel runs, mid-scatter
})

#: Fast-path guard: True iff at least one failpoint is armed.  Sites
#: check this module attribute before doing anything else.
active: bool = False


class FaultPolicy:
    """One armed failpoint's trigger policy and firing statistics."""

    __slots__ = ("spec", "_kind", "_n", "_checks", "_rng", "_p", "fired")

    def __init__(self, spec: str):
        self.spec = spec
        self.fired = 0
        self._checks = 0
        parts = spec.split(":")
        kind = parts[0]
        self._kind = kind
        self._n = 0
        self._p = 0.0
        self._rng: Optional[random.Random] = None
        try:
            if kind == "once":
                if len(parts) != 1:
                    raise ValueError
            elif kind in ("every", "after"):
                if len(parts) != 2:
                    raise ValueError
                self._n = int(parts[1])
                if self._n < (1 if kind == "every" else 0):
                    raise ValueError
            elif kind == "prob":
                if len(parts) not in (2, 3):
                    raise ValueError
                self._p = float(parts[1])
                if not 0.0 <= self._p <= 1.0:
                    raise ValueError
                seed = int(parts[2]) if len(parts) == 3 else 0
                self._rng = random.Random(seed)
            else:
                raise ValueError
        except ValueError:
            raise InvalidValue(
                f"bad failpoint policy {spec!r}; expected once, every:N, "
                "after:K, or prob:P[:SEED]"
            ) from None

    def check(self) -> Tuple[bool, bool]:
        """One policy consultation: ``(fires_now, stay_armed)``."""
        self._checks += 1
        if self._kind == "once":
            self.fired += 1
            return True, False
        if self._kind == "every":
            if self._checks % self._n == 0:
                self.fired += 1
                return True, True
            return False, True
        if self._kind == "after":
            if self._checks == self._n + 1:
                self.fired += 1
                return True, False
            return False, True
        assert self._rng is not None
        if self._rng.random() < self._p:
            self.fired += 1
            return True, True
        return False, True


_armed: Dict[str, FaultPolicy] = {}
#: Fire counts survive disarming, so tests can assert a failpoint fired.
_fired: Dict[str, int] = {}


def parse_policy(spec: str) -> FaultPolicy:
    """Validate and build a trigger policy from its spec string."""
    return FaultPolicy(spec)


def arm(name: str, policy: str = "once") -> None:
    """Arm one registered failpoint with a trigger policy."""
    global active
    if name not in FAILPOINT_NAMES:
        raise InvalidValue(
            f"unknown failpoint {name!r}; registered failpoints: "
            f"{', '.join(sorted(FAILPOINT_NAMES))}"
        )
    _armed[name] = parse_policy(policy)
    active = True


def disarm(name: Optional[str] = None) -> None:
    """Disarm one failpoint, or all of them when ``name`` is None."""
    global active
    if name is None:
        _armed.clear()
    else:
        _armed.pop(name, None)
    active = bool(_armed)


def armed() -> Dict[str, str]:
    """Currently armed failpoints: name → policy spec."""
    return {name: pol.spec for name, pol in _armed.items()}


def fired(name: str) -> int:
    """How many times ``name`` has fired since the last counter reset
    (counts survive auto-disarm, so post-crash assertions work)."""
    return _fired.get(name, 0)


def reset_fired() -> None:
    """Clear the firing statistics (not the armed set)."""
    _fired.clear()


def should_fire(name: str) -> bool:
    """Consult the policy for ``name``; True when the site must inject.

    Sites with bespoke behaviour (torn writes, bit flips) branch on
    this; plain crash sites use :func:`fail` instead.
    """
    global active
    pol = _armed.get(name)
    if pol is None:
        return False
    fires, stay = pol.check()
    if fires:
        _fired[name] = _fired.get(name, 0) + 1
    if not stay:
        _armed.pop(name, None)
        active = bool(_armed)
    return fires


def fail(name: str, exc: Type[BaseException] = SimulatedCrash) -> None:
    """Raise ``exc`` when the policy for ``name`` fires."""
    if should_fire(name):
        raise exc(f"failpoint {name} fired")


def arm_spec(spec: str) -> None:
    """Arm failpoints from a comma-separated spec string.

    ``"a=once,b=every:3,c"`` — a bare name defaults to ``once``.  This
    is the format of the CLI's ``--faults`` flag and the
    ``REPRO_FAULTS`` environment variable.
    """
    for part in spec.split(","):
        part = part.strip()
        if not part:
            continue
        name, _, policy = part.partition("=")
        arm(name.strip(), policy.strip() or "once")


class injected:
    """Context manager arming one failpoint for a block (test fixture).

    Disarms the failpoint on exit regardless of outcome; the firing
    count remains queryable via :func:`fired`.
    """

    __slots__ = ("name", "policy")

    def __init__(self, name: str, policy: str = "once"):
        self.name = name
        self.policy = policy

    def __enter__(self) -> "injected":
        arm(self.name, self.policy)
        return self

    def __exit__(self, *exc: object) -> None:
        disarm(self.name)

    def __iter__(self) -> Iterator[object]:  # pragma: no cover - guard
        raise TypeError("faults.injected is a context manager, not iterable")


# Environment arming: REPRO_FAULTS="name=policy,..." arms at import so
# subprocesses (benchmarks, CLI) inherit the fault plan.
_env_spec = os.environ.get("REPRO_FAULTS", "")
if _env_spec:
    arm_spec(_env_spec)
