"""Numeric configuration shared by the whole library.

All geometric and temporal predicates funnel through the comparison helpers
defined here so that a single, consistent floating point tolerance governs
the entire system.  The tolerance is deliberately absolute rather than
relative: the discrete model of the paper assumes coordinates of bounded
magnitude (map or airspace extents), for which an absolute epsilon gives
predictable, symmetric behaviour.
"""

from __future__ import annotations

import math

#: Absolute tolerance used by all floating point comparisons.
EPSILON: float = 1e-9

#: Default state of the operation-counting observability layer
#: (:mod:`repro.obs`).  Off by default: instrumented hot paths then cost
#: exactly one branch.  Flip at runtime with ``repro.obs.enable()``.
OBS_ENABLED: bool = False

#: Database arrays at most this many bytes are stored inline in the tuple;
#: larger ones are moved to a separate FLOB (large object) file, following
#: the placement strategy of Dieker & Gueting [DG98].
INLINE_THRESHOLD: int = 1024

#: Page size, in bytes, of the storage engine's page manager.  Each page
#: reserves :data:`repro.storage.pages.PAGE_HEADER_SIZE` bytes for the
#: format/version/checksum header; the rest is payload.
PAGE_SIZE: int = 4096

#: How many times the buffer pool retries a transient page-read fault
#: (:class:`repro.errors.TransientIOError`) before giving up.
BUFFER_RETRY_LIMIT: int = 3

#: Base delay, in seconds, of the buffer pool's exponential retry
#: backoff (delay doubles per attempt: base, 2·base, 4·base, ...).
BUFFER_RETRY_BASE_DELAY: float = 0.0005

#: Default evaluation backend for fleet-level operations: ``"scalar"``
#: (per-object reference loops), ``"vector"`` (columnar numpy kernels,
#: :mod:`repro.vector`) or ``"parallel"`` (those kernels chunked over a
#: process pool whose workers map store-backed columns from their files
#: and attach the rest through shared memory, :mod:`repro.parallel`).
#: A sharded fleet (:mod:`repro.shard`) ignores it and scatters on
#: ``vector``.  Flip at runtime with ``repro.vector.set_backend`` or the
#: CLI's ``--backend``.
DEFAULT_BACKEND: str = "scalar"

#: Default worker count of the ``parallel`` backend's process pool.
#: ``0`` means "one worker per CPU core".  Override per call with the
#: ``workers=`` keyword, per process with ``repro.parallel.set_workers``,
#: or per invocation with the CLI's ``--workers`` flag.
DEFAULT_WORKERS: int = 0

#: Fleets with fewer objects than this run single-process even under the
#: ``parallel`` backend (a counted fallback, ``parallel.fallback.
#: small_fleet``): pool dispatch overhead would dominate the kernel.
#: Read at call time, so tests and benchmarks may lower it.
PARALLEL_MIN_OBJECTS: int = 1024

#: Byte budget of the fleet-identity column cache: the resident bytes of
#: cached columns are held at or under this by CLOCK eviction
#: (:mod:`repro.residency`).  High-water tracked as ``colcache.bytes``.
COLCACHE_BYTES: int = 256 * 1024 * 1024


def feq(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` and ``b`` are equal within tolerance (equal
    infinities too: their difference is NaN)."""
    return a == b or abs(a - b) <= eps


def fle(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is less than or equal to ``b`` within tolerance."""
    return a <= b + eps


def flt(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is strictly less than ``b`` beyond tolerance."""
    return a < b - eps


def fge(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is greater than or equal to ``b`` within tolerance."""
    return a >= b - eps


def fgt(a: float, b: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is strictly greater than ``b`` beyond tolerance."""
    return a > b + eps


def fzero(a: float, eps: float = EPSILON) -> bool:
    """Return True if ``a`` is zero within tolerance."""
    return abs(a) <= eps


def fstationary(velocity, duration, eps: float = EPSILON):
    """Return True if a coordinate moving at ``velocity`` for ``duration``
    stays put within tolerance: its displacement ``|velocity|·duration``
    is at most ``eps``.

    The tolerance is on the position, the quantity a spatial predicate
    is about, not on the coefficient: a velocity within ``eps`` of zero
    still carries a point far over a long unit (``5e-10`` per second is
    0.005 over ``1e7`` s).  A zero velocity is stationary for any
    duration, an unbounded one included.  Elementwise on arrays, so the
    scalar window refinement and its batch kernel share this one rule.
    """
    still = velocity == 0
    # A still lane multiplies ``1·duration``, not ``0·duration``: ``0·∞``
    # is NaN, and ``still`` decides that lane anyway.
    return still | ((abs(velocity) + still) * duration <= eps)


def fsign(a: float, eps: float = EPSILON) -> int:
    """Return the sign of ``a`` under tolerance: -1, 0, or +1."""
    if a > eps:
        return 1
    if a < -eps:
        return -1
    return 0


def is_finite(a: float) -> bool:
    """Return True if ``a`` is a finite real number (not NaN or infinity)."""
    return math.isfinite(a)
