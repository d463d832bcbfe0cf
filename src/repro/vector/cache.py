"""Fleets and the columns they keep.

The economics (``benchmarks/e2e/run.py --workload api_scan_warm``,
``cache.build_upoint_ms`` beside ``kernels.atinstant_ms``): the batched
``atinstant`` kernel costs well under a millisecond at 10,000 objects,
but building its column costs tens of milliseconds — repeated snapshot
and window queries would pay a ~40× overhead to re-transcribe an
unchanged fleet.  So a fleet keeps what it built, as Section 4's value
keeps its database arrays:

* :class:`Fleet` is a list-like sequence of moving objects carrying a
  monotonically increasing *version stamp*, bumped by every mutating
  operation (``append``/``__setitem__``/``__delitem__``/``insert``/…).
  :meth:`Fleet.column_for` builds a column kind once per version and
  keeps it in the fleet: a read either hits (the stamp matches) or
  finds an *invalidation* (the fleet mutated since the column was
  built) and rebuilds.  The columns leave with their fleet.
* :func:`lookup` / :func:`keep` are that kept state for any owner with
  a ``version``: a fleet's columns, a relation's scan state
  (:class:`repro.db.executor.VectorScan`).  Each owner holds its own
  values in its ``_kept`` attribute, which nothing but this module
  touches.

Plain sequences (lists, tuples) have no version stamp and keep nothing
— they get a fresh column per call.  Counters: ``colcache.hits`` /
``colcache.misses`` / ``colcache.invalidations``.

A :class:`ServedFleet` — the query service's fleet — keeps nothing
either: it *is* its ``upoint`` column, and :func:`column_for_versioned`
hands that column out as it stands.
"""

from __future__ import annotations

import os
from collections.abc import MutableSequence, Sequence
from itertools import islice
from typing import (
    Any, Dict, Hashable, Iterable, Iterator, List, Optional, Tuple,
)

from repro import obs
from repro.analysis import dynlock
from repro.errors import InvalidValue
from repro.temporal.mapping import MovingPoint
from repro.vector.columns import BBoxColumn, UPointColumn, column_class

#: Members a served fleet transcribes per step of its construction: an
#: iterable is read this many at a time, so a generated fleet never
#: exists whole beside its column.
_BOOT_CHUNK = 1024

#: Serializes every read and write of an owner's kept values, and a
#: fleet's column build with them, so readers of a stale fleet build
#: once.  Re-entrant because a build may re-enter through the fleet's
#: own ``__getitem__``.
_LOCK = dynlock.rlock("vector.colcache")


class Fleet(MutableSequence[Any]):
    """A mutable sequence of moving objects with a version stamp.

    Behaves like a list for every read, but every mutation bumps
    :attr:`version`, which is what lets :meth:`column_for` decide
    whether a column it kept still describes the fleet: after any
    mutation the next read rebuilds.

    The version restarts at 0 in every fleet, so outside the process it
    says nothing; :attr:`stamp` is what a stored copy of a column is
    signed with.
    """

    __slots__ = ("_items", "_version", "_members", "_identity", "_kept")

    def __init__(self, items: Iterable[Any] = ()):
        self._items: List[Any] = list(items)
        self._version = 0
        # 128 random bits: no other Fleet, in this or any process, draws
        # the same ones.
        self._identity = int.from_bytes(os.urandom(16), "big")
        # (version, members at that version), built on first ask.
        self._members: Optional[Tuple[int, Tuple[Any, ...]]] = None
        # kind -> (version, column), filled by keep().
        self._kept: Optional[Dict[Hashable, Tuple[int, Any]]] = None

    @property
    def version(self) -> int:
        """Monotonic mutation stamp; changes iff the fleet changed."""
        return self._version

    @property
    def stamp(self) -> int:
        """This fleet object at this version, as one integer (identity
        above a 64-bit version): what a column store is stamped with
        (``fleet_version=``), so a stored generation is served only to
        the object that wrote it, at the version it wrote it."""
        return (self._identity << 64) | self._version

    def members(self) -> Tuple[Any, ...]:
        """The current members as an immutable tuple, shared until the
        next version bump.

        One C-level copy of the list per version, an attribute read
        after that: every reader that pins the fleet at one version
        holds the *same* tuple, and a tuple handed out before a mutation
        keeps describing the fleet as it was.  Reads ``_items`` directly
        — a subclass's ``__getitem__`` / ``__iter__`` is not consulted.
        Call it under whatever lock serializes the fleet's mutators (a
        mutator changes the list before it bumps the version).
        """
        held = self._members
        if held is None or held[0] != self._version:
            held = self._members = (self._version, tuple(self._items))
        return held[1]

    def invalidate(self) -> None:
        """Bump the version without changing contents.

        For callers that mutated a *member* in place (the fleet cannot
        observe that), so kept columns must be declared stale by hand:
        the next :meth:`column_for` rebuilds.
        """
        self._version += 1

    def column_for(self, kind: str) -> Tuple[int, Any]:
        """``(version, column)`` of ``kind``: the column kept at the
        current version, or one built now and kept.

        The version is the stamp the column was built at.  Callers that
        dispatch a kernel *after* obtaining the column compare it with
        :attr:`version` at use time (:func:`revalidate`): a fleet
        mutated in between — even by its own builder iteration — must
        not silently feed the kernel a stale column.  A fleet of moving
        points derives its ``bbox`` column from its ``upoint`` one.
        """
        cls = column_class(kind)
        with _LOCK:
            version = self._version
            column = lookup(self, kind)
            if column is None:
                if cls is BBoxColumn and all(
                    isinstance(m, MovingPoint) for m in self.members()
                ):
                    version, upoint = self.column_for(UPointColumn.KIND)
                    column = cls.from_upoint(upoint)
                else:
                    column = cls.from_mappings(self)
                keep(self, kind, version, column)
            return version, column

    # -- MutableSequence core ------------------------------------------------

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, i: Any) -> Any:
        return self._items[i]

    def __setitem__(self, i: Any, value: Any) -> None:
        self._items[i] = value
        self._version += 1

    def __delitem__(self, i: Any) -> None:
        del self._items[i]
        self._version += 1

    def insert(self, i: int, value: Any) -> None:
        self._items.insert(i, value)
        self._version += 1

    def __repr__(self) -> str:
        return f"Fleet({len(self._items)} objects, version={self._version})"

    # Slots copy shallowly: without these a copy would share the list
    # with its original, and a pickled twin would carry the original's
    # identity — two diverging fleets showing one stamp.

    def __reduce__(self) -> Tuple[Any, ...]:
        return _clone, (type(self), self._items, self._version)

    def __copy__(self) -> "Fleet":
        return _clone(*self.__reduce__()[1])


def _clone(cls: type, items: List[Any], version: int) -> Fleet:
    """A fleet with ``items`` at ``version`` under a list and identity
    of its own (what copying or unpickling a fleet builds)."""
    twin = cls.__new__(cls)
    Fleet.__init__(twin, items)
    twin._version = version
    return twin


class ServedFleet(Sequence[MovingPoint]):
    """A fleet of moving points held as its ``upoint`` column alone.

    Section 4 stores a moving point as a root record plus an array of
    fixed unit records; a served fleet is that layout for all of its
    objects at once — one immutable :class:`UPointColumn` and the
    version it describes, and no member object.  The one writer (the
    query service's ingest apply) builds each next column itself and
    swaps it in with :meth:`publish`; :meth:`pin` reads the pair in one
    attribute read, so a reader needs no lock to hold a consistent view.

    As a sequence it is live and read-only: ``fleet[i]`` and iteration
    build :class:`MovingPoint` values from the current column
    (:meth:`UPointColumn.mapping_at`) and keep each one until a publish
    changes that object.  Nothing is built unless asked.
    """

    __slots__ = ("_state",)

    def __init__(self, column: UPointColumn, version: int = 0):
        # (version, column, members built from that column), swapped
        # whole: the members dict only ever holds values of its column.
        self._state: Tuple[int, UPointColumn, Dict[int, MovingPoint]] = (
            version, column, {},
        )

    @classmethod
    def from_mappings(cls, mappings: Iterable[Any]) -> "ServedFleet":
        """A fleet over ``mappings`` (any iterable), transcribed
        ``_BOOT_CHUNK`` members at a time; the column is field for field
        :meth:`UPointColumn.from_mappings` over the whole list.  A member
        no ``upoint`` column can hold raises its :class:`InvalidValue`."""
        members = iter(mappings)
        chunks: List[UPointColumn] = []
        while True:
            chunk = list(islice(members, _BOOT_CHUNK))
            if not chunk:
                return cls(UPointColumn.concatenated(chunks))
            chunks.append(UPointColumn.from_mappings(chunk))

    @property
    def version(self) -> int:
        """The version the served column describes."""
        return self._state[0]

    @property
    def column(self) -> UPointColumn:
        """The served ``upoint`` column (immutable; replaced, never changed)."""
        return self._state[1]

    def pin(self) -> Tuple[int, UPointColumn]:
        """``(version, column)`` as of one instant."""
        version, column, _members = self._state
        return version, column

    def publish(
        self, version: int, column: UPointColumn, changed: Iterable[int]
    ) -> None:
        """Serve ``column`` at ``version`` from now on.

        ``changed`` names every object ``column`` holds differently from
        the current column (appended ones included); their built members
        are dropped and every other one is kept.  The caller serializes
        publishes.
        """
        members = dict(self._state[2])
        for i in changed:
            members.pop(i, None)
        self._state = (version, column, members)

    def column_for(self, kind: str) -> Tuple[int, Any]:
        """``(version, column)`` of ``kind``: the served column itself
        for ``upoint``; a ``bbox`` column derived from it."""
        version, column = self.pin()
        if column_class(kind) is BBoxColumn:
            return version, BBoxColumn.from_upoint(column)
        if kind != UPointColumn.KIND:
            raise InvalidValue(f"a served fleet holds no {kind} column")
        return version, column

    def __len__(self) -> int:
        return self._state[1].n_objects

    def __getitem__(self, i: Any) -> Any:
        _version, column, members = self._state
        n = column.n_objects
        if not -n <= i < n:
            raise IndexError("served fleet index out of range")
        i %= n
        member = members.get(i)
        if member is None:
            member = members[i] = column.mapping_at(i)
        return member

    def __iter__(self) -> Iterator[MovingPoint]:
        _version, column, members = self._state
        if not members:
            members.update(enumerate(column.to_mappings()))
        for i in range(column.n_objects):
            member = members.get(i)
            if member is None:
                member = members[i] = column.mapping_at(i)
            yield member

    def __repr__(self) -> str:
        version, column = self.pin()
        return f"ServedFleet({column.n_objects} objects, version={version})"


def column_for(fleet: Any, kind: str = "upoint") -> Any:
    """Build (or fetch) the ``kind`` column for ``fleet``.

    A :class:`Fleet` or :class:`ServedFleet` answers from what it holds
    (:meth:`Fleet.column_for`); plain sequences are transcribed fresh
    per call (no version to validate against).  Raises whatever the
    column builder raises (``InvalidValue`` for non-mapping members), so
    backend dispatchers keep their counted scalar fallback.
    """
    return column_for_versioned(fleet, kind)[1]


def column_for_versioned(
    fleet: Any, kind: str = "upoint"
) -> Tuple[Optional[int], Any]:
    """Like :func:`column_for`, plus the version stamp the column
    describes (None for plain sequences, which carry no stamp)."""
    if isinstance(fleet, (Fleet, ServedFleet)):
        return fleet.column_for(kind)
    return None, column_class(kind).from_mappings(fleet)


#: How many get→mutate→re-get rounds :func:`revalidate` tolerates before
#: accepting the freshest build.  A fleet that mutates on *every* read
#: (pathological) can never be stably snapshotted by any backend.
_REVALIDATE_ROUNDS = 3


def revalidate(fleet: Any, kind: str, version: Optional[int], column: Any) -> Any:
    """Use-time validation of a previously obtained ``(version, column)``.

    Closes the TOCTOU window between obtaining a column and dispatching
    a kernel over it: if the fleet's version moved in between (an
    in-place mutation, possibly triggered *during* the column build by
    the fleet's own ``__getitem__``), the stale column is dropped and
    re-fetched — counted under ``colcache.invalidations``.
    Plain sequences (``version is None``) have no stamp to validate.
    """
    if version is None or not isinstance(fleet, Fleet):
        return column
    for _ in range(_REVALIDATE_ROUNDS):
        if fleet.version == version:
            return column
        version, column = fleet.column_for(kind)
    return column


def lookup(owner: Any, slot: Hashable) -> Any:
    """What :func:`keep` holds for ``owner`` under ``slot`` if it was
    kept at ``owner.version``, else None — a hit, an invalidation (the
    stale value goes) or a miss, counted under ``colcache.*``."""
    with _LOCK:
        kept = owner._kept
        entry = None if kept is None else kept.get(slot)
        if entry is not None and entry[0] == owner.version:
            if obs.enabled:
                obs.counters.add("colcache.hits")
            return entry[1]
        if entry is not None:
            if obs.enabled:
                obs.counters.add("colcache.invalidations")
            del kept[slot]
        if obs.enabled:
            obs.counters.add("colcache.misses")
        return None


def keep(owner: Any, slot: Hashable, version: int, value: Any) -> None:
    """Hold ``value`` in ``owner`` under ``slot``, for as long as the
    owner lives or a later version replaces it.

    ``version`` is ``owner.version`` as read *before* ``value`` was
    built.  Versions only rise and move after a change is visible, so
    a value that still matches at :func:`lookup` was built from exactly
    the current contents; one overtaken meanwhile is never served, and
    never replaces what a later version kept.  The value is shared from
    here on.
    """
    with _LOCK:
        kept = owner._kept
        if kept is None:
            kept = owner._kept = {}
        entry = kept.get(slot)
        if entry is None or entry[0] <= version:
            kept[slot] = (version, value)
