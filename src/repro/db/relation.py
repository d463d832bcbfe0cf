"""Relations: schema-typed tuple collections over the storage engine.

A relation can run in two modes:

* ``materialized=False`` (default) — rows are kept as Python objects;
  fast, used for intermediate query results;
* ``materialized=True`` — every tuple round-trips through the
  :class:`~repro.storage.tuplestore.TupleStore`, i.e. through the root
  record / database array / FLOB machinery of Section 4, as a real DBMS
  attribute value would.
"""

from __future__ import annotations

from typing import Any, Dict, Iterator, List, Optional, Sequence

from repro.base.values import BaseValue, wrap
from repro.errors import CatalogError
from repro.db.schema import Schema
from repro.storage.tuplestore import TupleStore
from repro.storage.wal import Wal


class Relation:
    """A named relation with a fixed schema.

    With a WAL attached (materialized relations only), tuple inserts
    are logged under the scope ``rel:<name>`` and survive a crash via
    :meth:`TupleStore.recover`.

    :attr:`version` stamps the contents: every :meth:`insert` moves it
    (after the tuple is visible), so what a scan read at one stamp may
    be kept for as long as the stamp stands (``VectorScan``).  What is
    kept lives in the relation and leaves with it; recovery builds a new
    relation object, which shares nothing kept for the old.
    """

    #: Slot → ``(version, value)`` kept by :func:`repro.vector.cache.keep`;
    #: nothing else reads or writes it.
    _kept: Optional[Dict[Any, Any]] = None

    def __init__(
        self,
        name: str,
        schema: Schema,
        materialized: bool = False,
        inline_threshold: Optional[int] = None,
        wal: Optional[Wal] = None,
    ):
        self.name = name
        self.schema = schema
        self._materialized = materialized
        self._rows: List[List[Any]] = []
        self._stamp = 0
        self._store: Optional[TupleStore] = None
        if materialized:
            self._store = TupleStore(
                [(a.name, a.type_name) for a in schema],
                inline_threshold=inline_threshold,
                wal=wal,
                wal_scope=f"rel:{name}",
            )

    # -- write path -------------------------------------------------------

    def insert(self, values: Sequence[Any]) -> None:
        """Insert one tuple (positionally matching the schema)."""
        if len(values) != len(self.schema):
            raise CatalogError(
                f"tuple arity {len(values)} does not match schema of {self.name}"
            )
        coerced = [self._coerce(v, a.type_name) for v, a in zip(values, self.schema)]
        if self._store is not None:
            self._store.append(coerced)
        else:
            self._rows.append(list(coerced))
            self._stamp += 1

    @property
    def version(self) -> int:
        """Monotonic stamp; moves whenever the tuples may have."""
        if self._store is not None:
            return self._stamp + self._store.version
        return self._stamp

    def invalidate(self) -> None:
        """Move :attr:`version` without an insert, for a caller that
        changed the stored bytes behind the relation's back (a repair
        tool, a test damaging a page): nothing read before counts."""
        self._stamp += 1

    def insert_dict(self, row: Dict[str, Any]) -> None:
        """Insert one tuple given as a name → value mapping."""
        self.insert([row[a.name] for a in self.schema])

    @staticmethod
    def _coerce(value: Any, type_name: str) -> Any:
        if type_name in ("int", "real", "string", "bool") and not isinstance(
            value, BaseValue
        ):
            return wrap(value)
        return value

    def insert_text(self, values: Sequence[str]) -> None:
        """Insert one tuple given as text-format strings.

        Scalar columns take plain literals (``42``, ``3.5``, ``hello``);
        spatio-temporal columns take the :mod:`repro.io.text` format
        (``MPOINT ([0 10] 0 1 0 0)``, ``REGION (FACE ((...)))``, ...).
        """
        from repro.io.text import from_text

        parsed = []
        for text, attr in zip(values, self.schema):
            if attr.type_name == "int":
                parsed.append(int(text))
            elif attr.type_name == "real":
                parsed.append(float(text))
            elif attr.type_name == "bool":
                parsed.append(text.strip().lower() == "true")
            elif attr.type_name == "string":
                parsed.append(text)
            else:
                parsed.append(from_text(text))
        self.insert(parsed)

    # -- read path ---------------------------------------------------------

    def __len__(self) -> int:
        if self._store is not None:
            return len(self._store)
        return len(self._rows)

    def scan(self, strict: bool = True) -> Iterator[Dict[str, Any]]:
        """Yield rows as name → value dicts.

        ``strict=False`` quarantines tuples whose storage representation
        fails verification (counted under ``storage.quarantined``)
        instead of raising; see :meth:`TupleStore.scan`.
        """
        names = self.schema.names
        if self._store is not None:
            for values in self._store.scan(strict=strict):
                yield dict(zip(names, values))
        else:
            for values in self._rows:
                yield dict(zip(names, values))

    def rows(self) -> List[Dict[str, Any]]:
        """Materialize all rows."""
        return list(self.scan())

    @property
    def materialized(self) -> bool:
        return self._materialized

    @property
    def store(self) -> Optional[TupleStore]:
        """The backing tuple store (materialized relations only)."""
        return self._store

    def storage_stats(self) -> Optional[dict]:
        """Storage-layer statistics (materialized relations only)."""
        if self._store is None:
            return None
        return self._store.storage_stats()

    def __repr__(self) -> str:
        mode = "materialized" if self._materialized else "in-memory"
        return f"Relation({self.name!r}, {len(self)} tuples, {mode})"
