"""The database catalog: named relations.

With a :class:`repro.storage.wal.Wal` attached, catalog mutations
(create/drop of relations) are logged as CATALOG records under the
scope ``"catalog"`` and each materialized relation's tuple store logs
under ``rel:<name>`` — so :meth:`Database.recover` can rebuild the
whole database (schema *and* data) from the log after a crash.
"""

from __future__ import annotations

import json
from typing import Dict, List, Optional, Sequence, Tuple

from repro import faults
from repro.db.relation import Relation
from repro.db.schema import Schema
from repro.errors import CatalogError, CorruptRecordError
from repro.storage import wal as walmod
from repro.storage.tuplestore import TupleStore
from repro.storage.wal import Wal

_CATALOG_SCOPE = "catalog"


class Database:
    """A collection of named relations plus query entry points."""

    def __init__(self, name: str = "modb", wal: Optional[Wal] = None):
        self.name = name
        self._relations: Dict[str, Relation] = {}
        self._wal = wal

    @property
    def wal(self) -> Optional[Wal]:
        return self._wal

    def create_relation(
        self,
        name: str,
        attributes: Sequence[Tuple[str, str]],
        materialized: bool = False,
        inline_threshold: Optional[int] = None,
    ) -> Relation:
        """Create and register a relation; raises on duplicate names.

        With a WAL attached, the DDL is durable before the relation
        becomes visible: a crash either loses the relation entirely or
        recovery re-creates it.
        """
        if name in self._relations:
            raise CatalogError(f"relation {name!r} already exists")
        if self._wal is not None:
            if faults.active:
                faults.fail("catalog.create_crash")
            self._log_op(
                {
                    "op": "create",
                    "name": name,
                    "attributes": [list(a) for a in attributes],
                    "materialized": materialized,
                    "inline_threshold": inline_threshold,
                }
            )
        rel = Relation(
            name,
            Schema(attributes),
            materialized,
            inline_threshold=inline_threshold,
            wal=self._wal,
        )
        self._relations[name] = rel
        return rel

    def drop_relation(self, name: str) -> None:
        """Remove a relation; raises on unknown names."""
        if name not in self._relations:
            raise CatalogError(f"no relation named {name!r}")
        if self._wal is not None:
            self._log_op({"op": "drop", "name": name})
        del self._relations[name]

    def _log_op(self, doc: dict) -> None:
        assert self._wal is not None
        self._wal.append(
            walmod.CATALOG,
            json.dumps(doc, sort_keys=True).encode("utf-8"),
            scope=_CATALOG_SCOPE,
        )
        self._wal.sync()

    @classmethod
    def recover(cls, wal: Wal, name: str = "modb") -> "Database":
        """Rebuild a database — catalog and relation contents — from a WAL.

        Replays the durable CATALOG records to reconstruct the schema,
        then recovers each surviving materialized relation's tuple
        store from its ``rel:<name>`` records.  The recovered relations
        get fresh page files: every committed FLOB page was logged as a
        redo image, so replay rewrites them from the log alone.  Every
        other record type is skipped here.
        """
        db = cls(name, wal=None)  # silence logging while replaying DDL
        specs: Dict[str, dict] = {}
        for rec in wal.records():
            if rec.rec_type != walmod.CATALOG or rec.scope != _CATALOG_SCOPE:
                continue
            try:
                doc = json.loads(rec.payload.decode("utf-8"))
            except (ValueError, UnicodeDecodeError) as exc:
                raise CorruptRecordError(
                    f"undecodable CATALOG record: {exc}"
                ) from exc
            if doc.get("op") == "create":
                specs[doc["name"]] = doc
            elif doc.get("op") == "drop":
                specs.pop(doc["name"], None)
        for rel_name, doc in specs.items():
            attrs = [tuple(a) for a in doc["attributes"]]
            rel = Relation(
                rel_name,
                Schema(attrs),
                doc["materialized"],
                inline_threshold=doc["inline_threshold"],
                wal=wal,
            )
            if rel._store is not None:
                # Replace the fresh store with one replayed from the
                # log; every committed FLOB page image lives in the WAL,
                # so the fresh page file is rebuilt from replay alone.
                rel._store = TupleStore.recover(
                    [(a.name, a.type_name) for a in rel.schema],
                    rel._store.pagefile,
                    wal,
                    wal_scope=f"rel:{rel_name}",
                    inline_threshold=doc["inline_threshold"],
                )
            db._relations[rel_name] = rel
        db._wal = wal
        return db

    def relation(self, name: str) -> Relation:
        """Look up a relation by name."""
        rel = self._relations.get(name)
        if rel is None:
            raise CatalogError(f"no relation named {name!r}")
        return rel

    def __contains__(self, name: str) -> bool:
        return name in self._relations

    def relation_names(self) -> List[str]:
        return sorted(self._relations)

    def query(self, sql: str, strict: bool = True) -> List[dict]:
        """Parse and execute a SQL query against this database.

        ``strict=False`` lets scans quarantine corrupt tuples (counted
        under ``storage.quarantined``) instead of aborting the query.
        """
        from repro.db.sql import run_query

        return run_query(self, sql, strict=strict)
