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
from repro.errors import (
    CatalogError,
    CorruptColumnError,
    CorruptRecordError,
    InvalidValue,
)
from repro.storage import wal as walmod
from repro.storage.tuplestore import TupleStore
from repro.storage.wal import Wal

_CATALOG_SCOPE = "catalog"
_COLSTORE_SCOPE = "colstore"


def _build_column(kind: str, mappings: Sequence):
    """Build one column kind from mappings (lazy import: the catalog
    must stay importable without pulling in numpy-backed modules)."""
    from repro.vector.columns import KINDS

    return KINDS[kind].from_mappings(mappings)


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
        from repro.vector.cache import evict_columns

        evict_columns(self._relations.pop(name))  # its kept scan state

    def _log_op(self, doc: dict) -> None:
        assert self._wal is not None
        self._wal.append(
            walmod.CATALOG,
            json.dumps(doc, sort_keys=True).encode("utf-8"),
            scope=_CATALOG_SCOPE,
        )
        self._wal.sync()

    def checkpoint_columns(
        self,
        root: str,
        relation: str,
        attribute: str,
        kinds: Sequence[str] = ("upoint", "bbox"),
    ):
        """Persist columns for one relation attribute and log a COLSTORE
        checkpoint tying the files to this WAL position.

        Builds the requested column kinds from the relation's current
        rows, writes them into the :class:`repro.vector.store.
        ColumnStore` at ``root``, then appends a durable COLSTORE record
        carrying the store root, the source relation/attribute, and the
        manifest CRC of the generation just written.  After a crash,
        :meth:`recover` re-validates exactly that generation and
        rebuilds it from the recovered relation when validation fails —
        the column files get the same detect/degrade/repair treatment
        PR 4 gave pages.

        Returns the :class:`ColumnStore`.
        """
        from repro.vector.store import ColumnStore

        rel = self.relation(relation)
        mappings = [row[attribute] for row in rel.scan()]
        store = ColumnStore(root)
        for kind in kinds:
            store.save(
                kind, _build_column(kind, mappings), n_objects=len(mappings)
            )
        doc = {
            "op": "checkpoint",
            "root": store.root,
            "relation": relation,
            "attribute": attribute,
            "kinds": list(kinds),
            "manifest_crc": store.manifest_crc(),
        }
        if self._wal is not None:
            self._wal.append(
                walmod.COLSTORE,
                json.dumps(doc, sort_keys=True).encode("utf-8"),
                scope=_COLSTORE_SCOPE,
            )
            self._wal.sync()
        return store

    @classmethod
    def recover(cls, wal: Wal, name: str = "modb") -> "Database":
        """Rebuild a database — catalog and relation contents — from a WAL.

        Replays the durable CATALOG records to reconstruct the schema,
        then recovers each surviving materialized relation's tuple
        store from its ``rel:<name>`` records.  The recovered relations
        get fresh page files: every committed FLOB page was logged as a
        redo image, so replay rewrites them from the log alone.
        """
        db = cls(name, wal=None)  # silence logging while replaying DDL
        specs: Dict[str, dict] = {}
        colstores: Dict[str, dict] = {}  # store root → last COLSTORE doc
        for rec in wal.records():
            if rec.rec_type == walmod.COLSTORE and rec.scope == _COLSTORE_SCOPE:
                try:
                    doc = json.loads(rec.payload.decode("utf-8"))
                    colstores[doc["root"]] = doc
                except (ValueError, KeyError, UnicodeDecodeError) as exc:
                    raise CorruptRecordError(
                        f"undecodable COLSTORE record: {exc}"
                    ) from exc
                continue
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
        for doc in colstores.values():
            db._recover_colstore(doc)
        db._wal = wal
        return db

    def _recover_colstore(self, doc: dict) -> None:
        """Validate one checkpointed column store; rebuild when stale.

        The full-CRC :meth:`ColumnStore.verify` tier runs here (recovery
        is the one place a linear payload scan is worth its cost), plus
        a manifest-CRC comparison against the logged checkpoint — a
        manifest that verifies but is not the checkpointed generation is
        *stale* (written after the checkpoint, torn before its own
        COLSTORE record made it to the log) and rebuilt too.  Rebuilds
        come from the already-recovered relation (counted under
        ``colstore.rebuilds``); when the source relation did not survive
        or the rebuild itself fails, the store is left untouched and
        unused — degraded to tuple-store scans, never wrong bytes.
        """
        from repro import obs
        from repro.errors import StorageError
        from repro.vector.store import ColumnStore

        store = ColumnStore(doc["root"])
        try:
            store.verify()
            if store.manifest_crc() == doc.get("manifest_crc"):
                return  # checkpointed generation intact
        except CorruptColumnError:
            pass
        rel = self._relations.get(doc.get("relation", ""))
        if rel is None:
            return
        try:
            mappings = [row[doc["attribute"]] for row in rel.scan()]
            for kind in doc.get("kinds", ()):
                if obs.enabled:
                    obs.add("colstore.rebuilds")
                store.save(
                    kind, _build_column(kind, mappings), n_objects=len(mappings)
                )
        except (KeyError, StorageError, InvalidValue, OSError):
            return  # degraded: queries fall back to tuple-store scans

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
