"""``repro.server`` — the always-on query service.

A long-running asyncio front end over the moving-objects store: clients
speak a small line protocol (QUERY / EXPLAIN / INGEST / SNAPSHOT /
STATS / CLOSE), ingestion appends unit slices to live fleets WAL-durably
behind a group-committed fsync, and every read pins a snapshot of the
versioned fleet so in-flight queries never observe a torn fleet.

Layering (modelled on a REPL/executor split):

* :mod:`repro.server.protocol` — parse request lines, frame replies
  into encoded blocks; knows nothing about fleets or execution.
* :mod:`repro.server.executor` — owns the fleets, the SQL database, and
  the snapshot-isolation pin; answers reads as arrays; knows nothing
  about sockets.
* :mod:`repro.server.ingest` — the WAL group committer and recovery
  replay for ``INGEST`` records.
* :mod:`repro.server.session` — the asyncio session layer wiring the
  two together, one task per connection.
* :mod:`repro.server.client` — a small blocking client for tests,
  benchmarks, and scripting.
"""

from __future__ import annotations

from repro.server.client import ServerClient
from repro.server.executor import FleetExecutor, Snapshot
from repro.server.ingest import GroupCommitter, IngestRequest, replay_ingest
from repro.server.session import QueryServer, serve_in_thread

__all__ = [
    "FleetExecutor",
    "GroupCommitter",
    "IngestRequest",
    "QueryServer",
    "ServerClient",
    "Snapshot",
    "replay_ingest",
    "serve_in_thread",
]
