"""The storage engine: Section 4 made concrete.

Attribute data types are stored as a *root record* (fixed size, always
inside the tuple) plus zero or more *database arrays* (variable size,
stored inline in the tuple when small, or in separate pages when large,
following Dieker & Güting [DG98]).  Pointers are integer indices into
companion arrays — never memory pointers.

Modules:

* :mod:`repro.storage.darray` — database arrays and subarrays;
* :mod:`repro.storage.pages` — the page file;
* :mod:`repro.storage.buffer` — the buffer pool (CLOCK, pin counts);
* :mod:`repro.storage.flob` — inline-or-paged large object placement;
* :mod:`repro.storage.records` — per-type codecs (pack/unpack);
* :mod:`repro.storage.tuplestore` — heap files of tuples with embedded
  attribute values;
* :mod:`repro.storage.wal` — write-ahead log and crash recovery.

The arm → crash → recover → verify harness over every registered
failpoint sits above this package, in :mod:`repro.faultmatrix`: its
scenarios also need the query service, which builds on storage.
"""

from __future__ import annotations

from repro.storage.darray import DatabaseArray, SubArray
from repro.storage.pages import PageFile
from repro.storage.buffer import BufferPool
from repro.storage.flob import FlobStore, FlobRef
from repro.storage.records import (
    StoredValue,
    codec_for,
    pack_value,
    safe_unpack,
    unpack_value,
)
from repro.storage.tuplestore import TupleStore
from repro.storage.wal import Wal, WalRecord

__all__ = [
    "DatabaseArray",
    "SubArray",
    "PageFile",
    "BufferPool",
    "FlobStore",
    "FlobRef",
    "StoredValue",
    "codec_for",
    "pack_value",
    "safe_unpack",
    "unpack_value",
    "TupleStore",
    "Wal",
    "WalRecord",
]
