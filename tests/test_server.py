"""The query service: protocol, snapshot isolation, ingest durability.

Covers the PR-7 subsystem end to end: line-protocol parsing, the
executor's snapshot-isolated reads (a query pinned before an ingest
batch answers bit-identically to the pre-ingest state), the
append-only column extension path (``Mapping.appended``,
``UnitColumn.extended``, the ingest apply's column advance),
WAL group commit + recovery replay, the
two new crash-matrix failpoints, and the live wire behaviour of the
asyncio session layer (including the concurrent column-access
regression: two sessions, one mutating ingest).
"""

import asyncio
import contextlib
import copy
import os
import pickle
import re
import signal
import socket
import subprocess
import sys
import textwrap
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, reject, settings
from hypothesis import strategies as st

from repro import faults, obs
from repro.errors import InvalidValue, ProtocolError, QueryError
from repro.server.client import (
    ClientTimeout,
    ConnectionLost,
    Reply,
    ServerClient,
    ServerError,
)
from repro.server.executor import FleetExecutor
from repro.server.ingest import (
    GroupCommitter,
    IngestRequest,
    commit,
    decode_record,
    encode_record,
    replay_ingest,
)
from repro.server.protocol import (
    END,
    ROW_DTYPE,
    err_line,
    ok_line,
    parse_request,
    row_line,
)
from repro.server.session import serve_in_thread
from repro.storage import wal as walmod
from repro.storage.wal import Wal, WalRecord
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector.cache import Fleet, column_for_versioned
from repro.vector.columns import KINDS, UPointColumn
from repro.workloads.trajectories import FlightGenerator


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.disarm()
    faults.reset_fired()
    yield
    faults.disarm()
    faults.reset_fired()


def _mappings(n: int, seed: int = 7, legs: int = 3):
    gen = FlightGenerator(seed=seed)
    return [gen.flight(legs=legs) for _ in range(n)]


def _unit(t0, x0, y0, t1, x1, y1, **kw):
    return UPoint.between(t0, (x0, y0), t1, (x1, y1), **kw)


# ---------------------------------------------------------------------------
# protocol
# ---------------------------------------------------------------------------


class TestProtocol:
    def test_query_keeps_sql_verbatim(self):
        req = parse_request("QUERY SELECT id FROM planes;\n")
        assert req.command == "QUERY"
        assert req.sql == "SELECT id FROM planes;"

    def test_lowercase_command_accepted(self):
        assert parse_request("stats").command == "STATS"

    def test_ingest_parses_all_fields(self):
        req = parse_request("INGEST fleet 3 0.0 1 2 5.0 3 4")
        assert (req.fleet, req.obj) == ("fleet", 3)
        assert req.unit == (0.0, 1.0, 2.0, 5.0, 3.0, 4.0)

    def test_snapshot_with_window(self):
        req = parse_request("SNAPSHOT fleet 12.5 0 0 10 10")
        assert req.t == 12.5
        assert req.window == (0.0, 0.0, 10.0, 10.0)

    @pytest.mark.parametrize("line", [
        "",
        "FROB x",
        "QUERY",
        "EXPLAIN   ",
        "INGEST fleet 1 2 3",
        "INGEST fleet -1 0 0 0 1 1 1",
        "INGEST fleet one 0 0 0 1 1 1",
        "INGEST fleet 1 a 0 0 1 1 1",
        "SNAPSHOT fleet",
        "SNAPSHOT fleet 1 2 3",
        "SNAPSHOT fleet 1 9 9 0 0",
        "STATS now",
        "CLOSE please",
    ])
    def test_malformed_lines_raise_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_response_framing_is_single_line(self):
        assert ok_line(rows=2) == "OK rows=2"
        assert row_line(obj=1, x=2.5) == "ROW obj=1\tx=2.5"
        err = err_line(QueryError("no\nsuch\tfleet"))
        assert err == "ERR QueryError no such fleet"
        assert "\n" not in err


# ---------------------------------------------------------------------------
# the append-only mutation path
# ---------------------------------------------------------------------------


class TestMappingAppended:
    def test_tail_append_matches_full_rebuild(self):
        m = _mappings(1)[0]
        u = _unit(1e6, 0, 0, 1e6 + 5, 1, 1)
        grown = m.appended(u)
        rebuilt = MovingPoint(list(m.units) + [u])
        assert len(grown.units) == len(m.units) + 1
        assert [w.interval for w in grown.units] == \
               [w.interval for w in rebuilt.units]
        # The original is untouched: a new slice, never a mutation.
        assert len(m.units) == len(grown.units) - 1

    def test_out_of_order_unit_falls_back_to_full_validation(self):
        a = _unit(0.0, 0, 0, 1.0, 1, 1, rc=False)
        c = _unit(4.0, 2, 2, 5.0, 3, 3)
        m = MovingPoint([a, c])
        b = _unit(2.0, 1, 1, 3.0, 2, 2, rc=False)
        grown = m.appended(b)
        assert [u.interval.s for u in grown.units] == [0.0, 2.0, 4.0]

    def test_overlapping_append_rejected(self):
        m = MovingPoint([_unit(0.0, 0, 0, 4.0, 1, 1)])
        with pytest.raises(InvalidValue):
            m.appended(_unit(2.0, 0, 0, 6.0, 1, 1))


def _fleet_mutations():
    """Every way a ``MutableSequence`` changes, by name."""
    a, b, c = _mappings(3, seed=11)

    def iadd(f):
        f += [a, b]

    def slice_assign(f):
        f[1:3] = [a, b, c]

    def delete(f):
        del f[1]

    return {
        "append": lambda f: f.append(a),
        "extend": lambda f: f.extend([a, b]),
        "insert_front": lambda f: f.insert(0, a),
        "insert_middle": lambda f: f.insert(2, a),
        "insert_tail": lambda f: f.insert(len(f), a),
        "pop": lambda f: f.pop(),
        "remove": lambda f: f.remove(f[2]),
        "reverse": lambda f: f.reverse(),
        "iadd": iadd,
        "setitem": lambda f: f.__setitem__(1, a),
        "slice_assign": slice_assign,
        "del": delete,
        "clear": lambda f: f.clear(),
        "invalidate": lambda f: f.invalidate(),
    }


class TestFleetMembers:
    """``members()``: the fleet as an immutable tuple, one per version."""

    @pytest.mark.parametrize("name", sorted(_fleet_mutations()))
    def test_equals_tuple_after_every_mutator(self, name):
        fleet = Fleet(_mappings(4))
        before = fleet.members()
        assert before == tuple(fleet) and fleet.members() is before
        frozen = list(before)
        _fleet_mutations()[name](fleet)
        after = fleet.members()
        assert after == tuple(fleet) and len(after) == len(fleet)
        assert after is not before and fleet.members() is after
        assert list(before) == frozen  # the old pin did not move

    @pytest.mark.parametrize(
        "clone", [copy.copy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "pickle"],
    )
    @pytest.mark.parametrize("asked_before", [False, True])
    def test_a_cloned_fleet_answers_for_itself(self, clone, asked_before):
        fleet = Fleet(["a", "b", "c"])
        if asked_before:
            fleet.members()
        twin = clone(fleet)
        assert twin.members() == ("a", "b", "c") and twin.version == fleet.version
        twin[1] = "B"
        assert twin.members() == tuple(twin) == ("a", "B", "c")

    def test_an_index_moves_the_version_once_or_not_at_all(self):
        fleet = Fleet(["a", "b", "c", "d"])
        for index in (np.int64(3), np.int32(-1), np.uint8(3)):
            v = fleet.version
            fleet[index] = "D"
            assert fleet.version == v + 1 and fleet.members()[3] == "D"
        with pytest.raises(TypeError):
            fleet["1"] = "B"
        assert fleet.version == 3 and fleet.members() == ("a", "b", "c", "D")

    def test_a_copy_leaves_the_original_alone(self):
        fleet = Fleet(["a", "b", "c"])
        fleet[2] = "C"
        twin = copy.copy(fleet)
        twin[0] = "X"
        twin.append("d")
        assert list(fleet) == ["a", "b", "C"] and fleet.version == 1
        assert list(twin) == ["X", "b", "C", "d"] and twin.version == 3

    @pytest.mark.parametrize(
        "clone", [copy.copy, lambda f: pickle.loads(pickle.dumps(f))],
        ids=["copy", "pickle"],
    )
    def test_a_clone_has_its_own_stamp(self, clone):
        """A stored column is served to whoever shows its stamp: a clone
        that diverges at the same version must not show the original's."""
        fleet = Fleet(["a", "b"])
        twin = clone(fleet)
        fleet[0] = "P"
        twin[1] = "Q"
        assert fleet.version == twin.version == 1
        assert fleet.stamp != twin.stamp



class TestColumnExtended:
    def test_upoint_extension_bit_identical(self):
        mappings = _mappings(5)
        col = UPointColumn.from_mappings(mappings)
        new = list(mappings)
        new[1] = new[1].appended(_unit(1e6, 0, 0, 1e6 + 5, 1, 1))
        new[4] = new[4].appended(_unit(2e6, 3, 3, 2e6 + 5, 4, 4))
        ext = col.extended(new, {1, 4})
        ref = UPointColumn.from_mappings(new)
        for f in ("offsets", "starts", "ends", "lc", "rc",
                  "x0", "x1", "y0", "y1"):
            assert np.array_equal(getattr(ext, f), getattr(ref, f)), f

    def test_extension_rejects_unlisted_growth(self):
        mappings = _mappings(3)
        col = UPointColumn.from_mappings(mappings)
        new = list(mappings) + [_mappings(1, seed=5)[0]]
        with pytest.raises(InvalidValue):
            col.extended(new, {0})  # object 3 appeared but is not listed

    def test_every_rejection_keeps_its_message(self):
        mappings = _mappings(4)
        more = mappings + _mappings(2, seed=5)
        upoint = UPointColumn.from_mappings(mappings)
        cases = [
            (upoint, mappings[:3], set(), "column extension cannot shrink the fleet"),
            (upoint, mappings, {4}, "changed object index out of range"),
            (upoint, mappings, {-1}, "changed object index out of range"),
            (upoint, more, {0, 5}, "appended object 4 missing from the change set"),
            (upoint, more, {4}, "appended object 5 missing from the change set"),
        ]
        for column, fleet, changed, message in cases:
            with pytest.raises(InvalidValue) as exc_info:
                column.extended(fleet, changed)
            assert str(exc_info.value) == message

    def test_ingest_splices_the_served_column(self):
        ex = FleetExecutor()
        fleet = ex.register_fleet("fleet", _mappings(4))
        before = fleet.column
        with obs.capture() as seen:
            ex.apply_units([
                IngestRequest("fleet", 2, (1e6, 0, 0, 1e6 + 5, 1, 1)),
                IngestRequest("fleet", 4, (1e6, 3, 3, 1e6 + 5, 4, 4)),
            ])
            version, after = column_for_versioned(fleet, "upoint")
        # The served column is the fleet: no cache entry is consulted.
        assert (version, after) == (2, fleet.column) and after is not before
        assert not [k for k in seen.snapshot()["counters"] if k.startswith("colcache.")]
        base = _mappings(4)
        ref = UPointColumn.from_mappings([
            *base[:2], base[2].appended(_unit(1e6, 0, 0, 1e6 + 5, 1, 1)), base[3],
            MovingPoint([_unit(1e6, 3, 3, 1e6 + 5, 4, 4)]),
        ])
        assert after.n_units == before.n_units + 2
        for f in UPointColumn.ARRAYS:
            assert np.array_equal(getattr(after, f), getattr(ref, f)), f


# ---------------------------------------------------------------------------
# executor: snapshot isolation
# ---------------------------------------------------------------------------


class TestExecutorIsolation:
    def test_pinned_snapshot_is_bit_identical_across_ingest(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(6))
        t_future = 1e6 + 4.0
        _, rows_before = ex.snapshot_rows("fleet", t_future)
        assert rows_before == []  # nothing defined out there yet

        # A query "starts": its snapshot pins version + column.
        snap = ex.snapshot("fleet")
        pre_column = UPointColumn.from_mappings(_mappings(6))

        # An ingest batch lands while that query is in flight.
        commit(None, ex, [
            IngestRequest("fleet", 0, (1e6, 0, 0, 1e6 + 8, 1, 1)),
            IngestRequest("fleet", 2, (1e6, 5, 5, 1e6 + 8, 6, 6)),
        ])

        # The pinned column still describes the pre-ingest fleet, byte
        # for byte, even though the live fleet moved on.
        for f in UPointColumn.ARRAYS:
            assert np.array_equal(getattr(snap.column, f), getattr(pre_column, f)), f
        assert snap.items == tuple(_mappings(6))

        # A query started *after* the batch sees every new unit.
        _, rows_after = ex.snapshot_rows("fleet", t_future)
        assert sorted(i for i, _, _ in rows_after) == [0, 2]

    def test_pins_share_members_until_the_fleet_moves(self):
        ex = FleetExecutor()
        mappings = _mappings(9)
        fleet = ex.register_fleet("fleet", mappings)
        first, second = ex.snapshot("fleet"), ex.snapshot("fleet")
        assert first.column is second.column is fleet.column
        assert first.column is ex.snapshot_rows("fleet", 60.0)[0].column
        as_pinned = {
            kind: KINDS[kind].from_mappings(first.items).records()
            for kind in ("upoint", "bbox")
        }

        ex.apply_units([
            IngestRequest("fleet", 2, (1e6, 0, 0, 1e6 + 8, 1, 1)),
            IngestRequest("fleet", 9, (0.0, 0, 0, 10.0, 1, 1)),
        ])

        assert len(first) == 9 and first.items[2] == mappings[2]
        assert first.version != fleet.version
        assert first.items == tuple(mappings)
        for kind, records in as_pinned.items():
            again = KINDS[kind].from_mappings(first.items).records()
            assert [r.tobytes() for r in again] == [r.tobytes() for r in records]
        moved = ex.snapshot("fleet")
        assert len(moved) == 10 and moved.items[2] == fleet[2]
        assert moved.column is fleet.column and moved.column is not first.column
        assert moved.version == fleet.version == 2

    def test_snapshot_rows_window_filter(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(1))
        commit(None, ex, [
            IngestRequest("fleet", 0, (1e6, 0, 0, 1e6 + 10, 0, 0)),
            IngestRequest("fleet", 0, (2e6, 100, 100, 2e6 + 10, 100, 100)),
        ])
        _, hit = ex.snapshot_rows("fleet", 1e6 + 5, window=(-1, -1, 1, 1))
        _, miss = ex.snapshot_rows("fleet", 1e6 + 5, window=(50, 50, 60, 60))
        assert [i for i, _, _ in hit] == [0]
        assert miss == []

    def test_ingest_continuation_closes_left_boundary(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", [MovingPoint([_unit(0, 0, 0, 10, 1, 1)])])
        # A different heading, so the slices stay distinct units.
        results = commit(
            None, ex, [IngestRequest("fleet", 0, (10, 1, 1, 20, 5, 5))]
        )
        assert results == [2]
        units = ex.fleet("fleet")[0].units
        assert units[1].interval.lc is False  # prior slice owns t=10

    def test_ingest_same_heading_continuation_rejected_as_typed_error(self):
        # Appending a slice that linearly extends the last one violates
        # the mapping's minimality invariant — a typed, per-request
        # rejection, not a server failure.
        ex = FleetExecutor()
        ex.register_fleet("fleet", [MovingPoint([_unit(0, 0, 0, 10, 1, 1)])])
        results = commit(
            None, ex, [IngestRequest("fleet", 0, (10, 1, 1, 20, 2, 2))]
        )
        assert isinstance(results[0], InvalidValue)
        assert len(ex.fleet("fleet")[0].units) == 1

    def test_ingest_past_end_rejected_others_land(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(2))
        results = commit(None, ex, [
            IngestRequest("fleet", 7, (1e6, 0, 0, 1e6 + 1, 1, 1)),
            IngestRequest("fleet", 2, (1e6, 0, 0, 1e6 + 1, 1, 1)),  # append
        ])
        assert isinstance(results[0], InvalidValue)
        assert results[1] == 1
        assert len(ex.fleet("fleet")) == 3

    def test_unknown_fleet_is_a_query_error(self):
        with pytest.raises(QueryError):
            FleetExecutor().snapshot_rows("ghost", 0.0)


# ---------------------------------------------------------------------------
# WAL group commit + replay
# ---------------------------------------------------------------------------


class TestIngestDurability:
    def test_record_round_trip(self):
        req = IngestRequest("fleet", 3, (0.5, 1.0, 2.0, 9.5, 3.0, 4.0))
        scope, payload = encode_record(req)
        assert scope == "fleet:fleet"
        rec = WalRecord(walmod.INGEST, scope, payload)
        assert decode_record(rec) == req

    def test_batch_is_one_sync(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(3))
        wal = Wal()
        batch = [
            IngestRequest("fleet", i, (1e6, 0, 0, 1e6 + 5, 1, 1))
            for i in range(3)
        ]
        obs.reset()
        obs.enable()
        try:
            commit(wal, ex, batch)
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert counters.get("ingest.group_commits") == 1
        assert counters.get("ingest.units") == 3
        assert sum(
            1 for r in wal.records() if r.rec_type == walmod.INGEST
        ) == 3

    def test_replay_restores_exactly_the_durable_prefix(self):
        baseline = _mappings(3)
        ex = FleetExecutor()
        ex.register_fleet("fleet", baseline)
        wal = Wal()
        commit(wal, ex, [IngestRequest("fleet", 1, (1e6, 0, 0, 1e6 + 5, 1, 1))])
        # A buffered-but-unsynced record must not survive "the crash".
        scope, payload = encode_record(
            IngestRequest("fleet", 0, (2e6, 0, 0, 2e6 + 5, 1, 1))
        )
        wal.append(walmod.INGEST, payload, scope=scope)
        wal.crash()

        ex2 = FleetExecutor()
        fleet2 = ex2.register_fleet("fleet", baseline)
        assert replay_ingest(wal, ex2) == 1
        assert [len(m.units) for m in fleet2] == \
               [len(m.units) + (1 if i == 1 else 0)
                for i, m in enumerate(baseline)]

    #: Good, unknown fleet, good, negative object index.
    _MIXED = [
        IngestRequest("fleet", 0, (1e6, 0, 0, 1e6 + 5, 1, 1)),
        IngestRequest("nope", 0, (1e6, 0, 0, 1e6 + 5, 1, 1)),
        IngestRequest("fleet", 1, (1e6, 0, 0, 1e6 + 5, 1, 1)),
        IngestRequest("fleet", -1, (1e6, 0, 0, 1e6 + 5, 1, 1)),
    ]

    def test_unknown_fleet_and_negative_index_are_per_request(self):
        """Neither escapes the batch: each is answered in its slot, and
        the good units on either side land (``-1`` once grew the last
        object)."""
        baseline = _mappings(3)
        ex = FleetExecutor()
        fleet = ex.register_fleet("fleet", baseline)
        results = ex.apply_units(self._MIXED)
        assert results[0] == len(baseline[0].units) + 1
        assert isinstance(results[1], QueryError)
        assert results[2] == len(baseline[1].units) + 1
        assert isinstance(results[3], InvalidValue)
        assert [len(m.units) for m in fleet] == [
            len(m.units) + (i < 2) for i, m in enumerate(baseline)
        ]

    def test_replay_rederives_the_rejections(self):
        baseline = _mappings(3)
        ex = FleetExecutor()
        ex.register_fleet("fleet", baseline)
        wal = Wal()
        commit(wal, ex, self._MIXED)
        fresh = FleetExecutor()
        fresh.register_fleet("fleet", baseline)
        assert replay_ingest(wal, fresh) == 2
        assert fresh.stats()["fleet.fleet.units"] == \
            ex.stats()["fleet.fleet.units"]

    def test_server_restarts_on_a_wal_holding_a_rejected_ingest(self, tmp_path):
        """One INGEST for an unknown fleet used to make every restart
        on the WAL raise, leaving the acknowledged unit after it
        unreachable."""
        path = os.fspath(tmp_path / "serve.wal")
        baseline = _mappings(8)
        booted = sum(len(m.units) for m in baseline)

        def boot():
            ex = FleetExecutor()
            ex.register_fleet("fleet", baseline)
            return ex

        wal = Wal(path)
        run = serve_in_thread(boot(), wal=wal)
        try:
            with ServerClient("127.0.0.1", run.port) as c:
                unit = (1e6, 0.0, 0.0, 1.00001e6, 5.0, 5.0)
                with pytest.raises(ServerError) as exc_info:
                    c.ingest("nope", 0, unit)
                assert exc_info.value.remote_type == "QueryError"
                assert c.ingest("fleet", 0, unit) == len(baseline[0].units) + 1
        finally:
            run.stop()
            wal.close()
        restarted = boot()
        with Wal(path) as reopened:
            assert replay_ingest(reopened, restarted) == 1
        assert restarted.stats()["fleet.fleet.units"] == booted + 1

    def test_group_committer_batches_concurrent_submits(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        wal = Wal()

        async def drive():
            committer = GroupCommitter(wal, ex, max_batch=64, max_delay=0.02)
            results = await asyncio.gather(*[
                committer.submit(IngestRequest(
                    "fleet", i % 4,
                    (1e6 + 20.0 * (i // 4), 0, 0,
                     1e6 + 20.0 * (i // 4) + 10.0, 1, 1),
                ))
                for i in range(12)
            ])
            await committer.stop()
            return results

        obs.reset()
        obs.enable()
        try:
            results = asyncio.run(drive())
            counters = obs.snapshot()["counters"]
        finally:
            obs.disable()
        assert all(isinstance(r, int) for r in results)
        assert counters.get("ingest.units") == 12
        # Coalesced: far fewer durability barriers than requests.
        assert 1 <= counters.get("ingest.group_commits") < 12

    def test_crash_matrix_should_stop_halts_cleanly(self):
        from repro.faultmatrix import run_matrix

        assert run_matrix(seed=4, should_stop=lambda: True) == []


# ---------------------------------------------------------------------------
# concurrency: two sessions, one mutating ingest
# ---------------------------------------------------------------------------


class TestConcurrency:
    def test_column_cache_concurrent_reads_during_ingest(self):
        """Regression: unlocked cache access could pair a version stamp
        with another version's bytes mid-extension."""
        fleet = Fleet(_mappings(6))
        errors = []
        stop = threading.Event()

        def reader():
            while not stop.is_set():
                try:
                    _, col = column_for_versioned(fleet, "upoint")
                    n = len(col.offsets) - 1
                    if n != col.n_objects or len(col.x0) != col.offsets[-1]:
                        errors.append("inconsistent column served")
                except Exception as exc:  # pragma: no cover - the failure
                    errors.append(repr(exc))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for th in readers:
            th.start()
        try:
            for k in range(60):
                i = k % len(fleet)
                t0 = 1e6 + 20.0 * (k // len(fleet))
                fleet[i] = fleet[i].appended(
                    _unit(t0, 0, 0, t0 + 10.0, 1, 1)
                )
        finally:
            stop.set()
            for th in readers:
                th.join(timeout=10)
        assert errors == []
        _, final = column_for_versioned(fleet, "upoint")
        ref = UPointColumn.from_mappings(list(fleet))
        assert np.array_equal(np.asarray(final.offsets), ref.offsets)

    def test_a_read_does_not_wait_for_the_splice(self, monkeypatch):
        """The apply splices its column outside the executor lock: a read
        taken while a writer sits inside ``UnitColumn.extended`` answers
        at once, from the pre-batch version; the read after it sees the
        batch."""
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        inside, release = threading.Event(), threading.Event()
        extended = UPointColumn.extended

        def held_splice(column, mappings, changed):
            inside.set()
            assert release.wait(20)
            return extended(column, mappings, changed)

        monkeypatch.setattr(UPointColumn, "extended", held_splice)
        writer = threading.Thread(target=ex.apply_units, args=(
            [IngestRequest("fleet", 1, (1e6, 0, 0, 1e6 + 5, 1, 1))],
        ))
        writer.start()
        reads = []
        try:
            assert inside.wait(20)
            reader = threading.Thread(target=lambda: reads.append(
                (ex.snapshot_rows("fleet", 1e6 + 1), ex.stats())
            ))
            reader.start()
            reader.join(10)
            assert not reader.is_alive(), "the read waited for the splice"
        finally:
            release.set()
            writer.join(20)
        (snap, rows), stats = reads[0]
        assert snap.version == 0 and rows == []
        assert stats["fleet.fleet.version"] == 0
        snap, rows = ex.snapshot_rows("fleet", 1e6 + 1)
        assert snap.version == 1 and [i for i, _, _ in rows] == [1]

    def test_readers_beside_a_writer_see_whole_batches(self):
        """More reader threads than cores pin, read and materialize the
        served fleet while a writer publishes one-unit batches, with a
        short switch interval: every pin pairs a version with the column
        of that version, and no built member outlives the column it was
        built from."""
        ex = FleetExecutor()
        fleet = ex.register_fleet("fleet", _mappings(8))
        units0 = fleet.column.n_units
        errors, stop = [], threading.Event()

        def reader(k):
            try:
                while not stop.is_set():
                    snap, rows = ex.snapshot_rows("fleet", 60.0)
                    if snap.column.n_units != units0 + snap.version:
                        errors.append(f"version {snap.version} paired with another column")
                    member = fleet[k % 8]
                    if len(member.units) < len(_mappings(8)[k % 8].units):
                        errors.append("member lost units")
                    list(fleet)
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(repr(exc))

        readers = [
            threading.Thread(target=reader, args=(k,))
            for k in range(len(os.sched_getaffinity(0)) + 2)
        ]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for th in readers:
                th.start()
            for k in range(80):
                t0 = 1e6 + 20.0 * (k // 8)
                assert isinstance(ex.apply_units(
                    [IngestRequest("fleet", k % 8, (t0, 0, 0, t0 + 10.0, 1, 1))]
                )[0], int)
        finally:
            stop.set()
            for th in readers:
                th.join(timeout=20)
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in readers)
        assert errors == []
        assert fleet.version == 80
        assert list(fleet) == fleet.column.to_mappings()

    def test_two_wire_sessions_one_ingesting(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        run = serve_in_thread(ex)
        errors = []
        try:
            def ingester():
                try:
                    with ServerClient("127.0.0.1", run.port) as c:
                        for k in range(30):
                            t0 = 1e6 + 20.0 * (k // 4)
                            c.ingest("fleet", k % 4,
                                     (t0, 0, 0, t0 + 10.0, 1, 1))
                except Exception as exc:  # pragma: no cover
                    errors.append(repr(exc))

            th = threading.Thread(target=ingester)
            th.start()
            with ServerClient("127.0.0.1", run.port) as c:
                last_version = -1
                while th.is_alive():
                    reply = c.snapshot("fleet", 60.0)
                    version = int(reply.fields["version"])
                    assert version >= last_version
                    last_version = version
            th.join(timeout=20)
        finally:
            run.stop()
        assert errors == []
        assert sum(len(m.units) for m in ex.fleet("fleet")) == \
               sum(len(m.units) for m in _mappings(4)) + 30


    def test_every_reply_counts_the_fleet_of_its_version(self):
        """Two readers beside one ingesting client: a reply's ``objects=``
        is the fleet's length at the reply's ``version=``, never the
        length of a fleet that moved on while the read was in flight."""
        ex = FleetExecutor()
        fleet = ex.register_fleet("fleet", _mappings(5))
        # Ingest k (1-based) leaves the fleet at version k; every third
        # one appends a new object, the others grow an existing one.
        length_at = {0: 5}
        run = serve_in_thread(ex)
        errors, seen = [], []
        done = threading.Event()

        def reader():
            try:
                with ServerClient("127.0.0.1", run.port) as c:
                    while not done.is_set():
                        fields = c.snapshot("fleet", 60.0).fields
                        seen.append((int(fields["version"]), int(fields["objects"])))
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(repr(exc))

        readers = [threading.Thread(target=reader) for _ in range(2)]
        for th in readers:
            th.start()
        try:
            with ServerClient("127.0.0.1", run.port) as c:
                for k in range(1, 61):
                    n = length_at[k - 1]
                    if k % 3 == 0:
                        c.ingest("fleet", n, (0.0, 0, 0, 10.0, 1, 1))
                        n += 1
                    else:
                        t0 = 1e6 + 20.0 * k
                        c.ingest("fleet", k % 5, (t0, 0, 0, t0 + 10.0, 1, 1))
                    length_at[k] = n
        finally:
            done.set()
            for th in readers:
                th.join(timeout=20)
            run.stop()
        assert errors == [] and not any(th.is_alive() for th in readers)
        assert fleet.version == 60 and len(fleet) == length_at[60]
        assert seen and all(length_at[v] == n for v, n in seen)
        assert len({v for v, _ in seen}) > 1  # reads did interleave


# ---------------------------------------------------------------------------
# the wire
# ---------------------------------------------------------------------------


class TestWire:
    @pytest.fixture()
    def server(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        run = serve_in_thread(ex)
        yield run
        run.stop()

    def test_error_does_not_tear_session_down(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            with pytest.raises(ServerError, match="unknown command"):
                c.request("FROB 1")
            with pytest.raises(ServerError) as exc_info:
                c.snapshot("ghost", 0.0)
            assert exc_info.value.remote_type == "QueryError"
            assert len(c.snapshot("fleet", 60.0).rows) == 4  # still alive

    def test_query_and_explain_over_the_wire(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            c.query("CREATE TABLE planes (id string, flight mpoint);")
            c.query("INSERT INTO planes VALUES "
                    "('LH1', 'MPOINT ([0 10] 0 1 0 0)');")
            rows = c.query("SELECT id FROM planes;").rows
            assert rows == [{"id": "LH1"}]
            plan = c.explain("SELECT id FROM planes;")
            assert any(ln.startswith("PLAN") for ln in plan.lines)

    def test_stats_exposes_fleet_and_latency(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            c.snapshot("fleet", 60.0)
            stats = c.stats()
            assert stats.stat("fleet.fleet.objects") == "4"
            assert stats.stat("query_p50_ms") is not None

    def test_wire_snapshot_isolation_versions(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            before = c.snapshot("fleet", 1e6 + 5)
            assert before.rows == []
            c.ingest("fleet", 0, (1e6, 0, 0, 1e6 + 10, 1, 1))
            after = c.snapshot("fleet", 1e6 + 5)
            assert int(after.fields["version"]) > \
                   int(before.fields["version"])
            assert len(after.rows) == 1



# ---------------------------------------------------------------------------
# wire ≡ scalar, byte for byte
# ---------------------------------------------------------------------------

#: Coordinates where ``repr`` changes shape: signed zero, the 1e16 and
#: 1e-4 thresholds of exponent notation, 17-digit values.
_EDGE_COORDS = [
    -0.0, 0.0, 1e16, -1e16, 9999999999999998.0, 1.2345678901234568e16,
    1e-5, -1e-5, 9.999e-5, 1e-4, 1.0001e-4, 123456789.125, 0.1 + 0.2,
]
_coord = st.one_of(
    st.floats(min_value=-60.0, max_value=60.0, allow_nan=False),
    st.sampled_from(_EDGE_COORDS),
)
_step = st.floats(min_value=0.1, max_value=8.0, allow_nan=False)


@st.composite
def _moving_point(draw):
    """Gapped or adjacent units with random closedness; half of them
    stand still (``x0 + 0·t``), so an edge coordinate — ``-0.0`` at
    negative instants included — is served exactly as drawn."""
    from repro.ranges.interval import Interval
    from repro.temporal.mseg import MPoint

    t = draw(st.floats(min_value=-40.0, max_value=20.0, allow_nan=False))
    units = []
    for _ in range(draw(st.integers(min_value=0, max_value=3))):
        s = t + draw(_step) * draw(st.sampled_from([0.0, 1.0]))
        t = s + draw(_step)
        # Two closed ends may not share an instant.
        lc = draw(st.booleans()) and not (
            units and units[-1].interval.e == s and units[-1].interval.rc
        )
        rc = draw(st.booleans())
        p0 = (draw(_coord), draw(_coord))
        if draw(st.booleans()):
            units.append(UPoint(
                Interval(s, t, lc, rc), MPoint(p0[0], 0.0, p0[1], 0.0)
            ))
        else:
            p1 = (draw(_coord), draw(_coord))
            units.append(UPoint.between(s, p0, t, p1, lc=lc, rc=rc))
    try:
        return MovingPoint(units)
    except InvalidValue:  # adjacent units drew the same function
        reject()


@st.composite
def _wire_case(draw):
    """``(mappings, t, window or None)``: ``t`` mostly on a unit
    boundary or inside a unit, the window mostly with an edge lying
    exactly on a served position."""
    mappings = draw(st.lists(_moving_point(), min_size=1, max_size=8))
    spans = [u.interval for m in mappings for u in m.units]
    pick = draw(st.integers(min_value=0, max_value=4)) if spans else 0
    if pick == 0:
        t = draw(st.floats(min_value=-60.0, max_value=80.0, allow_nan=False))
    else:
        span = draw(st.sampled_from(spans))
        t = (span.s, span.e, (span.s + span.e) / 2.0, span.e)[pick - 1]
    window = None
    if draw(st.booleans()):
        at = [p for p in (m.value_at(t) for m in mappings) if p is not None]
        if at and draw(st.integers(min_value=0, max_value=3)):
            p = draw(st.sampled_from(at))
            x, y = p.x, p.y
        else:
            x, y = draw(_coord), draw(_coord)
        w = draw(st.floats(min_value=0.0, max_value=80.0, allow_nan=False))
        h = draw(st.floats(min_value=0.0, max_value=80.0, allow_nan=False))
        # (x, y) is the lower-left or the upper-right corner.
        window = (
            (x, y, x + w, y + h) if draw(st.booleans())
            else (x - w, y - h, x, y)
        )
    return mappings, t, window


def _parent_reply(version, mappings, t, window):
    """The reply as the parent commit framed it: scalar ``value_at``,
    the closed window test, one ``row_line`` per row."""
    rows = []
    for i, m in enumerate(mappings):
        p = m.value_at(t)
        if p is None:
            continue
        if window is not None and not (
            window[0] <= p.x <= window[2] and window[1] <= p.y <= window[3]
        ):
            continue
        rows.append(row_line(obj=i, x=repr(p.x), y=repr(p.y)))
    head = ok_line(version=version, objects=len(mappings), rows=len(rows))
    return ("\n".join([head, *rows, END]) + "\n").encode("utf-8")


def _raw_reply(stream, line):
    """The bytes one request line is answered with, unparsed."""
    stream.write(line.encode("utf-8") + b"\n")
    stream.flush()
    out = [stream.readline()]
    while out[-1] != b"END\n" and not out[0].startswith(b"ERR "):
        assert out[-1], "connection closed mid-reply"
        out.append(stream.readline())
    return b"".join(out)


def _snapshot_line(name, t, window, attrs=""):
    line = f"SNAPSHOT {attrs}{name} {t!r}"
    if window is not None:
        line += " " + " ".join(repr(v) for v in window)
    return line


def _raw_table_as_text(stream, line):
    """A ``FORMAT=bin`` reply read off the bare socket and written out
    as the text reply it stands for: the header minus the frame's own
    keys, one ``row_line`` per record."""
    stream.write(line.encode("utf-8") + b"\n")
    stream.flush()
    head = stream.readline().decode("utf-8").split()
    assert head[-2] == "format=bin", head
    nbytes = int(head[-1].partition("=")[2])
    body = stream.read(nbytes)
    assert stream.readline() == b"END\n"
    table = np.frombuffer(body, dtype=ROW_DTYPE, offset=8)
    assert len(table) == int.from_bytes(body[:8], "little")
    rows = [
        row_line(obj=i, x=repr(x), y=repr(y)) for i, x, y in table.tolist()
    ]
    return ("\n".join([" ".join(head[:-2]), *rows, END]) + "\n").encode("utf-8")


class TestWireMatchesScalar:
    def test_generated_fleets_byte_for_byte(self):
        ex = FleetExecutor()
        run = serve_in_thread(ex)
        sock = socket.create_connection(("127.0.0.1", run.port), timeout=30.0)
        stream = sock.makefile("rwb")
        names = (f"f{n}" for n in range(1 << 30))

        @given(case=_wire_case())
        @settings(max_examples=200, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(case):
            mappings, t, window = case
            name = next(names)
            fleet = ex.register_fleet(name, mappings)
            got = _raw_reply(stream, _snapshot_line(name, t, window))
            assert b"np." not in got
            assert got == _parent_reply(fleet.version, mappings, t, window)
            # The binary table stands for the same reply, string for
            # string.
            assert got == _raw_table_as_text(
                stream, _snapshot_line(name, t, window, "FORMAT=bin ")
            )

        try:
            check()
        finally:
            stream.close()
            sock.close()
            run.stop()

    def test_signed_zero_and_exponent_forms_reach_the_wire(self):
        """The shapes the property hunts for, pinned: ``-0.0``, ``1e+16``
        and ``1e-05`` are written as Python floats write them."""
        from repro.ranges.interval import Interval
        from repro.temporal.mseg import MPoint

        # Unit functions x0 + 0·t; at t < 0 the product is -0.0, so a
        # negative-zero x0 is served as such.
        still = [(-0.0, 1e16), (1e-5, -1e16), (9999999999999998.0, 1e-4)]
        mappings = [
            MovingPoint([UPoint(
                Interval(-10.0, -1.0, True, True), MPoint(x, 0.0, y, 0.0)
            )])
            for x, y in still
        ]
        ex = FleetExecutor()
        ex.register_fleet("f", mappings)
        run = serve_in_thread(ex)
        try:
            with ServerClient("127.0.0.1", run.port) as c:
                rows = c.snapshot("f", -5.0).rows
        finally:
            run.stop()
        assert rows == [
            {"obj": "0", "x": "-0.0", "y": "1e+16"},
            {"obj": "1", "x": "1e-05", "y": "-1e+16"},
            {"obj": "2", "x": "9999999999999998.0", "y": "0.0001"},
        ]

    def test_multi_block_reply_matches_the_parent_framing(self):
        """A reply longer than one framing block (and one whose rows
        end exactly on a block boundary) joins up seamlessly."""
        from repro.server.protocol import BLOCK_ROWS

        for n in (BLOCK_ROWS, 2 * BLOCK_ROWS + 17):
            mappings = [
                MovingPoint([_unit(0.0, i * 0.1, -i / 3.0, 10.0, i / 7.0, i)])
                for i in range(n)
            ]
            ex = FleetExecutor()
            fleet = ex.register_fleet("f", mappings)
            run = serve_in_thread(ex)
            try:
                with socket.create_connection(
                    ("127.0.0.1", run.port), timeout=30.0
                ) as sock, sock.makefile("rwb") as stream:
                    got = _raw_reply(stream, _snapshot_line("f", 3.3, None))
            finally:
                run.stop()
            assert got == _parent_reply(fleet.version, mappings, 3.3, None)


# ---------------------------------------------------------------------------
# the client's bulk read keeps its failure contract
# ---------------------------------------------------------------------------


@contextlib.contextmanager
def _stub_server(answer, connections=1):
    """A listener taking ``connections`` connections in turn:
    ``answer(conn)`` runs per request line (CLOSE is answered ``BYE``);
    returning False hangs up."""
    listener = socket.create_server(("127.0.0.1", 0))

    def serve():
        for _ in range(connections):
            try:
                conn, _peer = listener.accept()
            except OSError:
                return
            conn.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
            with conn, conn.makefile("rb") as requests:
                for line in requests:
                    if line.strip() == b"CLOSE":
                        conn.sendall(b"BYE\n")
                        break
                    if answer(conn) is False:
                        break

    thread = threading.Thread(target=serve, daemon=True)
    thread.start()
    try:
        yield listener.getsockname()[1]
    finally:
        listener.close()
        thread.join(5.0)


def _in_pieces(payload, size):
    def answer(conn):
        for at in range(0, len(payload), size):
            conn.sendall(payload[at:at + size])
    return answer


#: One reply with every kind of data line, in an order worth keeping —
#: and a MSG whose text starts with the terminator's word.
_RECORDED = (
    "OK version=13,12 objects=3 rows=2\n"
    "MSG END of run\n"
    "ROW obj=0\tx=-0.0\ty=1e+16\n"
    "PLAN SeqScan(planes)\n"
    "STAT fleet.f.units 7\n"
    "ROW obj=2\tx=1e-05\ty=0.30000000000000004\n"
    "MSG ENDED\n"
    "END\n"
).encode("utf-8")
_RECORDED_REPLY = Reply(
    fields={"version": "13,12", "objects": "3", "rows": "2"},
    rows=[
        {"obj": "0", "x": "-0.0", "y": "1e+16"},
        {"obj": "2", "x": "1e-05", "y": "0.30000000000000004"},
    ],
    lines=["MSG END of run", "PLAN SeqScan(planes)",
           "STAT fleet.f.units 7", "MSG ENDED"],
)


class TestClientBulkRead:
    @pytest.mark.parametrize("size", [1, 7, len(_RECORDED)])
    def test_delivery_granularity_does_not_change_the_reply(self, size):
        with _stub_server(_in_pieces(_RECORDED, size)) as port:
            with ServerClient("127.0.0.1", port, max_retries=0) as c:
                assert c.request("SNAPSHOT f 1.0") == _RECORDED_REPLY
                # The stream is positioned after END: a second request
                # on the same connection reads its own reply.
                assert c.request("SNAPSHOT f 2.0") == _RECORDED_REPLY

    def test_zero_row_reply(self):
        payload = b"OK version=3 objects=0 rows=0\nEND\n"
        with _stub_server(_in_pieces(payload, len(payload))) as port:
            with ServerClient("127.0.0.1", port, max_retries=0) as c:
                reply = c.request("SNAPSHOT f 1.0")
        assert reply == Reply(
            fields={"version": "3", "objects": "0", "rows": "0"}
        )

    @pytest.mark.parametrize("cut", [0, 10, 60, len(_RECORDED) - 5])
    def test_eof_mid_reply_is_connection_lost(self, cut):
        def answer(conn):
            conn.sendall(_RECORDED[:cut])
            return False

        with _stub_server(answer) as port:
            c = ServerClient("127.0.0.1", port, max_retries=0)
            with pytest.raises(ConnectionLost):
                c.request("SNAPSHOT f 1.0")
            c.close()

    @pytest.mark.parametrize("payload, want", [
        (_RECORDED, _RECORDED_REPLY),
        (b"OK rows=0\nEND\n", Reply(fields={"rows": "0"})),
    ])
    def test_eof_right_after_the_end_word_completes_the_reply(
        self, payload, want
    ):
        def answer(conn):
            conn.sendall(payload[:-1])  # "...END", no newline, then EOF
            return False

        with _stub_server(answer) as port:
            c = ServerClient("127.0.0.1", port, max_retries=0)
            assert c.request("SNAPSHOT f 1.0") == want
            c.close()

    @pytest.mark.parametrize("cut", [0, 10, 60])
    def test_silence_is_a_counted_client_timeout(self, cut):
        release = threading.Event()

        def answer(conn):
            conn.sendall(_RECORDED[:cut])
            release.wait(10.0)
            return False

        with _stub_server(answer) as port:
            c = ServerClient(
                "127.0.0.1", port, request_timeout=0.2, max_retries=0
            )
            with obs.capture() as counters:
                with pytest.raises(ClientTimeout):
                    c.request("SNAPSHOT f 1.0")
                assert counters.get("client.timeouts") == 1
            release.set()
            c.close()

    def test_err_line_awaits_no_terminator(self):
        payload = b"ERR QueryError no fleet named 'ghost'\n"
        with _stub_server(_in_pieces(payload, len(payload))) as port:
            with ServerClient("127.0.0.1", port, max_retries=0) as c:
                started = time.monotonic()
                with pytest.raises(ServerError) as exc_info:
                    c.request("SNAPSHOT ghost 1.0")
                assert time.monotonic() - started < 5.0  # not the 10 s deadline
                assert exc_info.value.remote_type == "QueryError"
                assert str(exc_info.value) == "no fleet named 'ghost'"
                # ... and the connection is still in step.
                with pytest.raises(ServerError):
                    c.request("SNAPSHOT ghost 2.0")

    def test_bye_awaits_no_terminator(self):
        with _stub_server(lambda conn: None) as port:
            c = ServerClient("127.0.0.1", port, max_retries=0)
            assert c.request("CLOSE") == Reply(lines=["BYE"])
            c.close()

    def test_unexpected_header_is_a_protocol_error(self):
        payload = b"HELLO there\nEND\n"
        with _stub_server(_in_pieces(payload, len(payload))) as port:
            c = ServerClient("127.0.0.1", port, max_retries=0)
            with pytest.raises(ProtocolError, match="unexpected response"):
                c.request("STATS")
            c.close()


# ---------------------------------------------------------------------------
# STATS: the incremental unit count
# ---------------------------------------------------------------------------


_ingest_script = st.lists(
    st.one_of(
        # A unit continuing object ``obj`` (6 appends a lane, 7 is past
        # the end until it has).
        st.tuples(st.just("new"), st.integers(min_value=0, max_value=7)),
        # Step ``k`` (modulo the steps so far) resent under its own SEQ.
        st.tuples(st.just("dup"), st.integers(min_value=0, max_value=30)),
        # A unit the fleet must reject: far past the end, or on top of
        # object 0's first slice.
        st.tuples(st.just("bad"), st.booleans()),
    ),
    min_size=1, max_size=25,
)


class TestUnitCount:
    @given(script=_ingest_script, batch=st.integers(min_value=1, max_value=4))
    @settings(max_examples=60, deadline=None, suppress_health_check=[
        HealthCheck.function_scoped_fixture, HealthCheck.too_slow,
    ])
    def test_count_equals_walked_sum_through_dedup_reject_replay(
        self, script, batch
    ):
        baseline = _mappings(6)
        first = baseline[0].units[0].interval

        def boot():
            ex = FleetExecutor()
            ex.register_fleet("fleet", baseline)
            return ex

        def served_units(ex):
            walked = sum(len(m.units) for m in ex.fleet("fleet"))
            assert ex.stats()["fleet.fleet.units"] == walked
            return walked

        requests, clock = [], 1e6
        for k, (kind, arg) in enumerate(script):
            if kind == "dup" and requests:
                requests.append(requests[arg % len(requests)])
            elif kind == "bad":
                requests.append(IngestRequest(
                    "fleet", 99 if arg else 0,
                    (first.s, 0.0, 0.0, first.e, 1.0, 1.0), seq=f"s{k}",
                ))
            else:
                clock += 10.0
                requests.append(IngestRequest(
                    "fleet", arg if kind == "new" else 0,
                    (clock, k, 0.0, clock + 5.0, k, 1.0), seq=f"s{k}",
                ))

        ex, wal = boot(), Wal()
        landed = set()
        with obs.capture() as counters:
            for at in range(0, len(requests), batch):
                before = served_units(ex)
                chunk = requests[at:at + batch]
                fresh = 0
                for req, res in zip(chunk, commit(wal, ex, chunk)):
                    if isinstance(res, InvalidValue):
                        assert req.seq not in landed
                    elif req.seq not in landed:
                        landed.add(req.seq)
                        fresh += 1
                assert served_units(ex) == before + fresh
            assert counters.get("ingest.units") == len(landed)
        for (kind, _), req in zip(script, requests):
            if kind == "bad":
                assert req.seq not in landed

        recovered = boot()
        replay_ingest(wal, recovered)
        assert served_units(recovered) == served_units(ex)
        wal.close()

    def test_reregistering_resets_the_count(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        ex.register_fleet("fleet", _mappings(2, legs=5))
        assert ex.stats()["fleet.fleet.units"] == 10


class TestServedFleet:
    """A served fleet is its column: boot from any iterable, no unit
    object kept."""

    def test_a_generator_boots_the_column_a_list_does(self):
        gen = FlightGenerator(seed=11)
        flights = (gen.flight(legs=4) for _ in range(2500))  # three chunks
        ex = FleetExecutor()
        fleet = ex.register_fleet("fleet", flights, index=False)
        listed = _mappings(2500, seed=11, legs=4)
        want = UPointColumn.from_mappings(listed)
        assert [r.tobytes() for r in fleet.column.records()] == \
            [r.tobytes() for r in want.records()]
        assert len(fleet) == 2500 and fleet[-1] == listed[-1] and fleet[7] == listed[7]
        assert fleet[7] is fleet[7]  # built once, then kept
        empty = ex.register_fleet("none", iter(()))
        assert len(empty) == 0 and list(empty) == [] and empty.column.n_units == 0

    def test_a_member_no_column_holds_is_refused(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(2))
        with pytest.raises(InvalidValue, match="holds mappings, got str"):
            ex.register_fleet("fleet", [*_mappings(2), "not a mapping"])
        assert len(ex.fleet("fleet")) == 2  # nothing was registered

    def test_built_members_are_kept_until_an_apply_changes_them(self):
        ex = FleetExecutor()
        fleet = ex.register_fleet("fleet", _mappings(3))
        first = list(fleet)
        ex.apply_units([IngestRequest("fleet", 1, (1e6, 0, 0, 1e6 + 5, 1, 1))])
        again = list(fleet)
        assert again[0] is first[0] and again[2] is first[2]
        assert again[1] is not first[1] and len(again[1].units) == len(first[1].units) + 1

    def test_the_server_keeps_no_unit_objects(self):
        """Boot 2 000 generated flights from a generator, apply 200
        INGESTs, and count what the collector tracks, in a fresh
        interpreter so no other test's values are in sight."""
        script = textwrap.dedent("""
            import gc
            from repro.ranges.interval import Interval
            from repro.server.executor import FleetExecutor
            from repro.server.ingest import IngestRequest
            from repro.temporal.mapping import MovingPoint
            from repro.temporal.mseg import MPoint
            from repro.temporal.upoint import UPoint
            from repro.workloads.trajectories import FlightGenerator

            def held():
                gc.collect()
                kinds = (UPoint, Interval, MPoint, MovingPoint)
                return sum(type(o) in kinds for o in gc.get_objects())

            gen = FlightGenerator(seed=4)
            ex = FleetExecutor()
            ex.register_fleet("fleet", (gen.flight(legs=4) for _ in range(2000)))
            for k in range(200):
                t0 = 1e7 + 10.0 * k
                ex.apply_units([IngestRequest("fleet", (37 * k) % 2010, (t0, 1, 1, t0 + 5, 2, 2))])
            assert ex.stats()["fleet.fleet.units"] == 8000 + 200
            print(held())
            list(ex.fleet("fleet"))  # the count sees members once they exist
            print(held())
        """)
        out = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True,
            timeout=120, env={**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)},
        )
        assert out.returncode == 0, out.stderr
        served, materialized = map(int, out.stdout.split())
        assert served == 0
        assert materialized > 2000


# ---------------------------------------------------------------------------
# the serve command: signals, drain, WAL replay across restarts
# ---------------------------------------------------------------------------


class TestServeCommand:
    def _spawn(self, walpath):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.abspath("src") + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--objects", "3",
             "--wal", str(walpath)],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, env=env,
        )
        boot = proc.stdout.readline()
        port = int(re.search(r":(\d+),", boot).group(1))
        return proc, boot, port

    @pytest.mark.parametrize("sig", [signal.SIGINT, signal.SIGTERM])
    def test_signal_drains_and_exits_zero(self, tmp_path, sig):
        proc, boot, port = self._spawn(tmp_path / "serve.wal")
        try:
            with ServerClient("127.0.0.1", port) as c:
                c.ingest("fleet", 0, (1e6, 0, 0, 1e6 + 9, 2, 2))
            proc.send_signal(sig)
            out, _ = proc.communicate(timeout=30)
        finally:
            if proc.poll() is None:  # pragma: no cover - cleanup only
                proc.kill()
        assert proc.returncode == 0
        assert "drained cleanly" in out
        assert "WAL synced" in out

        # Restart: the ingested unit comes back via WAL replay.
        proc2, boot2, _ = self._spawn(tmp_path / "serve.wal")
        try:
            assert "1 ingested unit(s) replayed" in boot2
            proc2.send_signal(signal.SIGTERM)
            out2, _ = proc2.communicate(timeout=30)
        finally:
            if proc2.poll() is None:  # pragma: no cover - cleanup only
                proc2.kill()
        assert proc2.returncode == 0


# ---------------------------------------------------------------------------
# V7 smokes: start -> ingest -> query -> shutdown, live ingest, dropped
# responses (moved from benchmarks/bench_server.py; timings are the
# wire_* workloads of benchmarks/e2e)
# ---------------------------------------------------------------------------

QUERY_T = 60.0

#: Fault plan of the degraded-mode smoke: one in ten responses vanishes
#: after the work is done (seeded, so runs are comparable).
DEGRADED_FAULTS = "server.conn_drop=prob:0.1:2026"


def start_server(mappings, wal=None, **kwargs):
    executor = FleetExecutor()
    executor.register_fleet("fleet", mappings)
    return serve_in_thread(executor, wal=wal, **kwargs)


def _query_worker(port, stop, counter, errors):
    try:
        with ServerClient("127.0.0.1", port) as client:
            while not stop.is_set():
                client.snapshot("fleet", QUERY_T)
                counter[0] += 1
    except Exception as exc:
        errors.append(f"query: {type(exc).__name__}: {exc}")


def _ingest_worker(port, stop, counter, objects, errors):
    """A continuous WAL-durable ingest stream, rotating over the fleet."""
    t0 = 1.0e6
    try:
        with ServerClient("127.0.0.1", port) as client:
            k = 0
            while not stop.is_set():
                obj = k % objects
                start = t0 + 10.0 * (k // objects)
                client.ingest(
                    "fleet", obj, (start, 0.0, 0.0, start + 8.0, 5.0, 5.0)
                )
                counter[0] += 1
                k += 1
    except Exception as exc:
        errors.append(f"ingest: {type(exc).__name__}: {exc}")


def measure_qps(mappings, duration, workers, fault_spec=None):
    """One traffic phase — ``workers`` closed-loop whole-fleet readers
    beside one ingest stream — optionally degraded (``fault_spec``).
    ``client_errors`` counts the failures the retry budget could not
    absorb."""
    wal = Wal()
    run = start_server(mappings, wal=wal)
    stop = threading.Event()
    queries = [[0] for _ in range(workers)]
    ingested = [0]
    errors = []
    threads = [
        threading.Thread(
            target=_query_worker, args=(run.port, stop, queries[i], errors)
        )
        for i in range(workers)
    ]
    threads.append(threading.Thread(
        target=_ingest_worker,
        args=(run.port, stop, ingested, len(mappings), errors),
    ))
    if fault_spec:
        faults.arm_spec(fault_spec)
    try:
        for th in threads:
            th.start()
        time.sleep(duration)
        stop.set()
        for th in threads:
            th.join(timeout=20)
    finally:
        faults.disarm()
    run.stop()
    wal.close()
    return {
        "queries": sum(q[0] for q in queries),
        "units_ingested": ingested[0],
        "client_errors": len(errors),
    }


@pytest.mark.parametrize("format", ["bin", "text"])
def test_v7_smoke_lifecycle(format):
    """Start → ingest → query → shutdown, over the wire, in one breath."""
    mappings = _mappings(8, seed=7, legs=4)
    wal = Wal()
    run = start_server(mappings, wal=wal)
    try:
        with ServerClient("127.0.0.1", run.port) as client:
            def snapshot(t):
                if format == "bin":
                    return client.snapshot("fleet", t)
                return client.request(_snapshot_line("fleet", t, None))

            before = snapshot(QUERY_T)
            assert int(before.fields["objects"]) == 8
            assert (before.table is not None) == (format == "bin")
            units = client.ingest(
                "fleet", 0, (1.0e6, 0.0, 0.0, 1.0e6 + 8.0, 2.0, 2.0)
            )
            assert units == len(mappings[0].units) + 1
            after = snapshot(1.0e6 + 4.0)
            assert len(after.rows) == 1  # only the freshly fed object
            assert int(after.fields["version"]) > int(before.fields["version"])
            stats = client.stats()
            assert stats.stat("fleet.fleet.objects") == "8"
    finally:
        run.stop()
        wal.close()


def test_v7_smoke_concurrent_ingest_qps():
    """A short sustained run with live ingest still answers queries."""
    result = measure_qps(_mappings(32, seed=11, legs=4), 0.5, workers=2)
    assert result["queries"] > 0
    assert result["units_ingested"] > 0


def test_v7_smoke_degraded_conn_drop():
    """10% dropped responses: retries absorb every one, zero failures."""
    result = measure_qps(
        _mappings(16, seed=13, legs=4), 0.5, workers=2,
        fault_spec=DEGRADED_FAULTS,
    )
    assert result["queries"] > 0
    assert result["client_errors"] == 0
