"""The binary SNAPSHOT frame (``FORMAT=bin``) and the client around it.

* bin ≡ text: one property over generated fleets × instants × windows
  through a live server — equal fields, equal rows,
  and a table equal bit for bit to the executor's arrays; the edge
  sizes (empty, all-⊥, exactly one block, one block plus a row) pinned;
* ``parse_request``: the ``FORMAT`` attribute's grammar, and a fuzz
  asserting *``Request`` or ``ProtocolError``, nothing else*; only
  finite numbers in a SNAPSHOT or an INGEST, and a refused INGEST
  leaves the fleet and the WAL as they were;
* the client against a stub listener: a torn table is
  ``ConnectionLost``, a lying header a ``ProtocolError``, and after any
  of them — or a timeout — the next request is answered on a fresh
  connection;
* the server: a deadline that runs out between blocks answers one
  ``ERR`` line and not a byte of table; ``server.reply_bytes``.
"""

import contextlib
import math
import socket
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import obs
from repro.deadline import Deadline
from repro.errors import DeadlineExceeded, ProtocolError
from repro.server import protocol
from repro.server.client import (
    ClientTimeout,
    ConnectionLost,
    ServerClient,
    ServerError,
)
from repro.server.executor import FleetExecutor
from repro.server.protocol import BLOCK_ROWS, ROW_DTYPE, Request, parse_request
from repro.server.session import serve_in_thread
from repro.storage.wal import Wal
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from tests.test_columnar_paths import coord, fleets, instant
from tests.test_server import _in_pieces, _snapshot_line, _stub_server


def _table(rows):
    """``rows`` — ``(obj, x, y)`` tuples — as a ``ROW_DTYPE`` array."""
    return np.array(rows, dtype=ROW_DTYPE)


def _frame(table, rows=None, nbytes=None, count=None, end=b"END\n"):
    """A binary reply around ``table``; the keywords make it lie."""
    n = len(table)
    body = np.array(n if count is None else count, dtype="<u8").tobytes()
    body += table.tobytes()
    head = (
        f"OK version=5 objects=9 rows={n if rows is None else rows} "
        f"format=bin bytes={len(body) if nbytes is None else nbytes}\n"
    )
    return head.encode("utf-8") + body + end


# ---------------------------------------------------------------------------
# bin ≡ text
# ---------------------------------------------------------------------------


def _assert_same_reply(client, ex, name, t, window):
    text = client.request(_snapshot_line(name, t, window))  # no FORMAT
    binary = client.snapshot(name, t, window)
    assert text.table is None and isinstance(text.rows, list)
    assert binary.fields == text.fields
    assert set(binary.fields) == {"version", "objects", "rows"}
    assert binary.rows == text.rows
    assert list(binary.rows) == text.rows
    assert len(binary.rows) == int(binary.fields["rows"])
    _snap, want = ex.snapshot_rows(name, t, window)
    table = binary.table
    assert table.dtype == ROW_DTYPE and not table.flags.writeable
    assert table["obj"].tobytes() == want.ids.astype("<i8").tobytes()
    assert table["x"].tobytes() == want.xs.tobytes()
    assert table["y"].tobytes() == want.ys.tobytes()
    return binary


class TestBinaryMatchesText:
    def test_generated_fleets(self):
        ex = FleetExecutor()
        run = serve_in_thread(ex)
        client = ServerClient("127.0.0.1", run.port)
        names = (f"f{n}" for n in range(1 << 30))

        @given(
            mappings=fleets(), t=instant,
            corners=st.none() | st.tuples(coord, coord, coord, coord),
        )
        @settings(max_examples=60, deadline=None,
                  suppress_health_check=[HealthCheck.too_slow])
        def check(mappings, t, corners):
            window = None
            if corners is not None:
                (x0, x1), (y0, y1) = sorted(corners[:2]), sorted(corners[2:])
                window = (x0, y0, x1, y1)
            name = next(names)
            ex.register_fleet(name, mappings)
            _assert_same_reply(client, ex, name, t, window)

        try:
            check()
        finally:
            client.close()
            run.stop()

    @pytest.mark.parametrize("n, t, rows", [
        (0, 5.0, 0),                         # no objects at all
        (5, 99.0, 0),                        # every object ⊥ at t
        (BLOCK_ROWS, 5.0, BLOCK_ROWS),       # the table ends on a block
        (BLOCK_ROWS + 1, 5.0, BLOCK_ROWS + 1),
    ])
    def test_edge_sizes(self, n, t, rows):
        mappings = [
            MovingPoint([UPoint.between(0.0, (i * 0.1, -i / 3.0),
                                        10.0, (i / 7.0, float(i)))])
            for i in range(n)
        ]
        ex = FleetExecutor()
        ex.register_fleet("f", mappings)
        run = serve_in_thread(ex)
        try:
            with ServerClient("127.0.0.1", run.port) as c:
                reply = _assert_same_reply(c, ex, "f", t, None)
                assert len(reply.rows) == rows
                with socket.create_connection(
                    ("127.0.0.1", run.port), timeout=10.0
                ) as sock, sock.makefile("rwb") as stream:
                    stream.write(b"SNAPSHOT FORMAT=bin f %r\n" % t)
                    stream.flush()
                    head = stream.readline().decode("utf-8").split()
                    assert head[-2:] == ["format=bin", f"bytes={8 + 24 * rows}"]
                    assert len(stream.read(8 + 24 * rows)) == 8 + 24 * rows
                    assert stream.readline() == b"END\n"
        finally:
            run.stop()

    def test_lazy_rows_read_like_the_list(self):
        table = _table([(0, -0.0, 1e16), (7, 1e-5, 0.1 + 0.2), (9, 2.5, -3.0)])
        want = [
            {"obj": "0", "x": "-0.0", "y": "1e+16"},
            {"obj": "7", "x": "1e-05", "y": "0.30000000000000004"},
            {"obj": "9", "x": "2.5", "y": "-3.0"},
        ]
        payload = _frame(table)
        with _stub_server(_in_pieces(payload, len(payload))) as port:
            with ServerClient("127.0.0.1", port, max_retries=0) as c:
                reply = c.request("SNAPSHOT FORMAT=bin f 1.0")
        rows = reply.rows
        assert reply.fields == {"version": "5", "objects": "9", "rows": "3"}
        assert len(rows) == 3 and rows == want and want == rows
        assert [rows[0], rows[-1]] == [want[0], want[-1]]
        assert rows[1:] == want[1:] and list(rows[::2]) == want[::2]
        assert want[1] in rows and rows.index(want[2]) == 2
        assert rows != want[:2] and rows != want[:2] + [want[0]]
        assert repr(rows) == repr(want)
        with pytest.raises(IndexError):
            rows[3]
        with pytest.raises(ValueError):
            reply.table["x"][0] = 1.0
        assert reply.table["x"].tolist() == [-0.0, 1e-5, 2.5]


# ---------------------------------------------------------------------------
# parse_request: the FORMAT attribute, and nothing but typed errors
# ---------------------------------------------------------------------------


class TestFormatAttribute:
    def test_default_is_text(self):
        assert parse_request("SNAPSHOT f 1.0").format == "text"

    @pytest.mark.parametrize("line, want", [
        ("SNAPSHOT FORMAT=bin f 1.0", "bin"),
        ("snapshot format=BIN f 1.0", "bin"),
        ("SNAPSHOT DEADLINE=50 FORMAT=bin f 1.0 0 0 9 9", "bin"),
        ("SNAPSHOT FORMAT=bin DEADLINE=50 f 1.0", "bin"),
    ])
    def test_accepted_in_any_order_and_case(self, line, want):
        req = parse_request(line)
        assert (req.command, req.fleet, req.t) == ("SNAPSHOT", "f", 1.0)
        assert req.format == want
        if "DEADLINE" in line:
            assert req.deadline_ms == 50.0

    @pytest.mark.parametrize("line", [
        "SNAPSHOT FORMAT= f 1.0",
        "SNAPSHOT FORMAT=xml f 1.0",
        "SNAPSHOT FORMAT=text f 1.0",  # text is no FORMAT at all
        "SNAPSHOT FORMAT=bin SEQ=a:1 f 1.0",
        "QUERY FORMAT=bin SELECT 1;",
        "EXPLAIN FORMAT=bin SELECT 1;",
        "INGEST FORMAT=bin f 1 0 0 0 1 1 1",
        "INGEST SEQ=a:1 FORMAT=bin f 1 0 0 0 1 1 1",
        "STATS FORMAT=bin",
    ])
    def test_misuse_is_a_protocol_error(self, line):
        with pytest.raises(ProtocolError):
            parse_request(line)

    def test_attribute_shaped_sql_is_left_alone(self):
        req = parse_request("QUERY SELECT 1 FORMAT=bin;")
        assert req.sql == "SELECT 1 FORMAT=bin;" and req.format == "text"

    _token = st.one_of(
        st.sampled_from([
            "QUERY", "EXPLAIN", "INGEST", "SNAPSHOT", "STATS", "CLOSE",
            "snapshot", "FORMAT=bin", "FORMAT=", "format=TEXT", "FORMAT=xml",
            "DEADLINE=5", "DEADLINE=nan", "DEADLINE=inf", "DEADLINE=1e400",
            "DEADLINE=-1", "DEADLINE=",
            "SEQ=a:1", "SEQ=", "f", "=", "1e999", "-0.0", "nan", "inf",
            "1_0", "٣", "9" * 5000,
        ]),
        st.floats().map(repr),
        st.integers().map(str),
        st.text(max_size=8),
    )

    @given(line=st.one_of(
        st.text(max_size=60),
        st.lists(_token, max_size=10).map(" ".join),
        st.lists(_token, max_size=10).map("\t \n".join),
    ))
    @example(line="SNAPSHOT DEADLINE=nan f 5")
    @example(line="QUERY DEADLINE=1e400 SELECT 1;")
    @settings(max_examples=1500, deadline=None)
    def test_fuzz_request_or_protocol_error(self, line):
        try:
            req = parse_request(line)
        except ProtocolError:
            return
        assert isinstance(req, Request)
        assert req.command in protocol.COMMANDS
        assert req.format == "text" or (
            req.format == "bin" and req.command == "SNAPSHOT"
        )
        assert not req.seq or req.command == "INGEST"
        assert req.deadline_ms is None or math.isfinite(req.deadline_ms)
        if req.command == "SNAPSHOT":
            assert all(map(math.isfinite, (req.t, *(req.window or ()))))
        if req.command == "INGEST":
            assert all(map(math.isfinite, req.unit))


# ---------------------------------------------------------------------------
# the wire takes only finite numbers
# ---------------------------------------------------------------------------

_NON_FINITE = ["nan", "inf", "-inf", "NaN", "+Infinity", "1e999", "-1e999"]
_INGEST = ["f", "0", "10", "10", "10", "20", "20", "20"]
_SNAPSHOT = ["f", "2.5", "0", "0", "9", "9"]


def _with(parts, at, value):
    return " ".join(parts[:at] + [value] + parts[at + 1:])


class TestFiniteNumbers:
    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("at, field", list(enumerate(
        ["t0", "x0", "y0", "t1", "x1", "y1"], start=2,
    )))
    def test_ingest_unit(self, at, field, bad):
        with pytest.raises(ProtocolError, match="finite"):
            parse_request("INGEST " + _with(_INGEST, at, bad))

    @pytest.mark.parametrize("bad", _NON_FINITE)
    @pytest.mark.parametrize("at, field", list(enumerate(
        ["t", "xmin", "ymin", "xmax", "ymax"], start=1,
    )))
    def test_snapshot_instant_and_window(self, at, field, bad):
        with pytest.raises(ProtocolError, match="finite"):
            parse_request("SNAPSHOT " + _with(_SNAPSHOT, at, bad))
        if field == "t":
            with pytest.raises(ProtocolError, match="finite"):
                parse_request(f"SNAPSHOT FORMAT=bin f {bad}")

    _number = st.one_of(
        st.floats().map(repr), st.sampled_from(_NON_FINITE),
        st.integers(min_value=-9, max_value=9).map(str),
    )

    @given(
        head=st.sampled_from(["SNAPSHOT f", "SNAPSHOT FORMAT=bin f",
                              "INGEST f 3", "INGEST SEQ=a:1 f 0"]),
        numbers=st.lists(_number, min_size=6, max_size=6),
        windowed=st.booleans(),
    )
    @settings(max_examples=500, deadline=None)
    def test_fuzz_accepted_numbers_are_finite(self, head, numbers, windowed):
        """The fuzz above, aimed at the numeric positions: argument
        counts are right, so most lines parse unless a number is not."""
        if head.startswith("SNAPSHOT"):
            numbers = numbers[:5] if windowed else numbers[:1]
        try:
            req = parse_request(" ".join([head, *numbers]))
        except ProtocolError:
            return
        values = req.unit if req.command == "INGEST" else (
            req.t, *(req.window or ())
        )
        assert len(values) == len(numbers) and all(map(math.isfinite, values))

    def test_finite_extremes_still_parse(self):
        big = repr(1.7976931348623157e308)
        req = parse_request(f"INGEST f 0 -{big} 5e-324 -0.0 {big} 1 1")
        assert req.unit == (-1.7976931348623157e308, 5e-324, -0.0,
                            1.7976931348623157e308, 1.0, 1.0)
        assert parse_request(f"SNAPSHOT f {big} -{big} -1 {big} 1").window == (
            -1.7976931348623157e308, -1.0, 1.7976931348623157e308, 1.0
        )

    @pytest.mark.parametrize("bad", ["inf", "nan"])
    def test_rejected_ingest_touches_neither_fleet_nor_wal(self, tmp_path, bad):
        """``INGEST f 0 10 10 10 inf 20 20`` used to be acknowledged and
        made durable, its unit pinned at (10, 10) forever."""
        ex = FleetExecutor()
        ex.register_fleet("f", [MovingPoint([
            UPoint.between(0.0, (0.0, 0.0), 5.0, (10.0, 10.0))
        ])])
        wal = Wal(tmp_path / "ingest.wal")
        run = serve_in_thread(ex, wal=wal)
        try:
            with ServerClient("127.0.0.1", run.port) as c:
                def state():
                    units = c.stats().stat("fleet.f.units")
                    return units, (tmp_path / "ingest.wal").stat().st_size

                before = state()
                with pytest.raises(ServerError) as caught:
                    c.request(f"INGEST f 0 10 10 10 {bad} 20 20")
                assert caught.value.remote_type == "ProtocolError"
                assert state() == before
                assert c.snapshot("f", 1e6).rows == []
                # The same unit with a finite end lands and is logged.
                c.request("INGEST f 0 10 10 10 30 20 20")
                units, size = state()
                assert int(units) == int(before[0]) + 1 and size > before[1]
                assert c.snapshot("f", 30.0).rows == [
                    {"obj": "0", "x": "20.0", "y": "20.0"}
                ]
        finally:
            run.stop()
            wal.close()


# ---------------------------------------------------------------------------
# the client: torn tables, lying headers, and the connection afterwards
# ---------------------------------------------------------------------------

_ROWS = 2 * BLOCK_ROWS + 3
_BIG = _table([(i, i * 0.5, -float(i)) for i in range(_ROWS)])
_GOOD = _frame(_table([(4, 1.5, 2.5)]))


@contextlib.contextmanager
def _fails_once(first):
    """A port whose listener answers its first connection with ``first``
    (bytes, then EOF — or a callable misbehaving its own way) and the
    second with ``_GOOD``."""
    seen = set()

    def answer(conn):
        seen.add(conn)
        if len(seen) > 1:
            conn.sendall(_GOOD)
            return None
        if callable(first):
            return first(conn)
        conn.sendall(first)
        return False

    with _stub_server(answer, connections=2) as port:
        yield port


def _assert_recovers(client):
    """The request after a failed one is answered — on a new connection."""
    reply = client.request("SNAPSHOT FORMAT=bin f 2.0")
    assert reply.rows == [{"obj": "4", "x": "1.5", "y": "2.5"}]
    client.close()


class TestClientBinaryRead:
    @pytest.mark.parametrize("size", [1, 7, 4096, len(_frame(_BIG))])
    def test_delivery_granularity_does_not_change_the_reply(self, size):
        payload = _frame(_BIG)
        with _stub_server(_in_pieces(payload, size)) as port:
            with ServerClient("127.0.0.1", port, max_retries=0) as c:
                for _ in range(2):  # in step for the next reply too
                    reply = c.request("SNAPSHOT FORMAT=bin f 1.0")
                    assert reply.table.tobytes() == _BIG.tobytes()
                    assert reply.lines == []

    @pytest.mark.parametrize("records", [
        0, BLOCK_ROWS, 2 * BLOCK_ROWS, _ROWS - 1,  # block boundaries
        BLOCK_ROWS + 0.5, 0.25,                    # mid-record
        _ROWS,                                     # whole table, no END
    ])
    def test_truncated_table_is_connection_lost(self, records):
        whole = _frame(_BIG, end=b"")
        cut = len(whole) - int((_ROWS - records) * ROW_DTYPE.itemsize)
        with _fails_once(whole[:cut]) as port:
            c = ServerClient(
                "127.0.0.1", port, request_timeout=5.0, max_retries=0
            )
            started = time.monotonic()
            with pytest.raises(ConnectionLost):
                c.request("SNAPSHOT FORMAT=bin f 1.0")
            assert time.monotonic() - started < 4.0
            _assert_recovers(c)

    @pytest.mark.parametrize("payload, match", [
        (_frame(_BIG, nbytes=8 + 24 * _ROWS - 1), "bytes="),
        (_frame(_BIG, rows=_ROWS + 1), "bytes="),
        (_frame(_BIG, rows="many"), "integer"),
        (_frame(_BIG, rows=-1, nbytes=-16), "bytes="),
        (_frame(_BIG, count=_ROWS - 1), "records"),
        (_frame(_BIG, end=b"ROW obj=1\n"), "END"),
        (_frame(_BIG, end=b"\n"), "END"),
        (b"OK rows=1 format=bin\n", "integer"),
        (b"OK version=\xff\xfe rows=0\nEND\n", "UTF-8"),
        (b"OK rows=1\nROW obj=\xff\nEND\n", "UTF-8"),
    ])
    def test_lying_reply_is_a_protocol_error(self, payload, match):
        with _fails_once(payload) as port:
            c = ServerClient(
                "127.0.0.1", port, request_timeout=5.0, max_retries=0
            )
            started = time.monotonic()
            with pytest.raises(ProtocolError, match=match) as exc_info:
                c.request("SNAPSHOT FORMAT=bin f 1.0")
            assert not isinstance(exc_info.value, ConnectionLost)
            assert time.monotonic() - started < 4.0
            _assert_recovers(c)

    @pytest.mark.parametrize("sent", [0, 10, 60, 8 + 24 * BLOCK_ROWS])
    def test_request_after_an_unretried_timeout_is_answered(self, sent):
        """The parent left the timed-out socket in place: the next
        request raised a bare ``OSError('cannot read from timed out
        object')`` — or would have read the rest of the old reply."""
        payload = _frame(_BIG)

        def stall(conn):
            conn.sendall(payload[:sent])
            conn.settimeout(10.0)
            assert conn.recv(1) == b""  # silent until the client hangs up
            return False

        with _fails_once(stall) as port:
            c = ServerClient(
                "127.0.0.1", port, request_timeout=0.2, max_retries=0
            )
            with obs.capture() as counters:
                with pytest.raises(ClientTimeout):
                    c.request("SNAPSHOT FORMAT=bin f 1.0")
                assert counters.get("client.timeouts") == 1
            _assert_recovers(c)

    def test_server_gone_for_good_is_connection_lost(self):
        """Reconnecting to nothing is the typed error too, request after
        request — never the socket module's own."""
        with _stub_server(lambda conn: False) as port:
            c = ServerClient(
                "127.0.0.1", port, request_timeout=2.0, max_retries=1,
                backoff_base_ms=1.0,
            )
            with pytest.raises(ConnectionLost):
                c.request("STATS")  # hung up on; the listener still there
        for _ in range(2):
            started = time.monotonic()
            with pytest.raises(ConnectionLost, match="cannot reconnect"):
                c.snapshot("f", 1.0)  # refused: raised at once, no backoff
            assert time.monotonic() - started < 0.5
        c.close()

    def test_closed_client_stays_closed(self):
        """Only a connection the client itself dropped is reopened: a
        request after ``close()`` raises, as it always did, and leaves no
        new connection behind."""
        accepted = []

        def answer(conn):
            accepted.append(conn)
            conn.sendall(_GOOD)

        with _stub_server(answer, connections=2) as port:
            c = ServerClient("127.0.0.1", port, max_retries=2)
            assert len(c.snapshot("f", 1.0).rows) == 1
            c.close()
            for idempotent in (True, False):
                with pytest.raises(OSError):
                    c.request("SNAPSHOT FORMAT=bin f 1.0", idempotent=idempotent)
        assert len(accepted) == 1


# ---------------------------------------------------------------------------
# the server: whole reply or one ERR line; bytes per row
# ---------------------------------------------------------------------------


class _SteppedDeadline(Deadline):
    """Expires at its ``fuse``-th ``check()``."""

    __slots__ = ("fuse",)

    def __init__(self, fuse):
        super().__init__(time.monotonic() + 60.0, 60_000.0)
        self.fuse = fuse

    def expired(self):
        self.fuse -= 1
        return self.fuse <= 0


class TestServerFrame:
    @pytest.mark.parametrize("fmt", ["bin", "text"])
    def test_blocks_are_whole_rows_and_one_reply(self, fmt):
        n = 2 * BLOCK_ROWS + 3
        ids = np.arange(n)
        xs = ids * 0.5
        ys = -ids.astype(float)
        blocks = protocol.frame_snapshot(3, n, ids, xs, ys, None, fmt)
        assert len(blocks) == 3
        if fmt == "bin":
            assert b"".join(blocks) == (
                f"OK version=3 objects={n} rows={n} format=bin "
                f"bytes={8 + 24 * n}\n".encode("utf-8")
                + np.array(n, dtype="<u8").tobytes() + _BIG.tobytes()
                + b"END\n"
            )
            assert len(blocks[1]) == BLOCK_ROWS * ROW_DTYPE.itemsize
        else:
            assert [b.count(b"\n") for b in blocks] == [
                BLOCK_ROWS + 1, BLOCK_ROWS, 3 + 1
            ]

    @pytest.mark.parametrize("fmt", ["bin", "text"])
    def test_deadline_between_blocks_renders_nothing(self, fmt):
        n = 2 * BLOCK_ROWS + 3
        ids = np.arange(n)
        with pytest.raises(DeadlineExceeded):
            protocol.frame_snapshot(
                3, n, ids, ids * 0.5, ids * 1.0, _SteppedDeadline(2), fmt
            )

    def test_deadline_between_blocks_is_one_err_line_on_the_socket(
        self, monkeypatch
    ):
        """Every block exists before the first is written: a budget that
        runs out after block 1 answers ``ERR`` and no table byte."""
        n = 2 * BLOCK_ROWS + 3
        mappings = [
            MovingPoint([UPoint.between(0.0, (i, i), 10.0, (i + 1, i))])
            for i in range(n)
        ]
        ex = FleetExecutor()
        ex.register_fleet("f", mappings)
        real = protocol.frame_snapshot

        def expiring(version, objects, ids, xs, ys, deadline, fmt):
            assert deadline is not None and fmt == "bin"
            return real(version, objects, ids, xs, ys, _SteppedDeadline(2), fmt)

        monkeypatch.setattr(protocol, "frame_snapshot", expiring)
        run = serve_in_thread(ex)
        try:
            with socket.create_connection(
                ("127.0.0.1", run.port), timeout=10.0
            ) as sock, sock.makefile("rwb") as stream:
                stream.write(b"SNAPSHOT DEADLINE=60000 FORMAT=bin f 5.0\n")
                stream.flush()
                first = stream.readline()
                assert first.startswith(b"ERR DeadlineExceeded ")
                # The session is in step: the very next bytes are the
                # next reply's, not a table's.
                stream.write(b"STATS\n")
                stream.flush()
                assert stream.readline().startswith(b"OK stats=")
        finally:
            run.stop()

    def test_reply_bytes_counts_what_was_framed(self):
        n = 100
        mappings = [
            MovingPoint([UPoint.between(0.0, (i, i), 10.0, (i + 1, i))])
            for i in range(n)
        ]
        ex = FleetExecutor()
        ex.register_fleet("f", mappings)
        run = serve_in_thread(ex)
        try:
            with ServerClient("127.0.0.1", run.port) as c:
                with obs.capture() as counters:
                    binary = c.snapshot("f", 5.0)
                    framed_bin = counters.get("server.reply_bytes")
                    c.request("SNAPSHOT f 5.0")
                    framed_text = counters.get("server.reply_bytes") - framed_bin
                    c.stats()  # not a read reply: not counted
                    assert counters.get("server.reply_bytes") == (
                        framed_bin + framed_text
                    )
        finally:
            run.stop()
        head = len(
            f"OK version={binary.fields['version']} objects={n} rows={n} "
            f"format=bin bytes={8 + 24 * n}\n"
        )
        assert framed_bin == head + 8 + 24 * n + len("END\n")
        assert framed_text > framed_bin
