"""Resilience tests: deadlines, admission control, idempotent retries,
and worker-failure recovery.

Covers the PR-9 surface end to end: the :mod:`repro.deadline` budget
algebra (unit + Hypothesis properties), the wire-level ``DEADLINE`` /
``SEQ`` attributes, the session layer's overload shedding, the
client's typed timeout + retry loop, and the parallel dispatcher's
SIGKILL survival.  The live rows of the fault matrix that tie them
together run in ``tests/test_crash_matrix.py``.
"""

from __future__ import annotations

import os
import signal
import socket
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import config, faults, obs
from repro.deadline import Deadline, active, current
from repro.errors import (
    DeadlineExceeded,
    InvalidValue,
    Overloaded,
    ProtocolError,
)
from repro.parallel import parallel_window_intervals, pool, shmcol
from repro.server.client import (
    ClientTimeout,
    ConnectionLost,
    ServerClient,
    ServerError,
    jittered_backoff,
)
from repro.server.executor import FleetExecutor
from repro.server.ingest import IngestRequest, decode_record, encode_record
from repro.server.protocol import parse_request
from repro.server.session import serve_in_thread
from repro.spatial.bbox import Rect
from repro.storage.wal import Wal, WalRecord
from repro.temporal.mapping import MovingPoint
from repro.temporal.upoint import UPoint
from repro.vector.columns import UPointColumn
from repro.workloads.trajectories import FlightGenerator


@pytest.fixture(autouse=True)
def _clean_slate():
    faults.disarm()
    faults.reset_fired()
    yield
    faults.disarm()
    faults.reset_fired()
    pool.shutdown()
    shmcol.release_all()


def _mappings(n: int, seed: int = 7, legs: int = 3):
    gen = FlightGenerator(seed=seed)
    return [gen.flight(legs=legs) for _ in range(n)]


def _track(idx: int, units: int = 3) -> MovingPoint:
    out = []
    pos = (float(idx), float(idx) + 1.0)
    for k in range(units):
        t0, t1 = k * 3.0, k * 3.0 + 2.5
        nxt = (pos[0] + 1.0, pos[1] + 0.5)
        out.append(UPoint.between(t0, pos, t1, nxt, rc=False))
        pos = nxt
    return MovingPoint(out)


# ---------------------------------------------------------------------------
# the Deadline budget algebra
# ---------------------------------------------------------------------------


class TestDeadline:
    def test_after_and_remaining(self):
        dl = Deadline.after(10_000.0)
        assert 0.0 < dl.remaining_s() <= 10.0
        assert not dl.expired()
        dl.check()  # must not raise

    def test_rejects_nonpositive_budget(self):
        with pytest.raises(InvalidValue):
            Deadline.after(0.0)
        with pytest.raises(InvalidValue):
            Deadline.after(-5.0)

    @pytest.mark.parametrize("budget", [float("nan"), float("inf")])
    def test_rejects_non_finite_budget(self, budget):
        with pytest.raises(InvalidValue, match="finite"):
            Deadline.after(budget)

    def test_expired_deadline_checks_typed(self):
        dl = Deadline(time.monotonic() - 1.0, 1.0)
        assert dl.expired()
        assert dl.remaining_s() == 0.0
        with pytest.raises(DeadlineExceeded, match="1ms"):
            dl.check()

    def test_child_tightens_never_extends(self):
        parent = Deadline.after(50.0)
        child = parent.child(10_000.0)
        assert child.expires_at <= parent.expires_at
        tight = parent.child(1.0)
        assert tight.expires_at <= parent.expires_at

    def test_thread_local_binding_nests_and_restores(self):
        assert current() is None
        outer = Deadline.after(10_000.0)
        inner = Deadline.after(5_000.0)
        with active(outer):
            assert current() is outer
            with active(inner):
                assert current() is inner
            assert current() is outer
            with active(None):  # no-op binding
                assert current() is outer
        assert current() is None

    def test_binding_is_per_thread(self):
        seen = {}
        with active(Deadline.after(10_000.0)):
            th = threading.Thread(
                target=lambda: seen.setdefault("other", current())
            )
            th.start()
            th.join()
        assert seen["other"] is None


@settings(max_examples=200, deadline=None)
@given(
    attempt=st.integers(min_value=0, max_value=20),
    base=st.floats(min_value=0.1, max_value=500.0),
    cap=st.floats(min_value=1.0, max_value=10_000.0),
    factor=st.floats(min_value=0.0, max_value=1.0),
    u=st.floats(min_value=0.0, max_value=1.0, exclude_max=True),
)
def test_backoff_bounded_and_jitter_within_factor(attempt, base, cap, factor, u):
    """The backoff never exceeds the cap and stays within ±factor of
    the ideal exponential curve (itself capped)."""
    delay = jittered_backoff(attempt, base, cap, factor, u)
    ideal = min(cap, base * 2.0 ** attempt)
    assert delay <= cap * (1 + 1e-12)
    assert delay >= ideal * (1.0 - factor) - 1e-9
    assert delay <= min(cap, ideal * (1.0 + factor)) + 1e-9


@settings(max_examples=200, deadline=None)
@given(
    parent_ms=st.floats(min_value=0.001, max_value=60_000.0),
    child_ms=st.floats(min_value=0.001, max_value=120_000.0),
)
def test_child_deadline_monotone(parent_ms, child_ms):
    """Propagation is monotone: a child budget never outlives its
    parent's remaining budget, whatever the requested sub-budget."""
    parent = Deadline.after(parent_ms)
    child = parent.child(child_ms)
    assert child.expires_at <= parent.expires_at + 1e-9
    assert child.remaining_ms() <= parent.remaining_ms() + 1.0


# ---------------------------------------------------------------------------
# protocol attributes
# ---------------------------------------------------------------------------


class TestProtocolAttributes:
    def test_deadline_parses_on_every_work_command(self):
        assert parse_request("QUERY DEADLINE=250 SELECT 1;").deadline_ms == 250
        assert parse_request("EXPLAIN DEADLINE=5.5 SELECT 1;").deadline_ms == 5.5
        req = parse_request("SNAPSHOT DEADLINE=100 fleet 5.0")
        assert req.deadline_ms == 100 and req.fleet == "fleet"

    def test_ingest_takes_deadline_and_seq_in_any_order(self):
        line = "INGEST SEQ=c1:7 DEADLINE=80 fleet 0 1e6 0 0 1e6 1 1"
        req = parse_request(line)
        assert req.seq == "c1:7" and req.deadline_ms == 80.0
        assert req.obj == 0

    def test_seq_rejected_outside_ingest(self):
        with pytest.raises(ProtocolError, match="SEQ only applies to INGEST"):
            parse_request("QUERY SEQ=c1:1 SELECT 1;")

    def test_malformed_attributes_are_typed_errors(self):
        with pytest.raises(ProtocolError, match="expected milliseconds"):
            parse_request("QUERY DEADLINE=abc SELECT 1;")
        with pytest.raises(ProtocolError, match="> 0"):
            parse_request("QUERY DEADLINE=0 SELECT 1;")
        for value in ("nan", "inf", "1e400", "-inf"):
            with pytest.raises(ProtocolError, match="expected a finite number"):
                parse_request(f"SNAPSHOT DEADLINE={value} fleet 5")
        with pytest.raises(ProtocolError, match="non-empty"):
            parse_request("INGEST SEQ= fleet 0 0 0 0 1 1 1")

    def test_attribute_shaped_sql_text_is_untouched(self):
        # Only *leading* KEY=value tokens are attributes.
        req = parse_request("QUERY SELECT DEADLINE=9 FROM t;")
        assert req.deadline_ms is None
        assert req.sql == "SELECT DEADLINE=9 FROM t;"

    def test_stats_and_close_still_reject_arguments(self):
        with pytest.raises(ProtocolError):
            parse_request("STATS DEADLINE=5")


# ---------------------------------------------------------------------------
# seq tokens in the WAL record
# ---------------------------------------------------------------------------


class TestSeqInWal:
    def test_seq_round_trips_through_the_record(self):
        req = IngestRequest("fleet", 2, (1.0, 0, 0, 2.0, 1, 1), seq="c9:41")
        scope, payload = encode_record(req)
        rec = WalRecord(rec_type=8, scope=scope, payload=payload)
        assert decode_record(rec) == req

    def test_absent_seq_stays_absent(self):
        req = IngestRequest("fleet", 2, (1.0, 0, 0, 2.0, 1, 1))
        _, payload = encode_record(req)
        assert b"seq" not in payload
        rec = WalRecord(rec_type=8, scope="fleet:fleet", payload=payload)
        assert decode_record(rec).seq == ""


# ---------------------------------------------------------------------------
# executor dedup + deadline checks
# ---------------------------------------------------------------------------


class TestExecutorDedup:
    def test_same_seq_applies_once_and_counts_a_hit(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(2))
        req = IngestRequest("fleet", 0, (1e6, 0, 0, 1e6 + 5, 1, 1), seq="a:1")
        with obs.capture():
            first = ex.apply_units([req])
            second = ex.apply_units([req])
            assert obs.get("ingest.dedup_hits") == 1
        assert first == second
        # exactly one unit landed
        assert len(ex.fleet("fleet")[0].units) == len(_mappings(2)[0].units) + 1

    def test_unseqd_requests_never_dedup(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(2))
        r1 = IngestRequest("fleet", 0, (1e6, 0, 0, 1e6 + 5, 1, 1))
        r2 = IngestRequest("fleet", 0, (2e6, 0, 0, 2e6 + 5, 1, 1))
        ex.apply_units([r1])
        ex.apply_units([r2])
        assert len(ex.fleet("fleet")[0].units) == len(_mappings(2)[0].units) + 2

    def test_replay_repopulates_the_dedup_table(self):
        """Exactly-once across a restart: the WAL carries the token, so
        a retry arriving *after* recovery still deduplicates."""
        from repro.server.ingest import commit, replay_ingest

        wal = Wal()
        try:
            ex = FleetExecutor()
            ex.register_fleet("fleet", _mappings(2))
            req = IngestRequest(
                "fleet", 0, (1e6, 0, 0, 1e6 + 5, 1, 1), seq="boot:1"
            )
            commit(wal, ex, [req])
            baseline = len(ex.fleet("fleet")[0].units)
            # restart: fresh executor, replay the durable prefix
            ex2 = FleetExecutor()
            ex2.register_fleet("fleet", _mappings(2))
            replay_ingest(wal, ex2)
            assert len(ex2.fleet("fleet")[0].units) == baseline
            with obs.capture():
                ex2.apply_units([req])  # the late retry
                assert obs.get("ingest.dedup_hits") == 1
            assert len(ex2.fleet("fleet")[0].units) == baseline
        finally:
            wal.close()

    def test_expired_deadline_aborts_snapshot_rows(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(2))
        dead = Deadline(time.monotonic() - 1.0, 5.0)
        with pytest.raises(DeadlineExceeded):
            ex.snapshot_rows("fleet", 60.0, deadline=dead)

    def test_expired_deadline_aborts_query_sql(self):
        ex = FleetExecutor()
        dead = Deadline(time.monotonic() - 1.0, 5.0)
        with pytest.raises(DeadlineExceeded):
            ex.query_sql("SELECT 1;", deadline=dead)

    def test_query_sql_binds_the_deadline_thread_locally(self):
        ex = FleetExecutor()
        seen = {}
        orig = ex.db  # created on first use

        class Probe:
            def __getattr__(self, name):
                seen["deadline"] = current()
                return getattr(orig, name)

        ex._db = Probe()
        try:
            dl = Deadline.after(10_000.0)
            ex.query_sql("CREATE TABLE probe_t (id string);", deadline=dl)
        finally:
            ex._db = orig
        assert seen["deadline"] is dl
        assert current() is None


# ---------------------------------------------------------------------------
# the wire: deadlines, shedding, dedup, client timeout
# ---------------------------------------------------------------------------


class TestWireResilience:
    @pytest.fixture()
    def server(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        run = serve_in_thread(ex)
        yield run
        run.stop()

    def test_deadline_expiry_is_a_typed_err_and_counted(self, server):
        with obs.capture():
            with ServerClient(
                "127.0.0.1", server.port, max_retries=0
            ) as c:
                # A deadline this tight cannot survive the dispatch hop.
                with pytest.raises(ServerError) as exc_info:
                    c.request("SNAPSHOT DEADLINE=0.001 fleet 60.0")
                assert exc_info.value.remote_type == "DeadlineExceeded"
                # the session survives the timeout
                assert len(c.snapshot("fleet", 60.0).rows) == 4
            assert obs.get("server.timeouts") >= 1

    def test_non_finite_deadline_is_a_protocol_error_not_a_timeout(self, server):
        with obs.capture():
            with ServerClient(
                "127.0.0.1", server.port, max_retries=0
            ) as c:
                for value in ("nan", "inf"):
                    with pytest.raises(ServerError) as exc_info:
                        c.request(f"SNAPSHOT DEADLINE={value} fleet 5")
                    assert exc_info.value.remote_type == "ProtocolError"
            assert obs.get("server.timeouts") == 0

    def test_generous_deadline_answers_normally(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            reply = c.snapshot("fleet", 60.0, deadline_ms=60_000.0)
            assert len(reply.rows) == 4
            ok = c.query("CREATE TABLE t1 (id string);", deadline_ms=60_000.0)
            assert ok.fields.get("statements") == "1"

    def test_wire_ingest_retry_same_seq_is_exactly_once(self, server):
        with obs.capture():
            with ServerClient("127.0.0.1", server.port) as c:
                before = int(c.stats().stat("fleet.fleet.units"))
                n1 = c.ingest("fleet", 0, (1e6, 0, 0, 1e6 + 5, 1, 1),
                              seq="wire:1")
                n2 = c.ingest("fleet", 0, (1e6, 0, 0, 1e6 + 5, 1, 1),
                              seq="wire:1")
                assert n1 == n2
                after = int(c.stats().stat("fleet.fleet.units"))
            assert after == before + 1
            assert obs.get("ingest.dedup_hits") == 1

    def test_client_stamps_fresh_seq_tokens(self, server):
        with ServerClient("127.0.0.1", server.port) as c:
            n1 = c.ingest("fleet", 0, (1e6, 0, 0, 1e6 + 5, 1, 1))
            n2 = c.ingest("fleet", 0, (2e6, 0, 0, 2e6 + 5, 1, 1))
            assert n2 == n1 + 1  # distinct tokens, both applied

    def test_overloaded_answer_carries_retry_after_hint(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        run = serve_in_thread(ex, max_inflight=1)
        release = threading.Event()
        started = threading.Event()
        try:
            def hog():
                # Park one admitted request inside the server by being
                # slow to *read* its big response: issue the request,
                # then stall before consuming it.
                raw = socket.create_connection(("127.0.0.1", run.port))
                try:
                    raw.sendall(b"QUERY SELECT 1;\n")
                    started.set()
                    release.wait(10.0)
                    raw.recv(65536)
                finally:
                    raw.close()

            # the hog occupies the single admission slot via a stalled
            # slow_client write
            faults.arm("server.slow_client", "every:1")
            th = threading.Thread(target=hog)
            th.start()
            started.wait(5.0)
            time.sleep(0.02)  # let the hog's request enter _serve_line
            with obs.capture():
                with ServerClient(
                    "127.0.0.1", run.port, max_retries=0
                ) as c:
                    with pytest.raises(ServerError) as exc_info:
                        c.request("SNAPSHOT fleet 60.0")
                assert exc_info.value.remote_type == "Overloaded"
                hint = exc_info.value.retry_after_ms()
                assert hint is not None and 1 <= hint <= 2000
                assert obs.get("server.shed") >= 1
        finally:
            faults.disarm()
            release.set()
            th.join(timeout=10)
            run.stop()

    def test_shed_requests_are_absorbed_by_client_retries(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        run = serve_in_thread(ex, max_inflight=1)
        errors = []
        try:
            with obs.capture():
                def worker():
                    try:
                        with ServerClient(
                            "127.0.0.1", run.port, max_retries=10,
                            backoff_base_ms=2.0, backoff_cap_ms=50.0,
                        ) as c:
                            for _ in range(6):
                                assert len(c.snapshot("fleet", 60.0).rows) == 4
                    except Exception as exc:  # pragma: no cover
                        errors.append(repr(exc))

                threads = [threading.Thread(target=worker) for _ in range(6)]
                for th in threads:
                    th.start()
                for th in threads:
                    th.join(timeout=30)
                shed = obs.get("server.shed")
                retries = obs.get("client.retries")
        finally:
            run.stop()
        assert errors == []
        assert shed >= 1, "six concurrent clients never saturated inflight=1"
        assert retries >= 1

    def test_stats_bypasses_admission_control(self):
        ex = FleetExecutor()
        ex.register_fleet("fleet", _mappings(4))
        run = serve_in_thread(ex, max_inflight=1)
        try:
            with ServerClient("127.0.0.1", run.port, max_retries=0) as c:
                assert c.stats().stat("fleet.fleet.objects") == "4"
        finally:
            run.stop()

    def test_client_read_deadline_is_typed(self):
        """A server that accepts but never answers must surface as
        ClientTimeout within the read deadline, not a hang."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        conns = []

        def mute_server():
            conn, _ = listener.accept()
            conns.append(conn)  # accept, read, never answer

        th = threading.Thread(target=mute_server)
        th.start()
        t0 = time.monotonic()
        with obs.capture():
            client = ServerClient(
                "127.0.0.1", port, timeout=5.0,
                request_timeout=0.2, max_retries=0,
            )
            try:
                with pytest.raises(ClientTimeout):
                    client.request("STATS")
            finally:
                client._sock.close()
                client._file.close()
            assert obs.get("client.timeouts") == 1
        assert time.monotonic() - t0 < 4.0
        th.join(timeout=5)
        for conn in conns:
            conn.close()
        listener.close()

    def test_non_idempotent_timeout_does_not_retry(self):
        """Without the idempotent flag a timed-out request must raise,
        never silently re-send."""
        listener = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        listener.bind(("127.0.0.1", 0))
        listener.listen(1)
        port = listener.getsockname()[1]
        received = []

        def mute_server():
            conn, _ = listener.accept()
            received.append(conn.recv(4096))
            release.wait(5.0)
            conn.close()

        release = threading.Event()
        th = threading.Thread(target=mute_server)
        th.start()
        client = ServerClient(
            "127.0.0.1", port, timeout=5.0,
            request_timeout=0.2, max_retries=5,
        )
        try:
            with pytest.raises(ClientTimeout):
                client.request("QUERY SELECT 1;", idempotent=False)
        finally:
            release.set()
            client._sock.close()
            client._file.close()
            th.join(timeout=5)
            listener.close()
        assert received and received[0].count(b"\n") == 1


# ---------------------------------------------------------------------------
# worker-failure recovery (satellite 1: the SIGKILL pool hang)
# ---------------------------------------------------------------------------


def _window_column(n: int):
    return UPointColumn.from_mappings([_track(i) for i in range(n)])


def _worker_signal_dispositions():
    """Runs inside a pool worker: report SIGTERM/SIGINT dispositions."""
    term = signal.getsignal(signal.SIGTERM)
    intr = signal.getsignal(signal.SIGINT)
    return (
        "default" if term is signal.SIG_DFL else "caught",
        "ignored" if intr is signal.SIG_IGN else "caught",
    )


@pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="fork start method required",
)
class TestWorkerFailure:
    def test_sigkilled_worker_still_returns_correct_result(self):
        """The regression the bare Pool.map could not survive: SIGKILL
        one fork worker mid-dispatch and the query must still return
        the bit-identical result, with the recovery counted."""
        from repro.vector.kernels import window_intervals_batch

        n = max(config.PARALLEL_MIN_OBJECTS, 1024) + 16
        col = _window_column(n)
        rect = Rect(0.0, 0.0, 1e6, 1e6)
        reference = window_intervals_batch(col, rect, 0.0, 10.0)
        pool.shutdown()
        with obs.capture():
            faults.arm("parallel.worker_kill", "once")
            try:
                result = parallel_window_intervals(
                    col, rect, 0.0, 10.0, workers=4
                )
            finally:
                faults.disarm()
            assert faults.fired("parallel.worker_kill") == 1
            assert obs.get("parallel.worker_deaths") >= 1
            assert obs.get("parallel.chunk_retries") >= 1
            assert obs.get("parallel.fallback.pool_broken") == 0
        for got, want in zip(result, reference):
            assert np.array_equal(got, want)

    def test_second_death_falls_back_in_process(self):
        """Workers dying even after a respawn: the dispatcher gives up
        on the pool (PoolBroken), and the entry point finishes the
        query in-process — still bit-identical."""
        from repro.vector.kernels import window_intervals_batch

        n = max(config.PARALLEL_MIN_OBJECTS, 1024) + 16
        col = _window_column(n)
        rect = Rect(0.0, 0.0, 1e6, 1e6)
        reference = window_intervals_batch(col, rect, 0.0, 10.0)
        pool.shutdown()
        with obs.capture():
            faults.arm("parallel.worker_kill", "every:1")
            try:
                result = parallel_window_intervals(
                    col, rect, 0.0, 10.0, workers=4
                )
            finally:
                faults.disarm()
            assert obs.get("parallel.worker_deaths") >= 2
            assert obs.get("parallel.fallback.pool_broken") == 1
        for got, want in zip(result, reference):
            assert np.array_equal(got, want)

    def test_workers_reset_inherited_signal_handlers(self):
        """Fork workers must drop the parent's Python-level SIGTERM
        handler (the matrix CLIs install drain handlers that merely set
        a flag).  A worker that inherits one can "catch" the SIGTERM of
        ``Pool.terminate()`` while blocked on the task queue and resume
        waiting — unkillable, hanging shutdown's join forever."""
        previous = signal.signal(signal.SIGTERM, lambda *_: None)
        try:
            pool.shutdown()
            p = pool.get_pool(2)
            dispositions = p.apply(_worker_signal_dispositions)
            assert dispositions == ("default", "ignored")
        finally:
            signal.signal(signal.SIGTERM, previous)
            pool.shutdown()

    def test_run_tasks_checks_the_active_deadline(self):
        """An expired deadline aborts the dispatch wait instead of
        riding out a poll loop."""
        n = max(config.PARALLEL_MIN_OBJECTS, 1024) + 16
        col = _window_column(n)
        rect = Rect(0.0, 0.0, 1e6, 1e6)
        pool.shutdown()
        dead = Deadline(time.monotonic() - 1.0, 5.0)
        faults.arm("parallel.worker_kill", "once")
        try:
            with active(dead):
                with pytest.raises(DeadlineExceeded):
                    parallel_window_intervals(
                        col, rect, 0.0, 10.0, workers=4
                    )
        finally:
            faults.disarm()
            pool.shutdown()
