"""Tests for fleet analytics and the EXPLAIN plan printer."""

import pytest

from repro.base.values import IntVal
from repro.db import Database
from repro.db.sql import explain
from repro.ranges.interval import closed
from repro.spatial.region import Region
from repro.temporal.mapping import MovingPoint
from repro.ops.analytics import (
    occupancy,
    peak_presence,
    presence_count,
    total_travelled,
)


def track(t0, t1, y):
    return MovingPoint.from_waypoints([(t0, (0.0, y)), (t1, (10.0, y))])


class TestPresenceCount:
    def test_staggered_fleet(self):
        fleet = [track(0, 10, 0), track(5, 15, 1), track(20, 25, 2)]
        counts = presence_count(fleet)
        assert counts.value_at(2.0) == IntVal(1)
        assert counts.value_at(7.0) == IntVal(2)
        assert counts.value_at(12.0) == IntVal(1)
        assert counts.value_at(17.0) is None  # nobody defined
        assert counts.value_at(22.0) == IntVal(1)

    def test_boundary_instants(self):
        fleet = [track(0, 10, 0), track(10, 20, 1)]
        # Both tracks are defined exactly at t=10 (closed ends).
        counts = presence_count(fleet)
        assert counts.value_at(10.0) == IntVal(2)

    def test_empty(self):
        assert len(presence_count([])) == 0

    def test_peak(self):
        fleet = [track(0, 10, 0), track(2, 8, 1), track(4, 6, 2)]
        peak, when = peak_presence(fleet)
        assert peak == 3
        assert 4.0 <= when <= 6.0


class TestOccupancy:
    def test_zone_occupancy(self):
        zone = Region.box(4, -1, 6, 3)
        # Both tracks cross x in [4, 6] during t in [4, 6].
        fleet = [track(0, 10, 0), track(0, 10, 1), track(0, 10, 100)]
        occ = occupancy(fleet, zone)
        assert occ.value_at(5.0) == IntVal(2)
        assert occ.value_at(1.0) is None  # nobody inside

    def test_total_travelled(self):
        fleet = [track(0, 10, 0), track(0, 10, 1)]
        assert total_travelled(fleet) == pytest.approx(20.0)


class TestExplain:
    @pytest.fixture
    def db(self):
        db = Database()
        planes = db.create_relation(
            "planes", [("airline", "string"), ("id", "string"), ("flight", "mpoint")]
        )
        airlines = db.create_relation(
            "airlines", [("code", "string"), ("country", "string")]
        )
        planes.insert(["LH", "LH1", track(0, 10, 0)])
        airlines.insert(["LH", "Germany"])
        return db

    def test_scan_filter_project(self, db):
        text = explain(db, "SELECT id FROM planes WHERE airline = 'LH'")
        assert "Project(id)" in text
        assert "Select(" in text
        assert "SeqScan(planes AS planes)" in text
        # Indentation reflects nesting.
        lines = text.splitlines()
        assert lines[0].startswith("Project")
        assert lines[-1].strip().startswith("SeqScan")

    def test_hash_join_plan(self, db):
        text = explain(
            db,
            "SELECT p.id FROM planes p JOIN airlines a ON p.airline = a.code",
        )
        assert "HashJoin" in text

    def test_aggregate_sort_limit(self, db):
        text = explain(
            db,
            "SELECT airline, count(*) AS n FROM planes "
            "GROUP BY airline ORDER BY airline LIMIT 3",
        )
        assert "Aggregate" in text and "Sort" in text and "Limit(3)" in text

    def test_plan_executes_same_rows(self, db):
        sql = "SELECT id FROM planes WHERE airline = 'LH'"
        assert db.query(sql)  # plan built by explain is the same shape
        assert "SeqScan" in explain(db, sql)


class TestExplainSplit:
    """``Select`` shows which conjuncts run as one kernel mask (and on
    which operator-table row) and which run row by row: the three
    statements of ``benchmarks/e2e``'s ``api_scan_warm``."""

    Q1 = (
        "SELECT airline, id FROM planes WHERE airline = ``Lufthansa'' "
        "AND length(trajectory(flight)) > 5000"
    )
    PRESENT = "SELECT id FROM planes WHERE present(flight, 3.5)"
    WINDOW = (
        "SELECT id FROM planes WHERE "
        "passes_window(flight, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0)"
    )
    AIRLINE = (
        "Compare(op='=', left=Column(name='airline'), "
        "right=Literal(value='Lufthansa'))"
    )
    LENGTH = (
        "Compare(op='>', left=Call(func='length', args=(Call("
        "func='trajectory', args=(Column(name='flight'),)),)), "
        "right=Literal(value=5000))"
    )

    @pytest.fixture
    def db(self):
        from repro.vector.fleet import set_backend

        db = Database()
        planes = db.create_relation(
            "planes",
            [("airline", "string"), ("id", "string"), ("flight", "mpoint")],
            materialized=True,
        )
        planes.insert(["Lufthansa", "LH1", track(0, 10, 0)])
        set_backend("vector")
        yield db
        set_backend("scalar")

    def plan(self, db, sql):
        return [line.strip() for line in explain(db, sql).splitlines()]

    def test_q1_splits_its_conjunction(self, db):
        assert self.plan(db, self.Q1) == [
            "Project(airline, id)",
            f"Select(batch=[path_length: {self.LENGTH}], rows=[{self.AIRLINE}])",
            "VectorScan(planes AS planes, attr=flight)",
        ]

    def test_present_and_window_are_all_batch(self, db):
        present = (
            "Call(func='present', args=(Column(name='flight'), "
            "Literal(value=3.5)))"
        )
        assert self.plan(db, self.PRESENT) == [
            "Project(id)",
            f"Select(batch=[present: {present}], rows=[])",
            "VectorScan(planes AS planes, attr=flight)",
        ]
        window = self.plan(db, self.WINDOW)[1]
        assert window.startswith(
            "Select(batch=[window_intervals: Call(func='passes_window', "
        )
        assert window.endswith("], rows=[])")

    def test_an_uncompiled_predicate_is_one_row_test(self, db):
        from repro.vector.fleet import set_backend

        whole = f"And(left={self.AIRLINE}, right={self.LENGTH})"
        either = self.Q1.replace(" AND ", " OR ")
        assert self.plan(db, either)[1] == (
            f"Select(batch=[], rows=[Or(left={self.AIRLINE}, "
            f"right={self.LENGTH})])"
        )
        set_backend("scalar")
        assert self.plan(db, self.Q1)[1:] == [
            f"Select(batch=[], rows=[{whole}])",
            "SeqScan(planes AS planes)",
        ]

    def test_fallback_is_counted_only_when_nothing_compiled(self, db):
        from repro import obs

        obs.enable()
        try:
            for sql, fallbacks in (
                (self.Q1, 0), (self.PRESENT, 0),
                (self.Q1.replace(" AND ", " OR "), 1),
                ("SELECT id FROM planes WHERE NOT present(flight, 3.5)", 1),
            ):
                with obs.capture() as c:
                    db.query(sql)
                assert c.get("vector.fallback_to_scalar.predicate") == fallbacks
                assert c.get("vector.batch_select.calls") == 1 - fallbacks
        finally:
            obs.disable()
