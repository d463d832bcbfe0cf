"""Tests for the mini-DBMS: schemas, relations, catalog, SQL."""

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro.base.values import IntVal, RealVal, StringVal
from repro.db import Database, Schema
from repro.db.expressions import Call, Column, Compare, Literal, register_function
from repro.db.relation import Relation
from repro.db.sql import parse_query, run_query
from repro.errors import CatalogError, QueryError
from repro.spatial.region import Region
from repro.temporal.mapping import MovingPoint


class TestSchema:
    def test_valid(self):
        s = Schema([("a", "int"), ("b", "mpoint")])
        assert s.names == ["a", "b"]
        assert s.type_of("b") == "mpoint"

    def test_duplicate_names_rejected(self):
        with pytest.raises(CatalogError):
            Schema([("a", "int"), ("a", "real")])

    def test_unknown_type_rejected(self):
        with pytest.raises(CatalogError):
            Schema([("a", "blob")])

    def test_index_of(self):
        s = Schema([("a", "int"), ("b", "real")])
        assert s.index_of("b") == 1
        with pytest.raises(CatalogError):
            s.index_of("zzz")

    def test_contains(self):
        s = Schema([("a", "int")])
        assert "a" in s and "b" not in s


class TestRelation:
    def test_insert_scan(self):
        r = Relation("t", Schema([("x", "int"), ("y", "string")]))
        r.insert([IntVal(1), StringVal("a")])
        r.insert_dict({"x": IntVal(2), "y": StringVal("b")})
        rows = r.rows()
        assert len(rows) == 2
        assert rows[0]["x"] == IntVal(1)

    def test_scalar_coercion(self):
        r = Relation("t", Schema([("x", "int")]))
        r.insert([5])
        assert r.rows()[0]["x"] == IntVal(5)

    def test_arity_checked(self):
        r = Relation("t", Schema([("x", "int")]))
        with pytest.raises(CatalogError):
            r.insert([1, 2])

    def test_materialized_roundtrip(self):
        r = Relation(
            "t", Schema([("name", "string"), ("track", "mpoint")]), materialized=True
        )
        mp = MovingPoint.from_waypoints([(0, (0, 0)), (10, (5, 5))])
        r.insert([StringVal("a"), mp])
        row = r.rows()[0]
        assert row["track"] == mp
        assert r.storage_stats() is not None

    def test_in_memory_has_no_storage_stats(self):
        r = Relation("t", Schema([("x", "int")]))
        assert r.storage_stats() is None


class TestDatabase:
    def test_create_and_lookup(self):
        db = Database()
        db.create_relation("t", [("x", "int")])
        assert "t" in db
        assert db.relation("t").name == "t"

    def test_duplicate_rejected(self):
        db = Database()
        db.create_relation("t", [("x", "int")])
        with pytest.raises(CatalogError):
            db.create_relation("t", [("x", "int")])

    def test_drop(self):
        db = Database()
        db.create_relation("t", [("x", "int")])
        db.drop_relation("t")
        assert "t" not in db
        with pytest.raises(CatalogError):
            db.drop_relation("t")

    def test_unknown_relation(self):
        with pytest.raises(CatalogError):
            Database().relation("nope")


class TestParser:
    def test_simple(self):
        q = parse_query("SELECT a, b FROM t WHERE a > 1")
        assert len(q.items) == 2
        assert q.tables == [("t", "t")]
        assert q.where is not None

    def test_star(self):
        q = parse_query("SELECT * FROM t")
        assert q.items is None

    def test_aliases(self):
        q = parse_query("SELECT p.a FROM planes p, planes q")
        assert q.tables == [("planes", "p"), ("planes", "q")]

    def test_function_calls_nest(self):
        q = parse_query("SELECT f(g(x), 3) AS out FROM t")
        expr = q.items[0].expr
        assert isinstance(expr, Call) and expr.func == "f"
        assert isinstance(expr.args[0], Call)

    def test_string_literals(self):
        q = parse_query("SELECT a FROM t WHERE a = 'x'")
        assert isinstance(q.where, Compare)
        assert q.where.right == Literal("x")

    @given(st.floats(allow_nan=False, allow_infinity=False))
    def test_any_finite_float_repr_is_a_literal(self, x):
        """Negative and exponent spellings included: ``-5``, ``1e+16``."""
        q = parse_query(f"SELECT a FROM t WHERE a = {x!r}")
        assert q.where.right == Literal(x)
        assert repr(q.where.right.value) == repr(x)

    @pytest.mark.parametrize(
        "text, value", [("-5", -5), ("1e2", 100.0), ("-2.5E-3", -0.0025)]
    )
    def test_number_spellings(self, text, value):
        q = parse_query(f"SELECT a FROM t WHERE a = {text}")
        assert q.where.right == Literal(value)
        assert type(q.where.right.value) is type(value)

    def test_paper_quoting_style(self):
        # The paper writes ``Lufthansa''.
        q = parse_query("SELECT a FROM t WHERE a = ``Lufthansa''")
        assert q.where.right == Literal("Lufthansa")

    def test_boolean_precedence(self):
        q = parse_query("SELECT a FROM t WHERE a = 1 OR b = 2 AND c = 3")
        from repro.db.expressions import Or

        assert isinstance(q.where, Or)

    def test_limit(self):
        assert parse_query("SELECT a FROM t LIMIT 5").limit == 5

    def test_garbage_rejected(self):
        with pytest.raises(QueryError):
            parse_query("SELECT FROM")
        with pytest.raises(QueryError):
            parse_query("SELECT a FROM t WHERE ???")


@pytest.fixture
def planes_db():
    db = Database()
    planes = db.create_relation(
        "planes", [("airline", "string"), ("id", "string"), ("flight", "mpoint")]
    )
    planes.insert(
        ["Lufthansa", "LH1", MovingPoint.from_waypoints([(0, (0, 0)), (100, (6000, 0))])]
    )
    planes.insert(
        ["Lufthansa", "LH2", MovingPoint.from_waypoints([(0, (0, 10)), (100, (3000, 10))])]
    )
    planes.insert(
        ["AirFrance", "AF1", MovingPoint.from_waypoints([(0, (0, 0.2)), (100, (6000, 0.2))])]
    )
    return db


class TestQueries:
    def test_projection_and_filter(self, planes_db):
        rows = planes_db.query("SELECT id FROM planes WHERE airline = 'Lufthansa'")
        assert sorted(r["id"].value for r in rows) == ["LH1", "LH2"]

    def test_select_star(self, planes_db):
        rows = planes_db.query("SELECT * FROM planes")
        assert len(rows) == 3

    def test_limit(self, planes_db):
        assert len(planes_db.query("SELECT id FROM planes LIMIT 2")) == 2

    def test_paper_query_1(self, planes_db):
        rows = planes_db.query(
            "SELECT airline, id FROM planes "
            "WHERE airline = ``Lufthansa'' AND length(trajectory(flight)) > 5000"
        )
        assert [r["id"].value for r in rows] == ["LH1"]

    def test_paper_query_2_join(self, planes_db):
        rows = planes_db.query(
            "SELECT p.airline, p.id AS pid, q.airline, q.id AS qid "
            "FROM planes p, planes q "
            "WHERE p.id < q.id "
            "AND val(initial(atmin(distance(p.flight, q.flight)))) < 0.5"
        )
        pairs = sorted((r["pid"].value, r["qid"].value) for r in rows)
        assert pairs == [("AF1", "LH1")]  # 0.2 apart; LH2 is 10 away

    def test_unknown_function(self, planes_db):
        with pytest.raises(QueryError):
            planes_db.query("SELECT frobnicate(id) FROM planes")

    def test_unknown_column(self, planes_db):
        with pytest.raises(QueryError):
            planes_db.query("SELECT missing FROM planes")

    def test_ambiguous_column(self, planes_db):
        with pytest.raises(QueryError):
            planes_db.query("SELECT id FROM planes p, planes q LIMIT 1")

    def test_unqualified_columns_resolve_once_per_operator(
        self, planes_db, monkeypatch
    ):
        """Regression: ``Column.eval`` searched the row's keys for every
        row of every statement.  An operator now binds its expressions
        to its first row; what cannot be bound raises as before — the
        same message, and only if it is evaluated."""
        from repro.db import executor

        with pytest.raises(QueryError) as caught:
            planes_db.query("SELECT id FROM planes a, planes b")
        assert str(caught.value) == "ambiguous column 'id': ['a.id', 'b.id']"
        with pytest.raises(QueryError) as caught:
            planes_db.query("SELECT a.id FROM planes a, planes b WHERE id = 'LH1'")
        assert str(caught.value) == "ambiguous column 'id': ['a.id', 'b.id']"
        with pytest.raises(QueryError) as caught:
            planes_db.query("SELECT missing FROM planes")
        assert str(caught.value) == "unknown column 'missing'"
        n = len(planes_db.query("SELECT id FROM planes"))
        pairs = planes_db.query(
            "SELECT a.id, b.id FROM planes a, planes b "
            "WHERE a.id = a.id OR id = 'never evaluated'"
        )
        assert len(pairs) == n * n

        binds = []
        original = executor.bind
        monkeypatch.setattr(
            executor, "bind",
            lambda expr, row: binds.append(expr) or original(expr, row),
        )
        rows = planes_db.query(
            "SELECT airline, id FROM planes WHERE airline <> 'nobody' ORDER BY id"
        )
        assert len(rows) == n > 1
        assert len(binds) == 4  # predicate, sort key, two outputs

    def test_register_function(self, planes_db):
        register_function("double_len", lambda l: l.length() * 2)
        rows = planes_db.query(
            "SELECT double_len(trajectory(flight)) AS d FROM planes WHERE id = 'LH2'"
        )
        assert rows[0]["d"] == pytest.approx(6000.0)

    def test_spatial_predicate_in_query(self, planes_db):
        register_function("corridor", lambda: Region.box(-100, -5, 7000, 5))
        rows = planes_db.query(
            "SELECT id FROM planes WHERE passes(flight, corridor())"
        )
        ids = sorted(r["id"].value for r in rows)
        assert ids == ["AF1", "LH1"]
