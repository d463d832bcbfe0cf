"""``WindowQueryEngine``: a keyed view over one fleet and its loaders.

The engine has one filter — the operator table's ``window_intervals``
row — and one evaluation path on every backend.  Pinned here: no
private index is built or searched, a key is registered once, a lazy
object that fails to load fails the query alike on every backend, a
bad window is refused before any backend runs, and the window bench's
ablation still runs against the engine's API.
"""

import importlib.util
import math
from pathlib import Path

import pytest

from repro import obs
from repro.errors import InvalidValue, StorageError
from repro.ops.window import WindowQueryEngine
from repro.spatial.bbox import Rect
from repro.temporal.mapping import MovingPoint
from repro.workloads.trajectories import random_flights

BACKENDS = ("scalar", "vector", "parallel")


def _mp(a, b):
    return MovingPoint.from_waypoints([(0, a), (10, b)])


# ---------------------------------------------------------------------------
# A key is registered once
# ---------------------------------------------------------------------------


class TestKeysAreUnique:
    def test_add_refuses_a_registered_key(self):
        engine = WindowQueryEngine()
        engine.add("k", _mp((1, 1), (2, 2)))
        with pytest.raises(InvalidValue):
            engine.add("k", _mp((3, 3), (4, 4)))
        assert len(engine) == 1
        for backend in BACKENDS:
            got = engine.query(Rect(0, 0, 5, 5), 0.0, 10.0, backend=backend)
            assert [k for k, _ in got] == ["k"], backend

    def test_add_fleet_refuses_the_whole_batch(self):
        engine = WindowQueryEngine()
        engine.add("k", _mp((1, 1), (2, 2)))
        with pytest.raises(InvalidValue):
            engine.add_fleet(
                [("fresh", _mp((0, 0), (1, 1))), ("k", _mp((3, 3), (4, 4)))]
            )
        with pytest.raises(InvalidValue):
            engine.add_fleet(
                [("twice", _mp((0, 0), (1, 1))), ("twice", _mp((0, 0), (1, 1)))]
            )
        # Nothing of either batch was registered.
        assert len(engine) == 1
        assert engine.query_naive(Rect(0, 0, 5, 5), 0.0, 10.0)[0][0] == "k"
        engine.add_fleet([("fresh", _mp((0, 0), (1, 1)))])
        assert len(engine) == 2

    def test_add_lazy_refuses_a_registered_key(self):
        engine = WindowQueryEngine()
        engine.add_lazy("lazy", lambda: _mp((1, 1), (2, 2)))
        with pytest.raises(InvalidValue):
            engine.add_lazy("lazy", lambda: _mp((3, 3), (4, 4)))
        with pytest.raises(InvalidValue):
            engine.add("lazy", _mp((3, 3), (4, 4)))
        engine.add("eager", _mp((1, 1), (2, 2)))
        with pytest.raises(InvalidValue):
            engine.add_lazy("eager", lambda: _mp((3, 3), (4, 4)))
        assert len(engine) == 2


# ---------------------------------------------------------------------------
# No private index
# ---------------------------------------------------------------------------


class TestNoPrivateIndex:
    def test_add_fleet_builds_no_tree_and_scalar_searches_none(self):
        engine = WindowQueryEngine()
        flights = random_flights(200, legs=4, seed=3)
        with obs.capture() as c:
            engine.add_fleet(enumerate(flights))
        built = c.snapshot()["counters"]
        assert not [name for name in built if name.startswith("rtree.")]
        rect = Rect(2000.0, 2000.0, 2800.0, 2800.0)
        with obs.capture() as c:
            got = engine.query(rect, 100.0, 350.0, backend="scalar")
        assert c.get("rtree.nodes_visited") == 0
        assert got == engine.query_naive(rect, 100.0, 350.0)


# ---------------------------------------------------------------------------
# A lazy object that fails to load
# ---------------------------------------------------------------------------


def _engine_with_rot_outside_the_window():
    engine = WindowQueryEngine()
    engine.add("good", _mp((1, 1), (2, 2)))
    loads = []

    def loader():
        loads.append(None)
        if len(loads) > 1:  # loads at registration, rots afterwards
            raise StorageError("simulated on-disk rot")
        return _mp((50, 50), (60, 60))  # never inside the window

    engine.add_lazy("rotten", loader)
    return engine


class TestLazyFailure:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_strict_query_raises_on_every_backend(self, backend):
        engine = _engine_with_rot_outside_the_window()
        with pytest.raises(StorageError):
            engine.query(
                Rect(0, 0, 5, 5), 0.0, 10.0, backend=backend, workers=2
            )

    @pytest.mark.parametrize("backend", BACKENDS)
    def test_non_strict_query_quarantines_on_every_backend(self, backend):
        engine = _engine_with_rot_outside_the_window()
        with obs.capture() as c:
            got = engine.query(
                Rect(0, 0, 5, 5), 0.0, 10.0, backend=backend, strict=False,
                workers=2,
            )
        assert [k for k, _ in got] == ["good"]
        assert c.get("storage.quarantined") == 1


# ---------------------------------------------------------------------------
# A bad window is refused before any backend runs
# ---------------------------------------------------------------------------


class TestBadWindow:
    @pytest.mark.parametrize("backend", BACKENDS)
    @pytest.mark.parametrize("t0, t1", [(10.0, 0.0), (0.0, math.nan)])
    def test_reversed_or_nan_window_is_invalid(self, backend, t0, t1):
        engine = WindowQueryEngine()
        engine.add("k", _mp((1, 1), (2, 2)))
        engine.add_lazy("lazy", lambda: _mp((1, 1), (2, 2)))
        with obs.capture() as c:
            with pytest.raises(InvalidValue):
                engine.query(Rect(0, 0, 5, 5), t0, t1, backend=backend)
        counted = c.snapshot()["counters"]
        assert not [n for n in counted if n.startswith("vector.fallback")]


# ---------------------------------------------------------------------------
# The window bench's ablation, at two small sizes
# ---------------------------------------------------------------------------


def _bench_window():
    path = Path(__file__).resolve().parents[1] / "benchmarks" / "bench_window.py"
    spec = importlib.util.spec_from_file_location("bench_window", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_bench_window_ablation_smoke():
    rows = _bench_window().ablation((20, 60), repeats=1)
    assert [n for n, *_ in rows] == [20, 60]
    assert all(swept > 0 and naive > 0 for _, _, swept, naive in rows)
