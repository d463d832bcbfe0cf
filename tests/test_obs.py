"""The observability layer (repro.obs) and the Section-5 counter claims.

Beyond the registry mechanics, the tests here assert the paper's two
asymptotic statements *by operation count* rather than wall-clock:

* ``atinstant`` probes the unit array O(log n) times (Section 5.1);
* the refinement partition performs O(n + m) scan steps (Section 5.2);
* ``at_periods`` (rewritten as a merge-scan in PR 1) takes O(n + m)
  steps, not O(n · m).
"""

from __future__ import annotations

import math

import pytest

from repro import obs
from repro.ranges.interval import Interval
from repro.ops.interaction import mregion_atinstant
from repro.ranges.rangeset import RangeSet
from repro.temporal.mapping import MovingReal, MovingRegion
from repro.temporal.refinement import refinement_partition
from repro.temporal.ureal import UReal
from repro.temporal.uregion import URegion
from repro.workloads.regions import regular_polygon


def stepped_mreal(n: int, t0: float = 0.0) -> MovingReal:
    """A moving real with exactly ``n`` units over ``[t0, t0 + n]``."""
    units = [
        UReal.constant(
            Interval(t0 + k, t0 + k + 1.0, True, k == n - 1), float(k)
        )
        for k in range(n)
    ]
    return MovingReal(units, validate=False)


def drifting_mregion(units: int, sides: int) -> MovingRegion:
    """A moving region of ``units`` units, each a ``sides``-gon drifting
    one step along a heading that turns every unit (so adjacent unit
    functions differ, the mapping's minimality invariant)."""
    out = []
    cx = cy = 0.0
    for k in range(units):
        heading = (k % 4) * math.pi / 2.0 + 0.3
        nx, ny = cx + math.cos(heading), cy + math.sin(heading)
        out.append(
            URegion.between_regions(
                float(k), regular_polygon((cx, cy), 1.0, sides),
                k + 1.0, regular_polygon((nx, ny), 1.0, sides),
                validate="none",
            ).with_interval(Interval(float(k), k + 1.0, True, k == units - 1))
        )
        cx, cy = nx, ny
    return MovingRegion(out, validate=False)


@pytest.fixture(autouse=True)
def _obs_pristine():
    """Leave the global registry and switch as the test found them."""
    prev = obs.enabled
    yield
    obs.counters.reset()
    if prev:
        obs.enable()
    else:
        obs.disable()


class TestRegistry:
    def test_disabled_by_default(self):
        assert obs.enabled is False
        obs.reset()
        obs.add("nothing.recorded")
        assert obs.get("nothing.recorded") == 0

    def test_counters_and_gauges(self):
        c = obs.Counters()
        c.add("a")
        c.add("a", 4)
        c.add("b", 2)
        c.high_water("g", 3.0)
        c.high_water("g", 1.0)
        assert c.get("a") == 5
        assert c.get("b") == 2
        assert c.get("missing") == 0
        assert c.gauge("g") == 3.0
        assert c.gauge("missing") is None
        snap = c.snapshot()
        assert snap["counters"] == {"a": 5, "b": 2}
        assert snap["gauges"] == {"g": 3.0}
        c.reset()
        assert c.get("a") == 0

    def test_scope_times_and_namespaces(self):
        obs.reset()
        obs.enable()
        try:
            with obs.scope("work") as s:
                s.add("items", 3)
                s.high_water("depth", 7)
            calls, total = obs.counters.timer("work")
            assert calls == 1
            assert total >= 0.0
            assert obs.get("work.items") == 3
            assert obs.counters.gauge("work.depth") == 7
        finally:
            obs.disable()

    def test_scope_is_noop_when_disabled(self):
        obs.reset()
        with obs.scope("quiet") as s:
            s.add("items")
        assert obs.counters.timer("quiet") == (0, 0.0)
        assert obs.get("quiet.items") == 0

    def test_capture_restores_prior_state(self):
        obs.disable()
        with obs.capture() as c:
            assert obs.enabled
            obs.add("x")
            assert c.get("x") == 1
        assert not obs.enabled
        # Values survive the block for post-mortem reads.
        assert obs.get("x") == 1

    def test_report_renders_all_sections(self):
        c = obs.Counters()
        assert "no observations" in c.report()
        c.add("alpha", 10)
        c.add_time("beta", 0.25)
        c.high_water("gamma", 12.5)
        text = c.report()
        assert "alpha" in text and "10" in text
        assert "beta" in text and "calls" in text
        assert "gamma" in text and "12.5" in text


class TestSection51Probes:
    """``unit_at`` probe counts grow logarithmically in the unit count."""

    def probes_for(self, n: int) -> int:
        m = stepped_mreal(n)
        t = 0.37 * n
        with obs.capture() as c:
            unit = m.unit_at(t)
        assert unit is not None
        assert c.get("mapping.unit_at.calls") == 1
        return c.get("mapping.unit_at.probes")

    @pytest.mark.parametrize("n", [16, 256, 4096])
    def test_probe_count_is_log_n(self, n):
        probes = self.probes_for(n)
        assert 1 <= probes <= math.ceil(math.log2(n)) + 2

    def test_probe_growth_is_logarithmic_not_linear(self):
        p16 = self.probes_for(16)
        p4096 = self.probes_for(4096)
        # 256x more units may add only ~log2(256) = 8 probes...
        assert p4096 - p16 <= 9
        # ...which is nowhere near the 256x of a linear scan.
        assert p4096 < 16 * p16

    def test_instrumented_search_agrees_with_bisect(self):
        m = stepped_mreal(37)
        ts = [-0.5, 0.0, 0.5, 1.0, 17.3, 36.0, 36.999, 37.0, 37.5]
        plain = [m.unit_at(t) for t in ts]
        with obs.capture():
            counted = [m.unit_at(t) for t in ts]
        assert counted == plain

    def test_a1_counter_probes_logarithmic(self):
        """The whole Section-5.1 operation, ``atinstant`` on a moving
        region: O(log n) probes to find the unit, then exactly ``r``
        moving segments evaluated, whatever ``n`` is."""
        probes = []
        for n in (16, 256, 4096):
            mr = drifting_mregion(units=n, sides=8)
            t = mr.start_time() + 0.37 * (mr.end_time() - mr.start_time())
            with obs.capture() as c:
                region = mregion_atinstant(mr, t, structured=False)
            assert region.area() > 0
            assert c.get("atinstant.msegs_evaluated") == 8
            probes.append(c.get("mapping.unit_at.probes"))
            assert 1 <= probes[-1] <= math.ceil(math.log2(n)) + 2
        # 256x more units may add only ~log2(256) = 8 probes.
        assert probes[-1] - probes[0] <= 9

    def test_a1_counter_result_size_linear(self):
        """Evaluation counts grow exactly with r while lookup stays
        O(log n)."""
        for r in (16, 64, 256):
            mr = drifting_mregion(units=4, sides=r)
            with obs.capture() as c:
                region = mregion_atinstant(
                    mr, mr.start_time() + 1.7, structured=False
                )
            assert len(region.segments()) == r
            assert c.get("atinstant.msegs_evaluated") == r
            assert c.get("mapping.unit_at.probes") <= math.ceil(math.log2(4)) + 2


class TestSection52Refinement:
    """Refinement-partition scan steps grow linearly in n + m."""

    def visits_for(self, n: int, m: int) -> int:
        a = stepped_mreal(n)
        b = stepped_mreal(m, t0=0.25)
        with obs.capture() as c:
            pieces = list(refinement_partition(a.units, b.units))
        assert pieces
        assert c.get("refinement.calls") == 1
        assert c.get("refinement.unit_visits") == n + m
        return c.get("refinement.visits")

    def test_visits_linear_in_n_plus_m(self):
        v1 = self.visits_for(32, 32)
        v4 = self.visits_for(128, 128)
        ratio = v4 / v1
        # 4x the input must cost ~4x the scan steps: linear, with slack
        # for the constant number of boundary cuts.
        assert 3.0 <= ratio <= 5.0

    def test_visits_track_total_units_not_product(self):
        n = m = 64
        visits = self.visits_for(n, m)
        assert visits <= 6 * (n + m)
        assert visits < n * m


class TestAtPeriodsMergeScan:
    """``at_periods`` is a linear merge-scan, counter-verified."""

    def test_steps_linear_not_quadratic(self):
        n = 60
        m = 60
        mreal = stepped_mreal(n)
        periods = RangeSet(
            [Interval(k + 0.25, k + 0.75, True, True) for k in range(m)]
        )
        with obs.capture() as c:
            restricted = mreal.at_periods(periods)
        steps = c.get("mapping.at_periods.steps")
        assert len(restricted) == m
        assert c.get("mapping.at_periods.calls") == 1
        assert 0 < steps <= n + m
        assert steps < n * m // 10

    def test_counts_flow_through_public_atperiods(self):
        from repro.ops.interaction import atperiods

        mreal = stepped_mreal(8)
        periods = RangeSet([Interval(1.5, 3.5, True, True)])
        with obs.capture() as c:
            atperiods(mreal, periods)
        assert c.get("mapping.at_periods.calls") == 1
