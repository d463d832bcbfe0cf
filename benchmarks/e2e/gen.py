"""Seeded inputs: fleets, query instants, windows, ingest units.

Everything a workload feeds the program is derived from ``--seed`` here;
the program itself only ever sees the generated inputs.
"""

from __future__ import annotations

import random
from typing import Iterator, List, Tuple

from repro.temporal.mapping import MovingPoint
from repro.workloads.trajectories import FlightGenerator

#: The 10k x 10k world every generator draws positions from (the
#: ``FlightGenerator`` default airspace).
WORLD = 10_000.0

Unit = Tuple[float, float, float, float, float, float]  # t0 x0 y0 t1 x1 y1
Window = Tuple[float, float, float, float]  # xmin ymin xmax ymax


def flights(seed: int, count: int, legs: int = 4) -> List[MovingPoint]:
    """The fleet ``repro serve --objects count --seed seed`` boots —
    the same generator called the same way, so the load generator holds
    a bit-identical copy to check replies against."""
    gen = FlightGenerator(seed=seed)
    return [gen.flight(legs=legs) for _ in range(count)]


def local_legs(seed: int, count: int, legs: int = 4) -> List[MovingPoint]:
    """Objects that each stay within ~100 units of where they start.

    Short legs keep per-object bounding boxes tight against the world —
    the regime in which a selective window touches few objects per
    shard, so residency (mapping, eviction) and not the kernel sets the
    time of a read.
    """
    rng = random.Random(seed)
    fleet = []
    for _ in range(count):
        t = rng.uniform(0.0, 50.0)
        x, y = rng.uniform(0.0, WORLD), rng.uniform(0.0, WORLD)
        waypoints = [(t, (x, y))]
        for _leg in range(legs):
            t += rng.uniform(5.0, 30.0)
            x += rng.uniform(-50.0, 50.0)
            y += rng.uniform(-50.0, 50.0)
            waypoints.append((t, (x, y)))
        fleet.append(MovingPoint.from_waypoints(waypoints))
    return fleet


def busy_horizon(fleet: List[MovingPoint]) -> float:
    """The instant by which a quarter of the fleet has landed.

    Query instants are drawn from ``[0, busy_horizon]``: every reply
    then holds between three quarters and all of the fleet, with ⊥ lanes
    in most of them.  Drawing from the whole deftime span instead would
    make half the replies smaller than a tenth of the fleet (the flight
    durations have a long tail), which is not the result-heavy traffic
    the wire workloads exist to measure.
    """
    ends = sorted(m.units[-1].interval.e for m in fleet)
    return ends[len(ends) // 4]


def square(rng: random.Random, side: float) -> Window:
    """A ``side`` x ``side`` window placed uniformly inside the world."""
    x = rng.uniform(0.0, WORLD - side)
    y = rng.uniform(0.0, WORLD - side)
    return (x, y, x + side, y + side)


def ingest_units(
    seed: int, fleet: List[MovingPoint]
) -> Iterator[Tuple[int, Unit]]:
    """An endless feed of ``(object, unit)``: objects in rotation, each
    unit starting where and when the object's last one ended."""
    rng = random.Random(seed)
    tails: List[Tuple[float, float, float]] = []
    for m in fleet:
        last = m.units[-1]
        x, y = last.end_point()
        tails.append((last.interval.e, x, y))
    k = 0
    while True:
        obj = k % len(fleet)
        t0, x0, y0 = tails[obj]
        t1 = t0 + rng.uniform(5.0, 15.0)
        x1 = x0 + rng.uniform(10.0, 100.0) * rng.choice((-1.0, 1.0))
        y1 = y0 + rng.uniform(10.0, 100.0) * rng.choice((-1.0, 1.0))
        tails[obj] = (t1, x1, y1)
        yield obj, (t0, x0, y0, t1, x1, y1)
        k += 1
