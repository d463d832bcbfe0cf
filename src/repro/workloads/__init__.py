"""Synthetic workload generators.

The paper's motivating applications — air traffic, vehicles, weather
phenomena — drive three generators:

* :mod:`repro.workloads.trajectories` — random-waypoint flights
  (moving points with many units);
* :mod:`repro.workloads.regions` — storm cells: polygonal regions under
  piecewise translation and linear scaling (valid ``uregion`` motion);
* :mod:`repro.workloads.network` — trips constrained to a random road
  network (networkx), producing dense, realistic unit sequences.  It
  loads on first use of ``RoadNetwork`` / ``network_trips``, so
  importing the package for flights or storms does not import networkx.

All generators take an explicit seed; identical seeds reproduce
identical workloads, which the benchmarks rely on.
"""

from __future__ import annotations

from repro.workloads.trajectories import FlightGenerator, random_flights
from repro.workloads.regions import StormGenerator, random_storms, regular_polygon

__all__ = [
    "FlightGenerator",
    "random_flights",
    "StormGenerator",
    "random_storms",
    "regular_polygon",
    "RoadNetwork",
    "network_trips",
]


def __getattr__(name: str):
    # PEP 562: the networkx-backed generator is imported on first access.
    if name in ("RoadNetwork", "network_trips"):
        from repro.workloads import network

        return getattr(network, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
