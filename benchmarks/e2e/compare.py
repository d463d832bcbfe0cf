"""``run.py --compare A.json B.json``: two documents of ``run.py``, side
by side, judged by the bounds in ``BENCHMARK.json``.

One row per workload and end-to-end metric: the medians of both sides,
their ratio with its base, the bound, and a verdict —

``ok``          B's median is not worse than A's by more than the bound;
``worse``       it is;
``unresolved``  the runs of one side spread (first to third quartile, as
                a share of the median) wider than the bound, so the pair
                cannot tell either way.  Needs ``--repeat`` of 2 or more.

A side with failed operations is ``worse`` whatever its timings.
"""

from __future__ import annotations

import json
import statistics
from typing import Any, Dict, List, Optional

from lib import load_spec


def spread(values: List[float]) -> Optional[float]:
    """Interquartile range as a share of the median (None for one run)."""
    if len(values) < 2:
        return None
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    mid = statistics.median(values)
    return (q3 - q1) / mid if mid else None


def _values(runs: List[Dict[str, Any]], metric: str) -> List[float]:
    return [run["end_to_end"]["metrics"][metric]["value"] for run in runs]


def _share(s: Optional[float]) -> str:
    return "-" if s is None else f"{s:.3f}"


def _failed(runs: List[Dict[str, Any]]) -> int:
    return sum(run["end_to_end"]["failed"] for run in runs)


def compare(path_a: str, path_b: str) -> int:
    with open(path_a, encoding="utf-8") as f:
        a = json.load(f)
    with open(path_b, encoding="utf-8") as f:
        b = json.load(f)
    spec = load_spec()
    print(f"A = {path_a}   B = {path_b}   (ratio = B / A, base A)")
    print(f"{'workload':<20}{'metric':<14}{'A':>12}{'B':>12}{'B/A':>8}"
          f"{'bound':>7}{'spread A':>10}{'spread B':>10}  verdict")
    worse = 0
    for name, runs_a in a["workloads"].items():
        runs_b = b["workloads"].get(name)
        if runs_b is None:
            continue
        failures = _failed(runs_a) + _failed(runs_b)
        for metric in spec["end_to_end"]:
            va = _values(runs_a, metric["name"])
            vb = _values(runs_b, metric["name"])
            ma, mb = statistics.median(va), statistics.median(vb)
            change = mb / ma - 1.0 if metric["better"] == "lower" \
                else ma / mb - 1.0
            sa, sb = spread(va), spread(vb)
            if _failed(runs_b) > _failed(runs_a):
                verdict = "worse (failed operations)"
            elif any(s is not None and s > metric["bound"] for s in (sa, sb)):
                verdict = "unresolved"
            elif change > metric["bound"]:
                verdict = "worse"
            else:
                verdict = "ok"
            worse += verdict.startswith("worse")
            print(f"{name:<20}{metric['name']:<14}{ma:>12.4f}{mb:>12.4f}"
                  f"{mb / ma:>8.3f}{metric['bound']:>7.2f}{_share(sa):>10}"
                  f"{_share(sb):>10}  {verdict}")
        print(f"{name:<20}{'failed ops':<14}{_failed(runs_a):>12}"
              f"{_failed(runs_b):>12}{'':>8}{'0':>7}{'':>20}  "
              f"{'ok' if failures == 0 else 'FAILED'}")
    return 1 if worse else 0
