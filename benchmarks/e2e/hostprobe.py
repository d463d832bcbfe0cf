"""Sample the host's speed until killed (see ``lib.HostProbe``).

    python3 hostprobe.py FILE

Four times a second, on each core this process may use in turn: pin to
the core, run ``lib.Calibration``, append ``<perf_counter> <core> <cpu ms>``
to FILE.  A few per cent of one core; started and killed by
``child.py``.
"""

from __future__ import annotations

import os
import sys
import time

from lib import Calibration

PERIOD_S = 0.25


def main() -> int:
    work = Calibration()
    cores = sorted(os.sched_getaffinity(0))
    due = time.perf_counter()
    with open(sys.argv[1], "a", encoding="ascii") as out:
        while True:
            for core in cores:
                try:
                    os.sched_setaffinity(0, {core})
                except OSError:
                    pass  # not allowed to pin: sample wherever we run
                when = time.perf_counter()
                out.write(f"{when!r} {core} {work.run()!r}\n")
            out.flush()
            due = max(due + PERIOD_S, time.perf_counter())
            time.sleep(max(0.0, due - time.perf_counter()))


if __name__ == "__main__":
    sys.exit(main())
