"""How much Python one call executes, as a count that repeats exactly.

``sys.settrace`` delivers a *line* event for every source line the
interpreter starts, in any Python frame the call reaches (library code
included); work done inside C — a ``tuple(list)``, a numpy kernel, a
memcpy — delivers none.  Two calls that differ only in how much data
the C side moves therefore count the same, and a per-member Python loop
shows up as a count that grows with the fleet.  No clock is read.
"""

import gc
import sys
from typing import Any, Callable, Tuple


def lines_executed(fn: Callable[..., Any], *args: Any, **kwargs: Any) -> Tuple[int, Any]:
    """``(line events, result)`` of ``fn(*args, **kwargs)`` on this thread.

    The collector is off for the call: when it runs is an accident of
    allocation history, and its Python-level callbacks (hypothesis
    registers one) would be counted as the call's own lines.
    """
    count = 0

    def on_line(frame, event, arg):
        nonlocal count
        if event == "line":
            count += 1
        return on_line

    def on_call(frame, event, arg):
        return on_line

    collecting = gc.isenabled()
    gc.disable()
    prior = sys.gettrace()
    sys.settrace(on_call)
    try:
        result = fn(*args, **kwargs)
    finally:
        sys.settrace(prior)
        if collecting:
            gc.enable()
    return count, result
