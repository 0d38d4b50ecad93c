"""Helpers shared by the ``bench_*.py`` scripts: the summary each writes per
measure, and a child's own peak RSS."""

import numpy as np


def summary(values: list) -> dict | None:
    """The median and quartiles of ``values``, rounded; None where a tree does
    not have the measure (its values are None)."""
    if values[0] is None:
        return None
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def peak_rss_mb() -> float:
    """This process's peak RSS.  ``ru_maxrss`` would also count the peak of
    the process that started it, which Linux carries into the child."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")
