#!/usr/bin/env python3
"""Time acceptance criterion 5 on two source trees in one process.

Usage:
    python scripts/criterion5_ab.py PARENT_TREE CHANGE_TREE [--rounds N]

Each tree is a checkout holding ``src/neuralbrane``; both packages are
loaded side by side under their own names.  Every point of criterion 5a
(epoch time against triplets per epoch) and 5b (against h*d) is timed by the
gate's own code in ``tests/criterion5.py``, from this checkout: the same
graphs and configs, and the minimum over epochs 1-3 of two training runs.
The trees take turns point by point, and the tree that goes first
alternates from point to point and, at each point, from round to round, so
drift of the host falls on both alike.  Each round prints both trees'
per-point minima, log-log slopes and R^2, and whether the gate would pass;
the end prints the median slopes and, per point, both medians and the
parent's interquartile range.
"""

import argparse
import importlib.util
import sys
from pathlib import Path

import numpy as np

from benchlib import ROOT, alternate

sys.path.insert(0, str(ROOT))
from tests.criterion5 import POINTS, min_epoch_seconds, passes  # noqa: E402
from tests.oracles import fit_loglog_slope  # noqa: E402


def load_package(tree: Path, name: str):
    """The ``neuralbrane`` package under ``tree/src``, imported as ``name``."""
    root = tree / "src" / "neuralbrane"
    spec = importlib.util.spec_from_file_location(
        name, root / "__init__.py", submodule_search_locations=[str(root)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    args = parser.parse_args(argv)
    trees = {"parent": load_package(args.parent, "neuralbrane_parent"),
             "change": load_package(args.change, "neuralbrane_change")}
    for package in trees.values():
        importlib.import_module(f"{package.__name__}.synthetic")

    times = {(c, t): [] for c in POINTS for t in trees}  # per round: one time per point
    for r in range(args.rounds):
        sides = trees if r % 2 == 0 else dict(reversed(trees.items()))
        for criterion, points in POINTS.items():
            row = alternate(len(points), sides,
                            lambda t, k: min_epoch_seconds(trees[t], *points[k][1:]))
            x = [p[0] for p in points]
            for t in trees:
                times[criterion, t].append(row[t])
                slope, r2 = fit_loglog_slope(x, row[t])
                print(f"round {r} {criterion} {t:6s} slope {slope:.3f} R^2 {r2:.4f} "
                      f"{'pass' if passes(slope, r2) else 'FAIL'}  "
                      + " ".join(f"{s:.4f}" for s in row[t]), flush=True)

    for criterion, points in POINTS.items():
        x = [p[0] for p in points]
        for t in trees:
            slopes = [fit_loglog_slope(x, row)[0] for row in times[criterion, t]]
            print(f"{criterion} {t:6s} median slope {np.median(slopes):.3f}  "
                  "slopes " + " ".join(f"{s:.3f}" for s in slopes))
        parent = np.array(times[criterion, "parent"])
        change = np.array(times[criterion, "change"])
        q1, q3 = np.percentile(parent, [25, 75], axis=0)
        for k, point in enumerate(x):
            print(f"{criterion} x={point}: parent median {np.median(parent[:, k]):.4f} s "
                  f"(IQR {q3[k] - q1[k]:.4f}), change median {np.median(change[:, k]):.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
