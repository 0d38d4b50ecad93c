"""The A/B harness of the ``bench_*.py`` scripts, as plain functions.

An A/B run times two source trees, PARENT and CHANGE, each a checkout
holding ``src/neuralbrane``.  Each measurement is one fresh process with one
BLAS thread (``env``): the script's ``--child`` mode (``run_child``) or a CLI
command started through ``perfbench/launch.py`` (``run_cli``), so that its
peak RSS is its own.  The trees take turns (``alternate``), so drift of the
host falls on both alike.  Compare peak RSS only within one invocation, and
there with care: a command's peak moves with the paths it is given, the
tree's own included, and each invocation works in a new temporary directory.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))  # for the scripts' read-only inputs and workloads


def parse_args(doc: str, count: str, default: int, seed: int, out: str, argv=None):
    """PARENT, CHANGE, ``--<count>``, ``--seed`` and ``--out`` (``out`` in the
    repo root by default); also ``args.trees``, each side's resolved tree."""
    parser = argparse.ArgumentParser(description=doc.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument(f"--{count}", type=int, default=default)
    parser.add_argument("--seed", type=int, default=seed)
    parser.add_argument("--out", type=Path, default=ROOT / out)
    args = parser.parse_args(argv)
    args.count = count
    args.trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    return args


def env(tree: Path) -> dict:
    """The environment of a run of ``tree``: its package, one BLAS thread."""
    return dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
                MKL_NUM_THREADS="1", NEURAL_BRANE_LOG="warn",
                PYTHONPATH=str(Path(tree) / "src"))


def run_child(script, tree: Path, *args) -> dict:
    """``script --child tree args...`` in a fresh process; the JSON it prints."""
    done = subprocess.run([sys.executable, str(script), "--child", str(tree), *map(str, args)],
                          env=env(tree), capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main_or_child(main, child) -> int:
    """``main()``, or under ``--child TREE ARGS...`` (``run_child``) print
    ``child(TREE, *ARGS)`` as JSON."""
    if sys.argv[1:2] != ["--child"]:
        return main()
    print(json.dumps(child(Path(sys.argv[2]), *sys.argv[3:])))
    return 0


def run_cli(tree: Path, argv: list, logs: Path, env: dict) -> dict:
    """The CLI command ``argv`` of ``tree`` in a fresh process started
    through ``perfbench/launch.py``, its output in ``logs``; launch.py's
    record.  A non-zero exit stops the run with the command's stderr."""
    stdout, stderr = Path(logs) / "stdout.txt", Path(logs) / "stderr.txt"
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), "600", str(stdout),
         str(stderr), "--", sys.executable, "-m", "neuralbrane.cli", *map(str, argv)],
        env=env, capture_output=True, text=True, check=True)
    record = json.loads(done.stdout)
    if record["exit"] != 0:
        raise SystemExit(f"{tree}: {argv[0]} exited {record['exit']}: "
                         + stderr.read_text(encoding="utf-8")[-2000:])
    return record


def alternate(rounds: int, trees, run, show=None) -> dict:
    """``run(t, r)`` for each tree ``t`` in each round ``r``, the parent
    first in even rounds and the change first in odd ones; each tree's
    results in round order.  ``show(r, runs)``, if given, after each round."""
    runs = {t: [] for t in trees}
    for r in range(rounds):
        for t in list(trees) if r % 2 == 0 else list(trees)[::-1]:
            runs[t].append(run(t, r))
        if show is not None:
            show(r, runs)
    return runs


def timed(fn, spent: dict, key: str):
    """``fn``, adding its wall time to ``spent[key]`` (from 0.0)."""
    spent.setdefault(key, 0.0)

    def wrapper(*args, **kwargs):
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spent[key] += time.perf_counter() - started
    return wrapper


def faster(parent: list, change: list, key: str) -> int:
    """The rounds where the change's ``key`` is below the parent's (not ties)."""
    return sum(c[key] < p[key] for p, c in zip(parent, change))


def head(script, args) -> dict:
    """A report's first entries: the command that wrote it and the host."""
    return {"command": f"python scripts/{Path(script).name} PARENT CHANGE "
                       f"--{args.count} {getattr(args, args.count)} --seed {args.seed}",
            "host": {"python": platform.python_version(), "numpy": np.__version__,
                     "cpus": os.cpu_count(), "blas_threads": 1}}


def write(path: Path, report: dict) -> None:
    Path(path).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {path}")


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
