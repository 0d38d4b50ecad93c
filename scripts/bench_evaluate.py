#!/usr/bin/env python3
"""Time ``evaluate --task classify`` and ``--task cluster`` on two source
trees, in fresh processes.

Usage:
    python scripts/bench_evaluate.py PARENT_TREE CHANGE_TREE [--pairs N] [--seed S]
                                     [--out BENCH_evaluate.json]

Each tree is a checkout holding ``src/neuralbrane``.  The input is one
embedding, trained once with CHANGE_TREE's ``train`` command exactly as the
benchmark's ``citeseer-pipeline`` workload runs it (``perfbench/workloads.py``)
on that workload's generated CiteSeer-shape inputs at seed S
(``perfbench/inputs.py``; both imported read-only), with its labels.

Every measurement is one CLI command in a new process, started through
``perfbench/launch.py`` so that its peak RSS is the command's own, with one
BLAS thread.  The trees take turns, and the tree that goes first alternates
from pair to pair, so drift of the host falls on both alike.  The output file
holds, per task and tree, the median and quartiles of wall time and peak
RSS, how many pairs the change ran faster, and whether the two trees wrote
byte-identical reports.
"""

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from benchlib import summary

ROOT = Path(__file__).resolve().parents[1]
LAUNCH = ROOT / "perfbench" / "launch.py"
TASKS = ("classify", "cluster")
TIMEOUT_S = 600


def run_cli(tree: Path, argv: list, scratch: Path) -> dict:
    """One CLI command of ``tree`` in a fresh process; launch.py's record."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1",
               MKL_NUM_THREADS="1", NEURAL_BRANE_LOG="warn",
               PYTHONPATH=str(tree / "src"))
    done = subprocess.run(
        [sys.executable, str(LAUNCH), str(TIMEOUT_S), str(scratch / "stdout.txt"),
         str(scratch / "stderr.txt"), "--", sys.executable, "-m", "neuralbrane.cli", *argv],
        env=env, capture_output=True, text=True, check=True)
    record = json.loads(done.stdout)
    if record["exit"] != 0:
        raise SystemExit(f"{tree}: {' '.join(argv[:1])} exited {record['exit']}: "
                         + (scratch / "stderr.txt").read_text(encoding="utf-8")[-2000:])
    return record


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=2)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_evaluate.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    from workloads import WORKLOADS, commands

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workload = WORKLOADS["citeseer-pipeline"]
    spec = workload.specs["full"]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        inputs.generate(spec, args.seed, scratch / "inputs")
        (_, train_argv), *evaluate_argvs = commands(workload, spec, scratch / "inputs",
                                                     scratch, args.seed)
        run_cli(trees["change"], train_argv, scratch)
        runs = {task: {t: [] for t in trees} for task in TASKS}
        reports = {task: {t: set() for t in trees} for task in TASKS}
        for pair in range(args.pairs):
            order = list(trees) if pair % 2 == 0 else list(trees)[::-1]
            for t in order:
                for task, (_, task_argv) in zip(TASKS, evaluate_argvs):
                    runs[task][t].append(run_cli(trees[t], task_argv, scratch))
                    reports[task][t].add((scratch / f"{task}.csv").read_bytes())
            print(f"pair {pair}: " + "  ".join(
                f"{task} {t} {runs[task][t][-1]['wall_s']:.2f} s"
                for task in TASKS for t in trees), flush=True)

    report = {
        "command": "python scripts/bench_evaluate.py PARENT CHANGE "
                   f"--pairs {args.pairs} --seed {args.seed}",
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpus": os.cpu_count(), "blas_threads": 1},
        "inputs": {"workload": workload.name, "seed": args.seed, "nodes": spec.nodes,
                   "edges": spec.edges, "attributes": spec.attrs, "classes": spec.classes},
        "pairs": args.pairs,
        "tasks": {},
    }
    for task in TASKS:
        wall = {t: [r["wall_s"] for r in runs[task][t]] for t in trees}
        report["tasks"][task] = {
            **{t: {"wall_s": summary(wall[t]),
                   "peak_rss_mb": summary([r["peak_rss_mb"] for r in runs[task][t]])}
               for t in trees},
            "change_faster_pairs": sum(c < p for p, c in zip(wall["parent"], wall["change"])),
            "reports_identical": (len(reports[task]["parent"]) == 1
                                  and reports[task]["parent"] == reports[task]["change"]),
        }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
