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

Every measurement is one CLI command in a new process (``benchlib.run_cli``),
and the trees take turns as ``benchlib.alternate`` sets out.  The output file
holds, per task and tree, the median and quartiles of wall time and peak
RSS, how many pairs the change ran faster, and whether the two trees wrote
byte-identical reports.
"""

import sys
import tempfile
from pathlib import Path

import benchlib
from benchlib import summary

TASKS = ("classify", "cluster")


def main(argv=None) -> int:
    args = benchlib.parse_args(__doc__, "pairs", 10, seed=2, out="BENCH_evaluate.json", argv=argv)
    import inputs
    from workloads import WORKLOADS, commands

    trees = args.trees
    workload = WORKLOADS["citeseer-pipeline"]
    spec = workload.specs["full"]
    with tempfile.TemporaryDirectory() as tmp:
        scratch = Path(tmp)
        inputs.generate(spec, args.seed, scratch / "inputs")
        (_, train_argv), *evaluate_argvs = commands(workload, spec, scratch / "inputs",
                                                     scratch, args.seed)
        benchlib.run_cli(trees["change"], train_argv, scratch, benchlib.env(trees["change"]))

        def run(t, _):  # per task: launch.py's record, with the report it wrote
            done = {}
            for task, (_, task_argv) in zip(TASKS, evaluate_argvs):
                done[task] = benchlib.run_cli(trees[t], task_argv, scratch, benchlib.env(trees[t]))
                done[task]["report"] = (scratch / f"{task}.csv").read_bytes()
            return done

        runs = benchlib.alternate(args.pairs, trees, run, lambda pair, runs: print(
            f"pair {pair}: " + "  ".join(f"{task} {t} {runs[t][-1][task]['wall_s']:.2f} s"
                                         for task in TASKS for t in trees), flush=True))

    report = {**benchlib.head(__file__, args),
              "inputs": {"workload": workload.name, "seed": args.seed, "nodes": spec.nodes,
                         "edges": spec.edges, "attributes": spec.attrs, "classes": spec.classes},
              "pairs": args.pairs, "tasks": {}}
    for task in TASKS:
        records = {t: [run[task] for run in runs[t]] for t in trees}
        reports = {t: {r["report"] for r in records[t]} for t in trees}
        report["tasks"][task] = {
            **{t: {m: summary([r[m] for r in records[t]]) for m in ("wall_s", "peak_rss_mb")}
               for t in trees},
            "change_faster_pairs": benchlib.faster(*records.values(), "wall_s"),
            "reports_identical": (len(reports["parent"]) == 1
                                  and reports["parent"] == reports["change"]),
        }
    benchlib.write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
