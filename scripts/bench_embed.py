#!/usr/bin/env python3
"""Time ``neuralbrane embed`` on two source trees, in fresh processes.

Usage:
    python scripts/bench_embed.py PARENT_TREE CHANGE_TREE [--rounds N] [--seed S]
                                  [--out BENCH_embed.json]

Each tree is a checkout holding ``src/neuralbrane``.  The inputs are the
benchmark's own ``large-embed`` files (``perfbench/inputs.py``, imported
read-only) at seed S, and every run is the command the benchmark runs:
``embed`` with text output of the hidden layer, max pooling and one BLAS
thread, started from ``perfbench/launch.py``, which reports the command's
wall time, CPU time and peak RSS.

Each round runs both trees twice: once with no bytecode cache for the
package (its ``__pycache__`` is deleted and ``PYTHONDONTWRITEBYTECODE`` set)
and once with one (written by ``compileall`` before the run).  The trees
take turns as ``benchlib.alternate`` sets out.  Round r names its output
file with 1 + r % 20 characters, so 20 rounds try every name length from 1
to 20; the peak RSS of each run is kept with its name length, to show
whether the peak moves with the path.

Both trees must write identical embedding files (compared by digest).  The
output file holds, per tree and bytecode-cache state, the median and
quartiles of each measure, the peak RSS of every name length, and how many
rounds the change was faster or smaller than the parent.
"""

import hashlib
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

import benchlib
from benchlib import summary

WORKLOAD = "large-embed"
MEASURES = ("wall_s", "cpu_s", "peak_rss_mb")
CACHE_STATES = {"no_bytecode_cache": False, "bytecode_cache": True}


def run_embed(tree: Path, embed: list, out: Path, cached: bool) -> dict:
    """One run of ``tree``'s ``embed`` command (``embed`` less its ``--out``)
    into ``out``: launch.py's measures and a digest of the file it wrote."""
    env = benchlib.env(tree)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    package = tree / "src" / "neuralbrane"
    if cached:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(package)], check=True)
    else:
        shutil.rmtree(package / "__pycache__", ignore_errors=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    measured = benchlib.run_cli(tree, [*embed, "--out", out], out.parent, env)
    measured["digest"] = hashlib.sha256(out.read_bytes()).hexdigest()
    measured["name_length"] = len(out.name)
    out.unlink()
    return measured


def main(argv=None) -> int:
    args = benchlib.parse_args(__doc__, "rounds", 20, seed=7, out="BENCH_embed.json", argv=argv)
    import inputs
    from workloads import WORKLOADS, commands

    trees = args.trees
    spec = WORKLOADS[WORKLOAD].specs["full"]
    report = {
        **benchlib.head(__file__, args),
        "inputs": {"workload": WORKLOAD, "seed": args.seed, "nodes": spec.nodes,
                   "edges": spec.edges, "attributes": spec.attrs,
                   "attributes_per_node": spec.attrs_per_node},
        "rounds": args.rounds,
        "states": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "inputs"
        inputs.generate(spec, args.seed, directory)
        outputs = Path(scratch) / "out"
        outputs.mkdir()
        [(_, argv)] = commands(WORKLOADS[WORKLOAD], spec, directory, outputs, args.seed)
        assert argv[-2] == "--out"
        runs = benchlib.alternate(
            args.rounds, trees,
            lambda t, r: {state: run_embed(trees[t], argv[:-2], outputs / ("e" * (1 + r % 20)),
                                           cached) for state, cached in CACHE_STATES.items()},
            lambda r, runs: print(f"round {r}: " + "  ".join(
                f"{state} {t} {runs[t][-1][state]['wall_s']:.2f} s "
                f"{runs[t][-1][state]['peak_rss_mb']:.1f} MB"
                for state in CACHE_STATES for t in trees), flush=True))
    if len({run[state]["digest"] for rs in runs.values() for run in rs
            for state in CACHE_STATES}) != 1:
        raise SystemExit("the trees wrote different embedding files")
    for state in CACHE_STATES:
        by_tree = {t: [run[state] for run in runs[t]] for t in trees}
        entry = {}
        for t, rs in by_tree.items():
            by_length = {}
            for run in rs:
                by_length.setdefault(run["name_length"], []).append(run["peak_rss_mb"])
            peaks = [run["peak_rss_mb"] for run in rs]
            entry[t] = {
                **{m: summary([run[m] for run in rs]) for m in MEASURES},
                "peak_rss_mb_by_name_length": {
                    str(k): round(float(np.median(v)), 2) for k, v in sorted(by_length.items())},
                "peak_rss_mb_range": round(max(peaks) - min(peaks), 2),
            }
        entry["change_faster_rounds"] = benchlib.faster(*by_tree.values(), "wall_s")
        entry["change_smaller_rounds"] = benchlib.faster(*by_tree.values(), "peak_rss_mb")
        report["states"][state] = entry
    benchlib.write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
