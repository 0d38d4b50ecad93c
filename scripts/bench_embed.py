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
take turns, and the tree that goes first alternates from round to round, so
drift of the host falls on both alike.  Round r names its output file with 1 + r % 20
characters, so 20 rounds try every name length from 1 to 20; the peak RSS
of each run is kept with its name length, to show whether the peak moves
with the path.

Both trees must write identical embedding files (compared by digest).  The
output file holds, per tree and bytecode-cache state, the median and
quartiles of each measure, the peak RSS of every name length, and how many
rounds the change was faster or smaller than the parent.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from benchlib import summary

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "large-embed"
MEASURES = ("wall_s", "cpu_s", "peak_rss_mb")
CACHE_STATES = {"no_bytecode_cache": False, "bytecode_cache": True}


def run_embed(tree: Path, files: dict, out: Path, cached: bool) -> dict:
    """One ``embed`` run of ``tree``'s package: launch.py's measures and a
    digest of the file it wrote."""
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NEURAL_BRANE_LOG="warn", PYTHONPATH=str(tree / "src"))
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    package = tree / "src" / "neuralbrane"
    if cached:
        subprocess.run([sys.executable, "-m", "compileall", "-q", str(package)], check=True)
    else:
        shutil.rmtree(package / "__pycache__", ignore_errors=True)
        env["PYTHONDONTWRITEBYTECODE"] = "1"
    logs = out.parent
    command = [sys.executable, "-m", "neuralbrane.cli", "embed",
               "--edges", files["edges"], "--attr-file", files["attrs"],
               "--nodes", str(files["nodes"]), "--attrs", str(files["attributes"]),
               "--checkpoint", files["checkpoint"], "--export-layer", "h",
               "--emb-format", "text", "--pooling", "max", "--threads", "1", "--out", str(out)]
    done = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "launch.py"), "300", str(logs / "stdout"),
         str(logs / "stderr"), "--", *command],
        env=env, capture_output=True, text=True, check=True)
    measured = json.loads(done.stdout)
    if measured["exit"] != 0:
        raise SystemExit(f"{tree}: embed exited {measured['exit']}: "
                         + (logs / "stderr").read_text())
    measured["digest"] = hashlib.sha256(out.read_bytes()).hexdigest()
    out.unlink()
    return measured


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=20)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_embed.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    from workloads import WORKLOADS

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = WORKLOADS[WORKLOAD].specs["full"]
    report = {
        "command": "python scripts/bench_embed.py PARENT CHANGE "
                   f"--rounds {args.rounds} --seed {args.seed}",
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpus": os.cpu_count(), "blas_threads": 1},
        "inputs": {"workload": WORKLOAD, "seed": args.seed, "nodes": spec.nodes,
                   "edges": spec.edges, "attributes": spec.attrs,
                   "attributes_per_node": spec.attrs_per_node},
        "rounds": args.rounds,
        "states": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / "inputs"
        inputs.generate(spec, args.seed, directory)
        files = {"edges": str(directory / "edges.txt"), "attrs": str(directory / "attrs.txt"),
                 "checkpoint": str(directory / "model.ckpt"), "nodes": spec.nodes,
                 "attributes": spec.attrs}
        outputs = Path(scratch) / "out"
        outputs.mkdir()
        runs = {(state, t): [] for state in CACHE_STATES for t in trees}
        for r in range(args.rounds):
            name = "e" * (1 + r % 20)
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for state, cached in CACHE_STATES.items():
                for t in order:
                    run = run_embed(trees[t], files, outputs / name, cached)
                    run["name_length"] = len(name)
                    runs[state, t].append(run)
            print(f"round {r}: " + "  ".join(
                f"{state} {t} {runs[state, t][-1]['wall_s']:.2f} s "
                f"{runs[state, t][-1]['peak_rss_mb']:.1f} MB"
                for state in CACHE_STATES for t in order), flush=True)
    digests = {run["digest"] for rs in runs.values() for run in rs}
    if len(digests) != 1:
        raise SystemExit("the trees wrote different embedding files")
    for state in CACHE_STATES:
        parent, change = runs[state, "parent"], runs[state, "change"]
        entry = {}
        for t in trees:
            rs = runs[state, t]
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
        entry["change_faster_rounds"] = sum(c["wall_s"] < p["wall_s"]
                                            for p, c in zip(parent, change))
        entry["change_smaller_rounds"] = sum(c["peak_rss_mb"] < p["peak_rss_mb"]
                                             for p, c in zip(parent, change))
        report["states"][state] = entry
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
