#!/usr/bin/env python3
"""Time the phases of ``load_graph`` on two source trees, in fresh processes.

Usage:
    python scripts/bench_load.py PARENT_TREE CHANGE_TREE [--rounds N] [--seed S]
                                 [--out BENCH_load.json]

Each tree is a checkout holding ``src/neuralbrane``.  The inputs are the
benchmark's own generated files (``perfbench/inputs.py``, imported read-only)
for the ``large-embed`` and ``citeseer-pipeline`` graph shapes, at seed S,
loaded with their declared node and attribute counts as the CLI is given
them.  Every measurement is one ``load_graph`` call in a new process; the
trees take turns, and the tree that goes first alternates from round to
round, so drift of the host falls on both alike.

The phases are read from the module's own functions, wrapped in the child:

* ``read_s``: the block readers ``_read_edges`` and ``_read_attributes``,
  which split lines and convert tokens to arrays (absent in a tree whose
  parser converts token by token: there it is part of ``parse_s``);
* ``checks_s``: the rest of ``_parse``, the whole-array checks and the edge
  deduplication (``parse_s`` minus ``read_s``);
* ``parse_s``: all of ``_parse``;
* ``from_edges_s``: the CSR build and ``validate``;
* ``load_s``: the whole call, and ``peak_rss_mb`` the child's peak RSS.

Both trees must build identical graph arrays (compared by digest).  The
output file holds each phase's median and quartiles per tree and workload,
and how many rounds the change loaded faster than the parent.
"""

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD_NAMES = ("large-embed", "citeseer-pipeline")
PHASES = ("load_s", "parse_s", "read_s", "checks_s", "from_edges_s", "peak_rss_mb")


def _peak_rss_mb() -> float:
    """This process's peak RSS.  ``ru_maxrss`` would also count the peak of
    the process that started it, which Linux carries into the child."""
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def child(tree: Path, edges: str, attrs: str, nodes: int, attributes: int) -> dict:
    """Load one graph with ``tree``'s package; its phase times and a digest."""
    sys.path.insert(0, str(tree / "src"))
    from neuralbrane import graph

    spent = {"_parse": 0.0, "from_edges": 0.0, "read": 0.0}

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - started
        return wrapper

    graph._parse = timed(graph._parse, "_parse")
    graph.from_edges = timed(graph.from_edges, "from_edges")
    has_readers = hasattr(graph, "_read_edges")
    if has_readers:
        graph._read_edges = timed(graph._read_edges, "read")
        graph._read_attributes = timed(graph._read_attributes, "read")

    started = time.perf_counter()
    g = graph.load_graph(edges, attrs, node_count=nodes, attribute_count=attributes)
    load_s = time.perf_counter() - started

    digest = hashlib.sha256()
    for rows in (g.neighbors, g.weights, g.attributes):
        digest.update(rows.indptr.tobytes())
        digest.update(rows.values.tobytes())
    digest.update(repr((g.node_count, g.attribute_count, g.self_loops_dropped)).encode())
    return {
        "load_s": load_s,
        "parse_s": spent["_parse"],
        "read_s": spent["read"] if has_readers else None,
        "checks_s": spent["_parse"] - spent["read"] if has_readers else None,
        "from_edges_s": spent["from_edges"],
        "peak_rss_mb": _peak_rss_mb(),
        "digest": digest.hexdigest(),
    }


def run_child(tree: Path, files: dict) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(tree), files["edges"], files["attrs"],
         str(files["nodes"]), str(files["attributes"])],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def summary(values: list) -> dict | None:
    if values[0] is None:
        return None
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_load.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    from workloads import WORKLOADS

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    report = {
        "command": "python scripts/bench_load.py PARENT CHANGE "
                   f"--rounds {args.rounds} --seed {args.seed}",
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpus": os.cpu_count(), "blas_threads": 1},
        "rounds": args.rounds,
        "workloads": {},
    }
    with tempfile.TemporaryDirectory() as scratch:
        for name in WORKLOAD_NAMES:
            spec = WORKLOADS[name].specs["full"]
            directory = Path(scratch) / name
            inputs.generate(spec, args.seed, directory)
            files = {"edges": str(directory / "edges.txt"), "attrs": str(directory / "attrs.txt"),
                     "nodes": spec.nodes, "attributes": spec.attrs}
            runs = {t: [] for t in trees}
            for r in range(args.rounds):
                order = list(trees) if r % 2 == 0 else list(trees)[::-1]
                for t in order:
                    runs[t].append(run_child(trees[t], files))
                print(f"{name} round {r}: " + "  ".join(
                    f"{t} load {runs[t][-1]['load_s']:.3f} s" for t in trees), flush=True)
            digests = {run["digest"] for t in trees for run in runs[t]}
            if len(digests) != 1:
                raise SystemExit(f"{name}: the trees built different graphs")
            wins = sum(c["load_s"] < p["load_s"] for p, c in zip(runs["parent"], runs["change"]))
            report["workloads"][name] = {
                "inputs": {"seed": args.seed, "nodes": spec.nodes, "edges": spec.edges,
                           "attributes": spec.attrs, "attributes_per_node": spec.attrs_per_node},
                **{t: {phase: summary([run[phase] for run in runs[t]]) for phase in PHASES}
                   for t in trees},
                "change_faster_rounds": wins,
            }
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        tree, edges, attrs, nodes, attributes = sys.argv[2:]
        print(json.dumps(child(Path(tree), edges, attrs, int(nodes), int(attributes))))
    else:
        sys.exit(main())
