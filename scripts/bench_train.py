#!/usr/bin/env python3
"""Time the phases of ``train`` on two source trees, in fresh processes.

Usage:
    python scripts/bench_train.py PARENT_TREE CHANGE_TREE [--rounds N] [--seed S]
                                  [--out BENCH_train.json]

Each tree is a checkout holding ``src/neuralbrane``.  The inputs are the
benchmark's own ``citeseer-pipeline`` files (``perfbench/inputs.py``,
imported read-only) at seed S, and every run is one ``trainer.train`` call in
a new process with one BLAS thread, at the benchmark's settings: d1 = d2 =
75, h = 150, learning rate 0.5, L2 coefficient 5e-5, batch size 100, max
pooling, one epoch (``EPOCHS``) with no early stop.  The trees take turns,
and the tree that goes first alternates from round to round, so drift of the
host falls on both alike.

The phases are read from the trainer's own functions, looked up by name
and wrapped in the child; a tree without one of them reports None for its
phase:

* ``sample_s``: ``TripletSampler.sample_batch``;
* ``forward_s``: ``forward`` as the trainer calls it, the pooling included;
* ``row_gradients_s``: ``_row_gradients``, once per batch and embedding
  matrix: the looked-up rows, their L2 gradient start and sums, and the
  routing of the pooled gradients;
* ``backward_s``: the rest of ``batch_gradients``: margins, the masked
  hidden gradients, the per-lookup h*d work (``np.outer``, ``W.T @``) and
  the losses;
* ``update_s``: ``apply_update``;
* ``train_s``: the whole call, and ``peak_rss_mb`` the child's peak RSS.

Each tree must train to the same parameters in every round (compared by
digest); the two trees may differ from each other, as BLAS may round a
batch's GEMM differently when it groups other rows.  The output file holds
each phase's median and quartiles per tree, and how many rounds the change
trained faster than the parent.
"""

import argparse
import hashlib
import importlib
import json
import os
import platform
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from benchlib import peak_rss_mb, summary

ROOT = Path(__file__).resolve().parents[1]
WORKLOAD = "citeseer-pipeline"
EPOCHS = 1
PHASES = ("train_s", "sample_s", "forward_s", "row_gradients_s", "backward_s", "update_s",
          "peak_rss_mb")
# phase -> (module, qualified name) of the function that the phase times
TIMED = {"sample_s": ("sampler", "TripletSampler.sample_batch"),
         "forward_s": ("trainer", "forward"),
         "row_gradients_s": ("trainer", "_row_gradients"),
         "batch_s": ("trainer", "batch_gradients"),
         "update_s": ("trainer", "apply_update")}


def child(tree: Path, edges: str, attrs: str, nodes: int, attributes: int) -> dict:
    """Train once with ``tree``'s package; its phase times and a digest."""
    sys.path.insert(0, str(tree / "src"))
    from neuralbrane import graph, trainer

    spent = {}

    def timed(fn, key):
        def wrapper(*args, **kwargs):
            started = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                spent[key] += time.perf_counter() - started
        return wrapper

    for phase, (module, name) in TIMED.items():
        *path, attr = name.split(".")
        owner = importlib.import_module(f"neuralbrane.{module}")
        for part in path:
            owner = getattr(owner, part)
        if hasattr(owner, attr):
            spent[phase] = 0.0
            setattr(owner, attr, timed(getattr(owner, attr), phase))

    g = graph.load_graph(edges, attrs, node_count=nodes, attribute_count=attributes)
    cfg = trainer.TrainConfig(d1=75, d2=75, hidden=150, learning_rate=0.5, reg=0.00005,
                              batch_size=100, epochs=EPOCHS, seed=1, pooling="max",
                              convergence_tol=0.0)
    started = time.perf_counter()
    params, _ = trainer.train(g, cfg)
    train_s = time.perf_counter() - started

    digest = hashlib.sha256()
    for block in (params.P, params.P_prime, params.W, params.b):
        digest.update(block.tobytes())
    inner = sum(spent.get(phase, 0.0) for phase in ("forward_s", "row_gradients_s"))
    return {
        "train_s": train_s,
        **{phase: spent.get(phase) for phase in ("sample_s", "forward_s", "row_gradients_s")},
        "backward_s": spent["batch_s"] - inner,
        "update_s": spent["update_s"],
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest.hexdigest(),
    }


def run_child(tree: Path, files: dict) -> dict:
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
               NEURAL_BRANE_LOG="warn")
    done = subprocess.run(
        [sys.executable, __file__, "--child", str(tree), files["edges"], files["attrs"],
         str(files["nodes"]), str(files["attributes"])],
        env=env, capture_output=True, text=True, check=True)
    return json.loads(done.stdout)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--out", type=Path, default=ROOT / "BENCH_train.json")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(ROOT / "perfbench"))
    import inputs
    from workloads import WORKLOADS

    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    spec = WORKLOADS[WORKLOAD].specs["full"]
    report = {
        "command": "python scripts/bench_train.py PARENT CHANGE "
                   f"--rounds {args.rounds} --seed {args.seed}",
        "host": {"python": platform.python_version(), "numpy": np.__version__,
                 "cpus": os.cpu_count(), "blas_threads": 1},
        "inputs": {"workload": WORKLOAD, "seed": args.seed, "nodes": spec.nodes,
                   "edges": spec.edges, "attributes": spec.attrs,
                   "attributes_per_node": spec.attrs_per_node, "epochs": EPOCHS,
                   "triplets": EPOCHS * spec.edges},
        "rounds": args.rounds,
    }
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / WORKLOAD
        inputs.generate(spec, args.seed, directory)
        files = {"edges": str(directory / "edges.txt"), "attrs": str(directory / "attrs.txt"),
                 "nodes": spec.nodes, "attributes": spec.attrs}
        runs = {t: [] for t in trees}
        for r in range(args.rounds):
            order = list(trees) if r % 2 == 0 else list(trees)[::-1]
            for t in order:
                runs[t].append(run_child(trees[t], files))
            print(f"round {r}: " + "  ".join(
                f"{t} train {runs[t][-1]['train_s']:.3f} s" for t in trees), flush=True)
    for t in trees:
        if len({run["digest"] for run in runs[t]}) != 1:
            raise SystemExit(f"{t}: training is not deterministic")
    report.update({t: {phase: summary([run[phase] for run in runs[t]]) for phase in PHASES}
                   for t in trees})
    report["change_faster_rounds"] = sum(
        c["train_s"] < p["train_s"] for p, c in zip(runs["parent"], runs["change"]))
    args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {args.out}")
    return 0


if __name__ == "__main__":
    if len(sys.argv) > 1 and sys.argv[1] == "--child":
        tree, edges, attrs, nodes, attributes = sys.argv[2:]
        print(json.dumps(child(Path(tree), edges, attrs, int(nodes), int(attributes))))
    else:
        sys.exit(main())
