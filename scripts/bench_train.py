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
pooling, one epoch (``EPOCHS``) with no early stop.  The trees take turns
as ``benchlib.alternate`` sets out.

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

import hashlib
import importlib
import sys
import tempfile
import time
from pathlib import Path

import benchlib
from benchlib import peak_rss_mb, summary, timed

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


def child(tree: Path, edges: str, attrs: str, nodes: str, attributes: str) -> dict:
    """Train once with ``tree``'s package; its phase times and a digest."""
    sys.path.insert(0, str(tree / "src"))
    from neuralbrane import graph, trainer

    spent = {}
    for phase, (module, name) in TIMED.items():
        *path, attr = name.split(".")
        owner = importlib.import_module(f"neuralbrane.{module}")
        for part in path:
            owner = getattr(owner, part)
        if hasattr(owner, attr):
            setattr(owner, attr, timed(getattr(owner, attr), spent, phase))

    g = graph.load_graph(edges, attrs, node_count=int(nodes), attribute_count=int(attributes))
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


def main(argv=None) -> int:
    args = benchlib.parse_args(__doc__, "rounds", 10, seed=7, out="BENCH_train.json", argv=argv)
    import inputs
    from workloads import WORKLOADS

    trees = args.trees
    spec = WORKLOADS[WORKLOAD].specs["full"]
    report = {
        **benchlib.head(__file__, args),
        "inputs": {"workload": WORKLOAD, "seed": args.seed, "nodes": spec.nodes,
                   "edges": spec.edges, "attributes": spec.attrs,
                   "attributes_per_node": spec.attrs_per_node, "epochs": EPOCHS,
                   "triplets": EPOCHS * spec.edges},
        "rounds": args.rounds,
    }
    with tempfile.TemporaryDirectory() as scratch:
        directory = Path(scratch) / WORKLOAD
        inputs.generate(spec, args.seed, directory)
        runs = benchlib.alternate(
            args.rounds, trees,
            lambda t, _: benchlib.run_child(__file__, trees[t], directory / "edges.txt",
                                            directory / "attrs.txt", spec.nodes, spec.attrs),
            lambda r, runs: print(f"round {r}: " + "  ".join(
                f"{t} train {runs[t][-1]['train_s']:.3f} s" for t in trees), flush=True))
    for t in trees:
        if len({run["digest"] for run in runs[t]}) != 1:
            raise SystemExit(f"{t}: training is not deterministic")
    report.update({t: {phase: summary([run[phase] for run in runs[t]]) for phase in PHASES}
                   for t in trees})
    report["change_faster_rounds"] = benchlib.faster(runs["parent"], runs["change"], "train_s")
    benchlib.write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(benchlib.main_or_child(main, child))
