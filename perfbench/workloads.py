"""The two benchmark workloads: their inputs, CLI commands and output checks.

* ``citeseer-pipeline`` -- the paper's reference run at CiteSeer shape:
  train (max pooling, paper defaults), then classification and clustering
  evaluation at CLI defaults.  Trainer and evaluate do nearly all the work.
* ``large-embed`` -- ``embed`` from an untrained checkpoint on a 25k-node
  graph: graph load/validate, the read-only forward and text serialisation.
  Trainer, sampler and evaluate do no work here.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from inputs import D1, D2, HIDDEN, GraphSpec, read_checkpoint

EPOCHS = 2  # fixed, with --tol 0; two so the loss check has a first and a last epoch
EMBED_ROWS_CHECKED = 256


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    specs: dict  # scale -> GraphSpec
    evaluate: bool = False  # train, then classify and cluster
    embed: bool = False  # embed from the generated checkpoint instead of training


WORKLOADS = {w.name: w for w in (
    Workload(
        "citeseer-pipeline",
        "the paper's reference run at CiteSeer shape: train, classify, cluster; "
        "trainer and evaluate do nearly all the work",
        {"full": GraphSpec("planted", 3312, 4600, 3703, 32, classes=6),
         "toy": GraphSpec("planted", 120, 240, 60, 6, classes=3)},
        evaluate=True),
    Workload(
        "large-embed",
        "embed from a checkpoint on a 25k-node graph: load, validate, forward and text "
        "output; no training",
        {"full": GraphSpec("uniform", 25000, 100000, 3703, 32, checkpoint=True),
         "toy": GraphSpec("uniform", 300, 1200, 60, 6, checkpoint=True)},
        embed=True),
)}


def commands(w: Workload, spec: GraphSpec, inputs: Path, out: Path, seed: int):
    """(label, argv) of each CLI command the workload runs, in order."""
    graph = ["--edges", str(inputs / "edges.txt"), "--attr-file", str(inputs / "attrs.txt"),
             "--nodes", str(spec.nodes), "--attrs", str(spec.attrs)]
    emb = str(out / "emb.txt")
    if w.embed:
        return [("embed", ["embed", *graph, "--checkpoint", str(inputs / "model.ckpt"),
                           "--export-layer", "h", "--emb-format", "text", "--pooling", "max",
                           "--threads", "1", "--out", emb])]
    cmds = [("train", ["train", *graph, "--d1", str(D1), "--d2", str(D2),
                       "--hidden", str(HIDDEN), "--lr", "0.5", "--lambda", "0.00005",
                       "--batch-size", "100", "--epochs", str(EPOCHS), "--tol", "0",
                       "--seed", str(seed), "--pooling", "max", "--threads", "1",
                       "--out", emb, "--log-file", str(out / "train.csv")])]
    if w.evaluate:
        labels = str(inputs / "labels.txt")
        for task in ("classify", "cluster"):
            cmds.append((task, ["evaluate", "--embeddings", emb, "--labels", labels,
                                "--task", task, "--report", str(out / f"{task}.csv")]))
    return cmds


# -- output checks: each returns a list of problems, empty when correct ----

def read_embedding_text(path: Path) -> np.ndarray:
    """The (n, dim) matrix of a text embedding file whose ids run 0..n-1."""
    with path.open("r", encoding="utf-8") as fh:
        n, dim = (int(tok) for tok in fh.readline().split())
        flat = np.fromstring(fh.read(), sep=" ")
    rows = flat.reshape(n, dim + 1)
    if not np.array_equal(rows[:, 0], np.arange(n)):
        raise ValueError("embedding ids are not 0..n-1 in order")
    return rows[:, 1:]


def check_embedding(path: Path, n: int, dim: int):
    """(matrix or None, problems) for an embedding that must be n x dim and finite."""
    try:
        vectors = read_embedding_text(path)
    except (OSError, ValueError) as exc:
        return None, [f"{path.name}: unreadable ({exc})"]
    problems = []
    if vectors.shape != (n, dim):
        problems.append(f"{path.name}: shape {vectors.shape}, expected {(n, dim)}")
    if not np.all(np.isfinite(vectors)):
        problems.append(f"{path.name}: non-finite values")
    return vectors, problems


def check_losses(path: Path):
    """(last-epoch loss or None, problems) for the training CSV, whose last
    epoch must end below epoch 0."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            losses = [float(row["loss"]) for row in csv.DictReader(fh)]
        first, last = losses[0], losses[-1]
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return None, [f"{path.name}: unreadable ({exc})"]
    if not last < first:
        return last, [f"{path.name}: final loss {last} not below epoch-0 loss {first}"]
    return last, []


def check_scores(path: Path):
    """Every score column of an evaluate report lies in [0, 1]."""
    try:
        with path.open("r", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
    except OSError as exc:
        return [f"{path.name}: unreadable ({exc})"]
    scores = [float(v) for row in rows for k, v in row.items()
              if k.endswith(("_mean", "_std"))]
    if not scores:
        return [f"{path.name}: no scores"]
    if not all(0.0 <= s <= 1.0 for s in scores):
        return [f"{path.name}: score outside [0, 1]: {scores}"]
    return []


def expected_embedding(inputs: Path, spec: GraphSpec, nodes: np.ndarray) -> np.ndarray:
    """Hidden vectors of ``nodes`` under the generated checkpoint, computed
    here from the (unweighted) input files: max-pool the attribute rows of P
    and the neighbor rows of P', concatenate, then ReLU(W f + b)."""
    P, P_prime, W, b = read_checkpoint(inputs / "model.ckpt")
    with (inputs / "attrs.txt").open("r", encoding="utf-8") as fh:
        attrs = np.fromstring(fh.read(), sep=" ", dtype=np.int64)
    attrs = attrs.reshape(spec.nodes, spec.attrs_per_node + 1)[:, 1:]
    with (inputs / "edges.txt").open("r", encoding="utf-8") as fh:
        edges = np.fromstring(fh.read(), sep=" ", dtype=np.int64).reshape(-1, 2)
    out = np.empty((len(nodes), W.shape[0]))
    for row, u in enumerate(nodes):
        nbrs = np.concatenate([edges[edges[:, 0] == u, 1], edges[edges[:, 1] == u, 0]])
        v_nbr = P_prime[nbrs].max(axis=0) if len(nbrs) else np.zeros(P_prime.shape[1])
        f = np.concatenate([P[attrs[u]].max(axis=0), v_nbr])
        out[row] = np.maximum(W @ f + b, 0.0)
    return out


def check_embed_values(vectors: np.ndarray, inputs: Path, spec: GraphSpec, seed: int):
    """Seeded sample of rows agrees with ``expected_embedding`` to the 9
    significant digits of the text format."""
    rng = np.random.default_rng(seed)
    nodes = np.sort(rng.choice(spec.nodes, size=min(EMBED_ROWS_CHECKED, spec.nodes),
                               replace=False))
    want = expected_embedding(inputs, spec, nodes)
    if not np.allclose(vectors[nodes], want, rtol=1e-7, atol=1e-12):
        worst = int(nodes[np.argmax(np.abs(vectors[nodes] - want).max(axis=1))])
        return [f"embedding of node {worst} differs from the reference forward pass"]
    return []
