"""Repeat a fixed computation until told to stop; print when each repetition
started and ended.

    python3 reference.py        # stops once its standard input is closed

It prints "ready" first, as its first repetition begins.  The benchmark
keeps this running on the second CPU while it times the program, and
reports each timing scaled by this computation's pace over the same
interval (see ``harness.Pace``).  On a shared host the speed of a core
drifts by a fifth or more over minutes as neighbours load the shared caches,
and both CPUs of the machine see much of the same drift; the pace drops
when the program slows for that reason, and the scaled time keeps what the
program itself costs.

The work has the shape of the program's own: text parsed into a dict of
edge tuples, per-node neighbor lists, sorting, small numpy gathers with a
max-pool and a matrix-vector product per node, and floats formatted as text.
Its inputs are fixed, so every repetition does the same work, on every run
and every commit.  The printed line is a JSON list of [start, end] pairs in
``time.perf_counter`` seconds, which all processes of one machine share.
"""

import io
import json
import select
import sys
import time

import numpy as np

NODES = 6000
EDGES = 24000
ATTRS = 1000
PER_NODE = 16
WIDTH = 75
HIDDEN = 150


def work() -> int:
    rng = np.random.default_rng(12345)
    text = "".join(f"{u} {v}\n" for u, v in rng.integers(NODES, size=(EDGES, 2)).tolist())
    edges: dict[tuple[int, int], float] = {}
    for line in io.StringIO(text):
        u, v = (int(tok) for tok in line.split())
        if u != v:
            edges[(u, v) if u < v else (v, u)] = 1.0
    nbrs: list[list[tuple[int, float]]] = [[] for _ in range(NODES)]
    for (u, v), w in edges.items():
        nbrs[u].append((v, w))
        nbrs[v].append((u, w))
    neighbors = [np.array([v for v, _ in sorted(pairs)], dtype=np.int64) for pairs in nbrs]
    attrs = rng.integers(ATTRS, size=(NODES, PER_NODE))
    P = rng.standard_normal((ATTRS, WIDTH))
    Q = rng.standard_normal((NODES, WIDTH))
    W = rng.standard_normal((HIDDEN, 2 * WIDTH))
    out = io.StringIO()
    for u in range(NODES):
        pooled_nbr = Q[neighbors[u]].max(axis=0) if len(neighbors[u]) else np.zeros(WIDTH)
        f = np.concatenate([P[attrs[u]].max(axis=0), pooled_nbr])
        h = np.maximum(W @ f, 0.0)
        out.write(" ".join(f"{x:.9g}" for x in h) + "\n")
    return len(out.getvalue())


def main() -> None:
    stamps = []
    print("ready", flush=True)
    # standard input turns readable when the benchmark closes it
    while not select.select([sys.stdin], [], [], 0)[0]:
        started = time.perf_counter()
        work()
        stamps.append((started, time.perf_counter()))
    print(json.dumps(stamps))


if __name__ == "__main__":
    main()
