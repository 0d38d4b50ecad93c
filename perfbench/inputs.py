"""Seeded input generators for the benchmark workloads.

Every file the benchmark feeds the CLI is written here, from numpy alone: the
edge, attribute and label text files and the untrained checkpoint.  Nothing
comes from ``neuralbrane.synthetic`` or ``save_checkpoint``, so a change to
those code paths cannot change what two commits are fed.  The same
(workload, seed, scale) always produces byte-identical files.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

CHECKPOINT_MAGIC = b"NBRN"
CHECKPOINT_VERSION = 1
INIT_STDDEV = 0.1

# Paper defaults (CiteSeer reference run).
D1 = D2 = 75
HIDDEN = 150


@dataclass(frozen=True)
class GraphSpec:
    """Shape of one generated graph; ``kind`` picks the generator."""

    kind: str  # "planted" | "uniform"
    nodes: int
    edges: int
    attrs: int
    attrs_per_node: int
    classes: int = 0
    checkpoint: bool = False


def _distinct_rows(rng: np.random.Generator, n: int, k: int, draw) -> np.ndarray:
    """An (n, k) array whose rows hold k distinct ids each, sorted ascending.

    ``draw(rows, width)`` returns ``width`` candidate ids for each of the
    given rows as a (len(rows), width) array; a row keeps its first k
    distinct candidates in draw order, and rows short of k are redrawn.
    """
    out = np.empty((n, k), dtype=np.int64)
    todo = np.arange(n)
    width = 2 * k
    while len(todo):
        cand = draw(todo, width)
        order = np.argsort(cand, axis=1, kind="stable")
        sorted_cand = np.take_along_axis(cand, order, axis=1)
        dup_sorted = np.zeros_like(sorted_cand, dtype=bool)
        dup_sorted[:, 1:] = sorted_cand[:, 1:] == sorted_cand[:, :-1]
        dup = np.empty_like(dup_sorted)
        np.put_along_axis(dup, order, dup_sorted, axis=1)
        keep = ~dup & (np.cumsum(~dup, axis=1) <= k)
        full = keep.sum(axis=1) == k
        rows = todo[full]
        out[rows] = cand[full][keep[full]].reshape(-1, k)
        todo = todo[~full]
    out.sort(axis=1)
    return out


def _unique_pairs(pairs: np.ndarray, n: int) -> np.ndarray:
    """Drop self-loops and repeated undirected pairs, keeping first occurrences."""
    lo, hi = pairs.min(axis=1), pairs.max(axis=1)
    ok = lo != hi
    lo, hi = lo[ok], hi[ok]
    _, first = np.unique(lo * n + hi, return_index=True)
    first.sort()
    return np.stack([lo[first], hi[first]], axis=1)


def planted_partition(spec: GraphSpec, rng: np.random.Generator):
    """Labelled graph: 80 % of edges inside a class, attributes half drawn
    from a class-specific block of the vocabulary."""
    n, c = spec.nodes, spec.classes
    labels = rng.permutation(np.arange(n) % c)
    members = [np.flatnonzero(labels == k) for k in range(c)]
    edges = np.empty((0, 2), dtype=np.int64)
    while len(edges) < spec.edges:
        batch = 2 * spec.edges
        u = rng.integers(n, size=batch)
        v = rng.integers(n, size=batch)
        intra = rng.random(batch) < 0.8
        for k in range(c):
            sel = intra & (labels[u] == k)
            v[sel] = members[k][rng.integers(len(members[k]), size=int(sel.sum()))]
        edges = _unique_pairs(np.concatenate([edges, np.stack([u, v], axis=1)]), n)
    edges = edges[: spec.edges]

    block = spec.attrs // c

    def draw(rows, width):
        topical = rng.random((len(rows), width)) < 0.5
        own = labels[rows][:, None] * block + rng.integers(block, size=(len(rows), width))
        anywhere = rng.integers(spec.attrs, size=(len(rows), width))
        return np.where(topical, own, anywhere)

    attrs = _distinct_rows(rng, n, spec.attrs_per_node, draw)
    return edges, attrs, labels


def uniform_graph(spec: GraphSpec, rng: np.random.Generator):
    """Unweighted G(n, m) graph with uniformly drawn attributes."""
    n = spec.nodes
    edges = np.empty((0, 2), dtype=np.int64)
    while len(edges) < spec.edges:
        fresh = rng.integers(n, size=(spec.edges + spec.edges // 4, 2))
        edges = _unique_pairs(np.concatenate([edges, fresh]), n)
    edges = edges[: spec.edges]
    attrs = _distinct_rows(rng, n, spec.attrs_per_node,
                           lambda rows, width: rng.integers(spec.attrs, size=(len(rows), width)))
    return edges, attrs, None


GENERATORS = {
    "planted": planted_partition,
    "uniform": uniform_graph,
}


def _write_lines(path: Path, rows) -> None:
    path.write_text("".join(rows), encoding="utf-8")


def write_checkpoint(path: Path, n: int, m: int, rng: np.random.Generator) -> None:
    """Untrained checkpoint in the documented v1 layout: magic ``NBRN``, then
    u32 version, n, m, d1, d2, h, then P (m x d1), P' (n x d2), W (h x d) and
    b (h) as row-major little-endian float64."""
    with path.open("wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<IIIIII", CHECKPOINT_VERSION, n, m, D1, D2, HIDDEN))
        for shape in ((m, D1), (n, D2), (HIDDEN, D1 + D2), (HIDDEN,)):
            fh.write(rng.normal(0.0, INIT_STDDEV, size=shape).astype("<f8").tobytes())


def read_checkpoint(path: Path):
    """(P, P_prime, W, b) from a v1 checkpoint, read independently of the package."""
    raw = path.read_bytes()
    _, n, m, d1, d2, h = struct.unpack("<IIIIII", raw[4:28])
    flat = np.frombuffer(raw, dtype="<f8", offset=28)
    sizes = np.cumsum([0, m * d1, n * d2, h * (d1 + d2), h])
    return (flat[sizes[0]:sizes[1]].reshape(m, d1), flat[sizes[1]:sizes[2]].reshape(n, d2),
            flat[sizes[2]:sizes[3]].reshape(h, d1 + d2), flat[sizes[3]:sizes[4]])


def generate(spec: GraphSpec, seed: int, directory: Path) -> dict:
    """Write the inputs of ``spec`` for ``seed`` into ``directory``.

    Returns a manifest with every file's sha256.  The manifest is written
    last, so a directory that holds one holds complete inputs.
    """
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, spec.nodes, spec.edges]))
    edges, attrs, labels = GENERATORS[spec.kind](spec, rng)
    _write_lines(directory / "edges.txt", (f"{u} {v}\n" for u, v in edges.tolist()))
    _write_lines(directory / "attrs.txt",
                 (f"{u} {' '.join(map(str, row))}\n" for u, row in enumerate(attrs.tolist())))
    files = ["edges.txt", "attrs.txt"]
    if labels is not None:
        _write_lines(directory / "labels.txt",
                     (f"{u} {c}\n" for u, c in enumerate(labels.tolist())))
        files.append("labels.txt")
    if spec.checkpoint:
        write_checkpoint(directory / "model.ckpt", spec.nodes, spec.attrs, rng)
        files.append("model.ckpt")
    manifest = {
        "seed": seed,
        "spec": spec.__dict__,
        "sha256": {name: hashlib.sha256((directory / name).read_bytes()).hexdigest()
                   for name in files},
    }
    (directory / "manifest.json").write_text(json.dumps(manifest, indent=1), encoding="utf-8")
    return manifest


def cached(spec: GraphSpec, seed: int, directory: Path) -> dict:
    """Inputs for (spec, seed), generated on first use and reused after."""
    manifest = directory / "manifest.json"
    if manifest.is_file():
        recorded = json.loads(manifest.read_text(encoding="utf-8"))
        if recorded["spec"] == spec.__dict__ and recorded["seed"] == seed:
            return recorded
    return generate(spec, seed, directory)
