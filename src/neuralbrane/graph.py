"""Attributed graph container and plain-text loaders.

An attributed graph couples an undirected, positively weighted edge set with
per-node sparse binary attribute sets and optional integer class labels.

File formats (UTF-8 text, whitespace separated, ``#`` lines are comments):

* edge file:  one edge per line, ``<src-id> <dst-id> [weight]``; the weight
  defaults to 1.0 when omitted.  Ids are 0-based integers.  Edges are stored
  undirected; a line given in both directions (with equal weight) counts once.
* attribute file:  one node per line, ``<node-id> <attr-id> <attr-id> ...``.
  A line holding only a node id declares the node with an empty attribute set.
* label file:  one node per line, ``<node-id> <class-id>``.

Node and attribute counts are inferred as the maximum observed id plus one
unless explicit counts are passed (the CLI exposes ``--nodes`` / ``--attrs``).
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)

_EMPTY_IDS = np.empty(0, dtype=np.int64)
_EMPTY_WEIGHTS = np.empty(0, dtype=np.float64)


class GraphFormatError(ValueError):
    """An input file violates the documented graph formats."""


@dataclass(frozen=True)
class AttributedGraph:
    """Undirected weighted graph with sparse binary node attributes.

    ``neighbors[u]`` holds u's neighbor ids sorted ascending and
    ``weights[u]`` the matching positive edge weights; every edge appears in
    both endpoint lists.  ``attributes[u]`` is the sorted list of attribute
    ids present on u.  ``labels[u]`` is a class id, with -1 marking an
    unlabeled node (``labels`` is None when no label file was given).

    Instances are never mutated after construction and are safe to share
    across threads.
    """

    node_count: int
    attribute_count: int
    neighbors: tuple[np.ndarray, ...]
    weights: tuple[np.ndarray, ...]
    attributes: tuple[np.ndarray, ...]
    labels: np.ndarray | None = None
    self_loops_dropped: int = 0

    def degree_vector(self) -> np.ndarray:
        """Per-node neighbor count (edge weights do not enter)."""
        return np.array([len(nbrs) for nbrs in self.neighbors], dtype=np.int64)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return sum(len(nbrs) for nbrs in self.neighbors) // 2

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors[u]
        pos = int(np.searchsorted(nbrs, v))
        return pos < len(nbrs) and nbrs[pos] == v

    def edge_weight(self, u: int, v: int) -> float:
        nbrs = self.neighbors[u]
        pos = int(np.searchsorted(nbrs, v))
        if pos >= len(nbrs) or nbrs[pos] != v:
            raise KeyError(f"no edge ({u}, {v})")
        return float(self.weights[u][pos])

    def labeled_nodes(self) -> np.ndarray:
        if self.labels is None:
            return _EMPTY_IDS
        return np.flatnonzero(self.labels >= 0)

    def validate(self) -> None:
        """Check structural invariants; raise GraphFormatError on violation."""
        if self.node_count < 0 or self.attribute_count < 0:
            raise GraphFormatError("negative node or attribute count")
        if len(self.neighbors) != self.node_count or len(self.weights) != self.node_count:
            raise GraphFormatError("adjacency length does not match node count")
        if len(self.attributes) != self.node_count:
            raise GraphFormatError("attribute list length does not match node count")
        for u in range(self.node_count):
            nbrs, wts = self.neighbors[u], self.weights[u]
            if len(nbrs) != len(wts):
                raise GraphFormatError(f"node {u}: neighbor/weight length mismatch")
            if len(nbrs) and (nbrs[0] < 0 or nbrs[-1] >= self.node_count):
                raise GraphFormatError(f"node {u}: neighbor id out of range")
            if np.any(np.diff(nbrs) <= 0):
                raise GraphFormatError(f"node {u}: neighbors not strictly sorted")
            if np.any(wts <= 0):
                raise GraphFormatError(f"node {u}: non-positive edge weight")
            if self.has_edge(u, u):
                raise GraphFormatError(f"node {u}: self-loop")
            attrs = self.attributes[u]
            if len(attrs) and (attrs[0] < 0 or attrs[-1] >= self.attribute_count):
                raise GraphFormatError(f"node {u}: attribute id out of range")
            if np.any(np.diff(attrs) <= 0):
                raise GraphFormatError(f"node {u}: attributes not strictly sorted")
        # symmetry with equal weights seen from both endpoints
        for u in range(self.node_count):
            for v, w in zip(self.neighbors[u], self.weights[u]):
                nbrs_v = self.neighbors[v]
                pos = int(np.searchsorted(nbrs_v, u))
                if pos >= len(nbrs_v) or nbrs_v[pos] != u:
                    raise GraphFormatError(f"edge ({u}, {v}) missing reverse direction")
                if self.weights[v][pos] != w:
                    raise GraphFormatError(f"edge ({u}, {v}) has asymmetric weights")


def _tokens(path: Path):
    """Yield (lineno, tokens) for non-comment, non-blank lines."""
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped.split()


def _parse_id(token: str, path: Path, lineno: int, kind: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: {kind} id {token!r} is not an integer") from None
    if value < 0:
        raise GraphFormatError(f"{path}:{lineno}: {kind} id {value} is negative")
    return value


def read_labels(label_path, node_count: int | None = None) -> dict[int, int]:
    """Parse a label file into {node-id: class-id}; GraphFormatError with the
    file and line for a malformed line, a bad id, a node given two classes,
    or a node id at or past an explicitly declared ``node_count``."""
    label_path = Path(label_path)
    label_map: dict[int, int] = {}
    for lineno, toks in _tokens(label_path):
        if len(toks) != 2:
            raise GraphFormatError(
                f"{label_path}:{lineno}: expected '<node-id> <class-id>', got {len(toks)} fields"
            )
        u = _parse_id(toks[0], label_path, lineno, "node")
        c = _parse_id(toks[1], label_path, lineno, "class")
        if node_count is not None and u >= node_count:
            raise GraphFormatError(
                f"{label_path}:{lineno}: node id {u} exceeds declared node count {node_count}"
            )
        if u in label_map and label_map[u] != c:
            raise GraphFormatError(
                f"{label_path}:{lineno}: node {u} relabeled from {label_map[u]} to {c}"
            )
        label_map[u] = c
    return label_map


def load_graph(
    edge_path,
    attr_path,
    label_path=None,
    *,
    node_count: int | None = None,
    attribute_count: int | None = None,
) -> AttributedGraph:
    """Load and validate an attributed graph from the documented text files.

    Directed edge lines are symmetrized, duplicate lines for the same edge
    with equal weight are deduplicated, and self-loop lines are dropped and
    counted (a warning is logged).  Raises GraphFormatError with the file and
    line number for malformed lines, conflicting duplicate weights, or ids
    outside an explicitly declared range.
    """
    edge_path, attr_path = Path(edge_path), Path(attr_path)

    edges: dict[tuple[int, int], float] = {}
    self_loops = 0
    max_node = -1
    for lineno, toks in _tokens(edge_path):
        if len(toks) not in (2, 3):
            raise GraphFormatError(
                f"{edge_path}:{lineno}: expected '<src> <dst> [weight]', got {len(toks)} fields"
            )
        u = _parse_id(toks[0], edge_path, lineno, "node")
        v = _parse_id(toks[1], edge_path, lineno, "node")
        if len(toks) == 3:
            try:
                w = float(toks[2])
            except ValueError:
                raise GraphFormatError(
                    f"{edge_path}:{lineno}: weight {toks[2]!r} is not a number"
                ) from None
        else:
            w = 1.0
        if not np.isfinite(w) or w <= 0:
            raise GraphFormatError(f"{edge_path}:{lineno}: weight must be a positive finite number")
        if node_count is not None and (u >= node_count or v >= node_count):
            raise GraphFormatError(
                f"{edge_path}:{lineno}: node id exceeds declared node count {node_count}"
            )
        max_node = max(max_node, u, v)
        if u == v:
            self_loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges and edges[key] != w:
            raise GraphFormatError(
                f"{edge_path}:{lineno}: edge ({u}, {v}) repeated with conflicting "
                f"weight {w} (previously {edges[key]})"
            )
        edges[key] = w
    if self_loops:
        log.warning("%s: dropped %d self-loop line(s)", edge_path, self_loops)

    attrs: dict[int, set[int]] = {}
    max_attr = -1
    for lineno, toks in _tokens(attr_path):
        u = _parse_id(toks[0], attr_path, lineno, "node")
        if node_count is not None and u >= node_count:
            raise GraphFormatError(
                f"{attr_path}:{lineno}: node id {u} exceeds declared node count {node_count}"
            )
        max_node = max(max_node, u)
        row = attrs.setdefault(u, set())
        for tok in toks[1:]:
            a = _parse_id(tok, attr_path, lineno, "attribute")
            if attribute_count is not None and a >= attribute_count:
                raise GraphFormatError(
                    f"{attr_path}:{lineno}: attribute id {a} exceeds declared "
                    f"attribute count {attribute_count}"
                )
            max_attr = max(max_attr, a)
            row.add(a)

    label_map = read_labels(label_path, node_count) if label_path is not None else {}
    max_node = max(max_node, max(label_map, default=-1))

    n = node_count if node_count is not None else max_node + 1
    m = attribute_count if attribute_count is not None else max_attr + 1

    nbr_lists: list[list[tuple[int, float]]] = [[] for _ in range(n)]
    for (u, v), w in edges.items():
        nbr_lists[u].append((v, w))
        nbr_lists[v].append((u, w))

    neighbors, weights = [], []
    for u in range(n):
        pairs = sorted(nbr_lists[u])
        if pairs:
            ids, wts = zip(*pairs)
            neighbors.append(np.array(ids, dtype=np.int64))
            weights.append(np.array(wts, dtype=np.float64))
        else:
            neighbors.append(_EMPTY_IDS)
            weights.append(_EMPTY_WEIGHTS)

    attributes = [
        np.array(sorted(attrs.get(u, ())), dtype=np.int64) if attrs.get(u) else _EMPTY_IDS
        for u in range(n)
    ]

    labels = None
    if label_path is not None:
        labels = np.full(n, -1, dtype=np.int64)
        for u, c in label_map.items():
            labels[u] = c

    g = AttributedGraph(
        node_count=n,
        attribute_count=m,
        neighbors=tuple(neighbors),
        weights=tuple(weights),
        attributes=tuple(attributes),
        labels=labels,
        self_loops_dropped=self_loops,
    )
    g.validate()
    return g


def write_graph(g: AttributedGraph, edge_path, attr_path, label_path=None) -> None:
    """Write a graph back out in the documented text formats.

    Each undirected edge is written once (lower endpoint first) with full
    float precision, so reloading with explicit counts reproduces the graph
    exactly.  Every node gets an attribute line, including empty ones.
    """
    with Path(edge_path).open("w", encoding="utf-8") as fh:
        for u in range(g.node_count):
            for v, w in zip(g.neighbors[u], g.weights[u]):
                if u < v:
                    fh.write(f"{u} {int(v)} {float(w)!r}\n")
    with Path(attr_path).open("w", encoding="utf-8") as fh:
        for u in range(g.node_count):
            row = " ".join(str(int(a)) for a in g.attributes[u])
            fh.write(f"{u} {row}\n" if row else f"{u}\n")
    if label_path is not None:
        with Path(label_path).open("w", encoding="utf-8") as fh:
            if g.labels is not None:
                for u in g.labeled_nodes():
                    fh.write(f"{int(u)} {int(g.labels[u])}\n")
