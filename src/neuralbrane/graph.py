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

In memory each per-node list (neighbors, weights, attributes) is a ``Rows``:
one flat ``values`` array with every node's entries end to end, cut by n+1
``indptr`` offsets.
"""

from __future__ import annotations

import logging
from array import array
from dataclasses import dataclass
from itertools import chain
from pathlib import Path

import numpy as np

log = logging.getLogger(__name__)


class GraphFormatError(ValueError):
    """An input file violates the documented graph formats."""


@dataclass(frozen=True, slots=True)
class Rows:
    """n variable-length rows stored flat: row u is the view ``values[indptr[u]:indptr[u + 1]]``.
    The n+1 int64 offsets in ``indptr`` start at 0, never decrease and end at
    ``len(values)``; ``AttributedGraph.validate`` checks them."""

    indptr: np.ndarray
    values: np.ndarray

    def __len__(self) -> int:
        return len(self.indptr) - 1

    def __getitem__(self, u: int) -> np.ndarray:
        if u < 0:  # indptr[-1]:indptr[0] would be an empty row, not the last one
            raise IndexError(f"row {u} is negative")
        return self.values[self.indptr[u]:self.indptr[u + 1]]

    def take(self, nodes: np.ndarray) -> "Rows":
        """The rows ``nodes`` (repeats allowed), end to end in that order."""
        if len(nodes) and nodes.min() < 0:
            raise IndexError(f"row {nodes.min()} is negative")
        starts = self.indptr[nodes]
        lengths = self.indptr[nodes + 1] - starts
        indptr = np.concatenate(([0], np.cumsum(lengths)))
        # entry e of the result sits in row r at offset e - indptr[r] from starts[r]
        return Rows(indptr, self.values[np.repeat(starts - indptr[:-1], lengths)
                                        + np.arange(indptr[-1])])

    def owners(self) -> np.ndarray:
        """The row each entry of ``values`` belongs to."""
        return np.repeat(np.arange(len(self)), np.diff(self.indptr))


@dataclass(frozen=True)
class AttributedGraph:
    """Undirected weighted graph with sparse binary node attributes.

    ``neighbors[u]`` holds u's neighbor ids sorted ascending and
    ``weights[u]`` the matching positive edge weights; every edge appears in
    both endpoint lists.  ``attributes[u]`` is the sorted list of attribute
    ids present on u.  All three are ``Rows``; ``weights`` shares the offsets
    of ``neighbors``, so their flat ``values`` line up entry for entry.
    ``labels[u]`` is a class id, with -1 marking an unlabeled node
    (``labels`` is None when no label file was given).

    Instances are never mutated after construction and are safe to share
    across threads.
    """

    node_count: int
    attribute_count: int
    neighbors: Rows
    weights: Rows
    attributes: Rows
    labels: np.ndarray | None = None
    self_loops_dropped: int = 0

    def degree_vector(self) -> np.ndarray:
        """Per-node neighbor count (edge weights do not enter)."""
        return np.diff(self.neighbors.indptr)

    @property
    def edge_count(self) -> int:
        """Number of undirected edges."""
        return int(self.neighbors.indptr[-1]) // 2

    def has_edge(self, u: int, v: int) -> bool:
        nbrs = self.neighbors[u]
        pos = int(nbrs.searchsorted(v))
        return pos < len(nbrs) and nbrs[pos] == v

    def edge_weight(self, u: int, v: int) -> float:
        if not self.has_edge(u, v):
            raise KeyError(f"no edge ({u}, {v})")
        return float(self.weights[u][self.neighbors[u].searchsorted(v)])

    def labeled_nodes(self) -> np.ndarray:
        if self.labels is None:
            return np.empty(0, dtype=np.int64)
        return np.flatnonzero(self.labels >= 0)

    def validate(self) -> None:
        """Check structural invariants; raise GraphFormatError for the first
        kind of violation found, naming its first node (or edge, in node order)."""
        n = self.node_count
        if n < 0 or self.attribute_count < 0:
            raise GraphFormatError("negative node or attribute count")
        if len(self.neighbors) != n or len(self.weights) != n:
            raise GraphFormatError("adjacency length does not match node count")
        if len(self.attributes) != n:
            raise GraphFormatError("attribute list length does not match node count")
        for kind, rows in (("neighbor", self.neighbors), ("weight", self.weights),
                           ("attribute", self.attributes)):
            _check_offsets(rows, kind)
        _reject(np.arange(n), np.diff(self.weights.indptr) != self.degree_vector(),
                "neighbor/weight length mismatch")
        owner, nbrs, wts = self.neighbors.owners(), self.neighbors.values, self.weights.values
        _check_ids(owner, nbrs, n, "neighbor")
        _reject(owner, wts <= 0, "non-positive edge weight")
        _reject(owner, nbrs == owner, "self-loop")
        _check_ids(self.attributes.owners(), self.attributes.values, self.attribute_count,
                   "attribute")
        # symmetry with equal weights: the (owner, neighbor) keys now ascend
        # strictly, so each edge's reverse is found by binary search
        if len(nbrs) == 0:
            return
        pos, found = locate(owner * n + nbrs, nbrs * n + owner)
        missing = ~found
        bad = missing | (wts[pos] != wts)
        if bad.any():
            k = int(np.argmax(bad))
            problem = "missing reverse direction" if missing[k] else "has asymmetric weights"
            raise GraphFormatError(f"edge ({owner[k]}, {nbrs[k]}) {problem}")


def locate(keys: np.ndarray, query: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each query sits in the ascending, non-empty ``keys`` (clamped to
    the last entry), and whether it is there.  With ``u * n + v`` keys over the
    stored directions of a valid graph, this tells which pairs are edges."""
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    return pos, keys[pos] == query


def _check_offsets(rows: Rows, kind: str) -> None:
    """The offsets start at 0, never decrease and end at the value count."""
    indptr = rows.indptr
    if indptr[0] != 0:
        raise GraphFormatError(f"{kind} offsets start at {indptr[0]}, not 0")
    _reject(np.arange(len(rows)), np.diff(indptr) < 0, f"{kind} offsets decrease")
    if indptr[-1] != len(rows.values):
        raise GraphFormatError(
            f"{kind} offsets end at {indptr[-1]}, not at the {len(rows.values)} values")


def _reject(owner: np.ndarray, bad: np.ndarray, problem: str) -> None:
    """Raise for the first flagged entry, naming the node that owns it."""
    if bad.any():
        raise GraphFormatError(f"node {owner[np.argmax(bad)]}: {problem}")


def _check_ids(owner: np.ndarray, ids: np.ndarray, count: int, kind: str) -> None:
    """Every node's ids lie in [0, count) and ascend strictly."""
    _reject(owner, (ids < 0) | (ids >= count), f"{kind} id out of range")
    _reject(owner[1:], (owner[1:] == owner[:-1]) & (np.diff(ids) <= 0),
            f"{kind}s not strictly sorted")


def _pair_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((minor, major))`` gives, from one stable
    argsort of an int64 key.  The key is exact for any ids, out-of-range ones
    included, so ``validate`` still names those; where it would overflow
    int64, lexsort runs instead."""
    if len(major) == 0:
        return np.argsort(major)
    lo_major, lo_minor = int(major.min()), int(minor.min())
    span = int(minor.max()) - lo_minor + 1
    if (int(major.max()) - lo_major + 1) * span > np.iinfo(np.int64).max:
        return np.lexsort((minor, major))
    key = np.subtract(major, lo_major, dtype=np.int64)  # in place, to keep peak memory low
    key *= span
    key += minor
    key -= lo_minor  # exact: int64 wraps, and the final key fits
    return np.argsort(key, kind="stable")


def from_edges(n: int, m: int, src, dst, weight, attr_node, attr_id,
               labels: np.ndarray | None = None, self_loops_dropped: int = 0) -> AttributedGraph:
    """Build and validate an n-node, m-attribute graph from flat numpy arrays.

    Each undirected edge is given once, in either direction, as ``(src[k],
    dst[k])`` with weight ``weight[k]``.  Node ``attr_node[k]`` carries
    attribute ``attr_id[k]``; a pair given twice counts once.  The offsets
    count node ids below n only, so ``validate`` rejects an id of n or more.
    """
    # Offsets first, so they do not split the heap space the sort temporaries
    # free: with glibc, `embed` on the 25k-node benchmark graph then loads its
    # checkpoint there (benchmark peak RSS 123 -> 107 MB).
    adjacency, attr_offsets = np.zeros(n + 1, dtype=np.int64), np.zeros(n + 1, dtype=np.int64)
    heads, tails = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = _pair_order(heads, tails)
    pairs = _pair_order(attr_node, attr_id)
    attr_node, attr_id = attr_node[pairs], attr_id[pairs]
    first = np.ones(len(pairs), dtype=bool)
    first[1:] = (np.diff(attr_node) != 0) | (np.diff(attr_id) != 0)
    np.cumsum(np.bincount(heads, minlength=n)[:n], out=adjacency[1:])
    np.cumsum(np.bincount(attr_node[first], minlength=n)[:n], out=attr_offsets[1:])
    g = AttributedGraph(
        n, m, Rows(adjacency, tails[order]),
        Rows(adjacency, np.concatenate([weight, weight])[order]),
        Rows(attr_offsets, attr_id[first]), labels, self_loops_dropped,
    )
    g.validate()
    return g


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


def _parse(edge_path: Path, attr_path: Path, label_path, node_count, attribute_count):
    """The arguments of ``from_edges`` for the documented text files."""
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

    attr_node, attr_id = array("q"), array("q")
    max_attr = -1
    for lineno, toks in _tokens(attr_path):
        u = _parse_id(toks[0], attr_path, lineno, "node")
        if node_count is not None and u >= node_count:
            raise GraphFormatError(
                f"{attr_path}:{lineno}: node id {u} exceeds declared node count {node_count}"
            )
        max_node = max(max_node, u)
        for tok in toks[1:]:
            a = _parse_id(tok, attr_path, lineno, "attribute")
            if attribute_count is not None and a >= attribute_count:
                raise GraphFormatError(
                    f"{attr_path}:{lineno}: attribute id {a} exceeds declared "
                    f"attribute count {attribute_count}"
                )
            max_attr = max(max_attr, a)
            attr_node.append(u)
            attr_id.append(a)

    label_map = read_labels(label_path, node_count) if label_path is not None else {}
    max_node = max(max_node, max(label_map, default=-1))

    n = node_count if node_count is not None else max_node + 1
    m = attribute_count if attribute_count is not None else max_attr + 1

    labels = None
    if label_path is not None:
        labels = np.full(n, -1, dtype=np.int64)
        for u, c in label_map.items():
            labels[u] = c

    pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    weight = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    return (n, m, pairs[0::2], pairs[1::2], weight, np.frombuffer(attr_node, dtype=np.int64),
            np.frombuffer(attr_id, dtype=np.int64), labels, self_loops)


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
    # parsed in a helper, so its dict of edges is freed before the graph is built
    return from_edges(*_parse(Path(edge_path), Path(attr_path), label_path,
                              node_count, attribute_count))


def write_graph(g: AttributedGraph, edge_path, attr_path, label_path=None) -> None:
    """Write a graph back out in the documented text formats.

    Each undirected edge is written once (lower endpoint first) with full
    float precision, so reloading with explicit counts reproduces the graph
    exactly.  Every node gets an attribute line, including empty ones.
    """
    owner, nbrs = g.neighbors.owners(), g.neighbors.values
    lower = owner < nbrs
    with Path(edge_path).open("w", encoding="utf-8") as fh:
        for u, v, w in zip(owner[lower].tolist(), nbrs[lower].tolist(),
                           g.weights.values[lower].tolist()):
            fh.write(f"{u} {v} {w!r}\n")
    ids, bounds = g.attributes.values.tolist(), g.attributes.indptr.tolist()
    with Path(attr_path).open("w", encoding="utf-8") as fh:
        for u in range(g.node_count):
            row = " ".join(map(str, ids[bounds[u]:bounds[u + 1]]))
            fh.write(f"{u} {row}\n" if row else f"{u}\n")
    if label_path is not None:
        with Path(label_path).open("w", encoding="utf-8") as fh:
            if g.labels is not None:
                for u in g.labeled_nodes():
                    fh.write(f"{int(u)} {int(g.labels[u])}\n")
