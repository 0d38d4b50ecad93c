"""Attributed graph container and plain-text loaders.

An attributed graph couples an undirected, positively weighted edge set with
per-node sparse binary attribute sets and optional integer class labels.

File formats (UTF-8 text, whitespace separated, ``#`` lines are comments):

* edge file:  one edge per line, ``<src-id> <dst-id> [weight]``; the weight
  defaults to 1.0 when omitted.  Edges are stored undirected; a line given
  in both directions (with equal weight) counts once.
* attribute file:  one node per line, ``<node-id> <attr-id> <attr-id> ...``.
  A line holding only a node id declares the node with an empty attribute set.
* label file:  one node per line, ``<node-id> <class-id>``.

Every id is a 0-based integer that fits in int64 (below 2**63).

Node and attribute counts are inferred as the maximum observed id plus one
unless explicit counts are passed (the CLI exposes ``--nodes`` / ``--attrs``).

In memory each per-node list (neighbors, weights, attributes) is a ``Rows``:
one flat ``values`` array with every node's entries end to end, cut by n+1
``indptr`` offsets.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import NoReturn

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
        _reject(np.diff(self.weights.indptr) != self.degree_vector(),
                "neighbor/weight length mismatch")
        nbrs, wts = self.neighbors.values, self.weights.values
        _check_ids(self.neighbors, n, "neighbor")
        _reject(wts <= 0, "non-positive edge weight", self.neighbors)
        owner = self.neighbors.owners()
        _reject(nbrs == owner, "self-loop", self.neighbors)
        _check_ids(self.attributes, self.attribute_count, "attribute")
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
    _reject(np.diff(indptr) < 0, f"{kind} offsets decrease")
    if indptr[-1] != len(rows.values):
        raise GraphFormatError(
            f"{kind} offsets end at {indptr[-1]}, not at the {len(rows.values)} values")


def _reject(bad: np.ndarray, problem: str, rows: Rows | None = None) -> None:
    """Raise for the first flagged entry, naming its node: the row of
    ``rows`` whose values hold it (the last row starting at or before it, so
    empty rows before it are passed over), or, without ``rows``, node k for
    entry k."""
    if bad.any():
        k = int(np.argmax(bad))
        node = k if rows is None else int(np.searchsorted(rows.indptr, k, side="right")) - 1
        raise GraphFormatError(f"node {node}: {problem}")


def _check_ids(rows: Rows, count: int, kind: str) -> None:
    """Every row's ids lie in [0, count) and ascend strictly; an entry is
    compared with the one before it unless it starts its row."""
    ids = rows.values
    _reject((ids < 0) | (ids >= count), f"{kind} id out of range", rows)
    unsorted = np.zeros(len(ids), dtype=bool)
    np.less_equal(ids[1:], ids[:-1], out=unsorted[1:])
    starts = rows.indptr[:-1]
    unsorted[starts[starts < len(ids)]] = False
    _reject(unsorted, f"{kind}s not strictly sorted", rows)


def _pair_key(major: np.ndarray, minor: np.ndarray):
    """(key, least major, least minor, minor's span) for non-empty pairs:
    one int64 per pair, ordered as the pairs are, (major - least major) *
    span + (minor - least minor).  The key is exact for any ids, out-of-range
    ones included, so ``validate`` still names those; None where it would
    overflow int64."""
    lo_major, lo_minor = int(major.min()), int(minor.min())
    span = int(minor.max()) - lo_minor + 1
    if (int(major.max()) - lo_major + 1) * span > _MAX_ID:
        return None
    key = np.subtract(major, lo_major, dtype=np.int64)  # in place, to keep peak memory low
    key *= span
    key += minor
    key -= lo_minor  # exact: int64 wraps, and the final key fits
    return key, lo_major, lo_minor, span


def _pair_order(major: np.ndarray, minor: np.ndarray) -> np.ndarray:
    """The permutation ``np.lexsort((minor, major))`` gives, from one stable
    argsort of the pairs' key, or from lexsort where the key would overflow."""
    keyed = _pair_key(major, minor) if len(major) else None
    if keyed is None:
        return np.lexsort((minor, major))
    return np.argsort(keyed[0], kind="stable")


def _attribute_rows(n: int, attr_node: np.ndarray, attr_id: np.ndarray) -> Rows:
    """Each node's attribute ids in ascending order, a pair given twice kept
    once.  The pairs' key is sorted in place and decoded back into node and
    id, so no sorted copy of the pairs is made; where the key would overflow,
    lexsort orders the pairs.  The offsets count node ids in [0, n) only, so
    ``validate`` rejects any other."""
    keyed = _pair_key(attr_node, attr_id) if len(attr_node) else None
    if keyed is None:
        order = np.lexsort((attr_id, attr_node))
        node, ids = attr_node[order], attr_id[order]
        keep = np.ones(len(order), dtype=bool)
        keep[1:] = (node[1:] != node[:-1]) | (ids[1:] != ids[:-1])
        node, ids = node[keep], ids[keep]
    else:
        key, lo_node, lo_id, span = keyed
        key.sort()
        keep = np.ones(len(key), dtype=bool)
        np.not_equal(key[1:], key[:-1], out=keep[1:])
        if not keep.all():
            key = key[keep]
        ids = key % span
        ids += lo_id
        node = key
        node //= span
        node += lo_node
    return Rows(np.searchsorted(node, np.arange(n + 1)), ids)


def from_edges(n: int, m: int, src, dst, weight, attr_node, attr_id,
               labels: np.ndarray | None = None, self_loops_dropped: int = 0) -> AttributedGraph:
    """Build and validate an n-node, m-attribute graph from flat numpy arrays.

    Each undirected edge is given once, in either direction, as ``(src[k],
    dst[k])`` with weight ``weight[k]``.  Node ``attr_node[k]`` carries
    attribute ``attr_id[k]``; a pair given twice counts once.  The offsets
    count node ids below n only, so ``validate`` rejects an id of n or more.
    """
    adjacency = np.zeros(n + 1, dtype=np.int64)
    heads, tails = np.concatenate([src, dst]), np.concatenate([dst, src])
    order = _pair_order(heads, tails)
    np.cumsum(np.bincount(heads, minlength=n)[:n], out=adjacency[1:])
    g = AttributedGraph(
        n, m, Rows(adjacency, tails[order]),
        Rows(adjacency, np.concatenate([weight, weight])[order]),
        _attribute_rows(n, attr_node, attr_id), labels, self_loops_dropped,
    )
    g.validate()
    return g


def _tokens(path: Path):
    """Yield (lineno, tokens) for non-comment, non-blank lines."""
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if toks and toks[0][0] != "#":
                yield lineno, toks


# Text read per block of lines: 64 KiB keeps a block's token lists small
# (1 MiB blocks took 0.1-0.2 s longer on the benchmark's `large-embed` files).
_BLOCK_BYTES = 1 << 16


def _token_blocks(path: Path):
    """Yield the token lists of the non-comment, non-blank lines, in blocks
    of about ``_BLOCK_BYTES`` of text."""
    with path.open("r", encoding="utf-8") as fh:
        while lines := fh.readlines(_BLOCK_BYTES):
            yield [toks for toks in map(str.split, lines) if toks and toks[0][0] != "#"]


_MAX_ID = np.iinfo(np.int64).max


def _parse_id(token: str, path: Path, lineno: int, kind: str) -> int:
    try:
        value = int(token)
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: {kind} id {token!r} is not an integer") from None
    if value < 0:
        raise GraphFormatError(f"{path}:{lineno}: {kind} id {value} is negative")
    if value > _MAX_ID:
        raise GraphFormatError(f"{path}:{lineno}: {kind} id {value} is too large")
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


# Each reader sends all of a file's tokens through one np.fromiter, whose
# buffer grows in place.  Arrays made per block and concatenated after split
# the heap: `embed`'s checkpoint then fitted in it or not as unrelated small
# allocations fell, and the benchmark's `large-embed` peak RSS read 104 or
# 121 MB; read this way it stays at 105.8-106.8 MB over seeds, paths and
# bytecode caches.
def _read_edges(path: Path):
    """(src, dst, weight) of every edge line in file order, or None if a line
    has the wrong number of fields or a token that does not convert."""
    lengths, weight_tokens = [], []

    def counted(rows):
        lengths.extend(map(len, rows))
        weight_tokens.extend(row[2] for row in rows if len(row) == 3)
        return rows

    ends = chain.from_iterable(map(itemgetter(0, 1), chain.from_iterable(
        map(counted, _token_blocks(path)))))
    try:
        flat = np.fromiter(map(int, ends), dtype=np.int64)
        given = np.fromiter(map(float, weight_tokens), dtype=np.float64,
                            count=len(weight_tokens))
    except (ValueError, OverflowError, IndexError):  # IndexError: a 1-field line
        return None
    fields = np.array(lengths, dtype=np.int64)
    weighted = fields == 3
    if not (weighted | (fields == 2)).all():
        return None
    weight = np.ones(len(fields))
    weight[weighted] = given
    return flat[0::2], flat[1::2], weight


def _read_attributes(path: Path):
    """(nodes, attr_node, attr_id) of the attribute lines in file order: each
    line's node id, and one (node, attribute) pair per attribute token; None
    if a token does not convert."""
    lengths = []

    def counted(rows):
        lengths.extend(map(len, rows))
        return rows

    tokens = chain.from_iterable(chain.from_iterable(map(counted, _token_blocks(path))))
    try:
        flat = np.fromiter(map(int, tokens), dtype=np.int64)
    except (ValueError, OverflowError):
        return None
    fields = np.array(lengths, dtype=np.int64)
    starts = np.cumsum(fields) - fields
    is_attr = np.ones(len(flat), dtype=bool)
    is_attr[starts] = False
    nodes = flat[starts]
    return nodes, np.repeat(nodes, fields - 1), flat[is_attr]


def _outside(ids: np.ndarray, count: int | None) -> bool:
    """Whether some id is negative or at or past a declared count."""
    return len(ids) > 0 and (ids.min() < 0 or (count is not None and ids.max() >= count))


def _check_edge_lines(path: Path, node_count) -> None:
    """Raise GraphFormatError for the first line of an edge file that breaks
    its format; each edge's first weight is kept only to word a conflict."""
    first_weight: dict[tuple[int, int], float] = {}
    for lineno, toks in _tokens(path):
        if len(toks) not in (2, 3):
            raise GraphFormatError(
                f"{path}:{lineno}: expected '<src> <dst> [weight]', got {len(toks)} fields"
            )
        u = _parse_id(toks[0], path, lineno, "node")
        v = _parse_id(toks[1], path, lineno, "node")
        if len(toks) == 3:
            try:
                w = float(toks[2])
            except ValueError:
                raise GraphFormatError(
                    f"{path}:{lineno}: weight {toks[2]!r} is not a number"
                ) from None
        else:
            w = 1.0
        if not np.isfinite(w) or w <= 0:
            raise GraphFormatError(f"{path}:{lineno}: weight must be a positive finite number")
        if node_count is not None and (u >= node_count or v >= node_count):
            raise GraphFormatError(
                f"{path}:{lineno}: node id exceeds declared node count {node_count}"
            )
        if u == v:
            continue
        previous = first_weight.setdefault((min(u, v), max(u, v)), w)
        if previous != w:
            raise GraphFormatError(
                f"{path}:{lineno}: edge ({u}, {v}) repeated with conflicting "
                f"weight {w} (previously {previous})"
            )


def _check_attribute_lines(path: Path, node_count, attribute_count) -> None:
    """Raise GraphFormatError for the first line of an attribute file that
    breaks its format."""
    for lineno, toks in _tokens(path):
        u = _parse_id(toks[0], path, lineno, "node")
        if node_count is not None and u >= node_count:
            raise GraphFormatError(
                f"{path}:{lineno}: node id {u} exceeds declared node count {node_count}"
            )
        for tok in toks[1:]:
            a = _parse_id(tok, path, lineno, "attribute")
            if attribute_count is not None and a >= attribute_count:
                raise GraphFormatError(
                    f"{path}:{lineno}: attribute id {a} exceeds declared "
                    f"attribute count {attribute_count}"
                )


def _reject_file(check_lines, path: Path, *counts) -> NoReturn:
    """Raise the message of the first bad line of a file the array checks
    flagged, found by reading it again line by line."""
    check_lines(path, *counts)
    raise RuntimeError(f"{path}: the array checks flag this file, the line checks pass it")


def _parse(edge_path: Path, attr_path: Path, label_path, node_count, attribute_count):
    """The arguments of ``from_edges`` for the documented text files.

    Each file is converted to arrays and checked as a whole; a file the
    checks flag is read again line by line only to word its first error, so
    the ``file:line`` messages name the first bad line.
    """
    # edges: ids in range, weights positive and finite, and a line repeating
    # an edge repeats the weight of its first line
    edges = _read_edges(edge_path)
    if edges is None:
        _reject_file(_check_edge_lines, edge_path, node_count)
    src, dst, weight = edges
    if (_outside(src, node_count) or _outside(dst, node_count)
            or not (np.isfinite(weight) & (weight > 0)).all()):
        _reject_file(_check_edge_lines, edge_path, node_count)
    loop = src == dst
    lo, hi, w = np.minimum(src, dst)[~loop], np.maximum(src, dst)[~loop], weight[~loop]
    order = _pair_order(lo, hi)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(lo[order]) != 0) | (np.diff(hi[order]) != 0)
    if (w[order] != w[order[first]][np.cumsum(first) - 1]).any():
        _reject_file(_check_edge_lines, edge_path, node_count)
    self_loops = int(loop.sum())
    if self_loops:
        log.warning("%s: dropped %d self-loop line(s)", edge_path, self_loops)
    keep = np.sort(order[first])  # each edge once, in the order of its first line

    attributes = _read_attributes(attr_path)
    if (attributes is None or _outside(attributes[0], node_count)
            or _outside(attributes[2], attribute_count)):
        _reject_file(_check_attribute_lines, attr_path, node_count, attribute_count)
    nodes, attr_node, attr_id = attributes

    label_map = read_labels(label_path, node_count) if label_path is not None else {}
    max_node = max(max((int(a.max()) for a in (src, dst, nodes) if len(a)), default=-1),
                   max(label_map, default=-1))
    n = node_count if node_count is not None else max_node + 1
    m = attribute_count if attribute_count is not None else int(attr_id.max(initial=-1)) + 1

    labels = None
    if label_path is not None:
        labels = np.full(n, -1, dtype=np.int64)
        for u, c in label_map.items():
            labels[u] = c

    return n, m, lo[keep], hi[keep], w[keep], attr_node, attr_id, labels, self_loops


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
    # parsed in a helper, so its temporaries are freed before the graph is built
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
