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

import io
import logging
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import islice
from operator import itemgetter
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
        # strictly, so the graph is symmetric when its reverse keys, sorted,
        # are the keys, and their weights follow them; only a graph that is
        # not looks each edge's reverse up by binary search, to name the first
        if len(nbrs) == 0:
            return
        keys, reverse = owner * n + nbrs, nbrs * n + owner
        order = np.argsort(reverse)
        if np.array_equal(reverse[order], keys) and np.array_equal(wts[order], wts):
            return
        pos, found = locate(keys, reverse)
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
    """The permutation ``np.lexsort((minor, major))`` gives, from an argsort
    of the pairs' key, or from lexsort where the key would overflow.  While
    no key repeats, every sort gives that one permutation, so the default
    (fastest) sort is tried first and the stable one runs only on repeats."""
    keyed = _pair_key(major, minor) if len(major) else None
    if keyed is None:
        return np.lexsort((minor, major))
    key = keyed[0]
    order = np.argsort(key)
    ranked = key[order]
    if (ranked[1:] == ranked[:-1]).any():
        return np.argsort(key, kind="stable")
    return order


def _attribute_rows(n: int, attr_node: np.ndarray, attr_id: np.ndarray) -> Rows:
    """Each node's attribute ids in ascending order, a pair given twice kept
    once.  The pairs' key is sorted in place and decoded back into node and
    id, so no sorted copy of the pairs is made; keys that already ascend
    strictly, as a file listing nodes in order with ascending ids gives them,
    are neither sorted nor searched for repeats.  Where the key would
    overflow, lexsort orders the pairs.  The offsets count node ids in [0, n)
    only, so ``validate`` rejects any other."""
    keyed = _pair_key(attr_node, attr_id) if len(attr_node) else None
    if keyed is None:
        order = np.lexsort((attr_id, attr_node))
        node, ids = attr_node[order], attr_id[order]
        keep = np.ones(len(order), dtype=bool)
        keep[1:] = (node[1:] != node[:-1]) | (ids[1:] != ids[:-1])
        node, ids = node[keep], ids[keep]
    else:
        key, lo_node, lo_id, span = keyed
        if not (key[1:] > key[:-1]).all():
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


@contextmanager
def open_text(path: Path, error: type[ValueError] = GraphFormatError, binary=None):
    """``path`` opened as UTF-8 text, or ``binary``, a binary handle already
    open on it, read as UTF-8 text; a byte that does not decode, wherever
    it is read, raises ``error`` naming the file."""
    try:
        with (path.open("r", encoding="utf-8") if binary is None
              else io.TextIOWrapper(binary, encoding="utf-8")) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text "
                    f"(byte 0x{exc.object[exc.start]:02x}: {exc.reason})") from None


def _tokens(path: Path):
    """Yield (lineno, tokens) for non-comment, non-blank lines."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            toks = line.split()
            if toks and toks[0][0] != "#":
                yield lineno, toks


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


# A plain file holds nothing but these bytes.  Each of its tokens is then a
# run of ASCII digits, which int() and numpy's C conversion read alike, and
# str.split() cuts the fields numpy finds, with lines ending at "\n" only
# (text mode would also end one at a lone "\r").
_PLAIN = b"0123456789 \t\n"


def _read_plain(path: Path):
    """(values, fields) of a plain file: every token as int64 in file order,
    from one ``np.fromstring``, and the field count of each non-blank line;
    None for any other file, or one holding an id of 2**63 - 1 or more."""
    data = path.read_bytes()
    if data.translate(None, _PLAIN):
        return None
    text = np.frombuffer(data, dtype=np.uint8)
    digit = np.zeros(len(text) + 1, dtype=bool)  # digit[k + 1]: byte k is a digit
    np.greater(text, ord(" "), out=digit[1:])
    first = digit[1:] > digit[:-1]  # where a token starts
    del digit
    lines = np.flatnonzero(text[:-1] == ord("\n")) + 1
    lines = np.concatenate(([0], lines))[:len(text)]  # where each line starts, if any
    # This sum casts the whole mask to int64, 8 bytes per byte of the file,
    # freed at once.  Through glibc's reuse of freed heap that sets `embed`'s
    # peak on the benchmark's `large-embed` files: 78.5-79.8 MB over seeds,
    # path lengths and bytecode caches, against 88.6 MB counting from int64
    # token offsets, and 76.9 MB (83.2 with a long path and no bytecode
    # cache) from uint8 partial sums.
    fields = np.add.reduceat(first, lines, dtype=np.int64)
    fields = fields[fields > 0]
    # fromstring reads whitespace alone as one 0 unless given the count
    values = np.fromstring(data, dtype=np.int64, count=int(fields.sum()), sep=" ")
    if values.max(initial=0) == _MAX_ID:  # strtoll clamps an overflow to 2**63 - 1
        return None
    return values, fields


def _read_lines(path: Path, weighted: bool):
    """(ids, fields, weights, error) of ``path`` read line by line: the
    lines' ids end to end as int64, each line's id count and its weight
    (``weighted`` for an edge file, '<src> <dst> [weight]'; else 1.0).  Reading
    stops at the first token that does not convert: ``error`` is then its
    GraphFormatError, else None, and the arrays hold what comes before it,
    an edge line only whole."""
    ids, fields, weights = array("q"), array("q"), array("d")
    error = None
    for lineno, toks in _tokens(path):
        # the quick conversion; where it fails, _parse_line reads the line
        # again and words its first bad token
        try:
            if weighted:
                u, v, w = toks if len(toks) == 3 else (*toks, "1")
                line, weight = [int(u), int(v)], float(w)
            else:
                line, weight = list(map(int, toks)), 1.0
            if min(line) < 0:
                raise ValueError
            ids.fromlist(line)  # OverflowError from 2**63 up, leaving ids as they were
        except (ValueError, OverflowError):
            line, weight = [], 1.0
            try:
                weight = _parse_line(toks, path, lineno, weighted, line)
            except GraphFormatError as exc:
                error = exc
                if weighted or not line:  # an edge line counts only whole
                    break
            ids.fromlist(line)
        fields.append(len(line))
        weights.append(weight)
        if error is not None:
            break
    return (np.frombuffer(ids, dtype=np.int64), np.frombuffer(fields, dtype=np.int64),
            np.frombuffer(weights), error)


def _parse_line(toks: list[str], path: Path, lineno: int, weighted: bool, ids: list) -> float:
    """The weight of a line: an edge line's '<src> <dst> [weight]' (1.0 when
    none is given), or 1.0 for an attribute line's '<node-id> <attr-id> ...'.
    Its ids are appended to ``ids`` as each is read, and its first bad field
    raises GraphFormatError."""
    if weighted and len(toks) not in (2, 3):
        raise GraphFormatError(
            f"{path}:{lineno}: expected '<src> <dst> [weight]', got {len(toks)} fields"
        )
    for k, token in enumerate(toks[:2] if weighted else toks):
        ids.append(_parse_id(token, path, lineno, "attribute" if k and not weighted else "node"))
    if not weighted or len(toks) == 2:
        return 1.0
    try:
        return float(toks[2])
    except ValueError:
        raise GraphFormatError(f"{path}:{lineno}: weight {toks[2]!r} is not a number") from None


def _read_edges(path: Path):
    """(src, dst, weight, error) of the edge lines in file order, with
    ``_read_lines``' error."""
    plain = _read_plain(path)
    if plain is not None and (plain[1] == 2).all():
        flat = plain[0]
        return flat[0::2], flat[1::2], np.ones(len(flat) // 2), None
    flat, _, weight, error = _read_lines(path, weighted=True)
    return flat[0::2], flat[1::2], weight, error


def _read_attributes(path: Path):
    """(nodes, attr_node, attr_id, fields, error) of the attribute lines in
    file order: each line's node id, one (node, attribute) pair per attribute
    token and each line's token count, with ``_read_lines``' error."""
    read = _read_plain(path)
    error = None
    if read is None:
        *read, _, error = _read_lines(path, weighted=False)
    flat, fields = read
    starts = np.cumsum(fields) - fields
    is_attr = np.ones(len(flat), dtype=bool)
    is_attr[starts] = False
    nodes = flat[starts]
    return nodes, np.repeat(nodes, fields - 1), flat[is_attr], fields, error


def _first_outside(ids: np.ndarray, count: int | None) -> int:
    """The position of the first id at or past a declared count, or the
    number of ids if none is."""
    if count is None or ids.max(initial=-1) < count:
        return len(ids)
    return int(np.argmax(ids >= count))


def _reject_lines(path: Path, found: list, error) -> None:
    """Raise the error of a file's first bad line: of ``found``, (line,
    problem) pairs for the converted lines (counted from 0 over the lines
    ``_tokens`` yields) listed in the order a line is checked, the first on
    the earliest line; or else the reader's ``error``, which comes after them."""
    if found:
        line, problem = min(found, key=itemgetter(0))
        lineno = next(islice(_tokens(path), line, None))[0]
        raise GraphFormatError(f"{path}:{lineno}: {problem}")
    if error is not None:
        raise error


def _parse(edge_path: Path, attr_path: Path, label_path, node_count, attribute_count):
    """The arguments of ``from_edges`` for the documented text files.

    Each file is converted to arrays and each value rule checked on them as
    a whole; only a file that breaks one is read again, up to its first bad
    line, to number that line.
    """
    src, dst, weight, error = _read_edges(edge_path)
    ok = np.isfinite(weight) & (weight > 0)
    found = [(k, problem) for k, problem in (
        (len(ok) if ok.all() else int(np.argmin(ok)), "weight must be a positive finite number"),
        (min(_first_outside(src, node_count), _first_outside(dst, node_count)),
         f"node id exceeds declared node count {node_count}")) if k < len(weight)]
    del ok
    loop = src == dst
    lo, hi, w = np.minimum(src, dst)[~loop], np.maximum(src, dst)[~loop], weight[~loop]
    order = _pair_order(lo, hi)
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(lo[order]) != 0) | (np.diff(hi[order]) != 0)
    # a line repeating an edge repeats the weight of its first line
    repeats = order[w[order] != w[order[first]][np.cumsum(first) - 1]]
    if len(repeats):
        j = repeats.min()
        k = np.flatnonzero(~loop)[j]
        found.append((k, f"edge ({src[k]}, {dst[k]}) repeated with conflicting weight {w[j]} "
                         f"(previously {w[np.argmax((lo == lo[j]) & (hi == hi[j]))]})"))
    _reject_lines(edge_path, found, error)
    self_loops = int(loop.sum())
    if self_loops:
        log.warning("%s: dropped %d self-loop line(s)", edge_path, self_loops)
    keep = np.sort(order[first])  # each edge once, in the order of its first line

    nodes, attr_node, attr_id, fields, error = _read_attributes(attr_path)
    k, a = _first_outside(nodes, node_count), _first_outside(attr_id, attribute_count)
    found = [] if k == len(nodes) else [
        (k, f"node id {nodes[k]} exceeds declared node count {node_count}")]
    if a < len(attr_id):  # on the line of the a-th attribute token
        found.append((np.searchsorted(np.cumsum(fields - 1), a, side="right"),
                      f"attribute id {attr_id[a]} exceeds declared attribute count "
                      f"{attribute_count}"))
    _reject_lines(attr_path, found, error)
    del fields

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
