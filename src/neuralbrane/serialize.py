"""Embedding table container and its text / binary file formats.

Text format: a header line ``<n> <dim>`` followed by one line per node,
``<node-id> <v_1> ... <v_dim>`` with 9 significant digits.  The text reader
rejects rows past the header's count and repeated node ids; both readers
reject non-finite values.

Binary format (little-endian): magic ``NBRN``, version u32 (1), n u32,
dim u32, then n*dim row-major float64 values.  Rows are implicitly nodes
0..n-1.  Checkpoints use the same container with other dims and versions
(``model.save_checkpoint``); a file must end where the payload its header
declares ends.

Both writers take the table as row blocks: consecutive ``EmbeddingTable``s
whose rows, end to end, are the whole table, so a caller that computes the
rows a block at a time never holds all of them.  A whole table is one block.
"""

from __future__ import annotations

import os
import struct
from array import array
from dataclasses import dataclass, field
from itertools import chain, islice
from pathlib import Path

import numpy as np

from .graph import open_text

MAGIC = b"NBRN"
EMBEDDING_VERSION = 1


class SerializationError(ValueError):
    """A stored embedding or checkpoint file is malformed."""


@dataclass
class EmbeddingTable:
    """One representation vector per node: row u embeds node ids[u]."""

    vectors: np.ndarray
    ids: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        self.vectors = np.asarray(self.vectors, dtype=np.float64)
        if self.vectors.ndim != 2:
            raise SerializationError("embedding table must be a 2-d matrix")
        if self.ids is None:
            self.ids = np.arange(self.vectors.shape[0], dtype=np.int64)
        else:
            self.ids = np.asarray(self.ids, dtype=np.int64)
        if len(self.ids) != self.vectors.shape[0]:
            raise SerializationError("id column length does not match row count")

    @property
    def node_count(self) -> int:
        return self.vectors.shape[0]

    @property
    def dim(self) -> int:
        return self.vectors.shape[1]


def _write_blocks(blocks, shape, write) -> None:
    """Call ``write(block, start)`` on each block of ``blocks`` (a lone table
    is one block), with ``start`` the rows written before it, and check that
    they make an (n, dim) = ``shape`` table.  No block is held while the
    next one is made."""
    if isinstance(blocks, EmbeddingTable):
        blocks = (blocks,)
    n, dim = shape
    start = 0
    for block in blocks:
        if block.dim != dim:
            raise SerializationError(f"a block of {block.dim} columns in a table of {dim}")
        write(block, start)
        start += block.node_count
        del block
    if start != n:
        raise SerializationError(f"the blocks hold {start} rows, the table {n}")


def write_embedding_text(blocks, path, shape=None) -> None:
    """Write ``blocks``, a table or consecutive tables that make up an
    (n, dim) = ``shape`` table, in the text format."""
    n, dim = shape = shape or blocks.vectors.shape
    row_format = "%d " + " ".join(["%.9g"] * dim) + "\n"
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{n} {dim}\n")

        def write(block, start):
            for node_id, row in zip(block.ids.tolist(), block.vectors):
                fh.write(row_format % (node_id, *row.tolist()))

        _write_blocks(blocks, shape, write)


def read_embedding_text(path) -> EmbeddingTable:
    path = Path(path)
    with open_text(path, SerializationError) as fh:
        n, dim = _read_header(path, fh)
        rows = _read_rows(fh, n, dim) if n >= 0 and dim >= 0 else None
        if rows is None:
            _check_rows(path, n, dim)
            raise RuntimeError(f"{path}: the array reader flags this file, the row checks pass it")
        for extra, line in enumerate(fh, n):
            if line.strip():
                raise SerializationError(
                    f"{path}: row {extra} is past the {n} rows the header declares"
                )
    ids, vectors = rows
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if len(repeats):
        row = int(repeats.min())
        raise SerializationError(f"{path}: row {row} repeats node id {ids[row]}")
    _check_finite(path, vectors)
    return EmbeddingTable(vectors=vectors, ids=ids)


def _read_header(path: Path, fh) -> tuple[int, int]:
    header = fh.readline().split()
    if len(header) != 2:
        raise SerializationError(f"{path}: expected '<n> <dim>' header")
    try:
        return int(header[0]), int(header[1])
    except ValueError:
        raise SerializationError(f"{path}: non-integer header fields") from None


def _read_rows(fh, n: int, dim: int):
    """(ids, vectors) of the ``n`` rows after the header, all values through
    one ``np.fromiter(map(float, …))`` with the exact count, so the table is
    allocated once and no list of the file's tokens is built, and the ids
    into an int64 array as each row is split; None if the file ends early, a
    row has the wrong number of fields or a token does not convert."""
    ids = array("q")

    def values(line: str) -> list[str]:
        toks = line.split()
        if len(toks) != dim + 1:
            raise ValueError
        ids.append(int(toks[0]))
        return toks[1:]

    rows = map(values, islice(fh, n))
    try:
        vectors = np.fromiter(map(float, chain.from_iterable(rows)), dtype=np.float64,
                              count=n * dim)
        for _ in rows:  # with dim 0 the values take no row
            pass
    except (ValueError, OverflowError):
        return None
    if len(ids) != n:
        return None
    return np.frombuffer(ids, dtype=np.int64), vectors.reshape(n, dim)


def _check_rows(path: Path, n: int, dim: int) -> None:
    """Raise the error of the first bad row of a file the array reader
    flagged, found by reading its rows again one at a time."""
    ids = np.empty(n, dtype=np.int64)
    vectors = np.empty((n, dim), dtype=np.float64)
    with open_text(path, SerializationError) as fh:
        fh.readline()
        for row in range(n):
            toks = fh.readline().split()
            if len(toks) != dim + 1:
                raise SerializationError(
                    f"{path}: row {row} has {len(toks)} fields, expected {dim + 1}"
                )
            try:
                ids[row] = int(toks[0])
                vectors[row] = [float(t) for t in toks[1:]]
            except (ValueError, OverflowError) as exc:
                raise SerializationError(
                    f"{path}: row {row} holds a bad number ({exc})"
                ) from None


def _check_finite(path, vectors: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if len(bad):
        raise SerializationError(f"{path}: row {bad[0]} holds a non-finite value")


def write_nbrn(fh, version: int, dims, blocks=()) -> None:
    """Write the NBRN container to the binary file ``fh``: magic, u32
    ``version``, the u32 ``dims``, then each array of ``blocks`` row-major as
    little-endian float64 (from the array's own buffer, where it has that
    layout, with no copy of its bytes)."""
    fh.write(MAGIC)
    fh.write(struct.pack(f"<{len(dims) + 1}I", version, *dims))
    for block in blocks:
        fh.write(np.ascontiguousarray(block, dtype="<f8"))


def read_nbrn(path, layouts: dict, payload_size) -> tuple[int, tuple[int, ...], np.ndarray]:
    """Read an NBRN container whose version is a key of ``layouts``, which
    gives the number of u32 dims that version has, and whose float64 payload
    holds ``payload_size(*dims)`` values; returns (version, dims, flat payload).

    The file must be exactly that long, so a short file or trailing bytes
    raise SerializationError.  The length is checked before the version, by
    the newest layout for a version not in ``layouts``: an NBRN file of the
    other kind (a checkpoint read as an embedding, say) reads as the wrong
    length, and only a file of the right length reads as the wrong version.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise SerializationError(f"{path}: bad magic {magic!r}")
        head = fh.read(4)
        version = struct.unpack("<I", head)[0] if len(head) == 4 else None
        fields = layouts.get(version, layouts[max(layouts)])
        header = fh.read(4 * fields)
        if version is None or len(header) != 4 * fields:
            raise SerializationError(f"{path}: truncated header")
        dims = struct.unpack(f"<{fields}I", header)
        count = payload_size(*dims)
        extra = os.fstat(fh.fileno()).st_size - fh.tell() - 8 * count
        if extra < 0:
            raise SerializationError(f"{path}: truncated payload")
        if extra > 0:
            raise SerializationError(f"{path}: {extra} trailing bytes after the payload")
        if version not in layouts:
            raise SerializationError(f"{path}: unsupported version {version}")
        payload = np.empty(count, dtype="<f8")
        fh.readinto(payload)
    return version, dims, payload


def write_embedding_binary(blocks, path, shape=None) -> None:
    """Write ``blocks``, a table or consecutive tables that make up an
    (n, dim) = ``shape`` table with ids 0..n-1 in order, in the binary format."""
    shape = shape or blocks.vectors.shape

    def write(block, start):
        if not np.array_equal(block.ids, np.arange(start, start + block.node_count)):
            raise SerializationError("binary embedding format requires ids 0..n-1")
        fh.write(np.ascontiguousarray(block.vectors, dtype="<f8"))

    with Path(path).open("wb") as fh:
        write_nbrn(fh, EMBEDDING_VERSION, shape)
        _write_blocks(blocks, shape, write)


def read_embedding_binary(path) -> EmbeddingTable:
    _, (n, dim), payload = read_nbrn(path, {EMBEDDING_VERSION: 2}, lambda n, dim: n * dim)
    vectors = payload.reshape(n, dim)
    _check_finite(path, vectors)
    return EmbeddingTable(vectors=vectors)


def read_embedding(path) -> EmbeddingTable:
    """Load an embedding file, sniffing text versus binary by magic bytes."""
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
    if magic == MAGIC:
        return read_embedding_binary(path)
    return read_embedding_text(path)
