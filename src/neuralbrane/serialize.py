"""Embedding table container and its text / binary file formats.

Text format: a header line ``<n> <dim>`` followed by one line per node,
``<node-id> <v_1> ... <v_dim>`` with 9 significant digits.  The text reader
rejects rows past the header's count and repeated node ids; both readers
reject non-finite values.

Binary format (little-endian): magic ``NBRN``, version u32, n u32, dim u32,
then n*dim row-major float64 values.  Rows are implicitly nodes 0..n-1.
Checkpoints use the same container with other dims (``model.save_checkpoint``);
a file must end where the payload its header declares ends.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

MAGIC = b"NBRN"
FORMAT_VERSION = 1


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

    def has_contiguous_ids(self) -> bool:
        return bool(np.array_equal(self.ids, np.arange(self.node_count)))


def write_embedding_text(table: EmbeddingTable, path) -> None:
    row_format = "%d " + " ".join(["%.9g"] * table.dim) + "\n"
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{table.node_count} {table.dim}\n")
        for node_id, row in zip(table.ids.tolist(), table.vectors):
            fh.write(row_format % (node_id, *row.tolist()))


def read_embedding_text(path) -> EmbeddingTable:
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise SerializationError(f"{path}: expected '<n> <dim>' header")
        try:
            n, dim = int(header[0]), int(header[1])
        except ValueError:
            raise SerializationError(f"{path}: non-integer header fields") from None
        ids = np.empty(n, dtype=np.int64)
        vectors = np.empty((n, dim), dtype=np.float64)
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
                raise SerializationError(f"{path}: row {row} holds a bad number ({exc})") from None
        for extra, line in enumerate(fh, n):
            if line.strip():
                raise SerializationError(
                    f"{path}: row {extra} is past the {n} rows the header declares"
                )
    order = np.argsort(ids, kind="stable")
    repeats = order[1:][ids[order[1:]] == ids[order[:-1]]]
    if len(repeats):
        row = int(repeats.min())
        raise SerializationError(f"{path}: row {row} repeats node id {ids[row]}")
    _check_finite(path, vectors)
    return EmbeddingTable(vectors=vectors, ids=ids)


def _check_finite(path, vectors: np.ndarray) -> None:
    bad = np.flatnonzero(~np.isfinite(vectors).all(axis=1))
    if len(bad):
        raise SerializationError(f"{path}: row {bad[0]} holds a non-finite value")


def write_nbrn(path, dims, blocks) -> None:
    """Write the NBRN container: magic, u32 version, the u32 ``dims``, then
    each array of ``blocks`` row-major as little-endian float64."""
    with Path(path).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack(f"<{len(dims) + 1}I", FORMAT_VERSION, *dims))
        for block in blocks:
            fh.write(np.ascontiguousarray(block, dtype="<f8").tobytes())


def read_nbrn(path, fields: int, payload_size) -> tuple[tuple[int, ...], np.ndarray]:
    """Read an NBRN container with ``fields`` u32 dims, whose float64 payload
    holds ``payload_size(*dims)`` values; returns (dims, flat payload).

    The file must be exactly that long, so a short file or trailing bytes
    (an NBRN file of the other kind, say) raise SerializationError.
    """
    path = Path(path)
    with path.open("rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise SerializationError(f"{path}: bad magic {magic!r}")
        header = fh.read(4 * (fields + 1))
        if len(header) != 4 * (fields + 1):
            raise SerializationError(f"{path}: truncated header")
        version, *dims = struct.unpack(f"<{fields + 1}I", header)
        if version != FORMAT_VERSION:
            raise SerializationError(f"{path}: unsupported version {version}")
        count = payload_size(*dims)
        extra = os.fstat(fh.fileno()).st_size - fh.tell() - 8 * count
        if extra < 0:
            raise SerializationError(f"{path}: truncated payload")
        if extra > 0:
            raise SerializationError(f"{path}: {extra} trailing bytes after the payload")
        payload = np.empty(count, dtype="<f8")
        fh.readinto(payload)
    return tuple(dims), payload


def write_embedding_binary(table: EmbeddingTable, path) -> None:
    if not table.has_contiguous_ids():
        raise SerializationError("binary embedding format requires ids 0..n-1")
    write_nbrn(path, (table.node_count, table.dim), [table.vectors])


def read_embedding_binary(path) -> EmbeddingTable:
    (n, dim), payload = read_nbrn(path, 2, lambda n, dim: n * dim)
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
