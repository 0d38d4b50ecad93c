"""Embedding table container and its text / binary file formats.

Text format: a header line ``<n> <dim>`` followed by one line per node,
``<node-id> <v_1> ... <v_dim>``: the bytes of ``'%d'`` and ``'%.9g'``.  The
writer formats them in numpy (``_format_rows``), a sub-block of rows at a
time.  The text reader rejects rows past the header's count and repeated
node ids.  Both writers refuse, and both readers reject, a non-finite value.

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

import contextlib
import functools
import os
import stat
import struct
from dataclasses import dataclass, field
from itertools import chain, islice, repeat
from pathlib import Path
from typing import NamedTuple

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


def all_finite(array: np.ndarray) -> bool:
    """Whether ``array`` holds no NaN or infinity, found without an array of
    its size (NaN and the infinities reach its min or max)."""
    return array.size == 0 or bool(np.isfinite(array.min()) and np.isfinite(array.max()))


def _write_blocks(blocks, shape, write, path) -> None:
    """Call ``write(block, start)`` on each block of ``blocks`` (a lone table
    is one block), with ``start`` the rows written before it, and check that
    they make an (n, dim) = ``shape`` table of finite values.  No block is
    held while the next one is made."""
    if isinstance(blocks, EmbeddingTable):
        blocks = (blocks,)
    n, dim = shape
    start = 0
    for block in blocks:
        if block.dim != dim:
            raise SerializationError(f"a block of {block.dim} columns in a table of {dim}")
        if not all_finite(block.vectors):
            row = np.flatnonzero(~np.isfinite(block.vectors).all(axis=1))[0]
            raise SerializationError(
                f"{path}: the embedding of node {block.ids[row]} holds a non-finite value"
            )
        write(block, start)
        start += block.node_count
        del block
    if start != n:
        raise SerializationError(f"the blocks hold {start} rows, the table {n}")


@contextlib.contextmanager
def _output(path):
    """``path`` opened for binary writing, and removed again if the write
    fails, so that a refused block leaves no partial file behind.  Only a
    regular file is removed: a device such as /dev/null, or a symlink, stays."""
    fh = Path(path).open("wb")
    try:
        with fh:
            yield fh
    except BaseException:
        if stat.S_ISREG(os.lstat(path).st_mode):
            os.remove(path)
        raise


def write_embedding_text(blocks, path, shape=None) -> None:
    """Write ``blocks``, a table or consecutive tables that make up an
    (n, dim) = ``shape`` table, in the text format, one ``write`` per
    ``_FORMAT_ROWS`` rows."""
    n, dim = shape = shape or blocks.vectors.shape
    with _output(path) as fh:
        fh.write(b"%d %d\n" % (n, dim))

        def write(block, start):
            for row in range(0, block.node_count, _FORMAT_ROWS):
                fh.write(_format_rows(block.ids[row:row + _FORMAT_ROWS],
                                      block.vectors[row:row + _FORMAT_ROWS]))

        _write_blocks(blocks, shape, write, path)


# The text kernel.  Each value v of a row gets a 16-byte cell, two uint64
# words (byte j of the cell is byte j % 8 of word j // 8, little-endian),
# that holds its text padded with NUL bytes, which are then dropped.  Take v
# = +-M * 10**(X - 8), M its 9 significant digits (10**8 <= M < 10**9) and X
# its decimal exponent after rounding.  For X in [-4, 8] '%.9g' writes v in
# positional form: with D = "0000" + M (13 digits), D[:5 + X] with its
# leading zeros dropped (one kept before the point), '.', then D[5 + X:]
# with its trailing zeros dropped, and no '.' if none is left.  So a cell
# is built from two copies of ' ' + sign + D: A with D at byte 2, and B, A
# shifted one byte up.  A gives the bytes before the point (byte 7 + X) and
# B those after it, under masks looked up by (class of X, trailing zeros of
# M) that also drop the zeros and the point '%.9g' drops.
#
# M comes from one product |v| * 10**(8 - X), exact as 10**(8 - X) <= 10**12
# is, so it is at most 2**-24 from the real product.  Where that is within
# _MARGIN of a rounding half-way point (or above _MANTISSA_MAX, where M would
# carry into another decade), and where '%.9g' writes an exponent (X < -4 or
# X > 8), the cell holds a _FALLBACK byte and the value's text comes from
# '%.9g' itself.  Zero has a class of its own, whose cell is ' ' + sign + '0'.

_FORMAT_ROWS = 32  # rows per sub-block: at dim 150 each temporary is 38 KB, all in cache
_MARGIN = 1e-6
_MANTISSA_MAX = 999999999.0
_FALLBACK = b"\x01"


def _word(text: bytes) -> int:
    """``text``, at most 8 bytes, as the uint64 it fills (NUL-padded)."""
    return int.from_bytes(text.ljust(8, b"\0"), "little")


class _Tables(NamedTuple):
    digits: np.ndarray  # per g < 10000, '%04d' % g in the low 4 bytes
    digits_high: np.ndarray  # the same in the high 4 bytes
    trailing_zeros: np.ndarray  # of '%04d' % g
    lead: np.ndarray  # per (sign, first digit of M), the cell's word 0 before the digits of D[5:]
    class_base: np.ndarray  # per biased binary exponent of |v|
    class_threshold: np.ndarray
    scale: np.ndarray  # per class: 10**(8 - X); NaN for the exponent forms
    masks: tuple[np.ndarray, ...]  # A's, B's and the constant bytes, per (class, zeros)
    fallback_cell: np.ndarray


@functools.cache
def _tables() -> _Tables:
    """The kernel's lookup tables, built at the first text write, so that a
    command that writes none does not build them or touch the numpy code
    that builds them (`embed` has its peak memory before it writes)."""
    groups = np.arange(10000)
    digits = np.zeros((10000, 8), dtype=np.uint8)
    zeros = np.zeros(10000, dtype=np.int8)
    for place in range(4):
        digits[:, 3 - place] = groups // 10 ** place % 10 + ord("0")
        zeros += groups % 10 ** (place + 1) == 0
    digits = digits.view(np.uint64)[:, 0]

    # Classes: 0 zero, 1 X < -4, X + 6 for X in [-4, 8], 15 X > 8.  A value
    # is in the class of the least value of its binary exponent, or one up
    # from the threshold 10**(X + 1).  That threshold, the double nearest
    # 10**(X + 1), may put a value within an ulp of it one class off: its
    # product then lands past _MANTISSA_MAX, or rounds to 10**8, the digits
    # of the right class.
    low = np.floor((np.arange(2048) - 1023) * np.log10(2)).astype(np.int64)  # exact here
    base = np.clip(low, -5, 9) + 6
    threshold = np.array([float("1e%d" % (x + 1)) if -5 <= x <= 8 else np.inf for x in low])
    base[0], threshold[0] = 0, 5e-324  # zero, and the subnormals, which are below 1e-4

    cells = np.zeros((16, 9, 3, 16), dtype=np.uint8)  # (class, zeros of M, A/B/constant, byte)
    cells[:, :, 0, :2] = 0xFF  # ' ' and the sign
    cells[0, :, 2, 6] = ord("0")
    for x in range(-4, 9):
        for trailing in range(9):
            kept = max(8 - x - trailing, 0)  # digits after the point
            a, b, const = cells[x + 6, trailing]
            a[6 + min(x, 0):7 + x] = 0xFF
            b[8 + x:8 + x + kept] = 0xFF
            if kept:
                const[7 + x] = ord(".")
    # a complex128 holds both words of a row's mask: one take gathers them
    masks = tuple(np.ascontiguousarray(cells[:, :, i]).reshape(-1, 16).view(np.complex128)[:, 0]
                  for i in range(3))

    return _Tables(
        digits=digits,
        digits_high=digits << np.uint64(32),
        trailing_zeros=zeros,
        lead=np.array([_word(b" " + sign + b"0000" + b"%d" % d)
                       for sign in (b"\0", b"-") for d in range(10)], dtype=np.uint64),
        class_base=base,
        class_threshold=threshold,
        scale=np.array([1.0, np.nan, *(10.0 ** (8 - x) for x in range(-4, 9)), np.nan]),
        masks=masks,
        fallback_cell=np.array([_word(b" " + _FALLBACK), 0], dtype=np.uint64),
    )


def _format_cells(v: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """Write the cells of the finite values ``v`` (1-d) into ``cells`` (n, 2)
    uint64; return the positions of the values left to '%.9g'.  Each
    temporary is dropped, or reused, once it is spent, so that few of them,
    8 or 16 bytes a value each, are alive at once."""
    t = _tables()
    scaled = np.abs(v)
    e = scaled.view(np.int64) >> 52
    row = t.class_base.take(e)  # the class, then the mask row
    row += scaled >= t.class_threshold.take(e)
    del e
    scaled *= t.scale.take(row)
    mantissa = np.rint(scaled)
    exact = np.abs(scaled - mantissa) <= 0.5 - _MARGIN  # False for NaN
    exact &= scaled <= _MANTISSA_MAX
    del scaled
    np.fmin(mantissa, _MANTISSA_MAX, out=mantissa)
    g2 = mantissa.astype(np.int64)
    del mantissa
    g1 = g2 // 10000
    g2 -= g1 * 10000
    g0 = g1 // 10000
    g1 -= g0 * 10000
    row *= 9
    row += t.trailing_zeros.take(g2)
    row += t.trailing_zeros.take(g1) * (g2 == 0)
    d5 = t.digits.take(g1)  # D[5:13]
    d5 |= t.digits_high.take(g2)
    del g1, g2
    g0 += np.signbit(v) * 10
    cells[:, 0] = t.lead.take(g0)  # A
    del g0
    cells[:, 0] |= d5 << np.uint64(56)
    np.right_shift(d5, np.uint64(8), out=cells[:, 1])
    b_cell = np.empty_like(cells)
    np.left_shift(cells[:, 0], np.uint64(8), out=b_cell[:, 0])
    b_cell[:, 1] = d5
    del d5

    def mask(i):  # t.masks[i] by row, as (n, 2) uint64
        return t.masks[i].take(row).view(np.uint64).reshape(-1, 2)

    b_cell &= mask(1)
    cells &= mask(0)
    cells |= b_cell
    del b_cell
    cells |= mask(2)
    fallback = np.flatnonzero(~exact)
    cells[fallback] = t.fallback_cell
    return fallback


def _format_rows(ids: np.ndarray, vectors: np.ndarray) -> bytes:
    """The text lines of the rows ``vectors`` (finite values) with node ids
    ``ids``: the bytes of ``'%d ' % id + ' '.join('%.9g' % v ...) + '\\n'``."""
    k, dim = vectors.shape
    flat = vectors.reshape(-1)
    cells = np.empty((len(flat), 2), dtype=np.uint64)
    fallback = _format_cells(flat, cells)
    # per row: the id (24 bytes), dim cells, '\n' (' \n' after an id alone)
    lines = np.empty((k, 3 + 2 * dim + 1), dtype=np.uint64)
    lines[:, :3] = np.frombuffer(b"".join((b"%d" % i).ljust(24, b"\0") for i in ids.tolist()),
                                 dtype=np.uint64).reshape(k, 3)
    lines[:, 3:-1] = cells.reshape(k, 2 * dim)
    del cells
    lines[:, -1] = _word(b"\n" if dim else b" \n")
    text = lines.tobytes().translate(None, b"\0")
    del lines
    if not len(fallback):
        return text
    pieces = [b""] * (2 * len(fallback) + 1)
    pieces[::2] = text.split(_FALLBACK)
    pieces[1::2] = [b"%.9g" % x for x in flat[fallback].tolist()]
    return b"".join(pieces)


def read_embedding_text(path) -> EmbeddingTable:
    path = Path(path)
    with open_text(path, SerializationError) as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise SerializationError(f"{path}: expected '<n> <dim>' header")
        try:
            n, dim = int(header[0]), int(header[1])
        except ValueError:
            raise SerializationError(f"{path}: non-integer header fields") from None
        if n < 0 or dim < 0:
            raise SerializationError(f"{path}: negative count in the '<n> <dim>' header")
        # a row is dim + 1 tokens, each a byte or more and followed by a space
        # or newline, the last row's perhaps not; refused before any allocation
        held = os.fstat(fh.fileno())
        need = 2 * n * (dim + 1) - 1
        if stat.S_ISREG(held.st_mode) and n and need > held.st_size:
            raise SerializationError(f"{path}: header '{n} {dim}' needs at least {need} bytes "
                                     f"of rows, and the file has {held.st_size}")
        # nor a table no array can hold, which n = 0 or a pipe leaves unchecked
        if max(n, 1) * max(dim, 1) > np.iinfo(np.intp).max // 8:
            raise SerializationError(f"{path}: header '{n} {dim}' declares more values "
                                     "than an array can hold")
        ids, vectors = _read_rows(path, fh, n, dim)
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


def _read_rows(path: Path, fh, n: int, dim: int) -> tuple[np.ndarray, np.ndarray]:
    """(ids, vectors) of the ``n`` rows after the header, all values through
    one ``np.fromiter(map(float, …))`` with the exact count, so the table is
    allocated once and no list of the file's tokens is built, and each id
    stored as its row is split.  SerializationError names the first bad row:
    one with the wrong number of fields (a row past the end of the file has
    none), or one holding a token that does not convert."""
    ids = np.empty(n, dtype=np.int64)
    row = -1

    def values(line: str) -> list[str]:
        nonlocal row
        row += 1
        toks = line.split()
        if len(toks) != dim + 1:
            raise SerializationError(
                f"{path}: row {row} has {len(toks)} fields, expected {dim + 1}"
            )
        ids[row] = int(toks[0])
        return toks[1:]

    rows = map(values, islice(chain(fh, repeat("")), n))
    try:
        vectors = np.fromiter(map(float, chain.from_iterable(rows)), dtype=np.float64,
                              count=n * dim)
        for _ in rows:  # with dim 0 the values take no row
            pass
    except SerializationError:
        raise
    except (ValueError, OverflowError) as exc:
        raise SerializationError(f"{path}: row {row} holds a bad number ({exc})") from None
    return ids, vectors.reshape(n, dim)


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

    with _output(path) as fh:
        write_nbrn(fh, EMBEDDING_VERSION, shape)
        _write_blocks(blocks, shape, write, path)


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
