import math
import os
import struct
import threading
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbrane.model import ModelParameters, init_parameters, load_checkpoint, save_checkpoint
from neuralbrane.serialize import (
    EmbeddingTable,
    SerializationError,
    _format_rows,
    read_embedding,
    read_embedding_binary,
    read_embedding_text,
    write_embedding_binary,
    write_embedding_text,
)

from .oracles import (
    percent_text_rows,
    rowwise_read_embedding_text,
    whole_table_write_embedding_binary,
)


def test_text_round_trip(tmp_path, rng):
    table = EmbeddingTable(vectors=rng.normal(size=(6, 4)))
    path = tmp_path / "emb.txt"
    write_embedding_text(table, path)
    loaded = read_embedding_text(path)
    assert loaded.node_count == 6 and loaded.dim == 4
    assert loaded.ids.tolist() == list(range(6))
    # text format keeps 9 significant digits
    np.testing.assert_allclose(loaded.vectors, table.vectors, rtol=1e-8)


def test_text_header(tmp_path, rng):
    table = EmbeddingTable(vectors=rng.normal(size=(3, 2)))
    path = tmp_path / "emb.txt"
    write_embedding_text(table, path)
    assert path.read_text().splitlines()[0] == "3 2"


def test_binary_round_trip_exact(tmp_path, rng):
    table = EmbeddingTable(vectors=rng.normal(size=(5, 7)))
    path = tmp_path / "emb.bin"
    write_embedding_binary(table, path)
    loaded = read_embedding_binary(path)
    assert np.array_equal(loaded.vectors, table.vectors)
    assert path.read_bytes()[:4] == b"NBRN"


def test_sniffing_dispatch(tmp_path, rng):
    table = EmbeddingTable(vectors=rng.normal(size=(4, 3)))
    write_embedding_text(table, tmp_path / "t.txt")
    write_embedding_binary(table, tmp_path / "t.bin")
    assert np.array_equal(read_embedding(tmp_path / "t.bin").vectors, table.vectors)
    np.testing.assert_allclose(
        read_embedding(tmp_path / "t.txt").vectors, table.vectors, rtol=1e-8
    )


def test_binary_requires_contiguous_ids(tmp_path, rng):
    table = EmbeddingTable(vectors=rng.normal(size=(3, 2)), ids=np.array([5, 1, 2]))
    with pytest.raises(SerializationError, match="ids"):
        write_embedding_binary(table, tmp_path / "x.bin")


def test_corrupt_files_rejected(tmp_path):
    (tmp_path / "bad.bin").write_bytes(b"XXXX" + b"\0" * 16)
    with pytest.raises(SerializationError, match="magic"):
        read_embedding_binary(tmp_path / "bad.bin")
    (tmp_path / "bad.txt").write_text("2 3\n0 1.0 2.0\n")
    with pytest.raises(SerializationError):
        read_embedding_text(tmp_path / "bad.txt")


@pytest.mark.parametrize("header, need", [
    ("4000000000 2", "23999999999"),
    ("99999999999999999999 2", "599999999999999999993"),
    ("1 99999999999999999999", "199999999999999999999"),
    ("3 2", "17"),
])
def test_text_header_count_past_the_file_rejected_before_allocating(tmp_path, header, need):
    path = tmp_path / "big.txt"
    path.write_text(f"{header}\n0 1 2\n")
    size = path.stat().st_size
    with patch("neuralbrane.serialize._read_rows", side_effect=AssertionError("allocated")):
        with pytest.raises(SerializationError) as raised:
            read_embedding_text(path)
    assert str(raised.value) == (f"{path}: header '{header}' needs at least {need} bytes of rows, "
                                 f"and the file has {size}")


@pytest.mark.parametrize("header", [
    "0 99999999999999999999", "0 9000000000000000000", "0 1152921504606846976",
])
def test_text_header_dim_no_array_can_hold_rejected_before_allocating(tmp_path, header):
    # no row bytes are needed for n = 0, but numpy cannot shape a table of
    # rows of more than 2**63 bytes, even an empty one
    path = tmp_path / "wide.txt"
    path.write_text(f"{header}\n")
    with patch("neuralbrane.serialize._read_rows", side_effect=AssertionError("allocated")):
        with pytest.raises(SerializationError) as raised:
            read_embedding_text(path)
    assert str(raised.value) == (f"{path}: header '{header}' declares more values "
                                 "than an array can hold")


def test_text_header_dim_at_the_array_limit_reads_an_empty_table(tmp_path):
    path = tmp_path / "wide.txt"
    path.write_text(f"0 {np.iinfo(np.intp).max // 8}\n")
    assert read_embedding_text(path).vectors.shape == (0, np.iinfo(np.intp).max // 8)


def test_text_rows_of_one_byte_tokens_fit_the_header_bound(tmp_path):
    # each row is 2 (dim + 1) bytes, the last one less its newline
    path = tmp_path / "tight.txt"
    path.write_text("3 2\n0 1 2\n1 3 4\n2 5 6")
    assert read_embedding_text(path).vectors.tolist() == [[1, 2], [3, 4], [5, 6]]
    path.write_text("4 1\n0 1\n1 3\n2 5\n")  # one row short, within the bound
    with pytest.raises(SerializationError, match="row 3 has 0 fields, expected 2"):
        read_embedding_text(path)


def test_text_from_a_pipe_has_no_size_to_check(tmp_path):
    # a pipe reports size 0, so the header bound applies to regular files only
    path = tmp_path / "pipe"
    os.mkfifo(path)
    writer = threading.Thread(target=path.write_text, args=("2 1\n0 1.5\n1 2.5\n",),
                              daemon=True)
    writer.start()
    try:
        assert read_embedding_text(path).vectors.tolist() == [[1.5], [2.5]]
    finally:
        writer.join(timeout=10)
    assert not writer.is_alive()


def read_from_pipe(path, content: bytes) -> dict:
    """``read_embedding`` on a new pipe at ``path`` that ``content`` is
    written to once: {"table": …} or {"error": the SerializationError}.  A
    reader that opens the pipe a second time waits for a writer that has
    gone; after 10 s it is released to read an empty pipe."""
    os.mkfifo(path)
    outcome = {}

    def read():
        try:
            outcome["table"] = read_embedding(path)
        except SerializationError as exc:
            outcome["error"] = exc

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    path.write_bytes(content)
    reader.join(timeout=10)
    if reader.is_alive():
        os.close(os.open(path, os.O_WRONLY | os.O_NONBLOCK))
        reader.join(timeout=10)
    assert not reader.is_alive()
    return outcome


def test_embedding_from_a_pipe_is_opened_once(tmp_path):
    # the magic bytes are sniffed on the handle that is then read
    outcome = read_from_pipe(tmp_path / "pipe", b"2 1\n0 1.5\n1 2.5\n")
    assert outcome["table"].vectors.tolist() == [[1.5], [2.5]]


def test_binary_from_a_pipe_is_refused(tmp_path):
    # a pipe has no length to check against the header
    source = tmp_path / "emb.bin"
    write_embedding_binary(EmbeddingTable(vectors=np.array([[1.5], [2.5]])), source)
    outcome = read_from_pipe(tmp_path / "pipe", source.read_bytes())
    assert "must be a regular file" in str(outcome["error"])


def test_checkpoint_round_trip(tmp_path):
    params = init_parameters(n=6, m=9, d1=3, d2=4, h=5, seed=21)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    loaded = load_checkpoint(path)
    assert (loaded.d1, loaded.d2, loaded.h) == (3, 4, 5)
    for a, b in ((params.P, loaded.P), (params.P_prime, loaded.P_prime),
                 (params.W, loaded.W), (params.b, loaded.b)):
        assert np.array_equal(a, b)


@pytest.mark.parametrize("pooling", [None, "max", "sum"])
def test_checkpoint_records_its_pooling(tmp_path, pooling):
    # parameters that do not know their pooling are recorded as max-pooled
    path = tmp_path / "model.ckpt"
    params = init_parameters(3, 2, 1, 1, 2, seed=0)
    params.pooling = pooling
    save_checkpoint(params, path)
    assert path.read_bytes()[4:8] == (2).to_bytes(4, "little")
    loaded = load_checkpoint(path)
    assert loaded.pooling == (pooling or "max")
    save_checkpoint(loaded, tmp_path / "again.ckpt")
    assert (tmp_path / "again.ckpt").read_bytes() == path.read_bytes()


def _edit_header(path, index, value):
    """Overwrite u32 number ``index`` of the header that follows the magic."""
    data = bytearray(path.read_bytes())
    data[4 + 4 * index:8 + 4 * index] = value.to_bytes(4, "little")
    path.write_bytes(bytes(data))


def test_checkpoint_version_1_records_no_pooling(tmp_path):
    params = init_parameters(3, 2, 1, 1, 2, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    data = path.read_bytes()
    path.write_bytes(data[:4] + (1).to_bytes(4, "little") + data[8:28] + data[32:])
    loaded = load_checkpoint(path)
    assert loaded.pooling is None
    assert np.array_equal(loaded.P_prime, params.P_prime) and np.array_equal(loaded.b, params.b)


def test_checkpoint_unknown_pooling_or_version_rejected(tmp_path):
    path = tmp_path / "model.ckpt"
    save_checkpoint(init_parameters(3, 2, 1, 1, 2, seed=0), path)
    _edit_header(path, 6, 2)
    with pytest.raises(SerializationError, match="unknown pooling mode 2"):
        load_checkpoint(path)
    _edit_header(path, 0, 3)
    with pytest.raises(SerializationError, match="unsupported version 3"):
        load_checkpoint(path)


def test_checkpoint_magic(tmp_path):
    params = init_parameters(2, 2, 1, 1, 1, seed=0)
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    assert path.read_bytes()[:4] == b"NBRN"
    (tmp_path / "junk.ckpt").write_bytes(b"JUNK" + b"\0" * 24)
    with pytest.raises(SerializationError, match="magic"):
        load_checkpoint(tmp_path / "junk.ckpt")


def test_short_headers_rejected(tmp_path):
    params = init_parameters(2, 2, 1, 1, 1, seed=0)
    save_checkpoint(params, tmp_path / "model.ckpt")
    (tmp_path / "short.ckpt").write_bytes((tmp_path / "model.ckpt").read_bytes()[:10])
    with pytest.raises(SerializationError, match="truncated header"):
        load_checkpoint(tmp_path / "short.ckpt")
    write_embedding_binary(EmbeddingTable(vectors=np.ones((2, 3))), tmp_path / "emb.bin")
    (tmp_path / "short.bin").write_bytes((tmp_path / "emb.bin").read_bytes()[:9])
    with pytest.raises(SerializationError, match="truncated header"):
        read_embedding_binary(tmp_path / "short.bin")
    with pytest.raises(SerializationError, match="truncated header"):
        read_embedding(tmp_path / "short.bin")


def _checkpoint_and_embedding(tmp_path):
    save_checkpoint(init_parameters(4, 3, 2, 2, 3, seed=0), tmp_path / "model.ckpt")
    write_embedding_binary(EmbeddingTable(vectors=np.ones((4, 3))), tmp_path / "emb.bin")
    return tmp_path / "model.ckpt", tmp_path / "emb.bin"


@pytest.mark.parametrize("edit, problem", [
    (lambda data: data + b"\0", "trailing"),
    (lambda data: data[:-1], "truncated payload"),
])
def test_payload_length_must_match_header(tmp_path, edit, problem):
    for path, reader in zip(_checkpoint_and_embedding(tmp_path),
                            (load_checkpoint, read_embedding_binary)):
        path.write_bytes(edit(path.read_bytes()))
        with pytest.raises(SerializationError, match=problem):
            reader(path)


def test_checkpoint_and_embedding_not_mistaken_for_each_other(tmp_path):
    # a 40-node, 12-attribute checkpoint's header also reads as a 40 x 12 embedding
    save_checkpoint(init_parameters(40, 12, 75, 75, 150, seed=0), tmp_path / "model.ckpt")
    with pytest.raises(SerializationError, match="trailing"):
        read_embedding(tmp_path / "model.ckpt")
    _, embedding = _checkpoint_and_embedding(tmp_path)
    with pytest.raises(SerializationError):
        load_checkpoint(embedding)


def test_text_writer_matches_per_value_format(tmp_path, rng):
    vectors = rng.normal(scale=1e3, size=(5, 4))
    vectors[0] = [0.0, 5e-324, -1e-5, -0.0]
    vectors[1] = [1e-300, 1e300, 123456789.0, 0.1]
    table = EmbeddingTable(vectors=vectors, ids=[7, 3, 0, 12, 5])
    write_embedding_text(table, tmp_path / "emb.txt")
    expected = "5 4\n" + "".join(
        f"{int(i)} " + " ".join(f"{v:.9g}" for v in row) + "\n"
        for i, row in zip(table.ids, table.vectors)
    )
    assert (tmp_path / "emb.txt").read_text() == expected


@pytest.mark.parametrize("rows, problem", [
    ("0 1 2\n1 3 4\n0 5 6\n", "row 2 repeats node id 0"),
    ("0 1 2\n1 3 4\n2 5 6\n3 7 8\n", "row 3 is past the 3 rows"),
    ("0 1 2\n1 nan 4\n2 5 6\n", "row 1 holds a non-finite value"),
    ("0 1 2\n1 3 4\n2 5 -inf\n", "row 2 holds a non-finite value"),
    ("0 1 2\n1 0.1 abc\n2 5 6\n", "row 1 holds a bad number .*'abc'"),
    ("0 1 2\nx 3 4\n2 5 6\n", "row 1 holds a bad number .*'x'"),
])
def test_strict_text_reader(tmp_path, rows, problem):
    path = tmp_path / "emb.txt"
    path.write_text("3 2\n" + rows)
    with pytest.raises(SerializationError, match=problem) as excinfo:
        read_embedding(path)
    assert str(path) in str(excinfo.value)


def test_text_reader_allows_trailing_blank_lines(tmp_path):
    path = tmp_path / "emb.txt"
    path.write_text("2 2\n0 1 2\n1 3 4\n\n")
    assert read_embedding_text(path).node_count == 2


def test_binary_reader_rejects_non_finite(tmp_path):
    vectors = np.ones((3, 2))
    vectors[1, 0] = np.nan
    whole_table_write_embedding_binary(EmbeddingTable(vectors=vectors), tmp_path / "emb.bin")
    with pytest.raises(SerializationError, match="row 1 holds a non-finite value"):
        read_embedding(tmp_path / "emb.bin")


_FLOATS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.sampled_from(["1", "-0", "1e400", "-1e400", "nan", "inf", "1_0", "+.5", "x", "1.5.2"]),
)
_IDS = st.one_of(st.integers(0, 6).map(str),
                 st.sampled_from(["-3", "2**3", "9223372036854775808", "1.0", "0x1"]))


@st.composite
def _text_embedding(draw):
    """An embedding text file, mostly well formed: a header, rows of an id and
    values (some with a token more or less, bad numbers, repeated ids),
    blank and extra lines after the rows, or too few rows."""
    n = draw(st.integers(0, 5))
    dim = draw(st.integers(0, 3))
    header = draw(st.sampled_from([f"{n} {dim}", f"{n} {dim}", f"{n}", f"{n} x", f"-1 {dim}"]))
    rows = []
    for _ in range(draw(st.integers(max(n - 1, 0), n + 1))):
        width = draw(st.sampled_from([dim, dim, dim, dim - 1, dim + 1]))
        values = draw(st.lists(st.one_of(st.floats(-1e3, 1e3).map(repr), _FLOATS),
                               min_size=max(width, 0), max_size=max(width, 0)))
        rows.append(" ".join([draw(_IDS), *values]))
    tail = draw(st.sampled_from(["", "\n", "\n  \n", "\n7 1 2\n"]))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return ending.join([header, *rows]) + ending + tail


class TestTextReaderMatchesRowReader:
    """``read_embedding_text`` converts a file's values with one np.fromiter;
    ``rowwise_read_embedding_text`` is the row-at-a-time reader it replaced.
    They give the same table, or the same SerializationError message."""

    @settings(max_examples=300, deadline=None)
    @given(text=_text_embedding())
    def test_same_table_or_message(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("emb") / "e.txt"
        path.write_bytes(text.encode())
        try:
            ids, vectors = rowwise_read_embedding_text(path, SerializationError)
        except (SerializationError, ValueError) as exc:
            with pytest.raises(type(exc)) as raised:
                read_embedding_text(path)
            assert str(raised.value) == str(exc)
        else:
            table = read_embedding_text(path)
            assert np.array_equal(table.ids, ids)
            assert table.vectors.shape == vectors.shape
            assert np.array_equal(table.vectors, vectors)


def _float(bits: int) -> float:
    return struct.unpack("<d", struct.pack("<Q", bits))[0]


_FINITE_BITS = st.integers(0, 2**64 - 1).map(_float).filter(math.isfinite)
_POSITIONAL = st.builds(lambda m, x: m * 10.0 ** x,
                        st.floats(-10.0, 10.0, allow_nan=False), st.integers(-6, 10))


def _ties() -> list[float]:
    """Values exactly half-way between two 9-digit roundings: k / 2**(9 - X)
    for odd k, whose 10 significant digits end in 5, for X in [-4, 8]."""
    ties = []
    for x in range(-4, 9):
        p = 5 ** (9 - x)
        first = -(-10**9 // p) | 1
        for k in (first, first + 2, first + 12, 10**10 // p - 1 | 1):
            if 10**9 <= k * p < 10**10:
                ties.append(k / 2 ** (9 - x))
    return ties


_POWERS = [float("1e%d" % k) for k in range(-8, 11)]
# decimal half-way points: the double nearest each is not one, but its
# product by a power of ten may round to one
_DECIMAL_TIES = [float("%s5e%d" % (m, x)) for m in ("1.23456789", "9.87654321", "1.00000000",
                                                     "5.55555555") for x in range(-5, 9)]
# 9 nines and more: they round up into the next decade
_CARRIES = [float("9.99999999%de%d" % (d, x)) for d in (5, 7, 9) for x in range(-5, 9)]
_EDGES = [
    *_ties(), *_DECIMAL_TIES, *_CARRIES,
    *_POWERS, *np.nextafter(_POWERS, 0.0), *np.nextafter(_POWERS, np.inf),
    1e-4, 1e-5, 9.9999999995e-5, 9.99999999949e-5, 0.00010000000005, 1e9, 1e9 - 0.5,
    999999999.5, 999999999.49999994, 999999999.4, 9.999999995, 0.9999999995, 99999999.95,
    5e-324, 2.2250738585072014e-308, 1.7976931348623157e308, 0.0, -0.0, 1.0, 0.5, 2.5,
]


class TestTextKernel:
    """``serialize._format_rows`` writes every row in numpy; its bytes are
    those of ``'%d '`` and ``'%.9g'`` per value (``percent_text_rows``)."""

    def check(self, ids, vectors):
        ids = np.asarray(ids, dtype=np.int64)
        vectors = np.asarray(vectors, dtype=np.float64)
        assert _format_rows(ids, vectors) == percent_text_rows(ids, vectors)

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), rows=st.integers(0, 4), dim=st.integers(0, 5))
    def test_bit_patterns(self, data, rows, dim):
        values = st.one_of(_FINITE_BITS, _POSITIONAL, st.sampled_from(_EDGES))
        vectors = [[data.draw(values) for _ in range(dim)] for _ in range(rows)]
        ids = data.draw(st.lists(st.integers(-2**63, 2**63 - 1), min_size=rows, max_size=rows))
        self.check(ids, np.array(vectors).reshape(rows, dim))

    def test_edges_both_signs(self):
        edges = np.array(_EDGES)
        self.check(np.arange(2), [edges, -edges])

    def test_ties_are_ties(self):
        for tie in _ties():
            digits = ("%.9e" % tie).split("e")[0].replace(".", "")
            assert digits.endswith("5") and float("%.9e" % tie) == tie, tie

    def test_every_binary_exponent(self):
        # the least and the greatest double of each binary exponent, and the
        # doubles around each power of ten from 1e-5 to 1e9
        least = np.ldexp(1.0, np.arange(-1074, 1024))
        greatest = np.append(np.nextafter(least[1:], 0.0), np.finfo(np.float64).max)
        powers = np.array([float("1e%d" % k) for k in range(-5, 10)])
        values = np.concatenate([least, greatest, np.nextafter(powers, 0.0), powers,
                                 np.nextafter(powers, np.inf)])
        self.check(np.arange(2), [values, -values])

    @pytest.mark.parametrize("rows", [0, 1, 65])
    def test_row_counts_and_extreme_ids(self, rng, rows):
        ids = rng.integers(-2**63, 2**63 - 1, size=rows, endpoint=True)
        ids[:2] = [2**63 - 1, -2**63][:rows]
        vectors = rng.normal(size=(rows, 150)) * 10.0 ** rng.integers(-6, 10, (rows, 150))
        vectors[rng.random((rows, 150)) < 0.5] = 0.0
        self.check(ids, vectors)


@pytest.mark.parametrize("writer", [write_embedding_text, write_embedding_binary])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_writers_refuse_non_finite_values(tmp_path, writer, value):
    vectors = np.ones((4, 3))
    vectors[2, 1] = value
    path = tmp_path / "emb"
    with pytest.raises(SerializationError) as raised:
        writer([EmbeddingTable(vectors=vectors[:2]), EmbeddingTable(vectors=vectors[2:],
                                                                     ids=[2, 3])], path, (4, 3))
    assert str(raised.value) == f"{path}: the embedding of node 2 holds a non-finite value"
    assert not path.exists()  # nor the header and rows written before the refusal


def test_refused_write_removes_only_a_regular_file(tmp_path):
    # what --out names and is not a regular file (here a symlink; a device
    # such as /dev/null alike) is left in place
    target, link = tmp_path / "target", tmp_path / "link"
    target.write_bytes(b"")
    link.symlink_to(target)
    with pytest.raises(SerializationError):
        write_embedding_text(EmbeddingTable(vectors=[[np.nan]]), link)
    assert link.is_symlink()


@pytest.mark.parametrize("block", ["P", "P_prime", "W", "b"])
@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_checkpoint_with_a_non_finite_value_rejected(tmp_path, block, value):
    params = init_parameters(4, 3, 2, 2, 3, seed=0)
    getattr(params, block).flat[-1] = value
    path = tmp_path / "model.ckpt"
    save_checkpoint(params, path)
    with pytest.raises(SerializationError) as raised:
        load_checkpoint(path)
    assert str(raised.value) == f"{path}: checkpoint block {block} holds a non-finite value"


_VALUES = st.floats(allow_nan=False, allow_infinity=False)


class TestRoundTrips:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data(), dims=st.tuples(*[st.integers(1, 4)] * 5),
           pooling=st.sampled_from([None, "max", "sum"]))
    def test_checkpoint(self, tmp_path_factory, data, dims, pooling):
        n, m, d1, d2, h = dims
        shapes = {"P": (m, d1), "P_prime": (n, d2), "W": (h, d1 + d2), "b": (h,)}
        arrays = {name: np.array(data.draw(st.lists(_VALUES, min_size=int(np.prod(shape)),
                                                    max_size=int(np.prod(shape)))),
                                 dtype=np.float64).reshape(shape)
                  for name, shape in shapes.items()}
        params = ModelParameters(**arrays, d1=d1, d2=d2, h=h, pooling=pooling)
        path = tmp_path_factory.mktemp("ckpt") / "model.ckpt"
        save_checkpoint(params, path)
        loaded = load_checkpoint(path)
        assert (loaded.d1, loaded.d2, loaded.h, loaded.pooling) == (d1, d2, h, pooling or "max")
        for name, array in arrays.items():
            assert getattr(loaded, name).tobytes() == array.tobytes(), name

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(_VALUES, min_size=3, max_size=3), max_size=6))
    def test_binary_embedding(self, tmp_path_factory, rows):
        vectors = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
        path = tmp_path_factory.mktemp("emb") / "e.bin"
        write_embedding_binary(EmbeddingTable(vectors=vectors), path)
        loaded = read_embedding(path)
        assert loaded.vectors.tobytes() == vectors.tobytes()
        assert np.array_equal(loaded.ids, np.arange(len(rows)))

    @settings(max_examples=100, deadline=None)
    @given(rows=st.lists(st.lists(st.one_of(_VALUES, _FINITE_BITS), min_size=3, max_size=3),
                         max_size=6),
           ids=st.lists(st.integers(-2**63, 2**63 - 1), min_size=6, max_size=6, unique=True))
    def test_text_embedding(self, tmp_path_factory, rows, ids):
        vectors = np.array(rows, dtype=np.float64).reshape(len(rows), 3)
        path = tmp_path_factory.mktemp("emb") / "e.txt"
        write_embedding_text(EmbeddingTable(vectors=vectors, ids=ids[:len(rows)]), path)
        loaded = read_embedding(path)
        assert loaded.ids.tolist() == ids[:len(rows)]
        want = [[float("%.9g" % v) for v in row] for row in rows]
        assert loaded.vectors.tolist() == want
