import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbrane.model import init_parameters, load_checkpoint, save_checkpoint
from neuralbrane.serialize import (
    EmbeddingTable,
    SerializationError,
    read_embedding,
    read_embedding_binary,
    read_embedding_text,
    write_embedding_binary,
    write_embedding_text,
)

from .oracles import rowwise_read_embedding_text


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
    vectors[0] = [np.nan, np.inf, -np.inf, -0.0]
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
    write_embedding_binary(EmbeddingTable(vectors=vectors), tmp_path / "emb.bin")
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
