"""Embedding export in row blocks: ``embed_blocks`` feeding the writers gives
the bytes of the whole-table writers, and ``embed`` never holds the table."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbrane.cli import main
from neuralbrane.graph import from_edges, write_graph
from neuralbrane.model import (
    EMBED_BLOCK, embed_all, embed_blocks, init_parameters, save_checkpoint,
)
from neuralbrane.serialize import (
    _FORMAT_ROWS, EmbeddingTable, SerializationError, write_embedding_binary,
    write_embedding_text,
)

from .oracles import whole_table_write_embedding_binary, whole_table_write_embedding_text

WRITERS = {
    "text": (write_embedding_text, whole_table_write_embedding_text),
    "binary": (write_embedding_binary, whole_table_write_embedding_binary),
}


def random_graph(n: int, seed: int, attributes: int = 9):
    """A ring over n nodes plus n random chords, and up to four attributes
    per node (some nodes have none)."""
    rng = np.random.default_rng(seed)
    ring = np.arange(n)
    src = np.concatenate([ring, rng.integers(0, n, n)])
    dst = np.concatenate([(ring + 1) % n, rng.integers(0, n, n)])
    keep = src != dst
    lo, hi = np.minimum(src, dst)[keep], np.maximum(src, dst)[keep]
    _, first = np.unique(lo * n + hi, return_index=True)
    attr_node = rng.integers(0, n, 3 * n)
    attr_id = rng.integers(0, attributes, 3 * n)
    return from_edges(n, attributes, lo[first], hi[first], rng.uniform(0.5, 2.0, len(first)),
                      attr_node, attr_id)


@pytest.mark.parametrize("n", [5, EMBED_BLOCK - 1, 2 * EMBED_BLOCK, 2 * EMBED_BLOCK + 1])
def test_streamed_export_matches_whole_table_writers(tmp_path, n):
    g = random_graph(n, seed=n)
    params = init_parameters(n, g.attribute_count, 3, 2, 4, seed=n)
    for layer in ("h", "f"):
        for pooling in ("max", "sum"):
            table = embed_all(params, g, layer, pooling)
            for fmt, (write, oracle) in WRITERS.items():
                streamed, whole = tmp_path / f"s.{fmt}", tmp_path / f"w.{fmt}"
                write(embed_blocks(params, g, layer, pooling), streamed, table.vectors.shape)
                oracle(table, whole)
                assert streamed.read_bytes() == whole.read_bytes(), (layer, pooling, fmt)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 3 * _FORMAT_ROWS + 2), dim=st.integers(0, 6),
       seed=st.integers(0, 2**32 - 1))
def test_text_writer_in_any_blocks_matches_whole_table_writer(tmp_path_factory, data, n, dim,
                                                              seed):
    rng = np.random.default_rng(seed)
    vectors = rng.normal(size=(n, dim)) * 10.0 ** rng.integers(-7, 11, (n, dim))
    vectors[rng.random((n, dim)) < 0.4] = 0.0
    vectors[rng.random((n, dim)) < 0.05] = -0.0
    table = EmbeddingTable(vectors=vectors, ids=rng.permutation(n) * 7919)
    cuts = sorted(data.draw(st.lists(st.integers(0, n), max_size=4)))
    bounds = [0, *cuts, n]
    blocks = [EmbeddingTable(vectors=vectors[a:b], ids=table.ids[a:b])
              for a, b in zip(bounds, bounds[1:])]
    directory = tmp_path_factory.mktemp("export")
    write_embedding_text(blocks, directory / "s.txt", (n, dim))
    whole_table_write_embedding_text(table, directory / "w.txt")
    assert (directory / "s.txt").read_bytes() == (directory / "w.txt").read_bytes()


def test_blocks_are_consecutive_and_full_but_the_last():
    n = 2 * EMBED_BLOCK + 1
    g = random_graph(n, seed=3)
    params = init_parameters(n, g.attribute_count, 2, 2, 3, seed=3)
    blocks = list(embed_blocks(params, g))
    assert [b.node_count for b in blocks] == [EMBED_BLOCK, EMBED_BLOCK, 1]
    assert np.array_equal(np.concatenate([b.ids for b in blocks]), np.arange(n))
    assert np.array_equal(np.concatenate([b.vectors for b in blocks]),
                          embed_all(params, g).vectors)


def test_empty_graph_writes_a_header_only(tmp_path):
    g = from_edges(0, 1, *(np.empty(0, dtype=np.int64),) * 2, np.empty(0),
                   *(np.empty(0, dtype=np.int64),) * 2)
    params = init_parameters(1, 1, 2, 2, 3)
    write_embedding_text(embed_blocks(params, g), tmp_path / "e.txt", (0, 3))
    assert (tmp_path / "e.txt").read_text() == "0 3\n"


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_blocks_must_add_up_to_the_declared_shape(tmp_path, fmt):
    write = WRITERS[fmt][0]
    block = EmbeddingTable(vectors=np.ones((2, 3)))
    with pytest.raises(SerializationError, match="the blocks hold 2 rows, the table 3"):
        write([block], tmp_path / "e", (3, 3))
    with pytest.raises(SerializationError, match="a block of 3 columns in a table of 4"):
        write([block], tmp_path / "e", (2, 4))


def test_binary_blocks_must_run_through_the_ids_in_order(tmp_path):
    blocks = [EmbeddingTable(vectors=np.ones((2, 3))),
              EmbeddingTable(vectors=np.ones((2, 3)), ids=[3, 4])]
    with pytest.raises(SerializationError, match="ids 0..n-1"):
        write_embedding_binary(blocks, tmp_path / "e.bin", (4, 3))


@pytest.mark.parametrize("fmt", sorted(WRITERS))
def test_embed_holds_one_block_not_the_table(tmp_path, fmt):
    # 3 blocks and a row; the table would be 12.6 MB, a block 4.2 MB
    n, hidden = 3 * EMBED_BLOCK + 1, 256
    g = random_graph(n, seed=5, attributes=4)
    paths = [tmp_path / "e.txt", tmp_path / "a.txt"]
    write_graph(g, *paths)
    save_checkpoint(init_parameters(n, 4, 2, 2, hidden, seed=5), tmp_path / "m.ckpt")
    out = tmp_path / "emb"
    tracemalloc.start()
    try:
        code = main(["embed", "--edges", str(paths[0]), "--attr-file", str(paths[1]),
                     "--nodes", str(n), "--attrs", "4", "--checkpoint", str(tmp_path / "m.ckpt"),
                     "--emb-format", fmt, "--out", str(out)])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert code == 0
    assert peak < n * hidden * 8 / 2
