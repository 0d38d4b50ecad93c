import math
import subprocess
import sys
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbrane import model
from neuralbrane.graph import Rows, from_edges, load_graph
from neuralbrane.model import (
    INIT_STDDEV,
    FORWARD_CHUNK,
    embed_all,
    forward,
    init_parameters,
)
from neuralbrane.synthetic import planted_partition

from .oracles import bpr_probability, naive_forward, similarity


class TestInit:
    def test_sample_moments(self):
        params = init_parameters(n=10, m=1000, d1=200, d2=8, h=5, seed=3)
        draws = params.P.ravel()  # 200k samples
        assert abs(draws.mean()) < 0.001
        assert abs(draws.std() - INIT_STDDEV) < 0.1 * INIT_STDDEV

    def test_deterministic_per_seed(self):
        a = init_parameters(5, 7, 3, 4, 6, seed=11)
        b = init_parameters(5, 7, 3, 4, 6, seed=11)
        for x, y in ((a.P, b.P), (a.P_prime, b.P_prime), (a.W, b.W), (a.b, b.b)):
            assert np.array_equal(x, y)
        c = init_parameters(5, 7, 3, 4, 6, seed=12)
        assert not np.array_equal(a.P, c.P)

    def test_dimensions(self):
        params = init_parameters(9, 4, 75, 75, 150, seed=0)
        assert params.d == 150
        assert params.P.shape == (4, 75)
        assert params.P_prime.shape == (9, 75)
        assert params.W.shape == (150, 150)
        assert params.b.shape == (150,)

    def test_zero_dimension_rejected(self):
        with pytest.raises(ValueError, match="d1"):
            init_parameters(5, 5, 0, 3, 3)


def isolated_node_graph(tmp_path):
    """Nodes 0 and 1 share an edge and one attribute each; node 2 has neither."""
    (tmp_path / "e.txt").write_text("0 1\n")
    (tmp_path / "a.txt").write_text("0 1\n1 0\n2\n")
    return load_graph(tmp_path / "e.txt", tmp_path / "a.txt")


class TestEncoding:
    def test_columnwise_max_and_argmax(self, toy_graph):
        params = init_parameters(5, 7, 2, 2, 3, seed=0)
        params.P[1] = [1.0, 3.0]
        params.P[5] = [4.0, 2.0]
        trace = forward(params, toy_graph, [1])  # A(b) = {1, 5}
        assert trace.f[0, :2].tolist() == [4.0, 3.0]
        assert trace.attr_winners[0].tolist() == [1, 0]

    def test_single_attribute_is_identity(self, toy_graph):
        params = init_parameters(5, 7, 4, 2, 3, seed=1)
        trace = forward(params, toy_graph, [4])  # A(e) = {4}
        np.testing.assert_array_equal(trace.f[0, :4], params.P[4])
        assert trace.attr_winners[0].tolist() == [0, 0, 0, 0]

    def test_toy_node_b_neighbors(self, toy_graph):
        params = init_parameters(5, 7, 2, 3, 3, seed=2)
        trace = forward(params, toy_graph, [1])  # N(b) = {0, 2, 3}
        expected = params.P_prime[[0, 2, 3]].max(axis=0)
        np.testing.assert_array_equal(trace.f[0, 2:], expected)
        assert all(0 <= w < 3 for w in trace.nbr_winners[0])

    def test_isolated_node_pools_to_zero(self, tmp_path):
        g = isolated_node_graph(tmp_path)
        params = init_parameters(3, 2, 2, 2, 3, seed=0)
        trace = forward(params, g, [2])
        # a half without rows has nothing to route to: its winners are zeros
        assert trace.f[0, 2:].tolist() == [0.0, 0.0]
        assert trace.nbr_rows[0].size == 0 and not trace.nbr_winners[0].any()
        assert trace.f[0, :2].tolist() == [0.0, 0.0]
        assert trace.attr_rows[0].size == 0 and not trace.attr_winners[0].any()

    def test_sum_pooling(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=5)
        trace = forward(params, toy_graph, [1], pooling="sum")
        np.testing.assert_allclose(trace.f[0, :3], params.P[[1, 5]].sum(axis=0))
        assert trace.attr_winners is None and trace.nbr_winners is None

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_max_pool_permutation_invariant(self, data):
        rows = data.draw(st.integers(1, 6))
        width = data.draw(st.integers(1, 5))
        matrix = np.array(
            data.draw(
                st.lists(
                    st.lists(st.floats(-10, 10), min_size=width, max_size=width),
                    min_size=rows, max_size=rows,
                )
            )
        )
        order = data.draw(st.permutations(range(rows)))
        assert np.array_equal(
            matrix.max(axis=0), matrix[list(order)].max(axis=0)
        )

    def test_monotone_pooling(self, rng):
        # adding an attribute row never decreases any pooled coordinate
        for _ in range(100):
            params = init_parameters(4, 8, 5, 2, 3, seed=int(rng.integers(1 << 30)))
            rows = rng.choice(8, size=3, replace=False)
            base = params.P[rows[:2]].max(axis=0)
            grown = params.P[rows].max(axis=0)
            assert np.all(grown >= base)


def hub_star():
    """A 5001-node star: node 0 neighbors nodes 1 to 5000, and node u
    carries attributes 0 to u % 37 - 1."""
    leaves = np.arange(1, 5001)
    per_node = np.arange(5001) % 37
    attr_node = np.repeat(np.arange(5001), per_node)
    attr_id = np.arange(len(attr_node)) - np.repeat(np.cumsum(per_node) - per_node, per_node)
    return from_edges(5001, 37, np.zeros(5000, dtype=np.int64), leaves, np.ones(5000),
                      attr_node, attr_id)


class _Recording(np.ndarray):
    """An embedding matrix that notes the shape of every 2-D index array
    gathered from it."""

    shapes: list

    def __getitem__(self, key):
        if isinstance(key, np.ndarray) and key.ndim == 2 and key.dtype.kind in "iu":
            _Recording.shapes.append(key.shape)
        return super().__getitem__(key)


def gathered_index_shapes(matrix, rows, pooling):
    """(rows per node, nodes) of each sub-block ``_pool`` gathers from
    ``matrix`` for ``rows``; checks that it pools as it does unobserved."""
    _Recording.shapes = []
    seen, plain = (np.zeros((len(rows), matrix.shape[1])) for _ in range(2))
    model._pool(matrix.view(_Recording), rows, pooling, seen, backprop=True)
    model._pool(matrix, rows, pooling, plain, backprop=True)
    assert np.array_equal(seen, plain)
    return _Recording.shapes


def random_graph(rng):
    """Up to 12 nodes with random edges and attribute sets; isolated nodes
    and nodes without attributes are common."""
    n, m = int(rng.integers(1, 13)), int(rng.integers(1, 9))
    pairs = np.sort(rng.integers(0, n, size=(int(rng.integers(0, 2 * n + 1)), 2)), axis=1)
    pairs = np.unique(pairs[pairs[:, 0] < pairs[:, 1]], axis=0)
    attrs = int(rng.integers(0, 2 * n + 1))
    return from_edges(n, m, pairs[:, 0], pairs[:, 1], rng.uniform(0.5, 2.0, len(pairs)),
                      rng.integers(0, n, attrs), rng.integers(0, m, attrs))


def assert_matches_oracle(params, g, nodes, pooling, trace):
    """``trace`` is ``forward(params, g, nodes, pooling)``: f and the winners
    are the per-node oracle's bit for bit, and h is within 1e-12 relative."""
    for r, u in enumerate(nodes):
        f, want_attr, want_nbr, pre = naive_forward(params, g, u, pooling)
        assert_pooled(trace.f[r], f, pooling)
        assert_winners(trace.attr_winners, r, trace.attr_rows[r], want_attr)
        assert_winners(trace.nbr_winners, r, trace.nbr_rows[r], want_nbr)
        assert_close_rows(trace.h_vec[r], pre)


def assert_winners(winners, r, rows, want):
    """Row r of a trace's winner array against the oracle's winners ``want``
    for a node whose row ids are ``rows``: no array for sum pooling, zeros
    for a half without rows, else ``want`` exactly."""
    if winners is None or len(rows) == 0:
        assert want.size == 0
        assert winners is None or not winners[r].any()
    else:
        assert np.array_equal(winners[r], want)


def assert_pooled(got, want, pooling):
    """A max-pool picks one row per column, and the kernel and the oracle
    both add a sum's rows one after another in order, so ``got`` is ``want``
    bit for bit.  The one exception is the sign of a max over 0.0 and -0.0,
    which ``np.maximum`` leaves open."""
    assert np.array_equal(got, want)
    if pooling == "sum":
        assert np.array_equal(np.signbit(got), np.signbit(want))


def assert_close_rows(h_vec, pre):
    """``h_vec`` is the ReLU of ``pre`` to within 1e-12 of pre's largest entry."""
    scale = np.max(np.abs(pre))
    assert np.max(np.abs(h_vec - np.maximum(pre, 0.0))) <= 1e-12 * scale


class TestForward:
    def test_hidden_relu(self, toy_graph):
        params = init_parameters(5, 7, 1, 1, 2, seed=0)
        params.P[[1, 5]] = -1.0  # A(b) = {1, 5}
        params.P_prime[[0, 2, 3]] = 2.0  # N(b) = {0, 2, 3}
        params.W = np.eye(2)
        params.b = np.zeros(2)
        trace = forward(params, toy_graph, [1])
        assert trace.h_vec[0].tolist() == [0.0, 2.0]
        assert trace.pre_activation[0].tolist() == [-1.0, 2.0]

    def test_hidden_zero_input_gives_relu_bias(self, tmp_path):
        params = init_parameters(3, 2, 2, 2, 6, seed=4)
        trace = forward(params, isolated_node_graph(tmp_path), [2])
        np.testing.assert_array_equal(trace.h_vec[0], np.maximum(params.b, 0.0))

    def test_hidden_matches_triple_loop_oracle(self):
        g = planted_partition(nodes=12, attributes=8, seed=3)
        params = init_parameters(12, 8, 4, 3, 5, seed=9)
        trace = forward(params, g, np.arange(12))
        for f, pre, h_vec in zip(trace.f, trace.pre_activation, trace.h_vec):
            for row in range(5):
                acc = params.b[row]
                for col in range(7):
                    acc += params.W[row, col] * f[col]
                assert abs(pre[row] - acc) < 1e-12 * max(1.0, abs(acc))
                assert h_vec[row] == max(0.0, pre[row])

    def test_forward_trace_contents(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=7)
        trace = forward(params, toy_graph, [1])
        assert trace.attr_rows[0].tolist() == [1, 5]
        assert trace.nbr_rows[0].tolist() == [0, 2, 3]
        assert np.all(trace.h_vec >= 0)
        assert trace.f[0, :3].tolist() == params.P[[1, 5]].max(axis=0).tolist()
        assert trace.f[0, 3:].tolist() == params.P_prime[[0, 2, 3]].max(axis=0).tolist()

    def test_forward_pure(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=7)
        a = forward(params, toy_graph, [2])
        b = forward(params, toy_graph, [2])
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.h_vec, b.h_vec)
        assert np.array_equal(a.pre_activation, b.pre_activation)

    @pytest.mark.parametrize("pooling", ["max", "sum"])
    def test_matches_per_node_oracle(self, pooling):
        # node arrays with repeats, over graphs with isolated and attribute-free
        # nodes; every other instance rounds the parameters to one decimal,
        # which makes exact max-pool ties common
        rng = np.random.default_rng(808)
        ties = 0
        for instance in range(300):
            g = random_graph(rng)
            params = init_parameters(g.node_count, g.attribute_count, int(rng.integers(1, 5)),
                                     int(rng.integers(1, 5)), int(rng.integers(1, 6)),
                                     seed=int(rng.integers(1 << 30)))
            if instance % 2:
                params.P, params.P_prime = params.P.round(1), params.P_prime.round(1)
            nodes = rng.integers(0, g.node_count, int(rng.integers(1, 3 * g.node_count + 2)))
            trace = forward(params, g, nodes, pooling)
            assert_matches_oracle(params, g, nodes, pooling, trace)
            if pooling == "max":  # columns whose max two or more rows reach
                for r in range(len(nodes)):
                    block = params.P[trace.attr_rows[r]]
                    if len(block):
                        ties += int(np.sum((block == block.max(axis=0)).sum(axis=0) >= 2))
        assert pooling == "sum" or ties >= 50

    @pytest.mark.parametrize("pooling", ["max", "sum"])
    def test_hub_rows_are_gathered_once(self, pooling):
        # a 5001-node star whose hub has 5000 neighbors; node u also carries
        # u % 37 attributes, so the attribute half fills buckets 0 to 6.
        # Padding all 5001 neighbor rows to the hub's length would gather
        # 25 million rows (200 MB at width 1); each bucket gathers at most
        # twice its real rows, and the hub's only its own
        star, d1, d2 = hub_star(), 3, 4
        params = init_parameters(star.node_count, star.attribute_count, d1, d2, 5, seed=5)
        nodes = np.arange(star.node_count)
        for matrix, lists in ((params.P, star.attributes), (params.P_prime, star.neighbors)):
            lengths = np.diff(lists.indptr)
            real = np.bincount(np.frexp(lengths[lengths > 0] - 1)[1], lengths[lengths > 0])
            gathered = np.zeros_like(real)
            for depth, nodes_gathered in gathered_index_shapes(matrix, lists.take(nodes), pooling):
                gathered[np.frexp(depth - 1)[1]] += depth * nodes_gathered
            assert np.all(real <= gathered) and np.all(gathered <= 2 * real)
        assert gathered[-1] == real[-1] == 5000  # the hub, alone in its bucket
        trace = forward(params, star, nodes, pooling)
        assert_matches_oracle(params, star, nodes, pooling, trace)

    @pytest.mark.parametrize("pooling", ["max", "sum"])
    def test_pool_memory_is_bounded_by_the_sub_block(self, pooling):
        # the largest temporary of a pool is one sub-block of _POOL_ROWS
        # rows (or the hub's 5000 alone), a few times over for its max and
        # winners; the rest grows with the nodes, not with the longest row
        star, width = hub_star(), 16
        params = init_parameters(star.node_count, star.attribute_count, width, width, 8,
                                 seed=6)
        sub_block = 8 * width * max(model._POOL_ROWS, 5000)
        per_node = 8 * (6 * width + 3 * 37)
        bound = 4 * sub_block + star.node_count * per_node
        for run in (lambda: forward(params, star, np.arange(star.node_count), pooling),
                    lambda: embed_all(params, star, pooling=pooling)):
            run()  # warm numpy's caches before measuring
            tracemalloc.start()
            try:
                run()
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= bound, (peak, bound)

    def test_unknown_pooling_rejected(self, toy_graph):
        with pytest.raises(ValueError, match="pooling"):
            forward(init_parameters(5, 7, 2, 2, 3), toy_graph, [0], pooling="mean")


# one row length on each side of every bucket edge of the pooling kernel
EDGE_LENGTHS = (0, 1, 2, 3, 4, 5, 8, 9, 16, 17, 33)


def edge_length_graph(rng, edges):
    """Two nodes per length of EDGE_LENGTHS, each carrying that many distinct
    attributes out of 40; with ``edges`` random links (one node links to all
    others), else none, so every neighbor half is empty."""
    lengths = np.repeat(EDGE_LENGTHS, 2)
    n = len(lengths)
    attr_node = np.repeat(np.arange(n), lengths)
    attr_id = np.concatenate([rng.choice(40, size=k, replace=False) for k in lengths])
    pairs = np.empty((0, 2), dtype=np.int64)
    if edges:
        pairs = np.argwhere(np.triu(rng.random((n, n)) < 0.4, 1))
        pairs = np.unique(np.vstack([pairs, [(0, v) for v in range(1, n)]]), axis=0)
    return from_edges(n, 40, pairs[:, 0], pairs[:, 1], np.ones(len(pairs)), attr_node, attr_id)


class TestPoolKernel:
    @pytest.mark.parametrize("pooling", ["max", "sum"])
    @pytest.mark.parametrize("budget", [16, model._POOL_ROWS])
    def test_bucket_edges_match_the_oracle_bit_for_bit(self, pooling, budget, monkeypatch):
        # rows of every length around a bucket edge, in shuffled node order
        # with repeats, with and without neighbors; a budget of 16 rows splits
        # the buckets into sub-blocks and leaves the 17- and 33-row nodes
        # alone in theirs.  Half the instances round the parameters to one
        # decimal and copy one row into another in some columns, so tied
        # columns are common
        monkeypatch.setattr(model, "_POOL_ROWS", budget)
        rng = np.random.default_rng(16)
        ties = 0
        for instance in range(12):
            g = edge_length_graph(rng, edges=instance % 3 != 0)
            params = init_parameters(g.node_count, 40, int(rng.integers(1, 4)),
                                     int(rng.integers(1, 4)), 3, seed=instance)
            if instance % 2:
                params.P, params.P_prime = params.P.round(1), params.P_prime.round(1)
                params.P[1::2, ::2] = params.P[0::2, ::2]
            nodes = rng.permutation(np.repeat(np.arange(g.node_count), 2))
            trace = forward(params, g, nodes, pooling)
            assert_matches_oracle(params, g, nodes, pooling, trace)
            table = embed_all(params, g, layer="f", pooling=pooling, nodes=nodes).vectors
            assert np.array_equal(table, trace.f)
            for u in range(g.node_count):
                block = params.P[g.attributes[u]]
                if len(block):
                    ties += int(np.sum((block == block.max(axis=0)).sum(axis=0) >= 2))
        assert ties >= 20

    def test_pooling_loads_no_numpy_ma(self):
        # np.unique imports numpy.ma, over 1 MB of modules that a training
        # or embedding process otherwise never loads, on its first call
        code = "\n".join([
            "import sys",
            "from neuralbrane.model import embed_all, forward, init_parameters",
            "from neuralbrane.synthetic import planted_partition",
            "g = planted_partition(nodes=40, attributes=12, seed=1)",
            "params = init_parameters(40, 12, 3, 3, 4, seed=2)",
            "for pooling in ('max', 'sum'):",
            "    forward(params, g, range(40), pooling)",
            "    embed_all(params, g, pooling=pooling)",
            "print('numpy.ma' in sys.modules)",
        ])
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              check=True)
        assert done.stdout.strip() == "False"

    @pytest.mark.parametrize("pooling", ["max", "sum"])
    def test_empty_input(self, pooling, toy_graph):
        params = init_parameters(5, 7, 2, 3, 4, seed=0)
        trace = forward(params, toy_graph, np.empty(0, dtype=np.int64), pooling)
        assert trace.f.shape == (0, 5) and trace.h_vec.shape == (0, 4)
        assert embed_all(params, toy_graph, pooling=pooling, nodes=[]).vectors.shape == (0, 4)


class TestSimilarityAndRanking:
    def test_dot_product(self):
        assert similarity(np.array([1.0, 2.0]), np.array([3.0, 4.0])) == 11.0
        assert similarity(np.array([5.0, -2.0]), np.zeros(2)) == 0.0

    def test_symmetry(self, rng):
        for _ in range(20):
            a, b = rng.normal(size=6), rng.normal(size=6)
            assert similarity(a, b) == similarity(b, a)

    def test_midpoint(self):
        assert bpr_probability(2.5, 2.5) == 0.5

    def test_analytic_value(self):
        assert bpr_probability(math.log(3), 0.0) == pytest.approx(0.75, abs=1e-12)

    def test_extreme_margins_stable(self):
        low = bpr_probability(0.0, 50.0)
        assert 0.0 < low < 2e-22
        assert bpr_probability(700.0, 0.0) <= 1.0
        assert bpr_probability(0.0, 700.0) >= 0.0

    def test_complement_identity(self, rng):
        for _ in range(200):
            a, b = rng.normal(scale=20, size=2)
            total = bpr_probability(a, b) + bpr_probability(b, a)
            assert abs(total - 1.0) <= 1e-15

    def test_shift_invariance(self, rng):
        for _ in range(100):
            a, b = rng.normal(scale=3, size=2)
            c = float(rng.normal(scale=2))
            base = bpr_probability(a, b)
            shifted = bpr_probability(a + c, b + c)
            assert abs(base - shifted) < 1e-12


def reversed_rows(rows: Rows) -> Rows:
    """The same rows, each one's entries in reverse order."""
    owner = rows.owners()
    flipped = rows.indptr[owner] + rows.indptr[owner + 1] - 1 - np.arange(len(owner))
    return Rows(rows.indptr, rows.values[flipped])


class TestEmbedAll:
    @pytest.mark.parametrize("pooling", ["max", "sum"])
    def test_matches_per_node_oracle(self, pooling):
        # a node count that is not a multiple of the chunk leaves a short last chunk
        g = planted_partition(nodes=2 * FORWARD_CHUNK + 5, attributes=10, seed=6)
        params = init_parameters(g.node_count, 10, 3, 4, 5, seed=8)
        f_table = embed_all(params, g, layer="f", pooling=pooling).vectors
        h_table = embed_all(params, g, pooling=pooling).vectors
        for u in range(g.node_count):
            f, _, _, pre = naive_forward(params, g, u, pooling)
            assert_pooled(f_table[u], f, pooling)
            assert_close_rows(h_table[u], pre)

    def test_identical_context_identical_rows(self, tmp_path):
        # nodes 0 and 1 share the same neighborhood {2} and attribute set {0}
        (tmp_path / "e.txt").write_text("0 2\n1 2\n")
        (tmp_path / "a.txt").write_text("0 0\n1 0\n2 1\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        params = init_parameters(3, 2, 3, 3, 4, seed=0)
        table = embed_all(params, g)
        assert np.array_equal(table.vectors[0], table.vectors[1])

    def test_finite_and_nonnegative(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=1)
        table = embed_all(params, toy_graph)
        assert np.all(np.isfinite(table.vectors))
        assert np.all(table.vectors >= 0)

    def test_fresh_parameters_rows_bounded(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=2)
        table = embed_all(params, toy_graph)
        lookup_max = max(np.abs(params.P).max(), np.abs(params.P_prime).max())
        bound = np.abs(params.W).sum(axis=1).max() * lookup_max + max(
            0.0, params.b.max()
        )
        assert np.abs(table.vectors).max() <= bound + 1e-12

    def test_f_layer_export(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=3)
        table = embed_all(params, toy_graph, layer="f")
        assert table.dim == 6
        trace = forward(params, toy_graph, [2])
        np.testing.assert_array_equal(table.vectors[2], trace.f[0])

    def test_permuting_lists_leaves_embedding_unchanged(self):
        g = planted_partition(nodes=12, attributes=8, seed=2)
        params = init_parameters(12, 8, 4, 4, 5, seed=5)
        base = embed_all(params, g).vectors
        keys = ("neighbors", "weights", "attributes")
        shuffled = replace(g, **{key: reversed_rows(getattr(g, key)) for key in keys})
        for key in keys:
            for u in range(g.node_count):
                assert getattr(shuffled, key)[u].tolist() == getattr(g, key)[u].tolist()[::-1]
        again = embed_all(params, shuffled).vectors
        np.testing.assert_allclose(base, again, atol=0)
