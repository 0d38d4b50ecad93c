import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbrane.graph import Rows, load_graph
from neuralbrane.model import (
    INIT_STDDEV,
    bpr_probability,
    embed_all,
    encode_attributes,
    encode_neighbors,
    forward,
    hidden,
    init_parameters,
    sigmoid,
    similarity,
)
from neuralbrane.synthetic import planted_partition


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


class TestEncoding:
    def test_columnwise_max_and_argmax(self, toy_graph):
        params = init_parameters(5, 7, 2, 2, 3, seed=0)
        params.P[1] = [1.0, 3.0]
        params.P[5] = [4.0, 2.0]
        v, winners = encode_attributes(params, toy_graph.attributes[1])  # A(b) = {1, 5}
        assert v.tolist() == [4.0, 3.0]
        assert winners.tolist() == [1, 0]

    def test_single_attribute_is_identity(self, toy_graph):
        params = init_parameters(5, 7, 4, 2, 3, seed=1)
        v, winners = encode_attributes(params, toy_graph.attributes[4])  # A(e) = {4}
        np.testing.assert_array_equal(v, params.P[4])
        assert winners.tolist() == [0, 0, 0, 0]

    def test_toy_node_b_neighbors(self, toy_graph):
        params = init_parameters(5, 7, 2, 3, 3, seed=2)
        v, winners = encode_neighbors(params, toy_graph.neighbors[1])  # N(b) = {0, 2, 3}
        expected = params.P_prime[[0, 2, 3]].max(axis=0)
        np.testing.assert_array_equal(v, expected)
        assert all(0 <= w < 3 for w in winners)

    def test_isolated_node_pools_to_zero(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "a.txt").write_text("0 1\n1 0\n2\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        params = init_parameters(3, 2, 2, 2, 3, seed=0)
        v, winners = encode_neighbors(params, g.neighbors[2])
        assert v.tolist() == [0.0, 0.0]
        assert winners.size == 0
        v, winners = encode_attributes(params, g.attributes[2])
        assert v.tolist() == [0.0, 0.0]

    def test_sum_pooling(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=5)
        v, winners = encode_attributes(params, toy_graph.attributes[1], pooling="sum")
        np.testing.assert_allclose(v, params.P[[1, 5]].sum(axis=0))
        assert winners.size == 0

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


class TestForward:
    def test_hidden_relu(self):
        params = init_parameters(2, 2, 1, 1, 2, seed=0)
        params.W = np.eye(2)
        params.b = np.zeros(2)
        h_vec, pre = hidden(params, np.array([-1.0, 2.0]))
        assert h_vec.tolist() == [0.0, 2.0]
        assert pre.tolist() == [-1.0, 2.0]

    def test_hidden_zero_input_gives_relu_bias(self):
        params = init_parameters(2, 2, 2, 2, 6, seed=4)
        h_vec, _ = hidden(params, np.zeros(4))
        np.testing.assert_array_equal(h_vec, np.maximum(params.b, 0.0))

    def test_hidden_matches_triple_loop_oracle(self, rng):
        params = init_parameters(3, 3, 4, 3, 5, seed=9)
        f = rng.normal(size=7)
        h_vec, pre = hidden(params, f)
        for row in range(5):
            acc = params.b[row]
            for col in range(7):
                acc += params.W[row, col] * f[col]
            assert abs(pre[row] - acc) < 1e-12 * max(1.0, abs(acc))
            assert h_vec[row] == max(0.0, pre[row])

    def test_forward_trace_contents(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=7)
        trace = forward(params, toy_graph, 1)
        assert trace.attr_rows.tolist() == [1, 5]
        assert trace.nbr_rows.tolist() == [0, 2, 3]
        assert np.all(trace.h_vec >= 0)
        assert trace.f[:3].tolist() == params.P[[1, 5]].max(axis=0).tolist()
        assert trace.f[3:].tolist() == params.P_prime[[0, 2, 3]].max(axis=0).tolist()

    def test_forward_pure(self, toy_graph):
        params = init_parameters(5, 7, 3, 3, 4, seed=7)
        a = forward(params, toy_graph, 2)
        b = forward(params, toy_graph, 2)
        assert np.array_equal(a.f, b.f)
        assert np.array_equal(a.h_vec, b.h_vec)
        assert np.array_equal(a.pre_activation, b.pre_activation)


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
        assert np.isfinite(sigmoid(-745.0)) and np.isfinite(sigmoid(745.0))

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
        trace = forward(params, toy_graph, 2)
        np.testing.assert_array_equal(table.vectors[2], trace.f)

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
