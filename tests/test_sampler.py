import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbrane.graph import from_edges, load_graph
from neuralbrane.sampler import SamplingError, TripletSampler, _row_cdf

from .oracles import has_edge

# chi-square upper critical values at significance 0.001
CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467}


def chi_square_stat(counts, expected):
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    keep = expected > 0
    return float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))


def graph_from_text(tmp_path, edges, attrs="0\n"):
    (tmp_path / "e.txt").write_text(edges)
    (tmp_path / "a.txt").write_text(attrs)
    return load_graph(tmp_path / "e.txt", tmp_path / "a.txt")


def path_graph(tmp_path):
    return graph_from_text(tmp_path, "0 1\n1 2\n", "0\n1\n2\n")


def column_counts(batch, anchor, column, outcomes):
    """How often each outcome fills ``column`` in the rows anchored at ``anchor``."""
    picks = batch[batch[:, 0] == anchor, column]
    return [int(np.sum(picks == v)) for v in outcomes], len(picks)


class TestPositiveSampler:
    def test_uniform_over_equal_weights(self, toy_graph):
        batch = TripletSampler(toy_graph, seed=2).sample_batch(30_000)
        counts, total = column_counts(batch, 1, 1, (0, 2, 3))  # N(b) = {a, c, d}, weights 1
        assert sum(counts) == total
        assert chi_square_stat(counts, [total / 3] * 3) < CHI2_CRIT[2]

    def test_weighted_draw_frequencies(self, tmp_path):
        g = graph_from_text(tmp_path, "0 1 1.0\n0 2 3.0\n3 4 1.0\n")
        batch = TripletSampler(g, seed=4).sample_batch(30_000)
        counts, total = column_counts(batch, 0, 1, (1, 2))
        assert chi_square_stat(counts, [total * 0.25, total * 0.75]) < CHI2_CRIT[1]

    def test_single_neighbor_probability_one(self, tmp_path):
        g = graph_from_text(tmp_path, "0 1\n2 3\n")
        batch = TripletSampler(g, seed=1).sample_batch(200)
        assert batch[:, 1].tolist() == [int(g.neighbors[u][0]) for u in batch[:, 0]]

    def test_empty_neighborhood_rejected(self, tmp_path):
        # node 2 has no neighbors, so it never anchors (nor is a positive); it
        # is the only negative anchors 0 and 1 have, found by the fallback scan
        g = graph_from_text(tmp_path, "0 1\n", "2\n")
        batch = TripletSampler(g, seed=0).sample_batch(200)
        assert set(batch[:, 0].tolist()) == {0, 1}
        assert batch[:, 1].tolist() == (1 - batch[:, 0]).tolist()
        assert set(batch[:, 2].tolist()) == {2}

    def test_row_cdf_matches_weights(self, rng):
        for _ in range(30):
            n = int(rng.integers(2, 12))
            pairs = np.array([(u, v) for u in range(n) for v in range(u + 1, n)])
            pairs = pairs[rng.random(len(pairs)) < 0.6]
            if len(pairs) == 0:
                continue
            weights = rng.random(len(pairs)) * 10.0 ** rng.integers(-8, 9, len(pairs))
            g = from_edges(n, 1, pairs[:, 0], pairs[:, 1], weights, np.array([0]), np.array([0]))
            cdf = _row_cdf(g.weights, g.neighbors.owners())
            for u in range(n):
                row = cdf[g.weights.indptr[u]:g.weights.indptr[u + 1]]
                w = g.weights[u]
                np.testing.assert_allclose(row, np.cumsum(w) / w.sum(), rtol=1e-12)
                assert len(row) == 0 or row[-1] == 1.0

    def test_row_probabilities_ignore_other_rows(self, tmp_path):
        # a cumulative sum run across rows would put node 2's row at 2e16 and
        # round its 1:3 weights to the local CDF [0, 4]: neighbor 3 never drawn
        g = graph_from_text(tmp_path, "0 1 1e16\n2 3 1\n2 4 3\n")
        batch = TripletSampler(g, seed=8).sample_batch(30_000)
        counts, total = column_counts(batch, 2, 1, (3, 4))
        assert sum(counts) == total
        assert chi_square_stat(counts, [total * 0.25, total * 0.75]) < CHI2_CRIT[1]


class TestNegativeSampler:
    def test_uniform_over_equal_degrees(self, tmp_path):
        # two disjoint 4-cliques: an anchor's negatives are the other clique,
        # every node of degree 3
        lines = [f"{u + base} {v + base}" for base in (0, 4)
                 for u in range(4) for v in range(u + 1, 4)]
        g = graph_from_text(tmp_path, "\n".join(lines))
        batch = TripletSampler(g, seed=6).sample_batch(30_000)
        assert np.array_equal(batch[:, 0] < 4, batch[:, 2] >= 4)
        counts, total = column_counts(batch, 0, 2, (4, 5, 6, 7))
        assert chi_square_stat(counts, [total / 4] * 4) < CHI2_CRIT[3]

    def test_degree_proportional_with_isolated_node(self, tmp_path):
        # node 0 is isolated; anchor 1 (positive 2) may take 3, 4, 5, 6 with
        # degrees [3, 1, 1, 1], and no anchor ever needs the fallback scan
        g = graph_from_text(tmp_path, "1 2\n3 4\n3 5\n3 6\n")
        batch = TripletSampler(g, seed=7).sample_batch(40_000)
        assert not np.any(batch == 0)
        counts, total = column_counts(batch, 1, 2, (3, 4, 5, 6))
        assert sum(counts) == total
        expected = np.array([3, 1, 1, 1]) / 6 * total
        assert chi_square_stat(counts, expected) < CHI2_CRIT[3]

    def test_star_center_half_mass(self, tmp_path):
        # the centre of an 8-leaf star holds 8 of the 16 degree units that
        # anchors 9 and 10 (one edge apart from the star) draw from
        lines = [f"0 {v}" for v in range(1, 9)] + ["9 10"]
        g = graph_from_text(tmp_path, "\n".join(lines))
        batch = TripletSampler(g, seed=5).sample_batch(40_000)
        picks = batch[batch[:, 0] >= 9, 2]
        assert np.all(picks <= 8)
        counts = [int(np.sum(picks == 0)), int(np.sum(picks != 0))]
        assert chi_square_stat(counts, [len(picks) / 2] * 2) < CHI2_CRIT[1]

    def test_edgeless_graph_rejected(self, tmp_path):
        g = graph_from_text(tmp_path, "", "0 1\n1 2\n")
        with pytest.raises(SamplingError, match="no edges"):
            TripletSampler(g)


class TestTripletSampler:
    def test_batch_triplets_all_valid(self, toy_graph):
        batch = TripletSampler(toy_graph, seed=9).sample_batch(100)
        assert batch.shape == (100, 3) and batch.dtype == np.int64
        for u, i, j in batch.tolist():
            assert has_edge(toy_graph, u, i)
            assert not has_edge(toy_graph, u, j)
            assert j != u and j != i

    def test_fixed_seed_reproduces_stream(self, toy_graph):
        a = TripletSampler(toy_graph, seed=5).sample_batch(200)
        b = TripletSampler(toy_graph, seed=5).sample_batch(200)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self, toy_graph):
        a = TripletSampler(toy_graph, seed=5).sample_batch(200)
        b = TripletSampler(toy_graph, seed=6).sample_batch(200)
        assert not np.array_equal(a, b)

    def test_path_graph_middle_anchor_unsatisfiable(self, tmp_path):
        g = path_graph(tmp_path)
        sampler = TripletSampler(g, seed=0)
        # anchoring at node 1 can never find a negative; anchors 0 and 2 give
        # the unique triplet shape (end, 1, other end)
        seen_error = False
        valid = []
        for _ in range(200):
            try:
                valid.extend(sampler.sample_batch(1).tolist())
            except SamplingError as exc:
                assert "anchor 1 " in str(exc)
                seen_error = True
        assert seen_error
        for u, i, j in valid:
            assert u in (0, 2)
            assert i == 1
            assert j == (2 if u == 0 else 0)

    def test_rejection_fallback_on_dense_neighborhood(self, tmp_path):
        # node 0 adjacent to all but nodes 4 and 5: its negative must be one of them
        g = graph_from_text(tmp_path, "0 1\n0 2\n0 3\n4 5\n")
        batch = TripletSampler(g, seed=3).sample_batch(200)
        assert set(batch[batch[:, 0] == 0, 2].tolist()) <= {4, 5}

    def test_positive_frequencies_match_weights(self, tmp_path):
        g = graph_from_text(tmp_path, "0 1 1.0\n0 2 4.0\n1 2 1.0\n3 4 1.0\n")
        batch = TripletSampler(g, seed=11).sample_batch(30_000)
        counts, total = column_counts(batch, 0, 1, (1, 2))
        assert chi_square_stat(counts, [total * 0.2, total * 0.8]) < CHI2_CRIT[1]

    def test_negative_frequencies_match_restricted_degrees(self, tmp_path):
        # anchor 0 has N(0) = {1}; valid negatives {2, 3, 4, 5} keep their raw
        # degree masses [2, 3, 3, 2], renormalized after the rejections
        g = graph_from_text(tmp_path, "0 1\n3 4\n3 5\n4 2\n4 5\n2 3\n")
        assert g.degree_vector().tolist() == [1, 1, 2, 3, 3, 2]
        batch = TripletSampler(g, seed=13).sample_batch(50_000)
        counts, total = column_counts(batch, 0, 2, (2, 3, 4, 5))
        assert sum(counts) == total  # never u, i, or a neighbor
        expected = np.array([2, 3, 3, 2]) / 10 * total
        assert chi_square_stat(counts, expected) < CHI2_CRIT[3]

    @settings(max_examples=60, deadline=None)
    @given(st.data())
    def test_random_graphs_valid_or_saturated(self, data):
        n = data.draw(st.integers(2, 8))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1,
                                    max_size=len(pairs)))
        edges = np.array(chosen, dtype=np.int64)
        weights = np.array([data.draw(st.floats(1e-3, 1e3)) for _ in chosen])
        g = from_edges(n, 1, edges[:, 0], edges[:, 1], weights, np.array([0]), np.array([0]))
        seed = data.draw(st.integers(0, 2**32 - 1))
        size = data.draw(st.integers(1, 40))
        try:
            batch = TripletSampler(g, seed=seed).sample_batch(size)
        except SamplingError as exc:
            saturated = [u for u in range(n) if len(g.neighbors[u]) == n - 1]
            assert any(f"anchor {u} " in str(exc) for u in saturated)
            return
        assert batch.shape == (size, 3) and batch.dtype == np.int64
        for u, i, j in batch.tolist():
            assert has_edge(g, u, i)
            assert j not in (u, i) and not has_edge(g, u, j)
        assert np.array_equal(batch, TripletSampler(g, seed=seed).sample_batch(size))


# Streams recorded from the sampler: a change to how it consumes its generator
# must re-record them and say so.  In the two star graphs every node
# with degree mass neighbours the hub, so a negative for anchor 1 comes only
# from the fallback scan over isolated nodes: two candidates [0, 5] in the
# first, the single candidate [0] in the second.
GOLDEN_STREAMS = {
    "toy": (None, 5, [
        (3, 2, 0), (4, 3, 1), (0, 4, 2), (4, 3, 2), (2, 1, 4), (2, 1, 4), (3, 4, 0),
        (1, 0, 4), (4, 3, 2), (0, 1, 3), (1, 3, 4), (1, 0, 4), (2, 3, 4), (2, 3, 0),
        (0, 1, 2), (0, 4, 2), (0, 4, 3), (0, 1, 3), (0, 4, 3), (4, 0, 1), (0, 4, 2),
        (3, 2, 0), (3, 1, 0), (1, 0, 4),
    ]),
    "fallback-two": ((["1 2", "1 3", "1 4"], "0\n5\n"), 3, [
        (4, 1, 2), (1, 2, 5), (1, 3, 5), (1, 3, 5), (1, 3, 0), (4, 1, 3), (4, 1, 3),
        (3, 1, 4), (1, 2, 5), (1, 3, 0), (2, 1, 3), (2, 1, 3), (3, 1, 4), (2, 1, 4),
        (2, 1, 3), (1, 2, 0),
    ]),
    "fallback-one": ((["1 2", "1 3"], "0\n"), 3, [
        (3, 1, 2), (1, 2, 0), (1, 2, 0), (1, 3, 0), (1, 2, 0), (3, 1, 2), (3, 1, 2),
        (2, 1, 3), (1, 2, 0), (1, 3, 0), (1, 3, 0), (2, 1, 3), (2, 1, 3), (2, 1, 3),
        (1, 2, 0), (1, 2, 0),
    ]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_fixed_seed_stream_matches_recorded(name, toy_graph, tmp_path):
    files, seed, expected = GOLDEN_STREAMS[name]
    g = toy_graph
    if files is not None:
        edges, attrs = files
        g = graph_from_text(tmp_path, "\n".join(edges) + "\n", attrs)
    batch = TripletSampler(g, seed=seed).sample_batch(len(expected))
    assert batch.dtype == np.int64
    assert np.array_equal(batch, np.array(expected))
