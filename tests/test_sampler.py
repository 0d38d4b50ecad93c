import numpy as np
import pytest

from neuralbrane.graph import load_graph
from neuralbrane.sampler import (
    AliasTable,
    SamplingError,
    TripletSampler,
    build_negative_sampler,
    build_positive_sampler,
)

# chi-square upper critical values at significance 0.001
CHI2_CRIT = {1: 10.828, 2: 13.816, 3: 16.266, 4: 18.467}


def chi_square_stat(counts, expected):
    counts = np.asarray(counts, dtype=float)
    expected = np.asarray(expected, dtype=float)
    keep = expected > 0
    return float(np.sum((counts[keep] - expected[keep]) ** 2 / expected[keep]))


def path_graph(tmp_path):
    (tmp_path / "e.txt").write_text("0 1\n1 2\n")
    (tmp_path / "a.txt").write_text("0\n1\n2\n")
    return load_graph(tmp_path / "e.txt", tmp_path / "a.txt")


class TestAliasTable:
    def test_induced_distribution_matches_masses(self, rng):
        for _ in range(50):
            size = int(rng.integers(1, 40))
            masses = rng.random(size) * rng.choice([0.01, 1.0, 100.0])
            masses[rng.random(size) < 0.2] = 0.0
            if masses.sum() == 0:
                masses[0] = 1.0
            table = AliasTable(masses)
            np.testing.assert_allclose(
                table.induced_probabilities(), masses / masses.sum(), atol=1e-12
            )

    def test_single_outcome(self, rng):
        table = AliasTable([3.7])
        assert all(table.draw(rng) == 0 for _ in range(100))

    def test_zero_mass_never_drawn(self, rng):
        table = AliasTable([0.0, 1.0, 3.0])
        draws = np.array([table.draw(rng) for _ in range(100_000)])
        assert np.sum(draws == 0) == 0
        counts = [np.sum(draws == k) for k in (1, 2)]
        assert chi_square_stat(counts, [25_000, 75_000]) < CHI2_CRIT[1]

    def test_invalid_masses_rejected(self):
        with pytest.raises(SamplingError):
            AliasTable([])
        with pytest.raises(SamplingError):
            AliasTable([0.0, 0.0])
        with pytest.raises(SamplingError):
            AliasTable([1.0, -0.5])


class TestPositiveSampler:
    def test_uniform_over_equal_weights(self, toy_graph, rng):
        table = build_positive_sampler(toy_graph, 1)  # N(b) = {a, c, d}, weights 1
        np.testing.assert_allclose(table.induced_probabilities(), [1 / 3] * 3, atol=1e-12)

    def test_weighted_draw_frequencies(self, tmp_path, rng):
        (tmp_path / "e.txt").write_text("0 1 1.0\n0 2 3.0\n")
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        table = build_positive_sampler(g, 0)
        draws = np.array([table.draw(rng) for _ in range(100_000)])
        counts = [np.sum(draws == k) for k in (0, 1)]
        assert chi_square_stat(counts, [25_000, 75_000]) < CHI2_CRIT[1]

    def test_single_neighbor_probability_one(self, tmp_path, rng):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        table = build_positive_sampler(g, 0)
        assert all(table.draw(rng) == 0 for _ in range(50))

    def test_empty_neighborhood_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "a.txt").write_text("2\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        with pytest.raises(SamplingError, match="no neighbors"):
            build_positive_sampler(g, 2)


class TestNegativeSampler:
    def test_uniform_over_equal_degrees(self, tmp_path):
        lines = [f"{u} {v}" for u in range(4) for v in range(u + 1, 4)]
        (tmp_path / "e.txt").write_text("\n".join(lines))
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        table = build_negative_sampler(g)
        np.testing.assert_allclose(table.induced_probabilities(), [0.25] * 4, atol=1e-12)

    def test_degree_proportional_with_isolated_node(self, tmp_path, rng):
        # degrees [0, 1, 3]: build 1-2 plus two extra stubs on node 2
        (tmp_path / "e.txt").write_text("1 2\n2 3\n2 4\n")
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        table = build_negative_sampler(g)
        draws = np.array([table.draw(rng) for _ in range(100_000)])
        assert np.sum(draws == 0) == 0
        # degrees are [0,1,3,1,1]; restrict to nodes 1 and 2, ratio 1:3
        sub = draws[(draws == 1) | (draws == 2)]
        counts = [np.sum(sub == 1), np.sum(sub == 2)]
        assert chi_square_stat(counts, [len(sub) * 0.25, len(sub) * 0.75]) < CHI2_CRIT[1]

    def test_star_center_half_mass(self, tmp_path):
        n = 9
        (tmp_path / "e.txt").write_text("\n".join(f"0 {v}" for v in range(1, n)))
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        table = build_negative_sampler(g)
        assert table.induced_probabilities()[0] == pytest.approx(0.5, abs=1e-12)

    def test_edgeless_graph_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("")
        (tmp_path / "a.txt").write_text("0 1\n1 2\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        with pytest.raises(SamplingError):
            build_negative_sampler(g)


class TestTripletSampler:
    def test_batch_triplets_all_valid(self, toy_graph):
        sampler = TripletSampler(toy_graph, seed=9)
        for t in sampler.sample_batch(100):
            assert toy_graph.has_edge(t.u, t.i)
            assert not toy_graph.has_edge(t.u, t.j)
            assert t.j != t.u and t.j != t.i

    def test_fixed_seed_reproduces_stream(self, toy_graph):
        a = TripletSampler(toy_graph, seed=5).sample_batch(200)
        b = TripletSampler(toy_graph, seed=5).sample_batch(200)
        assert a == b

    def test_different_seeds_differ(self, toy_graph):
        a = TripletSampler(toy_graph, seed=5).sample_batch(200)
        b = TripletSampler(toy_graph, seed=6).sample_batch(200)
        assert a != b

    def test_path_graph_middle_anchor_unsatisfiable(self, tmp_path):
        g = path_graph(tmp_path)
        sampler = TripletSampler(g, seed=0)
        # anchoring at node 1 can never find a negative; anchors 0 and 2 give
        # the unique triplet shape (end, 1, other end)
        seen_error = False
        valid = []
        for _ in range(200):
            try:
                t = sampler.sample_triplet()
                valid.append(t)
            except SamplingError:
                seen_error = True
        assert seen_error
        for t in valid:
            assert t.u in (0, 2)
            assert t.i == 1
            assert t.j == (2 if t.u == 0 else 0)

    def test_rejection_fallback_on_dense_neighborhood(self, tmp_path):
        # node 0 adjacent to all but node 4: the negative for anchor 0 must be 4
        lines = ["0 1", "0 2", "0 3", "4 5"]
        (tmp_path / "e.txt").write_text("\n".join(lines))
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        sampler = TripletSampler(g, seed=3)
        for t in sampler.sample_batch(200):
            if t.u == 0:
                assert t.j in (4, 5)

    def test_positive_frequencies_match_weights(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1 1.0\n0 2 4.0\n1 2 1.0\n3 4 1.0\n")
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        sampler = TripletSampler(g, seed=11)
        picks = [t.i for t in sampler.sample_batch(30_000) if t.u == 0]
        counts = [sum(1 for i in picks if i == 1), sum(1 for i in picks if i == 2)]
        assert chi_square_stat(counts, [len(picks) * 0.2, len(picks) * 0.8]) < CHI2_CRIT[1]

    def test_negative_frequencies_match_restricted_degrees(self, tmp_path):
        # anchor 0 has N(0) = {1}; valid negatives {3, 4, 5} keep their raw
        # degree masses [2, 2, 1], renormalized after the rejections
        (tmp_path / "e.txt").write_text("0 1\n3 4\n3 5\n4 2\n4 5\n2 3\n")
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        assert g.degree_vector().tolist() == [1, 1, 2, 3, 3, 2]
        sampler = TripletSampler(g, seed=13)
        negatives = [t.j for t in sampler.sample_batch(50_000) if t.u == 0]
        counts = [sum(1 for j in negatives if j == v) for v in (2, 3, 4, 5)]
        assert sum(counts) == len(negatives)  # never u, i, or a neighbor
        expected = np.array([2, 3, 3, 2]) / 10 * len(negatives)
        assert chi_square_stat(counts, expected) < CHI2_CRIT[3]


# Streams recorded from the set-based sampler this one replaced.  In the two
# star graphs every node with degree mass neighbours the hub, so a negative
# for anchor 1 comes only from the fallback scan over isolated nodes: two
# candidates [0, 5] in the first, the single candidate [0] in the second.
GOLDEN_STREAMS = {
    "toy": (None, 5, [
        (3, 4, 0), (3, 1, 0), (1, 2, 4), (3, 4, 0), (2, 3, 0), (1, 0, 4), (4, 3, 1),
        (2, 1, 0), (4, 0, 1), (0, 4, 3), (3, 1, 0), (0, 1, 3), (1, 2, 4), (4, 0, 2),
        (2, 3, 4), (4, 0, 2), (3, 1, 0), (2, 1, 4), (1, 0, 4), (3, 2, 0), (4, 3, 2),
        (2, 3, 0), (4, 3, 1), (1, 3, 4),
    ]),
    "fallback-two": ((["1 2", "1 3", "1 4"], "0\n5\n"), 3, [
        (4, 1, 2), (3, 1, 4), (3, 1, 4), (1, 4, 5), (2, 1, 3), (3, 1, 2), (3, 1, 2),
        (1, 2, 0), (4, 1, 2), (1, 4, 5), (3, 1, 2), (3, 1, 4), (3, 1, 4), (1, 4, 5),
        (2, 1, 3), (3, 1, 2),
    ]),
    "fallback-one": ((["1 2", "1 3"], "0\n"), 3, [
        (3, 1, 2), (2, 1, 3), (1, 3, 0), (2, 1, 3), (1, 3, 0), (3, 1, 2), (2, 1, 3),
        (2, 1, 3), (2, 1, 3), (3, 1, 2), (1, 3, 0), (1, 2, 0), (1, 3, 0), (2, 1, 3),
        (2, 1, 3), (2, 1, 3),
    ]),
}


@pytest.mark.parametrize("name", sorted(GOLDEN_STREAMS))
def test_fixed_seed_stream_matches_recorded(name, toy_graph, tmp_path):
    files, seed, expected = GOLDEN_STREAMS[name]
    g = toy_graph
    if files is not None:
        edges, attrs = files
        (tmp_path / "e.txt").write_text("\n".join(edges) + "\n")
        (tmp_path / "a.txt").write_text(attrs)
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
    batch = TripletSampler(g, seed=seed).sample_batch(len(expected))
    assert [tuple(t) for t in batch] == expected
    assert all(type(v) is int for t in batch for v in t)
