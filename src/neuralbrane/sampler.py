"""Training triplet stream: anchor, weighted positive neighbor, degree-biased negative.

A triplet (u, i, j) pairs an anchor u with one of its neighbors i, drawn with
probability proportional to the connecting edge weight, and a non-neighbor j,
drawn with probability proportional to global node degree.  Both discrete
distributions are served by alias tables so a draw costs O(1).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import AttributedGraph


class SamplingError(ValueError):
    """The graph cannot supply the requested sample."""


class Triplet(NamedTuple):
    u: int
    i: int
    j: int


class AliasTable:
    """O(1) sampler for an arbitrary discrete distribution (Vose construction).

    Built in O(size) from non-negative masses; a draw consumes two uniform
    variates.  The induced distribution matches the normalized input masses
    to within floating-point construction error.
    """

    __slots__ = ("size", "probabilities", "aliases")

    def __init__(self, masses) -> None:
        masses = np.asarray(masses, dtype=np.float64)
        if masses.ndim != 1 or masses.size == 0:
            raise SamplingError("alias table needs a non-empty 1-d mass vector")
        if np.any(masses < 0) or not np.all(np.isfinite(masses)):
            raise SamplingError("alias table masses must be finite and non-negative")
        total = masses.sum()
        if total <= 0:
            raise SamplingError("alias table masses sum to zero")

        size = masses.size
        scaled = masses * (size / total)
        prob = np.ones(size, dtype=np.float64)
        alias = np.arange(size, dtype=np.int64)
        small = [i for i in range(size) if scaled[i] < 1.0]
        large = [i for i in range(size) if scaled[i] >= 1.0]
        while small and large:
            s = small.pop()
            l = large.pop()
            prob[s] = scaled[s]
            alias[s] = l
            scaled[l] -= 1.0 - scaled[s]
            (small if scaled[l] < 1.0 else large).append(l)
        for rest in (small, large):
            while rest:
                prob[rest.pop()] = 1.0

        self.size = size
        self.probabilities = prob
        self.aliases = alias

    def draw(self, rng: np.random.Generator) -> int:
        idx = int(rng.integers(self.size))
        if rng.random() < self.probabilities[idx]:
            return idx
        return int(self.aliases[idx])

    def induced_probabilities(self) -> np.ndarray:
        """Exact distribution the table realizes, reconstructed from its cells."""
        p = self.probabilities.copy()
        np.add.at(p, self.aliases, 1.0 - self.probabilities)
        return p / self.size


def build_positive_sampler(g: AttributedGraph, u: int) -> AliasTable:
    """Alias table over N(u) with mass proportional to incident edge weights.

    Draws are local indices into ``g.neighbors[u]``.
    """
    if len(g.neighbors[u]) == 0:
        raise SamplingError(f"node {u} has no neighbors to sample from")
    return AliasTable(g.weights[u])


def build_negative_sampler(g: AttributedGraph) -> AliasTable:
    """Global alias table over all nodes with mass proportional to degree."""
    degrees = g.degree_vector()
    if degrees.sum() == 0:
        raise SamplingError("graph has no edges; negative sampling undefined")
    return AliasTable(degrees.astype(np.float64))


# negative draws rejected at most this many times before scanning all nodes
_MAX_REJECTIONS = 100


class TripletSampler:
    """Deterministic triplet stream over a fixed graph.

    Anchors are drawn uniformly from nodes with at least one neighbor.
    Positive alias tables are built lazily per anchor and cached; the
    degree-proportional negative table is shared.  Each instance owns its
    generator state, so independent streams need independent seeds.
    """

    def __init__(self, g: AttributedGraph, seed=0) -> None:
        if g.edge_count == 0:
            raise SamplingError("graph has no edges")
        self.graph = g
        self.rng = np.random.default_rng(seed)
        self._negative = build_negative_sampler(g)
        self._positive: dict[int, AliasTable] = {}
        self._anchors = np.flatnonzero(g.degree_vector() > 0)

    def _positive_table(self, u: int) -> AliasTable:
        table = self._positive.get(u)
        if table is None:
            table = build_positive_sampler(self.graph, u)
            self._positive[u] = table
        return table

    def _sample_negative(self, u: int, i: int) -> int:
        g = self.graph
        for _ in range(_MAX_REJECTIONS):
            j = self._negative.draw(self.rng)
            if j != u and j != i and not g.has_edge(u, j):
                return j
        allowed = np.ones(g.node_count, dtype=bool)
        allowed[g.neighbors[u]] = False
        allowed[[u, i]] = False
        candidates = np.flatnonzero(allowed)
        if len(candidates) == 0:
            raise SamplingError(
                f"anchor {u} is adjacent to every other node; no negative exists"
            )
        return int(candidates[int(self.rng.integers(len(candidates)))])

    def sample_triplet(self) -> Triplet:
        u = int(self._anchors[int(self.rng.integers(len(self._anchors)))])
        local = self._positive_table(u).draw(self.rng)
        i = int(self.graph.neighbors[u][local])
        j = self._sample_negative(u, i)
        return Triplet(u, i, j)

    def sample_batch(self, batch_size: int) -> list[Triplet]:
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        return [self.sample_triplet() for _ in range(batch_size)]
