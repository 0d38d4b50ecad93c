"""Training triplet stream: anchor, weighted positive neighbor, degree-biased negative.

A triplet (u, i, j) pairs an anchor u with one of its neighbors i, drawn with
probability proportional to the connecting edge weight, and a non-neighbor j,
drawn with probability proportional to global node degree.  Batches are drawn
as arrays from the graph's CSR rows: a positive by inverse CDF inside u's own
row, a negative as the neighbor column of a uniformly drawn adjacency entry
(degree-proportional, as every edge is stored in both endpoints' rows).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .graph import AttributedGraph, Rows, locate


class SamplingError(ValueError):
    """The graph cannot supply the requested sample."""


class Triplet(NamedTuple):
    u: int
    i: int
    j: int


# negative draws rejected at most this many times before scanning all nodes
_MAX_REJECTIONS = 100


def _row_cdf(weights: Rows, owner: np.ndarray) -> np.ndarray:
    """Each entry's running weight total over its row's total, by a segmented
    (Hillis-Steele) scan: rows never mix, so no row's CDF depends on another's."""
    cum = weights.values.astype(np.float64)
    step = 1
    while step < len(cum) and (same := owner[step:] == owner[:-step]).any():
        cum[step:] += np.where(same, cum[:-step], 0.0)
        step *= 2
    return cum / cum[weights.indptr[owner + 1] - 1]


class TripletSampler:
    """Deterministic triplet stream over a fixed graph, anchored uniformly on nodes with
    neighbors.  Each instance owns its generator, so independent streams need own seeds."""

    def __init__(self, g: AttributedGraph, seed=0) -> None:
        if g.edge_count == 0:
            raise SamplingError("graph has no edges")
        self.graph = g
        self.rng = np.random.default_rng(seed)
        degrees, owner = g.degree_vector(), g.neighbors.owners()
        self._anchors = np.flatnonzero(degrees > 0)
        self._keys = owner * g.node_count + g.neighbors.values  # ascending
        self._cdf = _row_cdf(g.weights, owner)
        self._depth = int(degrees.max()).bit_length()  # binary-search steps per row

    def _positives(self, u: np.ndarray) -> np.ndarray:
        """Per anchor, the first row entry whose CDF exceeds a uniform draw."""
        nbrs, r = self.graph.neighbors, self.rng.random(len(u))
        lo, hi = nbrs.indptr[u], nbrs.indptr[u + 1] - 1
        for _ in range(self._depth):
            mid = (lo + hi) // 2
            right = self._cdf[mid] <= r
            lo, hi = np.where(right, mid + 1, lo), np.where(right, hi, mid)
        return nbrs.values[lo]

    def _negatives(self, u: np.ndarray, i: np.ndarray) -> np.ndarray:
        """Degree-drawn candidates, rejected while equal to u or i or adjacent
        to u; after ``_MAX_REJECTIONS`` rounds, uniform over the allowed nodes."""
        g, j, pending = self.graph, np.empty_like(u), np.arange(len(u))
        for _ in range(_MAX_REJECTIONS):
            if len(pending) == 0:
                return j
            cand = g.neighbors.values[self.rng.integers(len(self._keys), size=len(pending))]
            pu = u[pending]
            ok = ((cand != pu) & (cand != i[pending])
                  & ~locate(self._keys, pu * g.node_count + cand)[1])
            j[pending[ok]] = cand[ok]
            pending = pending[~ok]
        for k in pending.tolist():
            allowed = np.ones(g.node_count, dtype=bool)
            allowed[np.append(g.neighbors[u[k]], (u[k], i[k]))] = False
            candidates = np.flatnonzero(allowed)
            if len(candidates) == 0:
                raise SamplingError(
                    f"anchor {u[k]} is adjacent to every other node; no negative exists")
            j[k] = candidates[self.rng.integers(len(candidates))]
        return j

    def sample_batch(self, batch_size: int) -> np.ndarray:
        """``batch_size`` triplets (u, i, j) as the rows of an int64 array."""
        if batch_size <= 0:
            raise ValueError("batch_size must be positive")
        u = self._anchors[self.rng.integers(len(self._anchors), size=batch_size)]
        i = self._positives(u)
        return np.stack([u, i, self._negatives(u, i)], axis=1).astype(np.int64, copy=False)
