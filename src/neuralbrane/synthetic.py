"""Synthetic attributed graphs for benchmarks and tests."""

from __future__ import annotations

import numpy as np

from .graph import AttributedGraph, from_edges


def planted_partition(
    nodes: int = 60,
    communities: int = 2,
    intra_p: float = 0.3,
    inter_p: float = 0.02,
    attributes: int = 20,
    attr_on: float = 0.8,
    attr_off: float = 0.05,
    seed=0,
) -> AttributedGraph:
    """Two-block-style community graph with community-correlated attributes.

    Nodes are split evenly into ``communities`` blocks; same-block pairs get
    an edge with probability ``intra_p``, cross-block pairs with ``inter_p``.
    Attributes are partitioned across blocks, present with probability
    ``attr_on`` on their own block and ``attr_off`` elsewhere.  Labels are
    the block ids.
    """
    rng = np.random.default_rng(seed)
    block = np.arange(nodes) % communities
    edges = []
    for u in range(nodes):
        for v in range(u + 1, nodes):
            p = intra_p if block[u] == block[v] else inter_p
            if rng.random() < p:
                edges.append((u, v))
    src, dst = np.array(edges, dtype=np.int64).reshape(-1, 2).T
    attr_block = np.arange(attributes) % communities
    own = attr_block[None, :] == block[:, None]
    draws = rng.random((nodes, attributes))  # after the edges, one row per node in order
    attr_node, attr_id = np.nonzero(np.where(own, draws < attr_on, draws < attr_off))
    return from_edges(nodes, attributes, src, dst, np.ones(len(src)), attr_node, attr_id,
                      labels=block.astype(np.int64))


def gnm_random_graph(
    nodes: int,
    edges: int,
    attributes: int = 16,
    attrs_per_node: int = 4,
    seed=0,
) -> AttributedGraph:
    """Uniform random graph with exactly ``edges`` distinct undirected edges
    and a fixed-size random attribute set per node."""
    max_edges = nodes * (nodes - 1) // 2
    if edges > max_edges:
        raise ValueError(f"{edges} edges exceed the {max_edges} possible")
    rng = np.random.default_rng(seed)
    chosen = set()
    while len(chosen) < edges:
        u, v = rng.integers(nodes), rng.integers(nodes)
        if u == v:
            continue
        chosen.add((min(u, v), max(u, v)))
    src, dst = np.array(sorted(chosen), dtype=np.int64).reshape(-1, 2).T
    per_node = min(attrs_per_node, attributes)
    attr_id = np.array(
        [rng.choice(attributes, size=per_node, replace=False) for _ in range(nodes)],
        dtype=np.int64,
    ).reshape(nodes, per_node)
    return from_edges(nodes, attributes, src, dst, np.ones(len(src)),
                      np.repeat(np.arange(nodes), per_node), attr_id.ravel())
