"""Model parameters and the forward pass.

A node is encoded by max-pooling embedding rows looked up for its attributes
and, separately, for its neighbors; the two pooled vectors are concatenated
and pushed through a shared ReLU layer.  Node similarity is the dot product
of the hidden representations, and the ranking probability for a triplet is
a sigmoid of the similarity margin.

Nodes with an empty attribute set (or no neighbors) pool to the zero vector
and route no gradient through that half; max-pool ties resolve to the lowest
row index so backpropagation is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .graph import AttributedGraph
from .serialize import EmbeddingTable, read_nbrn, write_nbrn

POOLING_MODES = ("max", "sum")

_EMPTY_ARGMAX = np.empty(0, dtype=np.int64)


@dataclass
class ModelParameters:
    """All learnable state: two embedding matrices plus the hidden layer.

    P (attribute_count x d1) embeds attributes, P_prime (node_count x d2)
    embeds nodes in their neighbor role, W (h x d) and b (h) form the hidden
    layer, with d = d1 + d2.
    """

    P: np.ndarray
    P_prime: np.ndarray
    W: np.ndarray
    b: np.ndarray
    d1: int
    d2: int
    h: int

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            P=self.P.copy(), P_prime=self.P_prime.copy(),
            W=self.W.copy(), b=self.b.copy(),
            d1=self.d1, d2=self.d2, h=self.h,
        )

    def all_finite(self) -> bool:
        return bool(
            np.all(np.isfinite(self.P)) and np.all(np.isfinite(self.P_prime))
            and np.all(np.isfinite(self.W)) and np.all(np.isfinite(self.b))
        )


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass, kept for exact backprop.

    ``attr_argmax`` / ``nbr_argmax`` hold, per output dimension, the local
    index into ``attr_rows`` / ``nbr_rows`` that won the max-pool (empty for
    sum pooling or an empty lookup set).
    """

    attr_rows: np.ndarray
    nbr_rows: np.ndarray
    attr_argmax: np.ndarray
    nbr_argmax: np.ndarray
    f: np.ndarray
    pre_activation: np.ndarray
    h_vec: np.ndarray


INIT_STDDEV = 0.1  # i.e. variance 0.01; smaller scales cannot escape the
                   # flat region of the ranking loss at the default step size


def init_parameters(n: int, m: int, d1: int, d2: int, h: int, seed=0) -> ModelParameters:
    """Draw every entry i.i.d. from a zero-mean Gaussian, deterministically per seed.

    Matrices are drawn in the fixed order P, P_prime, W, b.
    """
    for name, value in (("n", n), ("m", m), ("d1", d1), ("d2", d2), ("h", h)):
        if value < 1:
            raise ValueError(f"dimension {name} must be >= 1, got {value}")
    rng = np.random.default_rng(seed)
    return ModelParameters(
        P=rng.normal(0.0, INIT_STDDEV, size=(m, d1)),
        P_prime=rng.normal(0.0, INIT_STDDEV, size=(n, d2)),
        W=rng.normal(0.0, INIT_STDDEV, size=(h, d1 + d2)),
        b=rng.normal(0.0, INIT_STDDEV, size=h),
        d1=d1, d2=d2, h=h,
    )


def _pool_rows(matrix: np.ndarray, rows: np.ndarray, width: int, pooling: str):
    """Pool the selected rows columnwise; empty selections pool to zero."""
    if len(rows) == 0:
        return np.zeros(width), _EMPTY_ARGMAX
    sub = matrix[rows]
    if pooling == "max":
        winners = np.argmax(sub, axis=0)  # first row wins ties
        return sub[winners, np.arange(width)], winners
    if pooling == "sum":
        return sub.sum(axis=0), _EMPTY_ARGMAX
    raise ValueError(f"unknown pooling mode {pooling!r}")


def encode_attributes(params: ModelParameters, attrs: np.ndarray, pooling="max"):
    """Pooled vector of the attribute ids ``attrs`` plus per-dimension winner indices."""
    return _pool_rows(params.P, attrs, params.d1, pooling)


def encode_neighbors(params: ModelParameters, nbrs: np.ndarray, pooling="max"):
    """Pooled vector of the neighbor ids ``nbrs`` plus per-dimension winner indices."""
    return _pool_rows(params.P_prime, nbrs, params.d2, pooling)


def hidden(params: ModelParameters, f: np.ndarray):
    """ReLU hidden transform; returns (h_vec, pre_activation)."""
    pre = params.W @ f + params.b
    return np.maximum(pre, 0.0), pre


def forward(params: ModelParameters, g: AttributedGraph, u: int, pooling="max") -> ForwardTrace:
    """Pool node u's two halves, concatenate them (attributes first), apply the hidden layer."""
    attr_rows, nbr_rows = g.attributes[u], g.neighbors[u]  # once: each lookup is a Python call
    v_attr, attr_argmax = encode_attributes(params, attr_rows, pooling)
    v_nbr, nbr_argmax = encode_neighbors(params, nbr_rows, pooling)
    f = np.concatenate([v_attr, v_nbr])
    h_vec, pre = hidden(params, f)
    return ForwardTrace(attr_rows, nbr_rows, attr_argmax, nbr_argmax, f, pre, h_vec)


def similarity(h_u: np.ndarray, h_i: np.ndarray) -> float:
    if h_u.shape != h_i.shape:
        raise ValueError("similarity needs vectors of equal length")
    return float(np.dot(h_u, h_i))


def sigmoid(x: float) -> float:
    # sign-split keeps exp() arguments non-positive, so no overflow
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def bpr_probability(s_ui: float, s_uj: float) -> float:
    """Probability that the ranking s_ui > s_uj is preserved."""
    return sigmoid(s_ui - s_uj)


def embed_all(
    params: ModelParameters,
    g: AttributedGraph,
    layer: str = "h",
    pooling: str = "max",
) -> EmbeddingTable:
    """Embed every node; row u is its hidden vector (or pooled vector for layer='f')."""
    if layer not in ("h", "f"):
        raise ValueError(f"layer must be 'h' or 'f', got {layer!r}")
    dim = params.h if layer == "h" else params.d
    out = np.empty((g.node_count, dim))
    for u in range(g.node_count):
        trace = forward(params, g, u, pooling)
        out[u] = trace.h_vec if layer == "h" else trace.f
    return EmbeddingTable(vectors=out)


def save_checkpoint(params: ModelParameters, path) -> None:
    """Persist parameters: NBRN magic, version, dims (n, m, d1, d2, h), then
    P, P_prime, W, b row-major as little-endian float64."""
    n, m = params.P_prime.shape[0], params.P.shape[0]
    write_nbrn(path, (n, m, params.d1, params.d2, params.h),
               (params.P, params.P_prime, params.W, params.b))


def _checkpoint_blocks(n: int, m: int, d1: int, d2: int, h: int) -> tuple[int, ...]:
    """Value counts of P, P_prime, W and b."""
    return m * d1, n * d2, h * (d1 + d2), h


def load_checkpoint(path) -> ModelParameters:
    dims, flat = read_nbrn(path, 5, lambda *dims: sum(_checkpoint_blocks(*dims)))
    n, m, d1, d2, h = dims
    P, P_prime, W, b = np.split(flat, np.cumsum(_checkpoint_blocks(*dims))[:-1])
    return ModelParameters(
        P=P.reshape(m, d1), P_prime=P_prime.reshape(n, d2), W=W.reshape(h, d1 + d2), b=b,
        d1=d1, d2=d2, h=h,
    )
