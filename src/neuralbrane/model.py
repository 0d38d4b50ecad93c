"""Model parameters and the forward pass.

A node is encoded by max-pooling embedding rows looked up for its attributes
and, separately, for its neighbors; the two pooled vectors are concatenated
and pushed through a shared ReLU layer.  ``forward`` does this for an array
of nodes at once: each half's rows are gathered end to end, each node's run
of them is reduced in one ``reduceat``, and one GEMM applies the hidden
layer.  Node similarity is the dot product of the hidden representations,
and the ranking probability for a triplet is a sigmoid of the similarity
margin.

Nodes with an empty attribute set (or no neighbors) pool to the zero vector
and route no gradient through that half; max-pool ties resolve to the lowest
row index so backpropagation is deterministic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import AttributedGraph, Rows
from .serialize import EmbeddingTable, SerializationError, all_finite, read_nbrn, write_nbrn

POOLING_MODES = ("max", "sum")

# Nodes per forward call (16 triplets in training).  The gathered rows, and
# with them the peak memory of training and embedding, grow with it.
FORWARD_CHUNK = 48

# Rows per block of ``embed_blocks`` (2064): an export holds one block of
# output rows (2.5 MB at h = 150), not the n x dim table.  The text writer
# formats a block in sub-blocks of its own (``serialize._FORMAT_ROWS``), so
# this size bounds memory and leaves formatting alone.  A multiple of
# FORWARD_CHUNK, so each forward call gets the nodes it gets in a whole-table
# pass: BLAS may round a row's hidden vector differently with other rows
# beside it, and the bytes written would change.
EMBED_BLOCK = 43 * FORWARD_CHUNK


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
    pooling: str | None = None  # the one trained with (``train``, a v2 checkpoint), if known

    @property
    def d(self) -> int:
        return self.d1 + self.d2

    def copy(self) -> "ModelParameters":
        return ModelParameters(
            P=self.P.copy(), P_prime=self.P_prime.copy(),
            W=self.W.copy(), b=self.b.copy(),
            d1=self.d1, d2=self.d2, h=self.h, pooling=self.pooling,
        )

    def nonfinite_block(self) -> str | None:
        """The name of the first of P, P_prime, W and b that holds a NaN or an
        infinity, or None."""
        return next((name for name in ("P", "P_prime", "W", "b")
                     if not all_finite(getattr(self, name))), None)

    def all_finite(self) -> bool:
        return self.nonfinite_block() is None


@dataclass
class ForwardTrace:
    """Every intermediate of one forward pass over k nodes, kept for exact
    backprop; row r of each field belongs to the r-th node passed in.

    ``attr_rows`` / ``nbr_rows`` hold the k nodes' row ids (``Rows.take``),
    and ``attr_block`` / ``nbr_block`` the rows they select, one per entry of
    their ``values``.
    """

    pooling: str
    attr_rows: Rows
    nbr_rows: Rows
    attr_block: np.ndarray
    nbr_block: np.ndarray
    f: np.ndarray
    pre_activation: np.ndarray
    h_vec: np.ndarray

    def winners(self, r: int) -> tuple[np.ndarray, np.ndarray]:
        """For the r-th node, per output dimension, the position in its
        ``attr_rows`` / ``nbr_rows`` row of the row that won the max-pool, the
        lowest on a tie.  Sum pooling and a half without rows have no winners
        (an empty array)."""
        found = []
        for rows, block in ((self.attr_rows, self.attr_block), (self.nbr_rows, self.nbr_block)):
            run = block[rows.indptr[r]:rows.indptr[r + 1]]
            found.append(np.argmax(run, axis=0) if self.pooling == "max" and len(run)
                         else np.empty(0, dtype=np.int64))
        return found[0], found[1]


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


def forward(params: ModelParameters, g: AttributedGraph, nodes, pooling="max") -> ForwardTrace:
    """Pool each node's two halves, concatenate them (attributes first) and
    apply the hidden layer, for every node of ``nodes`` at once."""
    if pooling not in POOLING_MODES:
        raise ValueError(f"unknown pooling mode {pooling!r}")
    nodes = np.asarray(nodes, dtype=np.int64)
    reduce = np.maximum if pooling == "max" else np.add
    halves = []
    for matrix, lists in ((params.P, g.attributes), (params.P_prime, g.neighbors)):
        rows = lists.take(nodes)
        block = matrix[rows.values]
        filled = rows.indptr[1:] > rows.indptr[:-1]
        pooled = np.zeros((len(nodes), matrix.shape[1]))  # a node without rows pools to zero
        pooled[filled] = reduce.reduceat(block, rows.indptr[:-1][filled], axis=0)
        halves.append((rows, block, pooled))
    (attr_rows, attr_block, v_attr), (nbr_rows, nbr_block, v_nbr) = halves
    f = np.concatenate([v_attr, v_nbr], axis=1)
    pre = f @ params.W.T + params.b
    return ForwardTrace(pooling, attr_rows, nbr_rows, attr_block, nbr_block, f, pre,
                        np.maximum(pre, 0.0))


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
    nodes=None,
) -> EmbeddingTable:
    """Embed ``nodes`` (every node by default): row r is node ``nodes[r]``'s
    hidden vector, or its pooled vector for layer='f'."""
    if layer not in ("h", "f"):
        raise ValueError(f"layer must be 'h' or 'f', got {layer!r}")
    nodes = np.arange(g.node_count) if nodes is None else np.asarray(nodes, dtype=np.int64)
    out = np.empty((len(nodes), params.h if layer == "h" else params.d))
    for start in range(0, len(nodes), FORWARD_CHUNK):
        trace = forward(params, g, nodes[start:start + FORWARD_CHUNK], pooling)
        out[start:start + FORWARD_CHUNK] = trace.h_vec if layer == "h" else trace.f
    return EmbeddingTable(vectors=out, ids=nodes)


def embed_blocks(params: ModelParameters, g: AttributedGraph, layer: str = "h",
                 pooling: str = "max"):
    """Yield the rows of ``embed_all`` as consecutive tables of ``EMBED_BLOCK``
    nodes (the last one shorter), each computed when it is asked for."""
    for start in range(0, g.node_count, EMBED_BLOCK):
        yield embed_all(params, g, layer, pooling,
                        np.arange(start, min(start + EMBED_BLOCK, g.node_count)))


# Checkpoint versions: v1 holds dims (n, m, d1, d2, h); v2 adds the pooling
# the parameters were trained with, as its index in POOLING_MODES.
FORMAT_VERSION = 2
_CHECKPOINT_LAYOUTS = {1: 5, 2: 6}


def save_checkpoint(params: ModelParameters, path) -> None:
    """Persist parameters: NBRN magic, version 2, dims (n, m, d1, d2, h), the
    pooling (max where ``params`` do not know theirs), then P, P_prime, W, b
    row-major as little-endian float64."""
    n, m = params.P_prime.shape[0], params.P.shape[0]
    pooling = POOLING_MODES.index(params.pooling or "max")
    with Path(path).open("wb") as fh:
        write_nbrn(fh, FORMAT_VERSION, (n, m, params.d1, params.d2, params.h, pooling),
                   (params.P, params.P_prime, params.W, params.b))


def _checkpoint_blocks(n: int, m: int, d1: int, d2: int, h: int, *_) -> tuple[int, ...]:
    """Value counts of P, P_prime, W and b."""
    return m * d1, n * d2, h * (d1 + d2), h


def load_checkpoint(path) -> ModelParameters:
    """The parameters of a v1 or v2 checkpoint; ``pooling`` is the mode a v2
    file records, None for v1.  A block holding a NaN or an infinity raises
    SerializationError."""
    version, dims, flat = read_nbrn(path, _CHECKPOINT_LAYOUTS,
                                    lambda *dims: sum(_checkpoint_blocks(*dims)))
    n, m, d1, d2, h = dims[:5]
    pooling = None
    if version >= 2:
        if dims[5] >= len(POOLING_MODES):
            raise SerializationError(f"{path}: unknown pooling mode {dims[5]}")
        pooling = POOLING_MODES[dims[5]]
    P, P_prime, W, b = np.split(flat, np.cumsum(_checkpoint_blocks(*dims))[:-1])
    params = ModelParameters(
        P=P.reshape(m, d1), P_prime=P_prime.reshape(n, d2), W=W.reshape(h, d1 + d2), b=b,
        d1=d1, d2=d2, h=h, pooling=pooling,
    )
    bad = params.nonfinite_block()
    if bad is not None:
        raise SerializationError(f"{path}: checkpoint block {bad} holds a non-finite value")
    return params
