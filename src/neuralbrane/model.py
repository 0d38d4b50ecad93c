"""Model parameters and the forward pass.

A node is encoded by max-pooling embedding rows looked up for its attributes
and, separately, for its neighbors; the two pooled vectors are concatenated
and pushed through a shared ReLU layer.  One kernel, ``_pool``, pools for
``forward`` (training, which also keeps the max-pool winners) and for
``embed_all``.  A node without attributes (or neighbors) pools to zero there
and routes no gradient through that half; max-pool ties resolve to the
lowest row index so backpropagation is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .graph import AttributedGraph, Rows
from .serialize import EmbeddingTable, SerializationError, all_finite, read_nbrn, write_nbrn

POOLING_MODES = ("max", "sum")

# Rows per hidden-layer GEMM in ``embed_all``: BLAS may round a row
# differently with other rows beside it, so fixed slices keep an embedding's
# bytes independent of how many nodes one call embeds.
FORWARD_CHUNK = 48

# Rows per block of ``embed_blocks`` (2064): an export holds and pools one
# block of output rows (2.5 MB at h = 150), not the n x dim table.  A
# multiple of FORWARD_CHUNK, so a block's GEMM slices, and with them the
# bytes written, are those of a whole-table pass.
EMBED_BLOCK = 43 * FORWARD_CHUNK

# Embedding rows per sub-block of the pooling kernel, its largest temporary
# (0.6 MB at width 75, reduced while still in cache: on large-embed inputs
# 1024 pooled faster than 4096 or 8192).  A longer node is gathered alone.
_POOL_ROWS = 1024


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
    ``attr_rows`` / ``nbr_rows`` hold the k nodes' row ids (``Rows.take``).
    For max pooling, ``attr_winners`` (k x d1) / ``nbr_winners`` (k x d2)
    hold per column the position in the node's row of the row that won the
    max-pool, the lowest on a tie (zeros for a half without rows); sum
    pooling has none."""

    attr_rows: Rows
    nbr_rows: Rows
    attr_winners: np.ndarray | None
    nbr_winners: np.ndarray | None
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


def _pool(matrix: np.ndarray, rows: Rows, pooling: str, out: np.ndarray,
          backprop: bool) -> np.ndarray | None:
    """Pool ``matrix``'s rows for each of the k rows of ``rows`` into the
    (k x width) zeros of ``out`` (an empty row stays zero); returns with
    ``backprop`` under max pooling the (k x width) winners (see
    ForwardTrace), else None.

    Nodes are bucketed by ceil(log2 length), and a bucket is laid out as an
    (L x nodes) index, L its longest row, then gathered and reduced over L in
    sub-blocks of about ``_POOL_ROWS`` rows: a node pads at most 2x, inside
    its own bucket.  Max pooling pads a row with its own last id, which moves
    neither the max nor the lowest winner.  Sum pooling pads with -0.0 and
    adds a node's rows in order: numpy reduces an outer axis row by row, and
    a lone column, which it would sum pairwise, is accumulated.
    """
    if pooling not in POOLING_MODES:
        raise ValueError(f"unknown pooling mode {pooling!r}")
    lengths = np.diff(rows.indptr)
    won = np.zeros(out.shape, dtype=np.intp) if backprop and pooling == "max" else None
    filled = np.flatnonzero(lengths)
    bucket = np.frexp(lengths[filled] - 1)[1]  # ceil(log2 length)
    for b in np.flatnonzero(np.bincount(bucket)):  # np.unique imports numpy.ma
        members = filled[bucket == b]
        length = lengths[members]
        depth = int(length.max())
        slots = np.arange(depth)[:, None]
        idx = rows.values[rows.indptr[members] + np.minimum(slots, length - 1)]
        step = max(1, _POOL_ROWS // depth)
        for start in range(0, len(members), step):
            part = members[start:start + step]
            block = matrix[idx[:, start:start + step]]
            if pooling == "max":
                out[part] = block.max(axis=0)
                if won is not None:  # argmax takes the lowest position on a tie
                    won[part] = block.argmax(axis=0)
            else:
                block[slots >= length[start:start + step]] = -0.0
                out[part] = (np.add.accumulate(block, axis=0)[-1] if block[0].size == 1
                             else np.add.reduce(block, axis=0, initial=-0.0))
    return won


def forward(params: ModelParameters, g: AttributedGraph, nodes, pooling="max") -> ForwardTrace:
    """Pool each node's two halves, concatenate them (attributes first) and
    apply the hidden layer as one GEMM, for every node of ``nodes`` at once;
    keeps what backpropagation needs, the max-pool winners included."""
    nodes = np.asarray(nodes, dtype=np.int64)
    attr_rows, nbr_rows = g.attributes.take(nodes), g.neighbors.take(nodes)
    f = np.zeros((len(nodes), params.d))
    attr_winners = _pool(params.P, attr_rows, pooling, f[:, :params.d1], backprop=True)
    nbr_winners = _pool(params.P_prime, nbr_rows, pooling, f[:, params.d1:], backprop=True)
    pre = f @ params.W.T + params.b
    return ForwardTrace(attr_rows, nbr_rows, attr_winners, nbr_winners, f, pre,
                        np.maximum(pre, 0.0))


def embed_all(params: ModelParameters, g: AttributedGraph, layer: str = "h",
              pooling: str = "max", nodes=None) -> EmbeddingTable:
    """Embed ``nodes`` (every node by default), pooled in one kernel call:
    row r is node ``nodes[r]``'s hidden vector, or its pooled vector for
    layer='f'.  The hidden layer runs in ``FORWARD_CHUNK`` slices."""
    if layer not in ("h", "f"):
        raise ValueError(f"layer must be 'h' or 'f', got {layer!r}")
    nodes = np.arange(g.node_count) if nodes is None else np.asarray(nodes, dtype=np.int64)
    f = np.zeros((len(nodes), params.d))
    _pool(params.P, g.attributes.take(nodes), pooling, f[:, :params.d1], backprop=False)
    _pool(params.P_prime, g.neighbors.take(nodes), pooling, f[:, params.d1:], backprop=False)
    if layer == "f":
        return EmbeddingTable(vectors=f, ids=nodes)
    out = np.empty((len(nodes), params.h))
    for start in range(0, len(nodes), FORWARD_CHUNK):
        pre = f[start:start + FORWARD_CHUNK] @ params.W.T + params.b
        out[start:start + FORWARD_CHUNK] = np.maximum(pre, 0.0)
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
