"""Ranking loss, exact backpropagation, and the mini-batch SGD loop.

Per triplet (u, i, j) the loss is -ln sigmoid(s_ui - s_uj) plus an L2 term
over the parameters the triplet actually touches: the attribute and neighbor
embedding rows looked up by any of its three nodes, and W and b.  A batch
runs ``forward`` once, on its distinct nodes, and is backpropagated by hand
as arrays, save each lookup's two h x d products.  Those stay in a loop:
summed per node first they would be two GEMMs, and the pooling and routing,
which grow with d alone, would then set the epoch time, no longer linear in
h * d as the paper's cost model and acceptance criterion 5b have it.

One epoch processes as many triplets as the graph has undirected edges,
resampled every epoch; gradients are averaged per batch by default so the
step size is insensitive to batch size.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .graph import AttributedGraph, Rows
from .model import _POOL_ROWS, POOLING_MODES, ModelParameters, forward, init_parameters
from .sampler import TripletSampler

log = logging.getLogger(__name__)

_NO_ROWS = np.empty(0, dtype=np.int64)


class TrainingDivergedError(RuntimeError):
    """Training overflowed or went non-finite; the run was aborted."""


@dataclass
class TrainConfig:
    d1: int = 75
    d2: int = 75
    hidden: int = 150
    learning_rate: float = 0.5
    reg: float = 0.00005
    batch_size: int = 100
    epochs: int = 30
    seed: int = 42
    pooling: str = "max"
    grad_agg: str = "mean"
    convergence_tol: float = 1e-4

    def __post_init__(self) -> None:
        for name in ("d1", "d2", "hidden", "batch_size", "epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be a positive integer")
        if not (math.isfinite(self.learning_rate) and self.learning_rate > 0):
            raise ValueError(f"learning_rate must be positive and finite, not {self.learning_rate}")
        for name in ("reg", "convergence_tol"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value >= 0):
                raise ValueError(f"{name} must be non-negative and finite, not {value}")
        if self.pooling not in POOLING_MODES:
            raise ValueError(f"pooling must be one of {POOLING_MODES}")
        if self.grad_agg not in ("mean", "sum"):
            raise ValueError("grad_agg must be 'mean' or 'sum'")


@dataclass
class GradientSet:
    """Gradients for a batch: one block of rows per embedding matrix over the
    sorted rows the batch looked up (``attr_ids`` into P, ``nbr_ids`` into
    P_prime), dense for W and b.  ``attr_rows`` / ``nbr_rows`` map each row
    id to its gradient row (views into the blocks)."""

    attr_ids: np.ndarray
    attr_grad: np.ndarray
    nbr_ids: np.ndarray
    nbr_grad: np.ndarray
    w_grad: np.ndarray
    b_grad: np.ndarray

    @classmethod
    def zeros(cls, params: ModelParameters) -> "GradientSet":
        return cls(
            attr_ids=_NO_ROWS, attr_grad=np.zeros((0, params.d1)),
            nbr_ids=_NO_ROWS, nbr_grad=np.zeros((0, params.d2)),
            w_grad=np.zeros_like(params.W), b_grad=np.zeros_like(params.b),
        )

    @property
    def attr_rows(self) -> dict[int, np.ndarray]:
        return dict(zip(self.attr_ids.tolist(), self.attr_grad))

    @property
    def nbr_rows(self) -> dict[int, np.ndarray]:
        return dict(zip(self.nbr_ids.tolist(), self.nbr_grad))

    def _blocks(self) -> tuple[np.ndarray, ...]:
        return self.attr_grad, self.nbr_grad, self.w_grad, self.b_grad

    def scale(self, factor: float) -> None:
        for block in self._blocks():
            block *= factor

    def all_finite(self) -> bool:
        return all(np.isfinite(block).all() for block in self._blocks())


@dataclass
class TrainLog:
    """Per-epoch history; ``loss`` is the full objective (ranking + L2 term)."""

    bpr_loss: list[float] = field(default_factory=list)
    reg_loss: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)
    triplets: list[int] = field(default_factory=list)
    converged_epoch: int | None = None

    @property
    def loss(self) -> np.ndarray:
        return np.asarray(self.bpr_loss) + np.asarray(self.reg_loss)

    @property
    def epochs_run(self) -> int:
        return len(self.bpr_loss)

    def write_csv(self, fh) -> None:
        fh.write("epoch,loss,seconds,triplets\n")
        total = self.loss
        for e in range(self.epochs_run):
            fh.write(f"{e},{total[e]:.9g},{self.seconds[e]:.6f},{self.triplets[e]}\n")


def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x) without overflow; equals -ln(sigmoid(-x))
    return np.maximum(x, 0.0) + np.log1p(np.exp(-np.abs(x)))


def _row_gradients(matrix: np.ndarray, rows: Rows, winners: np.ndarray | None,
                   at: np.ndarray, grad_f: np.ndarray, reg: float):
    """One embedding matrix's part of a batch's gradient: the sorted ids of
    the rows the batch looks up, their gradient block, and per triplet the
    summed squared norms of its rows.  ``rows`` and ``winners`` are one
    half's of the batch's ForwardTrace, ``at`` places each triplet's u, i, j
    among its nodes and ``grad_f`` holds each node's pooled-half gradient.
    A row starts at its L2 gradient once per triplet that looks it up."""
    ids, where = np.unique(rows.values, return_inverse=True)  # where: each entry among ids
    # distinct (triplet, row) keys, sorted: each triplet's rows, once each
    # (np.unique would hash them, which is far slower on a hub's rows)
    taken = Rows(rows.indptr, where).take(at)
    keys = np.sort(taken.owners() // 3 * len(ids) + taken.values)
    triplet, local = np.divmod(keys[np.diff(keys, prepend=-1) != 0], len(ids))
    grad = matrix[ids]
    sums = np.bincount(triplet, weights=np.einsum("ij,ij->i", grad, grad)[local],
                       minlength=len(at) // 3)
    grad *= 2.0 * reg * np.bincount(local, minlength=len(ids))[:, None]  # zero when reg is 0

    # unbuffered adds, as a row repeats across nodes; sum pooling routes in
    # slices of _POOL_ROWS entries, so no (entries x width) values exist
    if winners is None:  # every row a node pooled takes the node's gradient
        owner = rows.owners()
        routes = ((where[start:start + _POOL_ROWS, None], owner[start:start + _POOL_ROWS])
                  for start in range(0, len(where), _POOL_ROWS))
    else:  # max pooling: each column to its winning row; an empty half has none
        filled = np.flatnonzero(np.diff(rows.indptr))
        routes = [(where[rows.indptr[filled, None] + winners[filled]], filled)]
    width = grad.shape[1]
    for targets, nodes in routes:
        np.add.at(grad.reshape(-1), (targets * width + np.arange(width)).ravel(),
                  grad_f[nodes].ravel())
    return ids, grad, sums


def batch_gradients(params: ModelParameters, g: AttributedGraph, batch,
                    reg: float = 0.0, pooling: str = "max"):
    """Exact gradients of the summed losses of a batch of triplets, given as
    (u, i, j) rows (a ``sample_batch`` array, or a sequence of Triplets).

    Returns the GradientSet and a (triplets x 2) array of each triplet's
    ranking loss and L2 term, in batch order.  A row looked up by k
    triplets carries k times its L2 gradient; W and b carry it once per
    triplet.
    """
    triplets = np.asarray(batch, dtype=np.int64)
    # a node repeated in the batch (a hub, often) is pooled once; row
    # at[3t], at[3t + 1], at[3t + 2] of the trace is the t-th (u, i, j)
    nodes, at = np.unique(triplets.ravel(), return_inverse=True)
    trace = forward(params, g, nodes, pooling)
    halves = ((params.P, trace.attr_rows, trace.attr_winners),
              (params.P_prime, trace.nbr_rows, trace.nbr_winners))
    h_u, h_i, h_j = (trace.h_vec[at[c::3]] for c in range(3))
    margin = np.einsum("ij,ij->i", h_u, h_i) - np.einsum("ij,ij->i", h_u, h_j)
    e = np.exp(-np.abs(margin))  # sign-split: exp() never overflows
    delta = np.where(margin >= 0.0, 1.0, e) / (1.0 + e) - 1.0  # sigmoid(margin) - 1

    # each lookup's gradient of its hidden vector, in lookup order, ReLU-masked
    grad_h = np.stack([h_i - h_j, h_u, -h_u], axis=1)
    grad_h *= delta[:, None, None]
    grad_h = grad_h.reshape(-1, params.h)
    grad_h[(trace.pre_activation <= 0.0)[at]] = 0.0
    f, w_grad, grad_f = trace.f, np.zeros_like(params.W), np.zeros_like(trace.f)
    del trace, h_u, h_i, h_j  # pre_activation and h_vec are spent
    for k, lookup in zip(at.tolist(), grad_h):  # the h x d products: see the module doc
        w_grad += np.outer(lookup, f[k])
        grad_f[k] += params.W.T @ lookup
    w_grad += 2.0 * reg * len(triplets) * params.W
    b_grad = grad_h.sum(axis=0) + 2.0 * reg * len(triplets) * params.b
    del f, grad_h  # spent before the row blocks are built

    (attr_ids, attr_grad, attr_sums), (nbr_ids, nbr_grad, nbr_sums) = (
        _row_gradients(matrix, rows, winners, at, part, reg)
        for (matrix, rows, winners), part in zip(halves, np.hsplit(grad_f, [params.d1])))
    dense_l2 = float(np.sum(params.W ** 2)) + float(np.sum(params.b ** 2))
    losses = np.column_stack([_softplus(-margin), reg * (dense_l2 + attr_sums + nbr_sums)])
    return GradientSet(attr_ids, attr_grad, nbr_ids, nbr_grad, w_grad, b_grad), losses


def apply_update(params: ModelParameters, grads: GradientSet, learning_rate: float) -> None:
    """One SGD step in place; rejects non-finite gradients.  The step is
    formed in ``grads`` itself, so no block-sized temporary is allocated and
    ``grads`` is spent."""
    if not grads.all_finite():
        raise TrainingDivergedError(
            "non-finite gradient encountered; lower the learning rate or check inputs"
        )
    grads.scale(learning_rate)
    params.P[grads.attr_ids] -= grads.attr_grad
    params.P_prime[grads.nbr_ids] -= grads.nbr_grad
    params.W -= grads.w_grad
    params.b -= grads.b_grad


def _run_epoch(params: ModelParameters, g: AttributedGraph, sampler: TripletSampler,
               cfg: TrainConfig, triplets: int) -> tuple[float, float]:
    """Sample, backpropagate and update over ``triplets`` triplets in batches;
    returns the summed ranking loss and L2 term."""
    totals, remaining = np.zeros(2), triplets
    while remaining > 0:
        batch = sampler.sample_batch(min(cfg.batch_size, remaining))
        remaining -= len(batch)
        grads, losses = batch_gradients(params, g, batch, cfg.reg, cfg.pooling)
        totals += losses.sum(axis=0)
        if cfg.grad_agg == "mean":
            grads.scale(1.0 / len(batch))
        apply_update(params, grads, cfg.learning_rate)
        del grads  # spent; free its blocks before the next batch builds its own
    return float(totals[0]), float(totals[1])


def train(g: AttributedGraph, cfg: TrainConfig) -> tuple[ModelParameters, TrainLog]:
    """Run the sample / forward / backprop / update loop until the epoch loss
    stabilizes (relative change below ``convergence_tol``) or ``epochs`` pass.

    One epoch draws as many triplets as there are undirected edges.  Fully
    deterministic for a fixed seed: the parameter init and the triplet stream
    use independent substreams spawned from ``cfg.seed``.  An epoch that
    overflows or leaves a non-finite loss or parameter raises
    TrainingDivergedError.
    """
    if g.edge_count == 0:
        raise ValueError("cannot train on a graph with no edges")

    init_seed, sampler_seed = np.random.SeedSequence(cfg.seed).spawn(2)
    params = init_parameters(g.node_count, g.attribute_count, cfg.d1, cfg.d2,
                             cfg.hidden, seed=init_seed)
    params.pooling = cfg.pooling
    sampler = TripletSampler(g, seed=sampler_seed)

    triplets_per_epoch = g.edge_count
    tlog = TrainLog()
    previous = None
    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        try:
            with np.errstate(over="raise", invalid="raise"):
                epoch_bpr, epoch_reg = _run_epoch(params, g, sampler, cfg, triplets_per_epoch)
            total = epoch_bpr + epoch_reg
            if not (math.isfinite(total) and params.all_finite()):
                raise FloatingPointError("non-finite loss or parameters")
        except (FloatingPointError, TrainingDivergedError) as exc:
            raise TrainingDivergedError(
                f"training diverged at epoch {epoch} (lr {cfg.learning_rate:g}); lower --lr"
            ) from exc
        tlog.bpr_loss.append(epoch_bpr)
        tlog.reg_loss.append(epoch_reg)
        tlog.seconds.append(time.perf_counter() - started)
        tlog.triplets.append(triplets_per_epoch)
        log.info("epoch %d: loss=%.6f (ranking=%.6f l2=%.6f) %.2fs",
                 epoch, total, epoch_bpr, epoch_reg, tlog.seconds[-1])

        if previous is not None and cfg.convergence_tol > 0:
            change = abs(total - previous) / max(abs(previous), 1e-30)
            if change < cfg.convergence_tol:
                tlog.converged_epoch = epoch
                log.info("converged at epoch %d (relative change %.2e)", epoch, change)
                break
        previous = total
    return params, tlog
