"""Ranking loss, exact backpropagation, and the mini-batch SGD loop.

Per triplet (u, i, j) the loss is -ln sigmoid(s_ui - s_uj) plus an L2 term
over the parameters the triplet actually touches: the attribute and neighbor
embedding rows looked up by any of its three nodes, and W and b.  A batch
runs ``forward`` once, on its distinct nodes; gradients are then computed by
hand per lookup through the dot-product margin, the ReLU hidden layer, the
concatenation, and the pooling (routed to the max-pool winners, broadcast
to all rows for sum pooling), and summed into a block of rows per matrix.

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
from .model import POOLING_MODES, ModelParameters, forward, init_parameters, sigmoid
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


class _RowBlock:
    """One embedding matrix's batch gradient over the rows the batch looks
    up, started at each row's L2 gradient once for every triplet that looks
    it up.  ``looked_up[t]`` holds triplet t's rows, sorted.  ``rows`` are
    the batch forward's (``attr_rows`` / ``nbr_rows``), and ``at`` places
    each triplet's u, i and j among them."""

    def __init__(self, matrix: np.ndarray, rows: Rows, at: np.ndarray, reg: float) -> None:
        # distinct (triplet, row) keys, sorted: each triplet's rows, once each
        # (np.unique hashes the keys, which is far slower on a hub's rows)
        taken, n, triplets = rows.take(at), len(matrix), len(at) // 3
        keys = np.sort(taken.owners() // 3 * n + taken.values)
        keys = keys[np.diff(keys, prepend=-1) != 0]
        self.looked_up = Rows(np.searchsorted(keys, np.arange(triplets + 1) * n), keys % n)
        self.ids, counts = np.unique(self.looked_up.values, return_counts=True)
        self.grad = matrix[self.ids]
        self.grad *= (2.0 * reg * counts)[:, None]  # zero when reg is 0
        self.cols = np.arange(matrix.shape[1])

    def route(self, rows: Rows, winners: np.ndarray | None, k: int, part: np.ndarray) -> None:
        """Add the gradient of node k's pooled vector to the rows it pooled:
        ``rows`` and ``winners`` are one half's in a ForwardTrace.  The rows
        of one lookup are distinct, so a fancy-indexed += is exact."""
        local = np.searchsorted(self.ids, rows[k])
        if winners is None:  # sum pooling broadcasts; an empty lookup pooled to zero
            self.grad[local] += part
        elif len(local):  # max pooling: each column to its winning row
            self.grad[local[winners[k]], self.cols] += part


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


def _softplus(x: float) -> float:
    # log(1 + e^x) without overflow; equals -ln(sigmoid(-x))
    if x > 0.0:
        return x + math.log1p(math.exp(-x))
    return math.log1p(math.exp(x))


def batch_gradients(params: ModelParameters, g: AttributedGraph, batch,
                    reg: float = 0.0, pooling: str = "max"):
    """Exact gradients of the summed losses of a batch of triplets, given as
    (u, i, j) rows (a ``sample_batch`` array, or a sequence of Triplets).

    Returns the GradientSet and each triplet's (ranking loss, L2 term) in
    batch order.  A row looked up by k triplets carries k times its L2
    gradient; W and b carry it once per triplet.
    """
    triplets = np.asarray(batch, dtype=np.int64)
    # a node repeated in the batch (a hub, often) is pooled once; row
    # at[3t], at[3t + 1], at[3t + 2] of the trace is the t-th (u, i, j)
    nodes, at = np.unique(triplets.ravel(), return_inverse=True)
    trace = forward(params, g, nodes, pooling)
    attr = _RowBlock(params.P, trace.attr_rows, at, reg)
    nbr = _RowBlock(params.P_prime, trace.nbr_rows, at, reg)
    w_grad, b_grad, losses = np.zeros_like(params.W), np.zeros_like(params.b), []
    dense_l2 = float(np.sum(params.W ** 2)) + float(np.sum(params.b ** 2))
    for t, rows in enumerate(at.reshape(-1, 3)):
        h_u, h_i, h_j = trace.h_vec[rows]
        margin = float(np.dot(h_u, h_i) - np.dot(h_u, h_j))
        delta = sigmoid(margin) - 1.0  # d/d(margin) of -ln sigmoid(margin)
        grads_h = (delta * (h_i - h_j), delta * h_u, -delta * h_u)
        for k, grad_h in zip(rows, grads_h):
            masked = np.where(trace.pre_activation[k] > 0.0, grad_h, 0.0)
            w_grad += np.outer(masked, trace.f[k])
            b_grad += masked
            grad_f = params.W.T @ masked  # split at the concat seam below
            attr.route(trace.attr_rows, trace.attr_winners, k, grad_f[:params.d1])
            nbr.route(trace.nbr_rows, trace.nbr_winners, k, grad_f[params.d1:])
        l2 = 0.0
        if reg != 0.0:
            l2 = reg * (dense_l2 + float(np.sum(params.P[attr.looked_up[t]] ** 2))
                        + float(np.sum(params.P_prime[nbr.looked_up[t]] ** 2)))
        losses.append((_softplus(-margin), l2))

    w_grad += 2.0 * reg * len(triplets) * params.W
    b_grad += 2.0 * reg * len(triplets) * params.b
    return GradientSet(attr.ids, attr.grad, nbr.ids, nbr.grad, w_grad, b_grad), losses


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
    epoch_bpr = 0.0
    epoch_reg = 0.0
    remaining = triplets
    while remaining > 0:
        batch = sampler.sample_batch(min(cfg.batch_size, remaining))
        remaining -= len(batch)
        grads, losses = batch_gradients(params, g, batch, cfg.reg, cfg.pooling)
        for bpr, reg_term in losses:
            epoch_bpr += bpr
            epoch_reg += reg_term
        if cfg.grad_agg == "mean":
            grads.scale(1.0 / len(batch))
        apply_update(params, grads, cfg.learning_rate)
        del grads  # spent; free its blocks before the next batch builds its own
    return epoch_bpr, epoch_reg


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
