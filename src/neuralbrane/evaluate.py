"""Downstream quality checks for node embeddings.

Classification: random train/test splits at several ratios, a softmax
(multinomial logistic regression) classifier with an L2 penalty solved by
L-BFGS, in variables preconditioned by the feature covariance, until its
max |gradient| is at most ``LOGREG_TOLERANCE``, scored with Macro-F1.
Clustering: repeated k-means with k set to the ground-truth class count,
scored with NMI and Purity; the restarts of a run are seeded together and
take their Lloyd steps together, and a step updates each cluster's sum
from the points that moved.  A 2-component PCA projection is available for
plotting.

All entry points take explicit seeds and are deterministic.  The three
evaluations run with floating-point overflow raised: on finite input it
means the embedding's values are too large, which is reported as a
ValueError rather than as numpy warnings and nan results.
"""

from __future__ import annotations

import contextlib
import logging
from dataclasses import dataclass

import numpy as np

log = logging.getLogger(__name__)

LOGREG_PENALTY = 1e-4
LOGREG_TOLERANCE = 1e-5
LOGREG_MAX_ITERATIONS = 1000
_LBFGS_MEMORY = 10
_ARMIJO = 1e-4  # sufficient-decrease fraction of the backtracking line search
# the covariance's weight beside 2·penalty in the classifier's change of
# variables, and the floor of its relative scales (``_preconditioner``)
_PRECONDITION_SCALE = 0.1
_PRECONDITION_FLOOR = np.finfo(np.float64).eps
# a Lloyd step that moves more than this share of n (restart, point) pairs
# recomputes its cluster sums; a larger share raised `cluster`'s peak RSS
_RECOMPUTE_ABOVE = 1 / 8


@dataclass
class EvalReport:
    """Aggregated metrics; classification and clustering sections are
    populated independently depending on the task that ran."""

    runs: int = 0
    train_ratios: tuple[float, ...] = ()
    macro_f1_mean: tuple[float, ...] = ()
    macro_f1_std: tuple[float, ...] = ()
    macro_f1_runs: tuple[tuple[float, ...], ...] = ()
    nmi_mean: float | None = None
    nmi_std: float | None = None
    purity_mean: float | None = None
    purity_std: float | None = None
    clusters: int | None = None

    def write_csv(self, fh) -> None:
        if self.train_ratios:
            fh.write("task,train_ratio,runs,macro_f1_mean,macro_f1_std\n")
            for ratio, mean, std in zip(self.train_ratios, self.macro_f1_mean,
                                        self.macro_f1_std):
                fh.write(f"classify,{ratio:g},{self.runs},{mean:.9g},{std:.9g}\n")
        if self.nmi_mean is not None:
            fh.write("task,clusters,runs,nmi_mean,nmi_std,purity_mean,purity_std\n")
            fh.write(
                f"cluster,{self.clusters},{self.runs},{self.nmi_mean:.9g},"
                f"{self.nmi_std:.9g},{self.purity_mean:.9g},{self.purity_std:.9g}\n"
            )

    def summary(self) -> str:
        lines = []
        for ratio, mean, std in zip(self.train_ratios, self.macro_f1_mean,
                                    self.macro_f1_std):
            lines.append(
                f"macro-F1 @ train {ratio:.0%}: {mean:.4f} +/- {std:.4f} "
                f"({self.runs} runs)"
            )
        if self.nmi_mean is not None:
            lines.append(
                f"k-means (k={self.clusters}, {self.runs} runs): "
                f"NMI {self.nmi_mean:.4f} +/- {self.nmi_std:.4f}, "
                f"purity {self.purity_mean:.4f} +/- {self.purity_std:.4f}"
            )
        return "\n".join(lines)


@contextlib.contextmanager
def _values_in_range():
    """Raise overflow and invalid operations instead of warning, and report
    them as embedding values too large for the evaluation."""
    with np.errstate(over="raise", invalid="raise"):
        try:
            yield
        except FloatingPointError as exc:
            raise ValueError(f"embedding values are too large to evaluate ({exc})") from None


def split_train_test(labels: np.ndarray, ratio: float, seed=0):
    """Uniform random split of the labeled nodes into train and test indices.

    Only entries with label >= 0 participate.  A split that leaves some class
    absent from the train side is redrawn up to 10 times before failing.
    """
    if not 0.0 < ratio < 1.0:
        raise ValueError("ratio must lie strictly between 0 and 1")
    labels = np.asarray(labels)
    labeled = np.flatnonzero(labels >= 0)
    if len(labeled) < 2:
        raise ValueError("need at least two labeled nodes to split")
    classes = np.unique(labels[labeled])
    n_train = int(round(ratio * len(labeled)))
    n_train = min(max(n_train, 1), len(labeled) - 1)

    rng = np.random.default_rng(seed)
    for _ in range(10):
        order = rng.permutation(labeled)
        train, test = order[:n_train], order[n_train:]
        if len(np.unique(labels[train])) == len(classes):
            return np.sort(train), np.sort(test)
    raise ValueError("could not draw a split covering every class in train")


def _softmax_step(features: np.ndarray, targets: np.ndarray, num_classes: int,
                  train: np.ndarray, penalty: float):
    """The loss and gradient of the softmax classifiers of several fits over
    shared rows, as a function of their bias-augmented weights.

    ``train`` is the (fits × n) boolean mask of each fit's train rows.  The
    returned ``step(weights, fits)`` evaluates the fits whose indices
    ``fits`` lists (every fit by default) at weights of shape
    (len(fits), classes, dim + 1).  It gives each fit's mean cross-entropy
    over its train rows plus an L2 penalty on its non-bias weights, and the
    gradient of that: (len(fits),) losses and a gradient shaped like the
    weights.

    It works class-major on the leading fits of one (fits, classes, n) block,
    in place: logits from one (fits·classes × dim) @ (dim × n) GEMM plus the
    bias column, softmax along the class axis, then the residual, zeroed
    outside each fit's train rows, into one (fits·classes × n) @ (n × dim)
    GEMM and the bias gradient's row sums.  The block is allocated once, so
    evaluating fewer fits uses less of it rather than a new one.  Every fit
    computes every row, so a non-finite value in any row reaches every fit.
    """
    n = train.shape[1]
    dim = features.shape[1]
    block = np.empty((len(train), num_classes, n))
    subset = {}  # the train-row indexing of the set of fits last evaluated

    def rows_of(fits: np.ndarray):
        key = fits.tobytes()
        if key not in subset:
            mask = train[fits]
            fit_of, row_of = np.nonzero(mask)
            # each train row's entry at its own class in the flat block
            hits = (fit_of * num_classes + targets[row_of]) * n + row_of
            subset.clear()
            subset[key] = (hits, np.searchsorted(fit_of, np.arange(len(fits))),
                           mask[:, None, :], mask.sum(axis=1).astype(np.float64))
        return subset[key]

    def step(weights: np.ndarray, fits: np.ndarray | None = None):
        hits, starts, mask, counts = rows_of(np.arange(len(train)) if fits is None else fits)
        k = len(counts)
        probs = block[:k]
        logits = probs.reshape(k * num_classes, n)
        flat = probs.reshape(-1)
        np.matmul(weights[:, :, :-1].reshape(k * num_classes, dim), features.T, out=logits)
        probs += weights[:, :, -1:]
        probs -= probs.max(axis=1, keepdims=True)
        np.exp(probs, out=probs)
        probs *= 1.0 / probs.sum(axis=1, keepdims=True)
        loss = -np.add.reduceat(np.log(np.maximum(flat[hits], 1e-300)), starts) / counts
        probs *= mask
        flat[hits] -= 1.0
        grad = np.empty_like(weights)
        grad[:, :, :-1] = (logits @ features).reshape(k, num_classes, dim)
        grad[:, :, -1] = probs.sum(axis=2)
        grad /= counts[:, None, None]
        if penalty:
            loss += penalty * np.sum(weights[:, :, :-1] ** 2, axis=(1, 2))
            grad[:, :, :-1] += 2.0 * penalty * weights[:, :, :-1]
        return loss, grad

    return step


def train_linear_classifier(features: np.ndarray, targets: np.ndarray,
                            num_classes: int, *, train: np.ndarray | None = None,
                            penalty: float = LOGREG_PENALTY,
                            stats: list | None = None) -> np.ndarray:
    """Softmax cross-entropy (``_softmax_step``) minimised by L-BFGS, for one
    fit or for several fits that share their rows.

    ``features`` (n × dim) are used raw (no scaling), and ``targets`` holds
    each row's class.  ``train`` is the boolean mask of the rows a fit
    trains on: shape (n,) for one fit, (fits, n) for several, and every row
    for one fit by default.  Returns bias-augmented weights of shape
    (num_classes, dim + 1) per fit: (fits, num_classes, dim + 1) for a
    2-d mask.  Each fit starts from zero weights and stops once the max
    |gradient| of its objective is at most ``LOGREG_TOLERANCE`` (``_lbfgs``);
    one that does not within ``LOGREG_MAX_ITERATIONS`` evaluations, or
    whose loss goes non-finite, raises RuntimeError, as do non-finite
    ``features``.  ``stats``, when given, receives one (iterations, final
    max |gradient|) pair per fit.

    The solver works in other variables than W, which changes neither the
    objective nor its optimum, only the path to it; the objective and the
    stopping test stay in W.  Its bias is the bias at the rows' mean rather
    than at the origin (the bias is not penalised): on CiteSeer-shape
    embeddings, whose features have means up to 0.85 beside deviations of
    0.4 at most, that cut the iterations per fit from 150-210 to 95-130
    after 2 training epochs and from 650-980 to 100-115 after 30.  Its
    weights V give W = V·Tᵀ, with T from the rows' covariance
    (``_preconditioner``): on the 2-epoch benchmark embedding that cut the
    iterations per fit from 99-130 to 17-31.
    """
    features = np.asarray(features, dtype=np.float64)
    targets = np.asarray(targets)
    n, dim = features.shape
    mask = np.ones(n, dtype=bool) if train is None else np.asarray(train, dtype=bool)
    masks = mask.reshape(-1, n)
    if any(len(np.unique(targets[m])) < 2 for m in masks):
        raise ValueError("training set must contain at least two classes")
    step = _softmax_step(features, targets, num_classes, masks, penalty)
    shape = (num_classes, dim + 1)
    centre = features.mean(axis=0)
    transform = _preconditioner(features, centre, penalty)

    def weights_of(x):
        # the solver's weights V map to W = V·Tᵀ, and its bias is the bias
        # at the rows' mean: b = c - W·centre
        x = x.reshape(len(x), *shape)
        weights = np.empty_like(x)
        weights[:, :, :-1] = x[:, :, :-1] @ transform.T
        weights[:, :, -1] = x[:, :, -1] - weights[:, :, :-1] @ centre
        return weights

    def centred_step(x, fits):
        loss, grad = step(weights_of(x), fits)
        worst = np.abs(grad).max(axis=(1, 2))
        grad[:, :, :-1] -= grad[:, :, -1:] * centre
        grad[:, :, :-1] = grad[:, :, :-1] @ transform
        return loss, grad.reshape(len(x), -1), worst

    x, iterations, gradient = _lbfgs(centred_step, len(masks), shape[0] * shape[1])
    if stats is not None:
        stats.extend(zip(iterations.tolist(), gradient.tolist()))
    return weights_of(x).reshape(mask.shape[:-1] + shape)


def _preconditioner(features: np.ndarray, centre: np.ndarray, penalty: float) -> np.ndarray:
    """The classifier's change of variables: the (dim × dim) T of W = V·Tᵀ.

    T = Q·diag(σ)^(-1/2), where Q and λ are the eigenvectors and eigenvalues
    of the rows' covariance and σ = ``_PRECONDITION_SCALE``·λ + 2·penalty,
    over its largest value.  The Hessian of the softmax loss is bounded by
    ½(I − 11ᵀ/K) ⊗ XᵀX/n (Böhning, Ann. Inst. Stat. Math. 1992), here of the
    rows about their mean, and the penalty adds 2·penalty·I; so in V the
    Hessian is near a multiple of the identity, the H₀ that L-BFGS scales
    (Nocedal & Wright §7.2).  Full whitening (σ = λ) is not used: it scales
    the penalty's Hessian in V by 1/λ, and on the 2-epoch benchmark
    embedding the fits then took 490-741 iterations, not 17-31.  σ is
    floored at ``_PRECONDITION_FLOOR``, which binds only where σ is 0 to
    rounding, as it can be with no penalty; where σ is 0 throughout, T = I.

    The covariance is XᵀX/n − c·cᵀ, so no centred copy of the rows is made.
    A non-finite covariance, from a non-finite row or one too large to
    square, raises RuntimeError before it reaches the eigensolver.
    """
    cov = features.T @ features
    cov /= len(features)
    cov -= np.outer(centre, centre)
    if not np.isfinite(cov).all():
        raise RuntimeError("classifier features are non-finite or too large")
    eigenvalues, transform = np.linalg.eigh(cov)
    sigma = _PRECONDITION_SCALE * np.maximum(eigenvalues, 0.0) + 2.0 * penalty
    top = sigma.max(initial=0.0)
    if top == 0.0:
        return np.eye(len(centre))
    transform /= np.sqrt(np.maximum(sigma / top, _PRECONDITION_FLOOR))
    return transform


def _lbfgs(step, fits: int, size: int):
    """Minimise ``fits`` objectives of ``size`` variables each from zero by
    L-BFGS (Liu & Nocedal, 1989), all of them through one ``step(x, ids)``
    call per round.  ``step`` returns, for the fits ``ids`` at the rows of
    ``x``, their losses, their (len(ids), size) gradients and the max
    |gradient| that decides when a fit has converged.

    Each fit keeps its own last ``_LBFGS_MEMORY`` step and gradient-change
    pairs (``_two_loop``) and its own step length: a trial step that fails
    the Armijo test is halved, one that passes is taken, and the next trial
    follows the new direction at length 1.  The first direction is steepest
    descent, at length at most 1 / ‖gradient‖.  A fit drops out of the
    rounds once its max |gradient| is at most ``LOGREG_TOLERANCE``; the
    state of the fits left moves up into the leading rows in place, so no
    round allocates the pair history again.  Every evaluation counts as one
    of the fit's iterations.  Returns the (fits, size) minimisers, each
    fit's iterations and its final max |gradient|.
    """
    solution = np.empty((fits, size))
    final = np.empty(fits)
    iterations = np.zeros(fits, dtype=np.intp)

    def evaluate(x, ids):
        result = step(x, ids)
        iterations[ids] += 1
        if not np.isfinite(result[0]).all():
            raise RuntimeError("classifier loss went non-finite")
        return result

    ids = np.arange(fits)  # the fit of each row of the state below
    x = np.zeros((fits, size))
    loss, grad, worst = evaluate(x, ids)
    # each row's (s, y) pairs, newest last, and their 1 / s·y (0 in a slot not
    # yet filled); the pairs only shape the search direction, so they are
    # kept in float32, which halves the largest block a stacked solve holds
    pairs = np.zeros((2, fits, _LBFGS_MEMORY, size), dtype=np.float32)
    rho = np.zeros((fits, _LBFGS_MEMORY))
    gamma = np.ones(fits)  # s·y / y·y of each row's newest pair: H₀ = γI
    direction = -grad
    length = 1.0 / np.maximum(1.0, np.linalg.norm(grad, axis=1))
    while True:
        done = worst <= LOGREG_TOLERANCE
        if done.any():
            solution[ids[done]], final[ids[done]] = x[done], worst[done]
            keep = np.flatnonzero(~done)
            for row, old in enumerate(keep):
                pairs[:, row] = pairs[:, old]
            pairs = pairs[:, :len(keep)]
            ids, x, loss, grad, worst, rho, gamma, direction, length = (
                a[keep] for a in (ids, x, loss, grad, worst, rho, gamma, direction, length))
            if not len(ids):
                return solution, iterations, final
        if iterations[ids].max() >= LOGREG_MAX_ITERATIONS:
            raise RuntimeError(f"classifier did not reach max |gradient| <= "
                               f"{LOGREG_TOLERANCE:g} in {LOGREG_MAX_ITERATIONS} iterations")
        trial = x + length[:, None] * direction
        trial_loss, trial_grad, trial_worst = evaluate(trial, ids)
        taken = trial_loss <= loss + _ARMIJO * length * (grad * direction).sum(axis=1)
        s, y = trial - x, trial_grad - grad
        sy, yy = (s * y).sum(axis=1), (y * y).sum(axis=1)
        for row in np.flatnonzero(taken & (sy > np.finfo(np.float64).eps * yy)):
            pairs[:, row, :-1] = pairs[:, row, 1:]
            pairs[:, row, -1] = s[row], y[row]
            rho[row, :-1] = rho[row, 1:]
            rho[row, -1] = 1.0 / sy[row]
            gamma[row] = sy[row] / yy[row]
        x[taken], loss[taken], grad[taken] = trial[taken], trial_loss[taken], trial_grad[taken]
        worst[taken] = trial_worst[taken]
        direction[taken] = -_two_loop(grad, pairs, rho, gamma)[taken]
        length = np.where(taken, 1.0, 0.5 * length)


def _two_loop(grad: np.ndarray, pairs: np.ndarray, rho: np.ndarray,
              gamma: np.ndarray) -> np.ndarray:
    """H·grad for each row by the L-BFGS two-loop recursion (Nocedal &
    Wright, Algorithm 7.4) over the row's pairs, oldest first, from
    H₀ = γI.  An unfilled slot holds zeros and rho 0, so it changes
    nothing."""
    s, y = pairs
    q = grad.copy()
    alpha = np.empty(rho.shape)
    for i in reversed(range(_LBFGS_MEMORY)):
        alpha[:, i] = rho[:, i] * (s[:, i] * q).sum(axis=1)
        q -= alpha[:, i, None] * y[:, i]
    q *= gamma[:, None]
    for i in range(_LBFGS_MEMORY):
        beta = rho[:, i] * (y[:, i] * q).sum(axis=1)
        q += (alpha[:, i] - beta)[:, None] * s[:, i]
    return q


def predict_linear(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    """Each row's class under bias-augmented weights (classes, dim + 1), or
    one row of classes per fit for weights (fits, classes, dim + 1)."""
    *fits, classes, width = weights.shape
    logits = weights[..., :-1].reshape(-1, width - 1) @ np.asarray(features).T
    logits = logits.reshape(*fits, classes, -1)
    logits += weights[..., -1:]
    return np.argmax(logits, axis=-2)


def macro_f1(y_true, y_pred, num_classes: int) -> float:
    """Unweighted mean of per-class F1; an untouched class contributes 0."""
    y_true = np.asarray(y_true)
    y_pred = np.asarray(y_pred)
    if y_true.shape != y_pred.shape or y_true.size == 0:
        raise ValueError("y_true and y_pred must be equal-length, non-empty")
    total = 0.0
    for c in range(num_classes):
        tp = float(np.sum((y_pred == c) & (y_true == c)))
        fp = float(np.sum((y_pred == c) & (y_true != c)))
        fn = float(np.sum((y_pred != c) & (y_true == c)))
        denom = 2.0 * tp + fp + fn
        total += 2.0 * tp / denom if denom > 0 else 0.0
    return total / num_classes


def within_cluster_ss(points: np.ndarray, assignment: np.ndarray) -> float:
    """Sum of squared distances to each cluster's mean."""
    total = 0.0
    for c in np.unique(assignment):
        members = points[assignment == c]
        total += float(np.sum((members - members.mean(axis=0)) ** 2))
    return total


def _kmeans_plus_plus(points: np.ndarray, norms: np.ndarray, k: int, rng) -> np.ndarray:
    """One restart's k-means++ centres, one ``rng.choice`` per centre.
    ``_seed_restarts`` falls back on it when a restart runs out of distinct
    points."""
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(points.shape[0]))]
    closest = _restart_distances(points, norms, centers[None, :1])[0, 0]
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:  # all points coincide with chosen centers
            centers[c] = points[int(rng.integers(points.shape[0]))]
            continue
        idx = int(rng.choice(points.shape[0], p=closest / total))
        centers[c] = points[idx]
        latest = _restart_distances(points, norms, centers[None, c:c + 1])[0, 0]
        closest = np.minimum(closest, latest)
    return centers


def _seed_restarts(points: np.ndarray, norms: np.ndarray, k: int, restarts: int,
                   rng) -> np.ndarray:
    """k-means++ centres (restarts, k, d) of every restart (Arthur &
    Vassilvitskii, SODA 2007): the centres and random stream of
    ``_kmeans_plus_plus`` run once per restart.

    The draws come in that loop's order: each restart's first index, then
    one uniform per further centre.  Each step then picks every restart's
    next centre from one (restarts × d) @ (d × n) GEMM, by the inverse CDF
    that ``Generator.choice`` draws with.  Where a restart's points all
    coincide with its centres, that loop draws an index instead of a
    uniform, so such a call rewinds the generator and seeds one restart at
    a time.
    """
    n = points.shape[0]
    state = rng.bit_generator.state
    chosen = np.empty((restarts, k), dtype=np.intp)
    uniforms = np.empty((restarts, k - 1))
    for r in range(restarts):
        chosen[r, 0] = rng.integers(n)
        uniforms[r] = rng.random(k - 1)
    closest = np.full((restarts, n), np.inf)
    for c in range(1, k):
        latest = _restart_distances(points, norms, points[chosen[:, c - 1], None])[:, 0]
        np.minimum(closest, latest, out=closest)
        total = closest.sum(axis=1)
        if (total <= 0).any():
            rng.bit_generator.state = state
            return np.stack([_kmeans_plus_plus(points, norms, k, rng) for _ in range(restarts)])
        chosen[:, c] = _inverse_cdf(closest / total[:, None], uniforms[:, c - 1])
    return points[chosen]


def _inverse_cdf(p: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Each row's index of the distribution ``p`` (rows, n) at its uniform,
    the index ``Generator.choice(n, p=row)`` returns after it draws that
    uniform: the cumulative sums, scaled to end at 1, searched from the
    right."""
    cdf = np.cumsum(p, axis=1)
    cdf /= cdf[:, -1:]
    return np.array([np.searchsorted(row, u, "right") for row, u in zip(cdf, uniforms)])


def kmeans(points: np.ndarray, k: int, restarts: int = 10, seed=0,
           max_iter: int = 300, *, stats: list | None = None) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; best of ``restarts`` by
    within-cluster sum of squares.  An emptied cluster is re-seeded at the
    point farthest from its assigned center.

    All restarts are seeded together (``_seed_restarts``) and then run
    their Lloyd steps together (``_lloyd``).  ``stats``, when given,
    receives one (steps, recomputed, updated) tuple: each restart's Lloyd
    steps, and how many steps recomputed the cluster sums and how many
    updated them from the points that moved.
    """
    points = np.asarray(points, dtype=np.float64)
    if k < 1 or k > points.shape[0]:
        raise ValueError("k must be between 1 and the number of points")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    rng = np.random.default_rng(seed)
    norms = np.sum(points ** 2, axis=1)
    centers = _seed_restarts(points, norms, k, restarts, rng)
    assignments, _ = _lloyd(points, norms, centers, max_iter, stats)
    best_assignment = None
    best_wcss = np.inf
    for assignment in assignments:
        wcss = within_cluster_ss(points, assignment)
        if wcss < best_wcss:
            best_wcss = wcss
            best_assignment = assignment
    return best_assignment


def _lloyd(points: np.ndarray, norms: np.ndarray, centers: np.ndarray, max_iter: int,
           stats: list | None = None):
    """Lloyd steps from ``centers`` (restarts, k, d) until no assignment
    changes, or for ``max_iter`` steps; returns the (restarts, n)
    assignments and the centres each restart ended with.

    Each step moves every restart whose assignment still changes.  It
    assigns the points by one GEMM over those restarts (``_restart_scores``)
    and keeps each cluster's sum of members and count.  When more than
    ``_RECOMPUTE_ABOVE`` · n (restart, point) pairs moved, as on the first
    step, the sums are one one-hot GEMM; otherwise one signed GEMM over
    the moved points adds each to its new cluster and takes it from its
    old one.  The centres are the sums over the counts.  A restart with an
    emptied cluster goes through ``_reseed_step`` and has its sums
    recomputed.
    """
    restarts, k, _ = centers.shape
    n = points.shape[0]
    assignments = np.full((restarts, n), -1)
    final = np.empty_like(centers)
    steps = np.zeros(restarts, dtype=np.intp)
    recomputed = updated = 0
    active = np.arange(restarts)
    for _ in range(max_iter):
        steps[active] += 1
        new = _nearest(_restart_scores(points, centers))
        old = assignments[active]
        moved = new != old
        rows, cols = np.nonzero(moved)
        if len(rows) > _RECOMPUTE_ABOVE * n:  # always so on the first step, from -1
            sums, counts = _cluster_sums(points, new, k)
            recomputed += 1
        else:
            signed = np.zeros((len(active) * k, len(rows)))
            signed[rows * k + new[rows, cols], np.arange(len(rows))] = 1.0
            signed[rows * k + old[rows, cols], np.arange(len(rows))] = -1.0
            sums += (signed @ points[cols]).reshape(sums.shape)
            counts += signed.sum(axis=1).reshape(counts.shape)
            updated += 1
        means = sums / np.maximum(counts, 1.0)[:, :, None]
        for a in np.flatnonzero(counts.min(axis=1) == 0):
            d2 = _restart_distances(points, norms, centers[a:a + 1])[0]
            _reseed_step(points, d2, new[a], means[a])
            sums[a:a + 1], counts[a:a + 1] = _cluster_sums(points, new[a:a + 1], k)
            moved[a] = new[a] != old[a]
        assignments[active] = new
        keep = moved.any(axis=1)
        final[active[~keep]] = means[~keep]
        active, centers, sums, counts = active[keep], means[keep], sums[keep], counts[keep]
        if not len(active):
            break
    final[active] = centers
    if stats is not None:
        stats.append((tuple(steps.tolist()), recomputed, updated))
    return assignments, final


def _cluster_sums(points: np.ndarray, assignments: np.ndarray, k: int):
    """Each cluster's sum of members (restarts, k, d) and count (restarts, k)
    under ``assignments`` (restarts, n), by one one-hot GEMM."""
    onehot = (assignments[:, None, :] == np.arange(k)[:, None]).astype(np.float64)
    counts = onehot.sum(axis=2)
    sums = onehot.reshape(-1, len(points)) @ points
    return sums.reshape(len(assignments), k, -1), counts


def _nearest(d2: np.ndarray) -> np.ndarray:
    """``np.argmin(d2, axis=1)`` of a (restarts, k, n) block, ties and NaN
    included: each point's lowest class at the minimum (or the first NaN).
    Reductions along the strided class axis are fast, argmin along it is not."""
    k = d2.shape[1]
    hit = d2 == d2.min(axis=1, keepdims=True)
    hit |= np.isnan(d2)
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]  # class c ranks k - c
    return k - (hit * rank).max(axis=1).astype(np.intp)


def _restart_scores(points: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """|c|² − 2 c·x (restarts, k, n) for each of ``centers`` (restarts, k, d)
    and each point: the squared distance less the point's own |x|², so the
    same nearest centre."""
    r, k, d = centers.shape
    scores = ((-2.0 * centers.reshape(r * k, d)) @ points.T).reshape(r, k, -1)
    scores += np.sum(centers ** 2, axis=2)[:, :, None]
    return scores


def _restart_distances(points: np.ndarray, norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (restarts, k, n) from each of ``centers``
    (restarts, k, d) to each point, whose squared norms ``norms`` holds:
    |c|² − 2 c·x + |x|², clipped at 0."""
    r, k, d = centers.shape
    d2 = (-2.0 * centers.reshape(r * k, d)) @ points.T
    d2 += norms
    d2 = d2.reshape(r, k, -1)
    d2 += np.sum(centers ** 2, axis=2)[:, :, None]
    return np.maximum(d2, 0.0, out=d2)


def _reseed_step(points, d2, assignment, centers) -> None:
    """One restart's centre update when a cluster came out empty: each
    cluster in turn takes its members' mean, or, if it has none, the point
    farthest from its assigned centre, which then joins it.  ``d2`` is the
    (k, n) distance block; ``assignment`` and ``centers`` change in place."""
    for c in range(len(centers)):
        members = assignment == c
        if members.any():
            centers[c] = points[members].mean(axis=0)
        else:
            farthest = int(np.argmax(d2[assignment, np.arange(len(points))]))
            centers[c] = points[farthest]
            assignment[farthest] = c


def _contingency(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    _, ai = np.unique(a, return_inverse=True)
    _, bi = np.unique(b, return_inverse=True)
    table = np.zeros((ai.max() + 1, bi.max() + 1))
    np.add.at(table, (ai, bi), 1.0)
    return table


def nmi(assignment, labels) -> float:
    """Mutual information normalized by the geometric mean of the two
    entropies (natural logs); 0/0 is defined as 0."""
    assignment = np.asarray(assignment)
    labels = np.asarray(labels)
    if assignment.shape != labels.shape or assignment.size == 0:
        raise ValueError("assignment and labels must be equal-length, non-empty")
    joint = _contingency(assignment, labels) / assignment.size
    pa = joint.sum(axis=1)
    pb = joint.sum(axis=0)
    nz = joint > 0
    info = float(np.sum(joint[nz] * np.log(joint[nz] / np.outer(pa, pb)[nz])))
    ha = float(-np.sum(pa[pa > 0] * np.log(pa[pa > 0])))
    hb = float(-np.sum(pb[pb > 0] * np.log(pb[pb > 0])))
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return float(np.clip(info / np.sqrt(ha * hb), 0.0, 1.0))


def purity(assignment, labels) -> float:
    """Fraction of points whose cluster's majority class matches their own."""
    assignment = np.asarray(assignment)
    labels = np.asarray(labels)
    if assignment.shape != labels.shape or assignment.size == 0:
        raise ValueError("assignment and labels must be equal-length, non-empty")
    table = _contingency(assignment, labels)
    return float(table.max(axis=1).sum() / assignment.size)


@_values_in_range()
def project_2d(points: np.ndarray, tol: float = 1e-9) -> np.ndarray:
    """Project rows onto the top two principal components.

    A dense eigensolve of the covariance matrix; the sign of each component
    is fixed so its first nonzero loading is positive.  A component whose
    variance is at most ``tol`` of the total is left zero, so inputs with
    fewer than two directions of variance get zero trailing components.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] < 2:
        raise ValueError("need at least 2-dimensional input rows")
    centered = points - points.mean(axis=0)
    cov = centered.T @ centered / max(points.shape[0] - 1, 1)
    scale = float(np.trace(cov))
    out = np.zeros((points.shape[0], 2))
    if scale <= 0.0:
        return out
    eigenvalues, eigenvectors = np.linalg.eigh(cov)  # ascending
    for comp in range(2):
        if eigenvalues[-1 - comp] <= tol * scale:
            break  # remaining variance is numerically zero
        vec = eigenvectors[:, -1 - comp]
        nonzero = np.flatnonzero(np.abs(vec) > 1e-12)
        if len(nonzero) and vec[nonzero[0]] < 0:
            vec = -vec
        out[:, comp] = centered @ vec
    return out


@_values_in_range()
def run_classification_eval(features: np.ndarray, labels: np.ndarray,
                            ratios=(0.3, 0.5, 0.7), repeats: int = 10,
                            seed=7) -> EvalReport:
    """Repeated random-split logistic-regression evaluation.

    ``features`` rows must align with ``labels``; unlabeled entries (-1) are
    ignored, and the class ids need not run 0..K-1.  Splits are seeded
    deterministically per (ratio, repeat), and the repeats of a ratio are
    trained as one group of fits over the labeled rows.  Each ratio logs one
    INFO line with its fits' range of iterations and their largest final
    max |gradient|.
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, not {repeats}")
    labels = np.asarray(labels)
    labeled = np.flatnonzero(labels >= 0)
    classes, targets = np.unique(labels[labeled], return_inverse=True)
    num_classes = len(classes)
    rows = np.asarray(features)
    if len(labeled) < len(labels):  # a fully labeled embedding is used without a copy
        rows = rows[labeled]
    means, stds, runs_per_ratio = [], [], []
    for r_idx, ratio in enumerate(ratios):
        train = np.zeros((repeats, len(labeled)), dtype=bool)
        for rep in range(repeats):
            split_seed = np.random.SeedSequence((seed, r_idx, rep))
            train_idx, _ = split_train_test(labels, ratio, seed=split_seed)
            train[rep, np.searchsorted(labeled, train_idx)] = True
        stats = []
        weights = train_linear_classifier(rows, targets, num_classes, train=train, stats=stats)
        predicted = predict_linear(weights, rows)
        iterations, gradient = np.array(stats).T
        log.info("classify @ train %g: %d fits converged in %d-%d iterations, "
                 "max |gradient| at most %.2e", ratio, repeats, iterations.min(),
                 iterations.max(), gradient.max())
        scores = [macro_f1(targets[~fit], guess[~fit], num_classes)
                  for fit, guess in zip(train, predicted)]
        means.append(float(np.mean(scores)))
        stds.append(float(np.std(scores)))
        runs_per_ratio.append(tuple(scores))
    return EvalReport(
        runs=repeats,
        train_ratios=tuple(ratios),
        macro_f1_mean=tuple(means),
        macro_f1_std=tuple(stds),
        macro_f1_runs=tuple(runs_per_ratio),
    )


@_values_in_range()
def run_clustering_eval(features: np.ndarray, labels: np.ndarray, k: int | None = None,
                        runs: int = 10, restarts: int = 10, seed=7) -> EvalReport:
    """Repeated k-means scored against the labels with NMI and purity.

    k defaults to the number of distinct labels.  Metrics are averaged over
    ``runs`` independently seeded executions.  One INFO line gives the
    restarts' range of Lloyd steps and how many steps recomputed or
    updated the cluster sums.
    """
    if runs < 1:
        raise ValueError(f"runs (--repeats) must be at least 1, not {runs}")
    labels = np.asarray(labels)
    mask = labels >= 0
    pts = np.asarray(features)
    if not mask.all():  # a fully labeled embedding is clustered without a copy
        pts = pts[mask]
    lab = labels[mask]
    if k is None:
        k = len(np.unique(lab))
    nmis, purities, stats = [], [], []
    for run in range(runs):
        assignment = kmeans(pts, k, restarts=restarts,
                            seed=np.random.SeedSequence((seed, run)), stats=stats)
        nmis.append(nmi(assignment, lab))
        purities.append(purity(assignment, lab))
    steps = [s for restart_steps, _, _ in stats for s in restart_steps]
    log.info("cluster k=%d: %d runs of %d restarts took %d-%d Lloyd steps; cluster sums "
             "recomputed in %d steps, updated in %d", k, runs, restarts, min(steps), max(steps),
             sum(s[1] for s in stats), sum(s[2] for s in stats))
    return EvalReport(
        runs=runs,
        nmi_mean=float(np.mean(nmis)),
        nmi_std=float(np.std(nmis)),
        purity_mean=float(np.mean(purities)),
        purity_std=float(np.std(purities)),
        clusters=int(k),
    )
