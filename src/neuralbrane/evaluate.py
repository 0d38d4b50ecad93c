"""Downstream quality checks for node embeddings.

Classification: random train/test splits at several ratios, a softmax
(multinomial logistic regression) classifier trained by full-batch gradient
descent, scored with Macro-F1.  Clustering: repeated k-means with k set to
the ground-truth class count, scored with NMI and Purity.  A 2-component PCA
projection is available for plotting.

All entry points take explicit seeds and are deterministic.  The three
evaluations run with floating-point overflow raised: on finite input it
means the embedding's values are too large, which is reported as a
ValueError rather than as numpy warnings and nan results.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass

import numpy as np

LOGREG_PENALTY = 1e-4
LOGREG_ITERATIONS = 500
LOGREG_LEARNING_RATE = 0.1


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


def _design(features: np.ndarray, targets: np.ndarray, num_classes: int):
    """The transposed bias-augmented design, (dim+1 × n), and the
    (classes × n) one-hot targets."""
    n = features.shape[0]
    onehot = np.zeros((num_classes, n))
    onehot[targets, np.arange(n)] = 1.0
    return np.vstack([features.T, np.ones((1, n))]), onehot


def softmax_cross_entropy(weights: np.ndarray, features: np.ndarray,
                          targets: np.ndarray, num_classes: int,
                          penalty: float = LOGREG_PENALTY):
    """Mean cross-entropy of a bias-augmented softmax classifier plus an L2
    penalty on the non-bias weights; returns (loss, gradient)."""
    design, onehot = _design(features, targets, num_classes)
    return _cross_entropy(weights, design, onehot, targets, penalty)


def _cross_entropy(weights, design, onehot, targets, penalty):
    """softmax_cross_entropy on the transposed design and one-hot targets of
    ``_design``.  Works class-major: the logits are (classes × n), so the
    reductions over the few classes run along axis 0 across whole rows."""
    n = design.shape[1]
    logits = weights @ design
    logits -= logits.max(axis=0)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=0)
    picked = probs[targets, np.arange(n)]
    loss = float(-np.mean(np.log(np.maximum(picked, 1e-300))))
    probs -= onehot
    grad = probs @ design.T / n
    if penalty:
        loss += penalty * float(np.sum(weights[:, :-1] ** 2))
        grad[:, :-1] += 2.0 * penalty * weights[:, :-1]
    return loss, grad


def train_linear_classifier(features: np.ndarray, targets: np.ndarray,
                            num_classes: int, *, penalty: float = LOGREG_PENALTY,
                            iterations: int = LOGREG_ITERATIONS,
                            learning_rate: float = LOGREG_LEARNING_RATE) -> np.ndarray:
    """Full-batch gradient descent on softmax cross-entropy.

    Features are used raw (no scaling).  Returns a bias-augmented weight
    matrix of shape (num_classes, dim + 1).
    """
    targets = np.asarray(targets)
    present = np.unique(targets)
    if len(present) < 2:
        raise ValueError("training set must contain at least two classes")
    design, onehot = _design(features, targets, num_classes)
    weights = np.zeros((num_classes, features.shape[1] + 1))
    for _ in range(iterations):
        loss, grad = _cross_entropy(weights, design, onehot, targets, penalty)
        if not np.isfinite(loss):
            raise RuntimeError("classifier loss went non-finite")
        weights -= learning_rate * grad
    return weights


def predict_linear(weights: np.ndarray, features: np.ndarray) -> np.ndarray:
    augmented = np.hstack([features, np.ones((features.shape[0], 1))])
    return np.argmax(augmented @ weights.T, axis=1)


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


def _squared_distances(points: np.ndarray, norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances from each point to each center; ``norms`` holds the
    points' squared norms."""
    d2 = norms[:, None] - 2.0 * points @ centers.T + np.sum(centers ** 2, axis=1)[None, :]
    return np.maximum(d2, 0.0)


def _kmeans_plus_plus(points: np.ndarray, norms: np.ndarray, k: int, rng) -> np.ndarray:
    centers = np.empty((k, points.shape[1]))
    centers[0] = points[int(rng.integers(points.shape[0]))]
    closest = _squared_distances(points, norms, centers[:1]).ravel()
    for c in range(1, k):
        total = closest.sum()
        if total <= 0:  # all points coincide with chosen centers
            centers[c] = points[int(rng.integers(points.shape[0]))]
            continue
        idx = int(rng.choice(points.shape[0], p=closest / total))
        centers[c] = points[idx]
        closest = np.minimum(closest, _squared_distances(points, norms, centers[c:c + 1]).ravel())
    return centers


def kmeans(points: np.ndarray, k: int, restarts: int = 10, seed=0,
           max_iter: int = 300) -> np.ndarray:
    """Lloyd's algorithm with k-means++ seeding; best of ``restarts`` by
    within-cluster sum of squares.  An emptied cluster is re-seeded at the
    point farthest from its assigned center.

    All restarts are seeded first, then each Lloyd step moves every restart
    whose assignment still changes, with one distance GEMM and one one-hot
    centre GEMM for all of them.
    """
    points = np.asarray(points, dtype=np.float64)
    if k < 1 or k > points.shape[0]:
        raise ValueError("k must be between 1 and the number of points")
    if restarts < 1:
        raise ValueError("restarts must be at least 1")
    rng = np.random.default_rng(seed)
    norms = np.sum(points ** 2, axis=1)
    centers = np.stack([_kmeans_plus_plus(points, norms, k, rng) for _ in range(restarts)])
    assignments = np.full((restarts, points.shape[0]), -1)
    active = np.arange(restarts)
    for _ in range(max_iter):
        d2 = _restart_distances(points, norms, centers[active])
        new = _nearest(d2)
        onehot = (new[:, None, :] == np.arange(k)[:, None]).astype(np.float64)
        counts = onehot.sum(axis=2)
        moved = (onehot.reshape(len(active) * k, -1) @ points).reshape(len(active), k, -1)
        moved /= np.maximum(counts, 1.0)[:, :, None]
        for a in np.flatnonzero(counts.min(axis=1) == 0):
            _reseed_step(points, d2[a], new[a], moved[a])
        centers[active] = moved
        changed = (new != assignments[active]).any(axis=1)
        assignments[active] = new
        active = active[changed]
        if not len(active):
            break
    best_assignment = None
    best_wcss = np.inf
    for assignment in assignments:
        wcss = within_cluster_ss(points, assignment)
        if wcss < best_wcss:
            best_wcss = wcss
            best_assignment = assignment
    return best_assignment


def _nearest(d2: np.ndarray) -> np.ndarray:
    """``np.argmin(d2, axis=1)`` of a (restarts, k, n) block, ties and NaN
    included: each point's lowest class at the minimum (or the first NaN).
    Reductions along the strided class axis are fast, argmin along it is not."""
    k = d2.shape[1]
    hit = d2 == d2.min(axis=1, keepdims=True)
    hit |= np.isnan(d2)
    rank = np.arange(k, 0, -1, dtype=np.min_scalar_type(k))[:, None]  # class c ranks k - c
    return k - (hit * rank).max(axis=1).astype(np.intp)


def _restart_distances(points: np.ndarray, norms: np.ndarray, centers: np.ndarray) -> np.ndarray:
    """Squared distances (restarts, k, n) from each of ``centers``
    (restarts, k, d) to each point, by the formula of ``_squared_distances``."""
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
    ignored.  Splits are seeded deterministically per (ratio, repeat).
    """
    if repeats < 1:
        raise ValueError(f"repeats must be at least 1, not {repeats}")
    labels = np.asarray(labels)
    num_classes = int(labels.max()) + 1
    means, stds, runs_per_ratio = [], [], []
    for r_idx, ratio in enumerate(ratios):
        scores = []
        for rep in range(repeats):
            split_seed = np.random.SeedSequence((seed, r_idx, rep))
            train_idx, test_idx = split_train_test(labels, ratio, seed=split_seed)
            weights = train_linear_classifier(features[train_idx], labels[train_idx],
                                              num_classes)
            predicted = predict_linear(weights, features[test_idx])
            scores.append(macro_f1(labels[test_idx], predicted, num_classes))
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
    ``runs`` independently seeded executions.
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
    nmis, purities = [], []
    for run in range(runs):
        assignment = kmeans(pts, k, restarts=restarts,
                            seed=np.random.SeedSequence((seed, run)))
        nmis.append(nmi(assignment, lab))
        purities.append(purity(assignment, lab))
    return EvalReport(
        runs=runs,
        nmi_mean=float(np.mean(nmis)),
        nmi_std=float(np.std(nmis)),
        purity_mean=float(np.mean(purities)),
        purity_std=float(np.std(purities)),
        clusters=int(k),
    )
