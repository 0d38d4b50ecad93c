"""Independent reference implementations used to check the package.

Everything here is written from the operation definitions with plain Python
loops (and math.*), or as the straightforward numpy form a faster package
routine replaced, deliberately sharing no code with the package, so the
tests compare two separately derived routes to the same quantities.
"""

from __future__ import annotations

import math
from array import array
from itertools import chain
from pathlib import Path

import numpy as np


def naive_triplet_loss(params, g, t, reg, pooling="max", real=float):
    """Scalar-loop recomputation of the per-triplet objective.

    Every operation runs on ``real`` numbers.  With ``np.longdouble`` (a
    64-bit mantissa on x86-64) the loss carries 11 more bits than float64,
    so where the exact slope is zero a finite difference of it stays within
    the 1e-12 that a 1e-4 bound over ``relative_error``'s floor allows;
    float64 rounding alone reads as a slope of about 1e-10 there.
    """

    def pooled(matrix, rows, width):
        if len(rows) == 0:
            return [0.0] * width
        if pooling == "max":
            return [max(real(matrix[r][k]) for r in rows) for k in range(width)]
        return [sum(real(matrix[r][k]) for r in rows) for k in range(width)]

    def hidden_vec(node):
        f = pooled(params.P, list(g.attributes[node]), params.d1)
        f += pooled(params.P_prime, list(g.neighbors[node]), params.d2)
        out = []
        for row in range(params.h):
            acc = real(params.b[row])
            for col in range(params.d):
                acc += real(params.W[row][col]) * f[col]
            out.append(max(0.0, acc))
        return out

    def dot(a, b):
        return sum(x * y for x, y in zip(a, b))

    hu, hi, hj = hidden_vec(t.u), hidden_vec(t.i), hidden_vec(t.j)
    margin = dot(hu, hi) - dot(hu, hj)
    # -ln(sigmoid(margin)) via the stable softplus identity
    if margin > 0:
        base = np.log1p(np.exp(-margin))
    else:
        base = -margin + np.log1p(np.exp(margin))

    touched_attr = set()
    touched_nbr = set()
    for node in (t.u, t.i, t.j):
        touched_attr.update(int(a) for a in g.attributes[node])
        touched_nbr.update(int(v) for v in g.neighbors[node])
    penalty = 0.0
    for r in touched_attr:
        penalty += sum(real(x) ** 2 for x in params.P[r])
    for r in touched_nbr:
        penalty += sum(real(x) ** 2 for x in params.P_prime[r])
    penalty += sum(real(x) ** 2 for row in params.W for x in row)
    penalty += sum(real(x) ** 2 for x in params.b)
    return base + reg * penalty


def naive_forward(params, g, u, pooling="max"):
    """Node u's (f, attribute winners, neighbor winners, pre-activation) as
    the per-node forward pass computed them: ``matrix[rows]`` pooled
    columnwise, the first row winning a max-pool tie, then ``W @ f + b``.
    A half without rows pools to zero and, like sum pooling, has no winners."""
    halves, winners = [], []
    for matrix, rows in ((params.P, g.attributes[u]), (params.P_prime, g.neighbors[u])):
        sub = matrix[rows]
        won = np.empty(0, dtype=np.int64)
        if len(rows) == 0:
            halves.append(np.zeros(matrix.shape[1]))
        elif pooling == "max":
            won = np.argmax(sub, axis=0)
            halves.append(sub[won, np.arange(matrix.shape[1])])
        else:
            halves.append(sub.sum(axis=0))
        winners.append(won)
    f = np.concatenate(halves)
    return f, winners[0], winners[1], params.W @ f + params.b


def finite_difference_gradients(loss_fn, params, eps=1e-6):
    """Central differences of ``loss_fn()`` w.r.t. every entry of params.

    Returns dense arrays shaped like P, P_prime, W, b.
    """
    grads = []
    for block in (params.P, params.P_prime, params.W, params.b):
        grad = np.zeros_like(block)
        it = np.nditer(block, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = block[idx]
            block[idx] = orig + eps
            plus = loss_fn()
            block[idx] = orig - eps
            minus = loss_fn()
            block[idx] = orig
            grad[idx] = (plus - minus) / (2.0 * eps)
        grads.append(grad)
    return tuple(grads)


def relative_error(a, b, floor=1e-8):
    return abs(a - b) / max(abs(a), abs(b), floor)


def contingency_table(a, b):
    values_a = sorted(set(int(x) for x in a))
    values_b = sorted(set(int(x) for x in b))
    table = {(va, vb): 0 for va in values_a for vb in values_b}
    for xa, xb in zip(a, b):
        table[(int(xa), int(xb))] += 1
    return values_a, values_b, table


def naive_macro_f1(y_true, y_pred, num_classes):
    total = 0.0
    for c in range(num_classes):
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        precision = tp / (tp + fp) if tp + fp else 0.0
        recall = tp / (tp + fn) if tp + fn else 0.0
        if precision + recall:
            total += 2.0 * precision * recall / (precision + recall)
    return total / num_classes


def naive_nmi(a, b):
    n = len(a)
    values_a, values_b, table = contingency_table(a, b)
    pa = {va: sum(table[(va, vb)] for vb in values_b) / n for va in values_a}
    pb = {vb: sum(table[(va, vb)] for va in values_a) / n for vb in values_b}
    info = 0.0
    for va in values_a:
        for vb in values_b:
            pab = table[(va, vb)] / n
            if pab > 0:
                info += pab * math.log(pab / (pa[va] * pb[vb]))
    ha = -sum(p * math.log(p) for p in pa.values() if p > 0)
    hb = -sum(p * math.log(p) for p in pb.values() if p > 0)
    if ha == 0.0 or hb == 0.0:
        return 0.0
    return info / math.sqrt(ha * hb)


def naive_purity(assignment, labels):
    values_a, values_b, table = contingency_table(assignment, labels)
    return sum(
        max(table[(va, vb)] for vb in values_b) for va in values_a
    ) / len(assignment)


def naive_wcss(points, assignment):
    total = 0.0
    for c in set(int(x) for x in assignment):
        members = [p for p, a in zip(points, assignment) if a == c]
        dim = len(members[0])
        mean = [sum(p[k] for p in members) / len(members) for k in range(dim)]
        for p in members:
            total += sum((p[k] - mean[k]) ** 2 for k in range(dim))
    return total


def rowmajor_softmax_cross_entropy(weights, features, targets, num_classes, penalty):
    """Softmax cross-entropy with (n × classes) logits, reduced along axis 1;
    returns (loss, gradient) as ``evaluate.softmax_cross_entropy`` does."""
    n = features.shape[0]
    augmented = np.hstack([features, np.ones((n, 1))])
    onehot = np.zeros((n, num_classes))
    onehot[np.arange(n), targets] = 1.0
    logits = augmented @ weights.T
    logits -= logits.max(axis=1, keepdims=True)
    exp = np.exp(logits)
    probs = exp / exp.sum(axis=1, keepdims=True)
    loss = float(-np.mean(np.log(np.maximum(probs[np.arange(n), targets], 1e-300))))
    grad = (probs - onehot).T @ augmented / n
    loss += penalty * float(np.sum(weights[:, :-1] ** 2))
    grad[:, :-1] += 2.0 * penalty * weights[:, :-1]
    return loss, grad


def naive_kmeans(points, k, restarts=10, seed=0, max_iter=300):
    """One restart at a time: k-means++ seeding, then Lloyd steps with a
    masked mean per cluster and an emptied cluster re-seeded at the point
    farthest from its assigned center; best restart by within-cluster sum
    of squares.  Draws the same random stream as ``evaluate.kmeans``."""
    points = np.asarray(points, dtype=np.float64)
    n = points.shape[0]
    norms = np.sum(points ** 2, axis=1)

    def distances(centers):
        d2 = norms[:, None] - 2.0 * points @ centers.T + np.sum(centers ** 2, axis=1)[None, :]
        return np.maximum(d2, 0.0)

    rng = np.random.default_rng(seed)
    best, best_wcss = None, math.inf
    for _ in range(restarts):
        centers = np.empty((k, points.shape[1]))
        centers[0] = points[int(rng.integers(n))]
        closest = distances(centers[:1]).ravel()
        for c in range(1, k):
            total = closest.sum()
            if total <= 0:
                centers[c] = points[int(rng.integers(n))]
                continue
            centers[c] = points[int(rng.choice(n, p=closest / total))]
            closest = np.minimum(closest, distances(centers[c:c + 1]).ravel())
        assignment = np.full(n, -1)
        for _ in range(max_iter):
            d2 = distances(centers)
            new_assignment = np.argmin(d2, axis=1)
            for c in range(k):
                members = new_assignment == c
                if members.any():
                    centers[c] = points[members].mean(axis=0)
                else:
                    farthest = int(np.argmax(d2[np.arange(n), new_assignment]))
                    centers[c] = points[farthest]
                    new_assignment[farthest] = c
            if np.array_equal(new_assignment, assignment):
                break
            assignment = new_assignment
        wcss = 0.0
        for c in np.unique(assignment):
            members = points[assignment == c]
            wcss += float(np.sum((members - members.mean(axis=0)) ** 2))
        if wcss < best_wcss:
            best, best_wcss = assignment, wcss
    return best


class NaiveFormatError(ValueError):
    """An input file ``naive_parse`` rejects; the message is the one the
    loader gives for it."""


def _naive_tokens(path):
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            yield lineno, stripped.split()


def _naive_id(token, path, lineno, kind):
    try:
        value = int(token)
    except ValueError:
        raise NaiveFormatError(f"{path}:{lineno}: {kind} id {token!r} is not an integer") from None
    if value < 0:
        raise NaiveFormatError(f"{path}:{lineno}: {kind} id {value} is negative")
    if value >= 2 ** 63:
        raise NaiveFormatError(f"{path}:{lineno}: {kind} id {value} is too large")
    return value


def _naive_labels(label_path, node_count):
    label_map = {}
    for lineno, toks in _naive_tokens(label_path):
        if len(toks) != 2:
            raise NaiveFormatError(
                f"{label_path}:{lineno}: expected '<node-id> <class-id>', got {len(toks)} fields"
            )
        u = _naive_id(toks[0], label_path, lineno, "node")
        c = _naive_id(toks[1], label_path, lineno, "class")
        if node_count is not None and u >= node_count:
            raise NaiveFormatError(
                f"{label_path}:{lineno}: node id {u} exceeds declared node count {node_count}"
            )
        if u in label_map and label_map[u] != c:
            raise NaiveFormatError(
                f"{label_path}:{lineno}: node {u} relabeled from {label_map[u]} to {c}"
            )
        label_map[u] = c
    return label_map


def naive_parse(edge_path, attr_path, label_path=None, node_count=None, attribute_count=None):
    """The arguments of ``graph.from_edges`` for the documented text files,
    read one line and one token at a time into a dict of edges, as the
    loader did before it converted blocks of lines to arrays (plus the
    rejection of ids past int64).  NaiveFormatError names the first bad
    line of the first bad file, in the order edges, attributes, labels."""
    edge_path, attr_path = Path(edge_path), Path(attr_path)
    edges = {}
    self_loops = 0
    max_node = -1
    for lineno, toks in _naive_tokens(edge_path):
        if len(toks) not in (2, 3):
            raise NaiveFormatError(
                f"{edge_path}:{lineno}: expected '<src> <dst> [weight]', got {len(toks)} fields"
            )
        u = _naive_id(toks[0], edge_path, lineno, "node")
        v = _naive_id(toks[1], edge_path, lineno, "node")
        if len(toks) == 3:
            try:
                w = float(toks[2])
            except ValueError:
                raise NaiveFormatError(
                    f"{edge_path}:{lineno}: weight {toks[2]!r} is not a number"
                ) from None
        else:
            w = 1.0
        if not math.isfinite(w) or w <= 0:
            raise NaiveFormatError(f"{edge_path}:{lineno}: weight must be a positive finite number")
        if node_count is not None and (u >= node_count or v >= node_count):
            raise NaiveFormatError(
                f"{edge_path}:{lineno}: node id exceeds declared node count {node_count}"
            )
        max_node = max(max_node, u, v)
        if u == v:
            self_loops += 1
            continue
        key = (u, v) if u < v else (v, u)
        if key in edges and edges[key] != w:
            raise NaiveFormatError(
                f"{edge_path}:{lineno}: edge ({u}, {v}) repeated with conflicting "
                f"weight {w} (previously {edges[key]})"
            )
        edges[key] = w

    attr_node, attr_id = array("q"), array("q")
    max_attr = -1
    for lineno, toks in _naive_tokens(attr_path):
        u = _naive_id(toks[0], attr_path, lineno, "node")
        if node_count is not None and u >= node_count:
            raise NaiveFormatError(
                f"{attr_path}:{lineno}: node id {u} exceeds declared node count {node_count}"
            )
        max_node = max(max_node, u)
        for tok in toks[1:]:
            a = _naive_id(tok, attr_path, lineno, "attribute")
            if attribute_count is not None and a >= attribute_count:
                raise NaiveFormatError(
                    f"{attr_path}:{lineno}: attribute id {a} exceeds declared "
                    f"attribute count {attribute_count}"
                )
            max_attr = max(max_attr, a)
            attr_node.append(u)
            attr_id.append(a)

    label_map = _naive_labels(Path(label_path), node_count) if label_path is not None else {}
    max_node = max(max_node, max(label_map, default=-1))

    n = node_count if node_count is not None else max_node + 1
    m = attribute_count if attribute_count is not None else max_attr + 1

    labels = None
    if label_path is not None:
        labels = np.full(n, -1, dtype=np.int64)
        for u, c in label_map.items():
            labels[u] = c

    pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
    weight = np.fromiter(edges.values(), dtype=np.float64, count=len(edges))
    return (n, m, pairs[0::2], pairs[1::2], weight, np.frombuffer(attr_node, dtype=np.int64),
            np.frombuffer(attr_id, dtype=np.int64), labels, self_loops)


def fit_loglog_slope(x, y):
    """Least-squares slope and R^2 of log(y) against log(x)."""
    lx = np.log(np.asarray(x, dtype=float))
    ly = np.log(np.asarray(y, dtype=float))
    lx_c = lx - lx.mean()
    slope = float(np.dot(lx_c, ly - ly.mean()) / np.dot(lx_c, lx_c))
    intercept = float(ly.mean() - slope * lx.mean())
    residuals = ly - (slope * lx + intercept)
    ss_res = float(np.dot(residuals, residuals))
    ss_tot = float(np.dot(ly - ly.mean(), ly - ly.mean()))
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return slope, r2
