"""Independent reference implementations used to check the package.

Everything here is written from the operation definitions with plain Python
loops (and math.*), or as the straightforward numpy form a faster package
routine replaced, deliberately sharing no code with the package, so the
tests compare two separately derived routes to the same quantities.
``triplet_loss`` and ``triplet_gradients`` are the exception: they run the
package's batch routine on one triplet, for the tests that probe one; so is
``softmax_cross_entropy``, the classifier's step for a single fit.  They
import the package when called, so this module loads without it.
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
    columnwise, the first row winning a max-pool tie and a sum adding the
    rows one after another in order, then ``W @ f + b``.  A half without rows
    pools to zero and, like sum pooling, has no winners."""
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
            # not sub.sum(axis=0): with one column numpy sums pairwise
            total = sub[0].copy()
            for row in sub[1:]:
                total += row
            halves.append(total)
        winners.append(won)
    f = np.concatenate(halves)
    return f, winners[0], winners[1], params.W @ f + params.b


def similarity(h_u, h_i):
    """The dot product of two hidden vectors of equal length."""
    if h_u.shape != h_i.shape:
        raise ValueError("similarity needs vectors of equal length")
    return float(np.dot(h_u, h_i))


def bpr_probability(s_ui, s_uj):
    """Probability that the ranking s_ui > s_uj is preserved: the logistic
    sigmoid of the margin, with exp() only of non-positive arguments."""
    x = s_ui - s_uj
    if x >= 0.0:
        return 1.0 / (1.0 + math.exp(-x))
    e = math.exp(x)
    return e / (1.0 + e)


def triplet_loss(params, g, t, reg=0.0, pooling="max"):
    """-ln sigmoid(margin) plus the L2 term over touched rows, W, and b."""
    from neuralbrane.trainer import batch_gradients
    (bpr, l2), = batch_gradients(params, g, (t,), reg, pooling)[1]
    return bpr + l2


def triplet_gradients(params, g, t, reg=0.0, pooling="max"):
    """Exact gradients of triplet_loss for every parameter the triplet touches."""
    from neuralbrane.trainer import batch_gradients
    return batch_gradients(params, g, (t,), reg, pooling)[0]


def has_edge(g, u, v):
    """Whether ``g`` joins u and v, from u's neighbor list."""
    return v in g.neighbors[u].tolist()


def edge_weight(g, u, v):
    """The weight of the edge (u, v); KeyError where there is none."""
    neighbors = g.neighbors[u].tolist()
    if v not in neighbors:
        raise KeyError(f"no edge ({u}, {v})")
    return float(g.weights[u][neighbors.index(v)])


def symmetry_error(g):
    """The message ``validate`` gives for the first edge, in (owner,
    neighbor) order, whose reverse direction is missing or weighs another
    amount, or None: each reverse key looked up by binary search in the
    ascending keys of a graph that passes every other check."""
    n, nbrs, wts = g.node_count, g.neighbors.values, g.weights.values
    if len(nbrs) == 0:
        return None
    owner = np.repeat(np.arange(n), np.diff(g.neighbors.indptr))
    keys = owner * n + nbrs
    query = nbrs * n + owner
    pos = np.minimum(np.searchsorted(keys, query), len(keys) - 1)
    missing = keys[pos] != query
    bad = missing | (wts[pos] != wts)
    if not bad.any():
        return None
    k = int(np.argmax(bad))
    problem = "missing reverse direction" if missing[k] else "has asymmetric weights"
    return f"edge ({owner[k]}, {nbrs[k]}) {problem}"


def per_chunk_batch_gradients(params, g, batch, reg=0.0, pooling="max", chunk=16):
    """Exact batch gradients the way the trainer once computed them, one
    forward per ``chunk`` triplets: each chunk's distinct nodes have their
    rows gathered end to end and pooled with one ``reduceat`` per half; each
    lookup finds its max-pool winners with its own ``argmax`` and is
    backpropagated on its own.  A row starts at its L2 gradient once for
    every triplet that looks it up; W and b carry it once per triplet.

    Returns the dense (P, P_prime, W, b) gradients and each triplet's
    (ranking loss, L2 term) in batch order."""
    triplets = np.asarray(batch, dtype=np.int64)
    matrices = (params.P, params.P_prime)
    lists = (g.attributes, g.neighbors)
    looked_up = [[np.unique(np.concatenate([rows[n] for n in t])) for t in triplets]
                 for rows in lists]
    grads = []
    for matrix, per_triplet in zip(matrices, looked_up):
        counts = np.bincount(np.concatenate(per_triplet), minlength=len(matrix))
        grads.append(matrix * (2.0 * reg * counts)[:, None])
    dW, db = np.zeros_like(params.W), np.zeros_like(params.b)
    dense_l2 = float(np.sum(params.W ** 2)) + float(np.sum(params.b ** 2))
    losses = []
    reduce = np.maximum if pooling == "max" else np.add
    for start in range(0, len(triplets), chunk):
        nodes, at = np.unique(triplets[start:start + chunk].ravel(), return_inverse=True)
        node_rows, pooled = [], []
        for matrix, rows in zip(matrices, lists):
            per_node = [rows[u] for u in nodes]
            flat = np.concatenate(per_node).astype(np.int64)
            starts = np.cumsum([0] + [len(r) for r in per_node])[:-1]
            filled = np.array([len(r) > 0 for r in per_node])
            half = np.zeros((len(nodes), matrix.shape[1]))
            if filled.any():
                half[filled] = reduce.reduceat(matrix[flat], starts[filled], axis=0)
            node_rows.append(per_node)
            pooled.append(half)
        f = np.concatenate(pooled, axis=1)
        pre = f @ params.W.T + params.b
        hidden = np.maximum(pre, 0.0)
        for t, rows in enumerate(at.reshape(-1, 3)):
            h_u, h_i, h_j = hidden[rows]
            margin = float(np.dot(h_u, h_i) - np.dot(h_u, h_j))
            delta = bpr_probability(margin, 0.0) - 1.0
            for k, grad_h in zip(rows, (delta * (h_i - h_j), delta * h_u, -delta * h_u)):
                masked = np.where(pre[k] > 0.0, grad_h, 0.0)
                dW += np.outer(masked, f[k])
                db += masked
                grad_f = params.W.T @ masked
                for matrix, grad, per_node, part in zip(
                        matrices, grads, node_rows, np.split(grad_f, [params.d1])):
                    ids = per_node[k]
                    if len(ids) == 0:
                        continue
                    if pooling == "max":
                        won = np.argmax(matrix[ids], axis=0)
                        grad[ids[won], np.arange(len(part))] += part
                    else:
                        grad[ids] += part
            l2 = 0.0
            if reg != 0.0:
                t_all = start + t
                l2 = reg * (dense_l2 + float(np.sum(params.P[looked_up[0][t_all]] ** 2))
                            + float(np.sum(params.P_prime[looked_up[1][t_all]] ** 2)))
            # -ln sigmoid(margin), with exp() only of non-positive arguments
            ranking = (math.log1p(math.exp(-margin)) if margin >= 0.0
                       else -margin + math.log1p(math.exp(margin)))
            losses.append((ranking, l2))
    dW += 2.0 * reg * len(triplets) * params.W
    db += 2.0 * reg * len(triplets) * params.b
    return (grads[0], grads[1], dW, db), losses


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


def softmax_cross_entropy(weights, features, targets, num_classes, penalty=1e-4):
    """Mean cross-entropy of one bias-augmented softmax classifier over every
    row plus an L2 penalty on the non-bias weights, as (loss, gradient): the
    package's ``_softmax_step`` taken for a single fit."""
    from neuralbrane.evaluate import _softmax_step
    features = np.asarray(features, dtype=np.float64)
    step = _softmax_step(features, np.asarray(targets), num_classes,
                         np.ones((1, features.shape[0]), dtype=bool), penalty)
    loss, grad = step(np.asarray(weights, dtype=np.float64)[None])
    return float(loss[0]), grad[0]


def rowmajor_softmax_cross_entropy(weights, features, targets, num_classes, penalty):
    """Softmax cross-entropy with (n × classes) logits, reduced along axis 1;
    returns (loss, gradient) as ``softmax_cross_entropy`` does."""
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


def perfit_train_linear_classifier(features, targets, num_classes, penalty=1e-4,
                                   iterations=500, learning_rate=0.1):
    """The one-fit-at-a-time trainer that ``evaluate.train_linear_classifier``
    replaced: full-batch gradient descent on the class-major cross-entropy
    over a transposed bias-augmented design holding only the fit's rows,
    raising RuntimeError once the loss goes non-finite."""
    n = features.shape[0]
    design = np.vstack([features.T, np.ones((1, n))])
    onehot = np.zeros((num_classes, n))
    onehot[targets, np.arange(n)] = 1.0
    weights = np.zeros((num_classes, features.shape[1] + 1))
    for _ in range(iterations):
        logits = weights @ design
        logits -= logits.max(axis=0)
        exp = np.exp(logits)
        probs = exp / exp.sum(axis=0)
        loss = float(-np.mean(np.log(np.maximum(probs[targets, np.arange(n)], 1e-300))))
        grad = (probs - onehot) @ design.T / n
        if penalty:
            loss += penalty * float(np.sum(weights[:, :-1] ** 2))
            grad[:, :-1] += 2.0 * penalty * weights[:, :-1]
        if not np.isfinite(loss):
            raise RuntimeError("classifier loss went non-finite")
        weights -= learning_rate * grad
    return weights


def perfit_classification_scores(features, labels, ratios, repeats, seed, split):
    """Each ratio's Macro-F1 scores as the per-fit evaluation computed them:
    one split, one ``perfit_train_linear_classifier`` fit on the split's
    train rows and predictions on its test rows per (ratio, repeat), with
    the class ids first mapped to 0..K-1.  ``split`` is the package's
    ``split_train_test``, so both sides draw the same splits."""
    labels = np.asarray(labels)
    labeled = labels >= 0
    classes, dense = np.unique(labels[labeled], return_inverse=True)
    mapped = np.full(len(labels), -1)
    mapped[labeled] = dense
    scores = []
    for r_idx, ratio in enumerate(ratios):
        row = []
        for rep in range(repeats):
            train, test = split(mapped, ratio, seed=np.random.SeedSequence((seed, r_idx, rep)))
            weights = perfit_train_linear_classifier(features[train], mapped[train], len(classes))
            augmented = np.hstack([features[test], np.ones((len(test), 1))])
            predicted = np.argmax(augmented @ weights.T, axis=1)
            row.append(naive_macro_f1(mapped[test].tolist(), predicted.tolist(), len(classes)))
        scores.append(row)
    return scores


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


def rowwise_read_embedding_text(path, error):
    """The text embedding reader that converted one row at a time: (ids,
    vectors), or ``error`` (the package's SerializationError) raised with
    the message the reader gives for the first problem in the file."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        header = fh.readline().split()
        if len(header) != 2:
            raise error(f"{path}: expected '<n> <dim>' header")
        try:
            n, dim = int(header[0]), int(header[1])
        except ValueError:
            raise error(f"{path}: non-integer header fields") from None
        if n < 0 or dim < 0:
            raise error(f"{path}: negative count in the '<n> <dim>' header")
        need, size = 2 * n * (dim + 1) - 1, path.stat().st_size
        if n and need > size:
            raise error(f"{path}: header '{n} {dim}' needs at least {need} bytes of rows, "
                        f"and the file has {size}")
        if max(n, 1) * max(dim, 1) > np.iinfo(np.intp).max // 8:
            raise error(f"{path}: header '{n} {dim}' declares more values than an array "
                        "can hold")
        ids = np.empty(n, dtype=np.int64)
        vectors = np.empty((n, dim), dtype=np.float64)
        for row in range(n):
            toks = fh.readline().split()
            if len(toks) != dim + 1:
                raise error(f"{path}: row {row} has {len(toks)} fields, expected {dim + 1}")
            try:
                ids[row] = int(toks[0])
                vectors[row] = [float(t) for t in toks[1:]]
            except (ValueError, OverflowError) as exc:
                raise error(f"{path}: row {row} holds a bad number ({exc})") from None
        for extra, line in enumerate(fh, n):
            if line.strip():
                raise error(f"{path}: row {extra} is past the {n} rows the header declares")
    for row in range(n):
        for earlier in range(row):
            if ids[earlier] == ids[row]:
                raise error(f"{path}: row {row} repeats node id {ids[row]}")
    for row in range(n):
        if not np.isfinite(vectors[row]).all():
            raise error(f"{path}: row {row} holds a non-finite value")
    return ids, vectors


def whole_table_write_embedding_text(table, path):
    """The text writer that formatted the whole table at once: a ``<n> <dim>``
    header, then each row's id and ``%.9g`` values."""
    row_format = "%d " + " ".join(["%.9g"] * table.dim) + "\n"
    with Path(path).open("w", encoding="utf-8") as fh:
        fh.write(f"{table.node_count} {table.dim}\n")
        for node_id, row in zip(table.ids.tolist(), table.vectors):
            fh.write(row_format % (node_id, *row.tolist()))


def percent_text_rows(ids, vectors):
    """The text lines of rows, each value through Python's own formatting:
    ``'%d ' % id + ' '.join('%.9g' % v ...) + '\\n'``, as bytes."""
    return b"".join(b"%d " % i + b" ".join(b"%.9g" % v for v in row) + b"\n"
                    for i, row in zip(np.asarray(ids).tolist(), np.asarray(vectors).tolist()))


def whole_table_write_embedding_binary(table, path):
    """The binary writer that wrote the whole table at once: magic ``NBRN``,
    u32 version 1, n and dim, then the row-major little-endian float64s."""
    n, dim = table.vectors.shape
    Path(path).write_bytes(b"NBRN" + np.array([1, n, dim], dtype="<u4").tobytes()
                           + table.vectors.astype("<f8").tobytes())


def pair_order_attribute_rows(n, attr_node, attr_id):
    """(offsets, ids) of the attribute rows as the build that permuted the
    pairs made them: lexsort the (node, id) pairs, gather both arrays in that
    order, drop each pair that repeats the one before it, and count the rows
    of nodes below n."""
    order = np.lexsort((attr_id, attr_node))
    node, ids = attr_node[order], attr_id[order]
    first = np.ones(len(order), dtype=bool)
    first[1:] = (np.diff(node) != 0) | (np.diff(ids) != 0)
    offsets = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(node[first], minlength=n)[:n], out=offsets[1:])
    return offsets, ids[first]


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
