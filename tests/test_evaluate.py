import re

import numpy as np
import pytest

from neuralbrane import evaluate
from neuralbrane.evaluate import (
    kmeans,
    macro_f1,
    nmi,
    predict_linear,
    project_2d,
    purity,
    run_classification_eval,
    run_clustering_eval,
    split_train_test,
    train_linear_classifier,
    within_cluster_ss,
)

from .oracles import (
    naive_kmeans,
    naive_macro_f1,
    naive_nmi,
    naive_purity,
    naive_wcss,
    perfit_classification_scores,
    perfit_train_linear_classifier,
    relative_error,
    rowmajor_softmax_cross_entropy,
    softmax_cross_entropy,
)


def blobs(rng, centers, per_class, scale=0.5):
    points, labels = [], []
    for c, center in enumerate(centers):
        points.append(rng.normal(loc=center, scale=scale, size=(per_class, len(center))))
        labels.extend([c] * per_class)
    return np.vstack(points), np.array(labels)


class TestSplit:
    def test_seven_three(self, rng):
        labels = np.array([0, 1] * 5)
        train, test = split_train_test(labels, 0.7, seed=0)
        assert len(train) == 7 and len(test) == 3
        assert sorted(np.concatenate([train, test]).tolist()) == list(range(10))

    def test_same_seed_same_split(self):
        labels = np.arange(20) % 3
        a = split_train_test(labels, 0.5, seed=4)
        b = split_train_test(labels, 0.5, seed=4)
        assert np.array_equal(a[0], b[0]) and np.array_equal(a[1], b[1])

    def test_only_labeled_nodes_participate(self):
        labels = np.array([0, -1, 1, -1, 0, 1])
        train, test = split_train_test(labels, 0.5, seed=1)
        used = np.concatenate([train, test])
        assert set(used.tolist()) == {0, 2, 4, 5}

    def test_every_class_present_in_train(self):
        labels = np.array([0] * 50 + [1])
        for seed in range(20):
            train, _ = split_train_test(labels, 0.5, seed=seed)
            assert len(np.unique(labels[train])) == 2

    def test_frequency_statistics(self):
        # each node should land in train about half the time across seeds
        labels = np.zeros(1000, dtype=int)
        labels[::2] = 1
        hits = np.zeros(1000)
        runs = 100
        for seed in range(runs):
            train, _ = split_train_test(labels, 0.5, seed=seed)
            hits[train] += 1
        freq = hits / runs
        assert abs(freq.mean() - 0.5) < 0.005
        assert abs(freq.std() - 0.05) < 0.02   # Binomial(100, .5) spread
        assert np.all(np.abs(freq - 0.5) < 0.30)  # 6-sigma band

    def test_bad_ratio_rejected(self):
        with pytest.raises(ValueError):
            split_train_test(np.array([0, 1]), 1.0, seed=0)


class TestLinearClassifier:
    def test_separable_blobs_perfect_train_accuracy(self, rng):
        X, y = blobs(rng, [(-5.0, 0.0), (5.0, 0.0)], per_class=20)
        weights = train_linear_classifier(X, y, 2)
        assert np.mean(predict_linear(weights, X) == y) == 1.0

    def test_single_class_rejected(self, rng):
        X = rng.normal(size=(10, 3))
        with pytest.raises(ValueError, match="two classes"):
            train_linear_classifier(X, np.zeros(10, dtype=int), 2)

    def test_gradient_matches_finite_differences(self, rng):
        X = rng.normal(size=(12, 4))
        y = rng.integers(0, 3, size=12)
        weights = rng.normal(size=(3, 5))
        _, grad = softmax_cross_entropy(weights, X, y, 3)
        eps = 1e-6
        it = np.nditer(weights, flags=["multi_index"])
        for _ in it:
            idx = it.multi_index
            orig = weights[idx]
            weights[idx] = orig + eps
            plus, _ = softmax_cross_entropy(weights, X, y, 3)
            weights[idx] = orig - eps
            minus, _ = softmax_cross_entropy(weights, X, y, 3)
            weights[idx] = orig
            fd = (plus - minus) / (2 * eps)
            assert relative_error(grad[idx], fd) < 1e-4

    def test_decision_invariant_under_constant_feature_shift(self, rng):
        X, y = blobs(rng, [(-4.0, 1.0), (4.0, -1.0), (0.0, 5.0)], per_class=15)
        shift = np.array([0.7, -0.3])
        w_base = train_linear_classifier(X, y, 3)
        w_shift = train_linear_classifier(X + shift, y, 3)
        assert np.array_equal(
            predict_linear(w_base, X), predict_linear(w_shift, X + shift)
        )

    def test_class_major_matches_row_major(self, rng):
        for n, dim, classes in ((40, 5, 3), (300, 20, 6), (7, 3, 2)):
            X = rng.normal(size=(n, dim))
            y = rng.integers(0, classes, size=n)
            weights = rng.normal(size=(classes, dim + 1))
            loss, grad = softmax_cross_entropy(weights, X, y, classes, penalty=1e-3)
            ref_loss, ref_grad = rowmajor_softmax_cross_entropy(weights, X, y, classes, 1e-3)
            assert relative_error(loss, ref_loss) <= 1e-12
            assert np.max(np.abs(grad - ref_grad)) <= 1e-12 * np.max(np.abs(ref_grad))


def objective(weights, X, y, classes, penalty=evaluate.LOGREG_PENALTY):
    """A fit's loss and gradient on its own rows, by the row-major oracle."""
    return rowmajor_softmax_cross_entropy(weights, X, y, classes, penalty)


class TestStackedTrainerMatchesPerFitLoop:
    """``train_linear_classifier`` solves each fit by L-BFGS until its max
    |gradient| is at most ``LOGREG_TOLERANCE``, several fits stacked over
    shared rows.  Checked against references that share none of its code:
    the row-major loss and gradient oracle on each fit's own rows, and
    GD-500 (``perfit_train_linear_classifier``), whose objective a converged
    fit cannot exceed; and against the same solve one fit at a time."""

    @pytest.mark.parametrize("fits", [1, 3, 10])
    @pytest.mark.parametrize("penalty", [0.0, 1e-4])
    def test_weights(self, rng, fits, penalty):
        X = rng.normal(size=(90, 5)) * 2.0 + 1.5
        y = rng.integers(0, 4, size=90)
        # train sets of 20 % to 90 % of the rows
        train = rng.random((fits, 90)) < np.linspace(0.2, 0.9, fits)[:, None]
        stats = []
        weights = train_linear_classifier(X, y, 4, train=train, penalty=penalty, stats=stats)
        assert weights.shape == (fits, 4, 6) and len(stats) == fits
        for fit, got, (iterations, reported) in zip(train, weights, stats):
            loss, grad = objective(got, X[fit], y[fit], 4, penalty)
            assert np.max(np.abs(grad)) <= evaluate.LOGREG_TOLERANCE
            assert reported == pytest.approx(np.max(np.abs(grad)), rel=1e-6, abs=1e-12)
            assert 1 < iterations < evaluate.LOGREG_MAX_ITERATIONS
            gd500 = perfit_train_linear_classifier(X[fit], y[fit], 4, penalty=penalty)
            assert loss <= objective(gd500, X[fit], y[fit], 4, penalty)[0]

    @pytest.mark.parametrize("fits", [3, 10])
    def test_stacked_matches_one_at_a_time(self, rng, fits):
        # overlapping classes and a penalty of 1e-2 keep the curvature up, so
        # a max |gradient| of 1e-5 pins each objective to about 1e-9
        X = rng.normal(size=(300, 6)) + np.repeat(rng.normal(size=(4, 6)) * 0.5, 75, axis=0)
        y = np.repeat(np.arange(4), 75)
        train = rng.random((fits, 300)) < np.linspace(0.3, 0.9, fits)[:, None]
        stacked = train_linear_classifier(X, y, 4, train=train, penalty=1e-2)
        for fit, got in zip(train, stacked):
            alone = train_linear_classifier(X[fit], y[fit], 4, penalty=1e-2)
            assert np.array_equal(predict_linear(got, X), predict_linear(alone, X))
            (f_got, g_got), (f_alone, g_alone) = (objective(w, X[fit], y[fit], 4, 1e-2)
                                                  for w in (got, alone))
            assert relative_error(f_got, f_alone) <= 1e-8
            # the objective is convex, so each gradient bounds the difference
            assert abs(f_got - f_alone) <= max(np.sum(g_got * (got - alone)),
                                               np.sum(g_alone * (alone - got)))

    def test_one_fit_mask_and_default(self, rng):
        X = rng.normal(size=(40, 3))
        y = rng.integers(0, 3, size=40)
        fit = rng.random(40) < 0.6
        masked = train_linear_classifier(X, y, 3, train=fit)
        own_rows = train_linear_classifier(X[fit], y[fit], 3)
        assert masked.shape == own_rows.shape == (3, 4)
        assert relative_error(objective(masked, X[fit], y[fit], 3)[0],
                              objective(own_rows, X[fit], y[fit], 3)[0]) <= 1e-8
        assert np.array_equal(train_linear_classifier(X, y, 3),
                              train_linear_classifier(X, y, 3, train=np.ones((1, 40), bool))[0])

    def test_fit_reaching_the_iteration_cap_raises(self, rng, monkeypatch):
        X = rng.normal(size=(30, 3))
        y = np.arange(30) % 3
        monkeypatch.setattr(evaluate, "LOGREG_MAX_ITERATIONS", 2)
        with pytest.raises(RuntimeError, match="in 2 iterations"):
            train_linear_classifier(X, y, 3, train=np.ones((3, 30), dtype=bool))

    def test_fit_already_at_its_optimum_stops_at_once(self):
        # balanced classes on identical rows: zero weights have zero gradient,
        # so the first step's length 1 / max(1, ‖gradient‖) must not divide by 0
        X = np.ones((8, 2))
        y = np.arange(8) % 2
        stats = []
        with np.errstate(all="raise"):
            weights = train_linear_classifier(X, y, 2, stats=stats)
        assert stats == [(1, 0.0)] and not weights.any()

    def test_one_fit_going_non_finite_raises(self, rng):
        X = rng.normal(size=(30, 3))
        X[0] = np.inf  # only the second fit trains on row 0; every fit computes it
        y = np.arange(30) % 3
        train = np.ones((3, 30), dtype=bool)
        train[[0, 2], 0] = False
        with np.errstate(all="ignore"), pytest.raises(RuntimeError, match="non-finite"):
            train_linear_classifier(X, y, 3, train=train)

    def test_single_class_fit_in_stack_rejected(self, rng):
        X = rng.normal(size=(10, 3))
        y = np.array([0] * 5 + [1] * 5)
        train = np.ones((2, 10), dtype=bool)
        train[1, 5:] = False
        with pytest.raises(ValueError, match="two classes"):
            train_linear_classifier(X, y, 2, train=train)

    def test_stacked_predictions_match_one_at_a_time(self, rng):
        X = rng.normal(size=(50, 4))
        weights = rng.normal(size=(3, 5, 5))
        stacked = predict_linear(weights, X)
        assert stacked.shape == (3, 50)
        for w, row in zip(weights, stacked):
            assert np.array_equal(predict_linear(w, X), row)


class TestMacroF1:
    def test_perfect(self):
        y = np.array([0, 1, 2, 1, 0])
        assert macro_f1(y, y, 3) == 1.0

    def test_all_one_class_prediction(self):
        y_true = np.array([0, 0, 1, 1])
        y_pred = np.zeros(4, dtype=int)
        # F1(class 0) = 2/3, F1(class 1) = 0
        assert macro_f1(y_true, y_pred, 2) == pytest.approx(1 / 3, abs=1e-12)

    def test_matches_confusion_matrix_oracle(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            n = int(rng.integers(2, 40))
            y_true = rng.integers(0, k, size=n)
            y_pred = rng.integers(0, k, size=n)
            assert macro_f1(y_true, y_pred, k) == pytest.approx(
                naive_macro_f1(y_true.tolist(), y_pred.tolist(), k), abs=1e-12
            )

    def test_permutation_invariance(self, rng):
        y_true = rng.integers(0, 4, size=60)
        y_pred = rng.integers(0, 4, size=60)
        perm = rng.permutation(4)
        assert macro_f1(perm[y_true], perm[y_pred], 4) == pytest.approx(
            macro_f1(y_true, y_pred, 4), abs=1e-12
        )


class TestKmeans:
    def test_two_blobs_recovered(self, rng):
        X, y = blobs(rng, [(-8.0, 0.0), (8.0, 0.0)], per_class=25)
        assignment = kmeans(X, 2, restarts=4, seed=0)
        assert nmi(assignment, y) == pytest.approx(1.0, abs=1e-9)

    def test_k_equals_n(self, rng):
        X = rng.normal(size=(7, 3))
        assignment = kmeans(X, 7, restarts=2, seed=0)
        assert len(np.unique(assignment)) == 7
        assert within_cluster_ss(X, assignment) == pytest.approx(0.0, abs=1e-18)

    def test_beats_random_assignments(self, rng):
        X = rng.normal(size=(30, 4))
        assignment = kmeans(X, 3, restarts=5, seed=1)
        ours = within_cluster_ss(X, assignment)
        best_random = min(
            within_cluster_ss(X, rng.integers(0, 3, size=30)) for _ in range(100)
        )
        assert ours <= best_random + 1e-9

    def test_wcss_helper_matches_oracle(self, rng):
        X = rng.normal(size=(20, 3))
        assignment = rng.integers(0, 4, size=20)
        assert within_cluster_ss(X, assignment) == pytest.approx(
            naive_wcss(X.tolist(), assignment.tolist()), rel=1e-12
        )

    def test_invalid_k_rejected(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 4)


class TestBatchedKmeansMatchesPerRestartLoop:
    """``kmeans`` moves all restarts together and carries each cluster's sum
    from step to step; ``naive_kmeans`` is the one-restart-at-a-time loop
    with fresh means that it replaced.  Exact ties go to the lowest class in
    both.  A near-tie could round differently in the two; none of these
    inputs holds one."""

    def test_blobs(self, rng):
        X, _ = blobs(rng, [(-6.0, 0.0), (6.0, 1.0), (0.0, 7.0), (1.0, -6.0)], per_class=15,
                     scale=1.0)
        for seed in range(4):
            assert np.array_equal(kmeans(X, 4, restarts=5, seed=seed),
                                  naive_kmeans(X, 4, restarts=5, seed=seed))

    def test_k_equals_n(self, rng):
        X = rng.normal(size=(7, 3))
        assert np.array_equal(kmeans(X, 7, restarts=3, seed=2),
                              naive_kmeans(X, 7, restarts=3, seed=2))

    def test_emptied_cluster_reseeded(self, monkeypatch):
        # three distinct points for four clusters: seeding repeats a point, so
        # a cluster comes out empty and is re-seeded at the farthest point
        X = np.array([[0.0, 0.0]] * 3 + [[4.0, 0.0]] * 3 + [[0.0, 3.0]] * 2)
        reseeds = []
        real = evaluate._reseed_step

        def counted(*args):
            reseeds.append(args)
            return real(*args)

        monkeypatch.setattr(evaluate, "_reseed_step", counted)
        for seed in range(3):
            assert np.array_equal(kmeans(X, 4, restarts=3, seed=seed),
                                  naive_kmeans(X, 4, restarts=3, seed=seed))
        assert reseeds

    def test_max_iter_one(self, rng):
        X = rng.normal(size=(40, 3))
        assert np.array_equal(kmeans(X, 5, restarts=4, seed=3, max_iter=1),
                              naive_kmeans(X, 5, restarts=4, seed=3, max_iter=1))

    def test_sums_recomputed_and_updated(self, rng):
        X, _ = blobs(rng, [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.5)], per_class=80, scale=1.2)
        for seed in range(3):
            stats = []
            assert np.array_equal(kmeans(X, 3, restarts=6, seed=seed, stats=stats),
                                  naive_kmeans(X, 3, restarts=6, seed=seed))
            (steps, recomputed, updated), = stats
            assert len(steps) == 6 and recomputed + updated == max(steps)
            assert recomputed >= 2 and updated >= 1  # a recompute after the first step too

    @pytest.mark.parametrize("kind", ["integers", "duplicates"])
    def test_integer_and_tied_inputs(self, kind):
        for seed in range(40):
            gen = np.random.default_rng(seed)
            if kind == "integers":
                X = gen.integers(0, 4, size=(60, 2)).astype(np.float64)
            else:
                X = np.repeat(gen.normal(size=(15, 3)), 4, axis=0)
            k = 1 + seed % 6
            assert np.array_equal(kmeans(X, k, restarts=4, seed=seed),
                                  naive_kmeans(X, k, restarts=4, seed=seed))

    def test_k_one(self, rng):
        X = rng.normal(size=(50, 3))
        stats = []
        assignment = kmeans(X, 1, restarts=3, seed=0, stats=stats)
        assert np.array_equal(assignment, np.zeros(50))
        assert np.array_equal(assignment, naive_kmeans(X, 1, restarts=3, seed=0))
        assert stats == [((2, 2, 2), 1, 1)]  # the second step moves nothing

    def test_many_restarts_small_late_moves(self, rng):
        X, _ = blobs(rng, [tuple(rng.normal(size=4) * 1.5) for _ in range(8)], per_class=150)
        stats = []
        assert np.array_equal(kmeans(X, 8, restarts=30, seed=3, stats=stats),
                              naive_kmeans(X, 8, restarts=30, seed=3))
        (steps, recomputed, updated), = stats
        assert len(steps) == 30 and updated > recomputed

    def test_centres_stay_fresh_means(self, rng):
        # the carried sums drift only by rounding: the centres each restart
        # ends with are its clusters' fresh means to 1e-12 relative
        X = rng.normal(size=(900, 5)) + rng.normal(size=5) * 10
        norms = np.sum(X ** 2, axis=1)
        centers = evaluate._seed_restarts(X, norms, 6, 10, np.random.default_rng(0))
        stats = []
        assignments, final = evaluate._lloyd(X, norms, centers, 300, stats)
        assert stats[0][2] > 0
        assert_fresh_means(X, assignments, final)

    def test_reseeded_restart_sums_recomputed(self, monkeypatch):
        # fewer distinct points than clusters: seeding repeats a point, a
        # cluster empties, and later steps update the sums of the
        # re-seeded assignment
        reseeds = []
        real = evaluate._reseed_step
        monkeypatch.setattr(evaluate, "_reseed_step",
                            lambda *args: (reseeds.append(args), real(*args)))
        for seed in range(30):
            gen = np.random.default_rng(seed)
            clumps = int(gen.integers(2, 5))
            X = np.repeat(gen.normal(size=(clumps, 2)), int(gen.integers(5, 20)), axis=0)
            norms = np.sum(X ** 2, axis=1)
            centers = evaluate._seed_restarts(X, norms, clumps + 1, 3, gen)
            assert_fresh_means(X, *evaluate._lloyd(X, norms, centers, 300))
        assert reseeds


def assert_fresh_means(points, assignments, centers):
    """Each restart's centres are its clusters' fresh means to 1e-12 relative."""
    for assignment, ends in zip(assignments, centers):
        for c, centre in enumerate(ends):
            mean = points[assignment == c].mean(axis=0)
            assert np.abs(centre - mean).max() <= 1e-12 * np.abs(mean).max()


class TestKmeansSeeding:
    """``_seed_restarts`` seeds every restart at once; ``_kmeans_plus_plus``
    run once per restart is the sequential seeding it must reproduce."""

    def sequential(self, X, k, restarts, rng):
        norms = np.sum(X ** 2, axis=1)
        return np.stack([evaluate._kmeans_plus_plus(X, norms, k, rng) for _ in range(restarts)])

    def test_stacked_matches_sequential(self, rng, monkeypatch):
        cases = [(rng.normal(size=(int(rng.integers(8, 300)), int(rng.integers(1, 6)))),
                  int(rng.integers(1, 8)), int(rng.integers(1, 12))) for _ in range(30)]
        expected = []
        for trial, (X, k, restarts) in enumerate(cases):
            gen = np.random.default_rng(trial)
            expected.append((self.sequential(X, k, restarts, gen), gen.bit_generator.state))

        def sequential_seeding(*args):
            raise AssertionError("distinct points took the one-restart path")

        monkeypatch.setattr(evaluate, "_kmeans_plus_plus", sequential_seeding)
        for trial, ((X, k, restarts), (centers, state)) in enumerate(zip(cases, expected)):
            gen = np.random.default_rng(trial)
            stacked = evaluate._seed_restarts(X, np.sum(X ** 2, axis=1), k, restarts, gen)
            assert np.array_equal(stacked, centers)
            assert gen.bit_generator.state == state

    def test_too_few_distinct_points_rewinds(self, monkeypatch):
        X = np.array([[0.0, 0.0]] * 5 + [[1.0, 2.0]] * 4)
        calls = []
        real = evaluate._kmeans_plus_plus

        def counted(*args):
            calls.append(args)
            return real(*args)

        for seed in range(5):
            gen = np.random.default_rng(seed)
            centers, state = self.sequential(X, 3, 4, gen), gen.bit_generator.state
            monkeypatch.setattr(evaluate, "_kmeans_plus_plus", counted)
            gen = np.random.default_rng(seed)
            stacked = evaluate._seed_restarts(X, np.sum(X ** 2, axis=1), 3, 4, gen)
            monkeypatch.setattr(evaluate, "_kmeans_plus_plus", real)
            assert np.array_equal(stacked, centers)
            assert gen.bit_generator.state == state
        assert len(calls) == 5 * 4

    def test_inverse_cdf_is_generator_choice(self):
        # pins the draw to numpy's own: a numpy that changes how
        # Generator.choice draws with p fails here
        for trial in range(500):
            gen = np.random.default_rng(trial)
            n = int(gen.integers(1, 400))
            p = gen.random(n) ** int(gen.integers(1, 6))
            p[gen.random(n) < 0.3] = 0.0
            p[int(gen.integers(n))] += 0.5
            p /= p.sum()
            choice, inverse = (np.random.default_rng((trial, 1)) for _ in range(2))
            expected = int(choice.choice(n, p=p))
            assert evaluate._inverse_cdf(p[None], np.array([inverse.random()]))[0] == expected
            assert inverse.bit_generator.state == choice.bit_generator.state

    def test_inverse_cdf_edges(self):
        # a uniform on a step of the CDF passes over the zero-weight index
        assert evaluate._inverse_cdf(np.array([[0.5, 0.0, 0.5]]), np.array([0.5]))[0] == 2
        # ten 0.1s sum to 1 - 2**-53; the largest uniform still takes the last index
        assert evaluate._inverse_cdf(np.full((1, 10), 0.1), np.array([1 - 2.0 ** -53]))[0] == 9


class TestClusterMetrics:
    def test_identical_assignment(self):
        labels = np.array([0, 0, 1, 1, 2])
        assert nmi(labels, labels) == pytest.approx(1.0, abs=1e-12)
        assert purity(labels, labels) == 1.0

    def test_single_cluster(self):
        labels = np.array([0, 0, 1, 2])
        ones = np.zeros(4, dtype=int)
        assert nmi(ones, labels) == 0.0
        assert purity(ones, labels) == 0.5  # majority class fraction

    def test_match_contingency_oracles(self, rng):
        for _ in range(100):
            n = int(rng.integers(2, 30))
            a = rng.integers(0, 5, size=n)
            b = rng.integers(0, 4, size=n)
            assert nmi(a, b) == pytest.approx(naive_nmi(a.tolist(), b.tolist()), abs=1e-12)
            assert purity(a, b) == pytest.approx(
                naive_purity(a.tolist(), b.tolist()), abs=1e-12
            )

    def test_nmi_symmetric(self, rng):
        a = rng.integers(0, 3, size=40)
        b = rng.integers(0, 5, size=40)
        assert nmi(a, b) == pytest.approx(nmi(b, a), abs=1e-12)

    def test_nmi_label_permutation_invariant(self, rng):
        a = rng.integers(0, 4, size=50)
        b = rng.integers(0, 3, size=50)
        perm = rng.permutation(4)
        assert nmi(perm[a], b) == pytest.approx(nmi(a, b), abs=1e-12)

    def test_purity_non_decreasing_under_split(self):
        labels = np.array([0, 0, 1, 1])
        merged = np.array([0, 0, 0, 0])
        split = np.array([0, 0, 1, 1])
        assert purity(split, labels) >= purity(merged, labels)


class TestProjection:
    def test_2d_input_preserves_distances(self, rng):
        X = rng.normal(size=(40, 2))
        Y = project_2d(X)
        d_before = np.linalg.norm(X[:, None] - X[None], axis=2)
        d_after = np.linalg.norm(Y[:, None] - Y[None], axis=2)
        np.testing.assert_allclose(d_before, d_after, atol=1e-9)

    def test_line_in_high_dim(self, rng):
        direction = rng.normal(size=10)
        ts = rng.normal(size=50)
        X = np.outer(ts, direction)
        Y = project_2d(X)
        assert Y[:, 1].std() < 1e-9
        assert Y[:, 0].std() > 0

    def test_variance_matches_dense_eigensolver(self, rng):
        X = rng.normal(size=(60, 5)) @ rng.normal(size=(5, 5))
        Y = project_2d(X)
        centered = X - X.mean(axis=0)
        eigvals = np.sort(np.linalg.eigvalsh(centered.T @ centered / 59))[::-1]
        np.testing.assert_allclose(Y[:, 0].var(ddof=1), eigvals[0], rtol=1e-6)
        np.testing.assert_allclose(Y[:, 1].var(ddof=1), eigvals[1], rtol=1e-6)

    def test_deterministic(self, rng):
        X = rng.normal(size=(30, 6))
        assert np.array_equal(project_2d(X), project_2d(X))

    def test_constant_input(self):
        X = np.ones((10, 4))
        assert np.array_equal(project_2d(X), np.zeros((10, 2)))


class TestReports:
    def test_classification_report_shape(self, rng):
        X, y = blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], per_class=30)
        report = run_classification_eval(X, y, ratios=(0.3, 0.5, 0.7), repeats=4, seed=1)
        assert report.train_ratios == (0.3, 0.5, 0.7)
        assert len(report.macro_f1_mean) == 3
        assert len(report.macro_f1_std) == 3
        assert all(len(r) == 4 for r in report.macro_f1_runs)
        assert all(0 <= v <= 1 for v in report.macro_f1_mean)

    def test_separable_data_scores_high(self, rng):
        X, y = blobs(rng, [(-6.0, 0.0), (6.0, 0.0)], per_class=30)
        report = run_classification_eval(X, y, ratios=(0.7,), repeats=5, seed=2)
        assert report.macro_f1_mean[0] > 0.95

    def test_shuffled_labels_near_chance(self, rng):
        # high-dim noise features, 4 balanced classes: macro-F1 ~ 1/k
        X = rng.normal(size=(200, 20))
        y = np.repeat(np.arange(4), 50)
        rng.shuffle(y)
        report = run_classification_eval(X, y, ratios=(0.5,), repeats=10, seed=3)
        assert abs(report.macro_f1_mean[0] - 0.25) < 0.1

    def test_matches_per_fit_evaluation(self, rng, caplog):
        # the stacked, masked fits of each ratio against one fit at a time on
        # its own rows, with the oracle's own splits, class mapping and F1
        X = rng.normal(size=(120, 6)) + np.repeat(rng.normal(size=(3, 6)), 40, axis=0)
        y = np.repeat(np.arange(3), 40)
        y[rng.random(120) < 0.1] = -1
        with caplog.at_level("INFO", logger="neuralbrane.evaluate"):
            report = run_classification_eval(X, y, ratios=(0.3, 0.5, 0.7), repeats=3, seed=5)
        expected = perfit_classification_scores(X, y, (0.3, 0.5, 0.7), 3, 5, split_train_test,
                                                fit=train_linear_classifier)
        for got, ref in zip(report.macro_f1_runs, expected):
            assert np.max(np.abs(np.array(got) - ref)) <= 1e-12
        # one line per ratio: the fits' iteration range and worst final gradient
        lines = [r.getMessage() for r in caplog.records]
        assert len(lines) == 3
        for ratio, line in zip((0.3, 0.5, 0.7), lines):
            found = re.fullmatch(rf"classify @ train {ratio}: 3 fits converged in (\d+)-(\d+) "
                                 r"iterations, max \|gradient\| at most (\S+)", line)
            assert found, line
            low, high, worst = int(found[1]), int(found[2]), float(found[3])
            assert 1 < low <= high < evaluate.LOGREG_MAX_ITERATIONS
            assert worst <= evaluate.LOGREG_TOLERANCE

    def test_class_ids_need_not_run_from_zero(self, rng):
        X, y = blobs(rng, [(-2.0, 0.0), (2.0, 0.0), (0.0, 2.5)], per_class=40, scale=1.5)
        y[::9] = -1
        base = run_classification_eval(X, y, ratios=(0.3, 0.5), repeats=3, seed=2)
        for ids in ([1, 2, 3], [0, 2, 7], [5, 9, 10**12]):  # same order: same sums
            mapped = np.where(y >= 0, np.array(ids)[y], -1)
            report = run_classification_eval(X, mapped, ratios=(0.3, 0.5), repeats=3, seed=2)
            assert report.macro_f1_runs == base.macro_f1_runs

    def test_clustering_report(self, rng, caplog):
        X, y = blobs(rng, [(-8.0, 0.0), (8.0, 0.0), (0.0, 9.0)], per_class=20)
        with caplog.at_level("INFO", logger="neuralbrane.evaluate"):
            report = run_clustering_eval(X, y, runs=5, restarts=3, seed=4)
        assert report.clusters == 3
        assert report.nmi_mean == pytest.approx(1.0, abs=1e-6)
        assert report.purity_mean == pytest.approx(1.0, abs=1e-6)
        assert report.purity_mean >= 1.0 / report.clusters
        # one line: the restarts' Lloyd step range and the sums' step counts,
        # as the runs' own kmeans stats give them
        stats = []
        for run in range(5):
            kmeans(X, 3, restarts=3, seed=np.random.SeedSequence((4, run)), stats=stats)
        steps = [s for restart_steps, _, _ in stats for s in restart_steps]
        assert [r.getMessage() for r in caplog.records] == [
            f"cluster k=3: 5 runs of 3 restarts took {min(steps)}-{max(steps)} Lloyd steps; "
            f"cluster sums recomputed in {sum(s[1] for s in stats)} steps, "
            f"updated in {sum(s[2] for s in stats)}"]

    def test_report_csv(self, rng):
        import io
        X, y = blobs(rng, [(-3.0, 0.0), (3.0, 0.0)], per_class=10)
        report = run_classification_eval(X, y, ratios=(0.5,), repeats=2, seed=0)
        buffer = io.StringIO()
        report.write_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "task,train_ratio,runs,macro_f1_mean,macro_f1_std"
        assert lines[1].startswith("classify,0.5,2,")
        assert report.summary()
