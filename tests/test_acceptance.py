"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every threshold is asserted at its stated tolerance.
"""

import math
from pathlib import Path

import numpy as np
import pytest

import neuralbrane
from neuralbrane.evaluate import (
    kmeans,
    macro_f1,
    nmi,
    purity,
    run_classification_eval,
    run_clustering_eval,
    within_cluster_ss,
)
from neuralbrane.graph import load_graph
from neuralbrane.model import (
    embed_all,
    forward,
    init_parameters,
)
from neuralbrane.sampler import SamplingError, Triplet, TripletSampler
from neuralbrane.synthetic import planted_partition
from neuralbrane.trainer import TrainConfig, train

from . import criterion5
from .oracles import (
    bpr_probability,
    finite_difference_gradients,
    fit_loglog_slope,
    naive_macro_f1,
    naive_nmi,
    naive_purity,
    naive_triplet_loss,
    naive_wcss,
    relative_error,
    triplet_gradients,
    triplet_loss,
)

DATA_DIR = Path(__file__).resolve().parent.parent / "data" / "citeseer"


def report(name, ok, detail=""):
    print(f"\nACCEPTANCE {name}: {'PASS' if ok else 'FAIL'} {detail}")
    assert ok, f"{name} failed: {detail}"


def random_tiny_instance(rng, pooling="max"):
    """Graph with n<=8, m<=10, d1=d2<=4, h<=5 plus one valid triplet."""
    while True:
        g = planted_partition(
            nodes=int(rng.integers(4, 9)),
            attributes=int(rng.integers(2, 11)),
            intra_p=0.5, inter_p=0.2, attr_on=0.6, attr_off=0.2,
            seed=int(rng.integers(1 << 30)),
        )
        try:
            batch = TripletSampler(g, seed=int(rng.integers(1 << 30))).sample_batch(1)
        except SamplingError:
            continue
        t = Triplet(*batch[0].tolist())
        width = int(rng.integers(1, 5))
        params = init_parameters(
            g.node_count, g.attribute_count, width, width, int(rng.integers(1, 6)),
            seed=int(rng.integers(1 << 30)),
        )
        for block in (params.P, params.P_prime, params.W, params.b):
            block *= 6.0  # O(1) parameter scale keeps central differences sharp
        return g, params, t


def gradient_check(params, g, t, reg, pooling, skip_attr_rows=()):
    """Worst relative FD error over all parameter entries; returns the max."""
    grads = triplet_gradients(params, g, t, reg=reg, pooling=pooling)
    dense = {
        "P": np.zeros_like(params.P),
        "P_prime": np.zeros_like(params.P_prime),
    }
    for row, vec in grads.attr_rows.items():
        dense["P"][row] = vec
    for row, vec in grads.nbr_rows.items():
        dense["P_prime"][row] = vec
    # differences of the oracle loss in extended precision: float64 rounding
    # moves a loss of ~1 by ~1e-16, which over 2*eps would read as a 1e-10
    # slope where the exact one is 0, past the 1e-12 the error floor allows
    numeric = finite_difference_gradients(
        lambda: naive_triplet_loss(params, g, t, reg, pooling, real=np.longdouble), params
    )
    analytic = (dense["P"], dense["P_prime"], grads.w_grad, grads.b_grad)
    worst = 0.0
    for b_idx, (a, f) in enumerate(zip(analytic, numeric)):
        for flat, (av, fv) in enumerate(zip(a.ravel(), f.ravel())):
            if b_idx == 0 and (flat // params.d1) in skip_attr_rows:
                continue
            worst = max(worst, relative_error(av, fv))
    return worst


class TestCriterion1GradientExactness:
    def test_finite_difference_sweep(self):
        rng = np.random.default_rng(20240811)
        instances = 0
        worst = 0.0
        routed_away_from_first = 0
        inactive_units_seen = 0
        while instances < 100:
            pooling = "sum" if instances % 5 == 4 else "max"
            g, params, t = random_tiny_instance(rng, pooling)
            reg = 0.01 if instances % 2 else 0.0
            worst = max(worst, gradient_check(params, g, t, reg, pooling))
            trace = forward(params, g, [t.u], pooling)
            if pooling == "max" and trace.attr_winners[0].max() > 0:
                routed_away_from_first += 1
            if np.any(trace.pre_activation[0] <= 0):
                inactive_units_seen += 1
            instances += 1
        # the sweep must genuinely exercise argmax routing and ReLU masking
        assert routed_away_from_first >= 20
        assert inactive_units_seen >= 50
        report(
            "1 gradient-exactness",
            worst < 1e-4,
            f"worst rel err {worst:.2e} over {instances} instances "
            f"(routing exercised {routed_away_from_first}x, masking {inactive_units_seen}x)",
        )

    def test_max_pool_tie_routing(self):
        # exact ties are non-differentiable points: central differences average
        # the two branch slopes there, so tied rows are checked by the routing
        # rule (first row takes the whole gradient) and every other parameter
        # entry is still held to the finite-difference tolerance
        rng = np.random.default_rng(77)
        checked = 0
        worst = 0.0
        while checked < 10:
            g, params, t = random_tiny_instance(rng, "max")
            rows = g.attributes[t.u]
            if len(rows) < 2:
                continue
            lo, hi = int(rows[0]), int(rows[1])
            params.P[hi] = params.P[lo]  # exact tie on every coordinate
            grads = triplet_gradients(params, g, t, reg=0.0, pooling="max")
            trace = forward(params, g, [t.u], "max")
            winning_rows = trace.attr_rows[0][trace.attr_winners[0]]
            tied_dims = np.isin(winning_rows, [lo, hi])
            assert not np.any(winning_rows[tied_dims] == hi), \
                "a tie routed to the higher row index"
            if hi in grads.attr_rows:
                shared_with_other_traces = any(
                    hi in g.attributes[n] for n in (t.i, t.j)
                )
                if not shared_with_other_traces:
                    np.testing.assert_allclose(grads.attr_rows[hi], 0.0, atol=1e-18)
            worst = max(
                worst,
                gradient_check(params, g, t, 0.0, "max", skip_attr_rows={lo, hi}),
            )
            checked += 1
        report("1b tie-routing", worst < 1e-4,
               f"{checked} tied instances, non-tied worst rel err {worst:.2e}")


class TestCriterion2AnalyticIdentities:
    def test_identities(self):
        rng = np.random.default_rng(5)

        assert bpr_probability(3.2, 3.2) == 0.5
        assert bpr_probability(-7.0, -7.0) == 0.5

        g = planted_partition(nodes=6, attributes=4, intra_p=1.0, inter_p=1.0,
                              seed=0)
        params = init_parameters(6, 4, 3, 3, 4, seed=1)
        zero_margin = triplet_loss(params, g, Triplet(0, 1, 1), reg=0.0)
        assert abs(zero_margin - math.log(2.0)) < 1e-12

        worst_complement = 0.0
        for _ in range(1000):
            a, b = rng.normal(scale=10, size=2)
            worst_complement = max(
                worst_complement,
                abs(bpr_probability(a, b) + bpr_probability(b, a) - 1.0),
            )
        assert worst_complement <= 1e-15

        for _ in range(1000):
            rows = int(rng.integers(1, 7))
            width = int(rng.integers(1, 6))
            matrix = rng.normal(size=(rows, width))
            perm = rng.permutation(rows)
            if not np.array_equal(matrix.max(axis=0), matrix[perm].max(axis=0)):
                report("2 analytic-identities", False, "pooling not permutation-free")
        report(
            "2 analytic-identities", True,
            f"sigma midpoint, ln2 margin, complement err {worst_complement:.1e}, "
            "1000 pooling shuffles",
        )


class TestCriterion3SyntheticEndToEnd:
    def test_planted_partition_pipeline(self):
        g = planted_partition(nodes=60, communities=2, intra_p=0.3, inter_p=0.02,
                              attributes=20, attr_on=0.8, attr_off=0.05, seed=1)
        cfg = TrainConfig(d1=16, d2=16, hidden=32, epochs=30, seed=1,
                          convergence_tol=0.0)
        params, tlog = train(g, cfg)
        losses = tlog.loss

        decreased_by_ten = losses[10] < losses[0]
        rel = np.abs(np.diff(losses)) / np.abs(losses[:-1])
        stabilized_inside_ten = bool(np.any(rel[:10] < 1e-2))

        trained = run_classification_eval(
            embed_all(params, g).vectors, g.labels, ratios=(0.7,), repeats=10, seed=7
        ).macro_f1_mean[0]

        init_seed, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        fresh = init_parameters(g.node_count, g.attribute_count, 16, 16, 32,
                                seed=init_seed)
        untrained = run_classification_eval(
            embed_all(fresh, g).vectors, g.labels, ratios=(0.7,), repeats=10, seed=7
        ).macro_f1_mean[0]

        ok = (decreased_by_ten and stabilized_inside_ten
              and trained >= 0.90 and untrained <= 0.65)
        report(
            "3 synthetic-end-to-end", ok,
            f"loss {losses[0]:.1f}->{losses[10]:.1f}@10->{losses[-1]:.1f}, "
            f"trained F1 {trained:.3f} (>=0.90), untrained {untrained:.3f} (<=0.65)",
        )


@pytest.mark.skipif(
    not (DATA_DIR / "edges.txt").exists(),
    reason="CiteSeer dataset not present under data/citeseer/ "
           "(see README for the expected files); criterion waived",
)
class TestCriterion4CiteSeer:
    def test_reproduction(self):
        g = load_graph(DATA_DIR / "edges.txt", DATA_DIR / "attrs.txt",
                       DATA_DIR / "labels.txt")
        cfg = TrainConfig()  # d1=d2=75, h=150, lr 0.5, lambda 5e-5, batch 100
        params, _ = train(g, cfg)
        vectors = embed_all(params, g).vectors
        classify = run_classification_eval(vectors, g.labels,
                                           ratios=(0.3, 0.7), repeats=10, seed=7)
        cluster = run_clustering_eval(vectors, g.labels, runs=10, seed=7)
        f1_30, f1_70 = classify.macro_f1_mean
        ok = (abs(f1_70 - 0.6508) <= 0.03
              and abs(f1_30 - 0.6375) <= 0.03
              and abs(cluster.nmi_mean - 0.3524) <= 0.05)
        report(
            "4 citeseer-reproduction", ok,
            f"F1@70 {f1_70:.4f} (0.6508+/-0.03), F1@30 {f1_30:.4f} (0.6375+/-0.03), "
            f"NMI {cluster.nmi_mean:.4f} (0.3524+/-0.05)",
        )


class TestCriterion5ComplexityScaling:
    @staticmethod
    def _check(criterion, label):
        points = criterion5.POINTS[criterion]
        times = [criterion5.min_epoch_seconds(neuralbrane, graph_kwargs, cfg_kwargs)
                 for _, graph_kwargs, cfg_kwargs in points]
        slope, r2 = fit_loglog_slope([x for x, _, _ in points], times)
        report(
            label,
            criterion5.passes(slope, r2),
            f"slope {slope:.3f} (1.0+/-0.15), R^2 {r2:.4f} over 16x range",
        )

    def test_epoch_time_linear_in_triplets(self):
        self._check("5a", "5a scaling-in-|D|")

    def test_epoch_time_linear_in_hidden_cost(self):
        self._check("5b", "5b scaling-in-h*d")


class TestCriterion6MetricOracles:
    def test_against_brute_force(self):
        rng = np.random.default_rng(606)
        worst = 0.0
        for _ in range(200):
            n = int(rng.integers(2, 40))
            ka, kb = int(rng.integers(2, 6)), int(rng.integers(2, 6))
            a = rng.integers(0, ka, size=n)
            b = rng.integers(0, kb, size=n)
            worst = max(worst, abs(macro_f1(a, b, max(ka, kb))
                                   - naive_macro_f1(a.tolist(), b.tolist(), max(ka, kb))))
            worst = max(worst, abs(nmi(a, b) - naive_nmi(a.tolist(), b.tolist())))
            worst = max(worst, abs(purity(a, b) - naive_purity(a.tolist(), b.tolist())))
        assert worst < 1e-12

        wcss_ok = True
        for trial in range(20):
            # at 15+ points, 100 random assignments cover a vanishing part of
            # the partition space, so any converged run must beat them
            pts = rng.normal(size=(int(rng.integers(15, 41)), 3))
            k = int(rng.integers(2, 5))
            ours = within_cluster_ss(pts, kmeans(pts, k, restarts=10, seed=trial))
            randoms = min(
                naive_wcss(pts.tolist(), rng.integers(0, k, size=len(pts)).tolist())
                for _ in range(100)
            )
            if ours > randoms + 1e-9:
                wcss_ok = False
        report(
            "6 metric-oracles", worst < 1e-12 and wcss_ok,
            f"200 contingency instances, worst abs err {worst:.1e}; "
            "k-means beat 100 random assignments on 20 instances",
        )


class TestCriterion7Determinism:
    def test_cli_end_to_end_byte_identical(self, tmp_path):
        from neuralbrane.cli import main
        from neuralbrane.graph import write_graph

        g = planted_partition(nodes=40, attributes=12, seed=4)
        write_graph(g, tmp_path / "e.txt", tmp_path / "a.txt", tmp_path / "l.txt")

        def pipeline(tag):
            emb = tmp_path / f"emb_{tag}.txt"
            rep = tmp_path / f"rep_{tag}.csv"
            clu = tmp_path / f"clu_{tag}.csv"
            assert main([
                "train", "--edges", str(tmp_path / "e.txt"),
                "--attr-file", str(tmp_path / "a.txt"),
                "--label-file", str(tmp_path / "l.txt"),
                "--d1", "8", "--d2", "8", "--hidden", "12", "--epochs", "3",
                "--seed", "13", "--out", str(emb),
                "--log-file", str(tmp_path / f"log_{tag}.csv"),
            ]) == 0
            assert main([
                "evaluate", "--embeddings", str(emb),
                "--labels", str(tmp_path / "l.txt"),
                "--ratios", "0.5,0.7", "--repeats", "3", "--seed", "11",
                "--report", str(rep),
            ]) == 0
            assert main([
                "evaluate", "--embeddings", str(emb),
                "--labels", str(tmp_path / "l.txt"), "--task", "cluster",
                "--repeats", "3", "--seed", "11", "--report", str(clu),
            ]) == 0
            return emb.read_bytes(), rep.read_bytes(), clu.read_bytes()

        first = pipeline("one")
        second = pipeline("two")
        ok = all(a == b for a, b in zip(first, second))
        report("7 determinism", ok,
               "train + evaluate twice with fixed seeds: embeddings and reports "
               "byte-identical")
