import math
from dataclasses import replace

import numpy as np
import pytest

from neuralbrane.graph import Rows
from neuralbrane.model import forward, init_parameters
from neuralbrane.sampler import Triplet, TripletSampler
from neuralbrane.synthetic import gnm_random_graph, planted_partition
from neuralbrane.trainer import (
    GradientSet,
    TrainConfig,
    TrainLog,
    TrainingDivergedError,
    apply_update,
    batch_gradients,
    train,
    triplet_gradients,
    triplet_loss,
)

from .oracles import finite_difference_gradients, naive_triplet_loss, relative_error


def random_instance(seed, pooling="max"):
    """Tiny graph + params + one valid triplet, for gradient checking."""
    rng = np.random.default_rng(seed)
    for attempt in range(50):
        g = planted_partition(
            nodes=int(rng.integers(4, 9)),
            attributes=int(rng.integers(2, 11)),
            intra_p=0.5, inter_p=0.2,
            attr_on=0.6, attr_off=0.2,
            seed=int(rng.integers(1 << 30)),
        )
        sampler_seed = int(rng.integers(1 << 30))
        try:
            t = TripletSampler(g, seed=sampler_seed).sample_triplet()
        except Exception:
            continue
        d1 = int(rng.integers(1, 5))
        d2 = int(rng.integers(1, 5))
        h = int(rng.integers(1, 6))
        params = init_parameters(g.node_count, g.attribute_count, d1, d2, h,
                                 seed=int(rng.integers(1 << 30)))
        # O(1)-scale parameters keep finite differences well conditioned
        for block in (params.P, params.P_prime, params.W, params.b):
            block *= 6.0
        return g, params, t
    raise RuntimeError("could not build a random instance")


def dense_gradients(params, grads):
    dP = np.zeros_like(params.P)
    for row, vec in grads.attr_rows.items():
        dP[row] = vec
    dPp = np.zeros_like(params.P_prime)
    for row, vec in grads.nbr_rows.items():
        dPp[row] = vec
    return dP, dPp, grads.w_grad, grads.b_grad


class TestTrainConfig:
    def test_defaults(self):
        cfg = TrainConfig()
        assert (cfg.d1, cfg.d2, cfg.hidden) == (75, 75, 150)
        assert cfg.learning_rate == 0.5
        assert cfg.reg == 0.00005
        assert cfg.batch_size == 100
        assert cfg.epochs == 30
        assert cfg.pooling == "max"
        assert cfg.grad_agg == "mean"

    def test_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(learning_rate=0.0)
        with pytest.raises(ValueError):
            TrainConfig(batch_size=0)
        with pytest.raises(ValueError):
            TrainConfig(pooling="avg")


class TestTripletLoss:
    def test_zero_margin_is_ln2(self):
        # i == j forces s_ui == s_uj exactly, so the ranking term is -ln(1/2)
        g = planted_partition(nodes=6, attributes=4, intra_p=1.0, inter_p=1.0,
                              attr_on=0.0, attr_off=0.0, seed=0)
        params = init_parameters(6, 4, 2, 2, 3, seed=1)
        loss = triplet_loss(params, g, Triplet(0, 1, 1), reg=0.0)
        assert loss == pytest.approx(math.log(2.0), abs=1e-12)

    def test_ranking_term_vanishes_monotonically_with_margin(self):
        from neuralbrane.trainer import _softplus
        margins = np.linspace(0.0, 60.0, 200)
        values = [_softplus(-m) for m in margins]
        assert all(b <= a for a, b in zip(values, values[1:]))
        assert values[-1] < 1e-25

    def test_matches_naive_oracle(self):
        for seed in range(25):
            g, params, t = random_instance(seed)
            for reg in (0.0, 0.01):
                for pooling in ("max", "sum"):
                    fast = triplet_loss(params, g, t, reg=reg, pooling=pooling)
                    slow = naive_triplet_loss(params, g, t, reg=reg, pooling=pooling)
                    assert relative_error(fast, slow) < 1e-12


class TestTripletGradients:
    def test_zero_gradient_when_positive_equals_negative(self):
        g = planted_partition(nodes=6, attributes=4, intra_p=1.0, inter_p=1.0,
                              attr_on=0.0, attr_off=0.0, seed=0)
        params = init_parameters(6, 4, 2, 2, 3, seed=2)
        grads = triplet_gradients(params, g, Triplet(0, 1, 1), reg=0.0)
        # with i == j the margin gradient cancels exactly everywhere
        for vec in grads.attr_rows.values():
            np.testing.assert_allclose(vec, 0.0, atol=1e-18)
        for vec in grads.nbr_rows.values():
            np.testing.assert_allclose(vec, 0.0, atol=1e-18)
        np.testing.assert_allclose(grads.w_grad, 0.0, atol=1e-18)
        np.testing.assert_allclose(grads.b_grad, 0.0, atol=1e-18)

    @pytest.mark.parametrize("pooling", ["max", "sum"])
    def test_matches_finite_differences(self, pooling):
        for seed in range(10):
            g, params, t = random_instance(seed, pooling)
            reg = 0.01 if seed % 2 else 0.0
            grads = triplet_gradients(params, g, t, reg=reg, pooling=pooling)
            analytic = dense_gradients(params, grads)
            numeric = finite_difference_gradients(
                lambda: triplet_loss(params, g, t, reg=reg, pooling=pooling), params
            )
            for a, f in zip(analytic, numeric):
                for ia, (av, fv) in enumerate(zip(a.ravel(), f.ravel())):
                    assert relative_error(av, fv) < 1e-4

    def test_untouched_rows_get_no_entry(self):
        g, params, t = random_instance(7)
        grads = triplet_gradients(params, g, t, reg=0.5)
        touched_attr = set()
        touched_nbr = set()
        for node in (t.u, t.i, t.j):
            touched_attr.update(int(a) for a in g.attributes[node])
            touched_nbr.update(int(v) for v in g.neighbors[node])
        assert set(grads.attr_rows) <= touched_attr
        assert set(grads.nbr_rows) <= touched_nbr

    def test_max_pool_tie_routes_to_first_row(self, tmp_path):
        # nodes 0 and 1 carry attribute sets {0} and {0,1} with rows of P
        # exactly equal: the tie must send the whole gradient to row 0
        from neuralbrane.graph import load_graph
        (tmp_path / "e.txt").write_text("0 1\n1 2\n2 3\n")
        (tmp_path / "a.txt").write_text("0 0\n1 0 1\n2 1\n3 0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        params = init_parameters(4, 2, 3, 3, 4, seed=5)
        params.P[1] = params.P[0]  # exact tie on every coordinate
        t = Triplet(1, 0, 3)
        grads = triplet_gradients(params, g, t, reg=0.0)
        trace = forward(params, g, 1)
        assert trace.attr_argmax.tolist() == [0, 0, 0]
        assert 0 in grads.attr_rows
        # row 1 is looked up only by node 1 and loses every tie
        if 1 in grads.attr_rows:
            np.testing.assert_allclose(grads.attr_rows[1], 0.0, atol=1e-18)


def sum_of_single_gradients(params, g, batch, reg, pooling):
    """Dense (P, P_prime, W, b) gradients summed over batches of one."""
    total = [np.zeros_like(block) for block in (params.P, params.P_prime, params.W, params.b)]
    for t in batch:
        for block, single in zip(total, dense_gradients(
                params, triplet_gradients(params, g, t, reg=reg, pooling=pooling))):
            block += single
    return total


class TestBatchGradients:
    @staticmethod
    def instance(seed):
        # 12 nodes and 6 attributes, so a batch of 25 repeats nodes and rows
        # across triplets; node 0 has no attributes and anchors a triplet
        g = gnm_random_graph(nodes=12, edges=24, attributes=6, attrs_per_node=3, seed=seed)
        attrs = g.attributes
        g = replace(g, attributes=Rows(np.maximum(attrs.indptr - attrs.indptr[1], 0),
                                       attrs.values[attrs.indptr[1]:]))
        assert len(g.attributes[0]) == 0 and len(g.attributes[1]) > 0
        params = init_parameters(12, 6, 3, 4, 5, seed=seed)
        batch = TripletSampler(g, seed=seed).sample_batch(24)
        positive = int(g.neighbors[0][0])
        negative = next(v for v in range(1, 12) if not g.has_edge(0, v))
        return g, params, batch + [Triplet(0, positive, negative)]

    @pytest.mark.parametrize("pooling", ["max", "sum"])
    @pytest.mark.parametrize("reg", [0.0, 0.05])
    def test_batch_equals_sum_of_singles(self, pooling, reg):
        for seed in range(5):
            g, params, batch = self.instance(seed)
            grads, losses = batch_gradients(params, g, batch, reg, pooling)
            expected = sum_of_single_gradients(params, g, batch, reg, pooling)
            for got, want in zip(dense_gradients(params, grads), expected):
                scale = max(float(np.max(np.abs(want))), 1e-300)
                assert float(np.max(np.abs(got - want))) / scale <= 1e-12

            looked_up = [np.unique(np.concatenate([g.attributes[n] for n in t]))
                         for t in batch]
            assert grads.attr_ids.tolist() == sorted(set(np.concatenate(looked_up).tolist()))
            # some attribute row is looked up by several triplets, so the L2
            # term's per-triplet count is exercised
            assert np.max(np.bincount(np.concatenate(looked_up))) > 1
            assert [bpr + l2 for bpr, l2 in losses] == [
                triplet_loss(params, g, t, reg=reg, pooling=pooling) for t in batch]

    @pytest.mark.parametrize("pooling", ["max", "sum"])
    def test_update_moves_only_looked_up_rows(self, pooling):
        g, params, batch = self.instance(7)
        before = params.copy()
        grads, _ = batch_gradients(params, g, batch, 0.05, pooling)
        apply_update(params, grads, 0.5)
        attr = set(np.concatenate([g.attributes[n] for t in batch for n in t]).tolist())
        nbr = set(np.concatenate([g.neighbors[n] for t in batch for n in t]).tolist())
        moved_attr = {r for r in range(6) if not np.array_equal(params.P[r], before.P[r])}
        moved_nbr = {r for r in range(12)
                     if not np.array_equal(params.P_prime[r], before.P_prime[r])}
        # with reg > 0 every looked-up row carries an L2 gradient, so all move
        assert moved_attr == attr
        assert moved_nbr == nbr
        assert not np.array_equal(params.W, before.W)
        assert not np.array_equal(params.b, before.b)


class TestApplyUpdate:
    def test_zero_gradient_is_noop(self):
        params = init_parameters(4, 4, 2, 2, 3, seed=0)
        before = params.copy()
        apply_update(params, GradientSet.zeros(params), 0.5)
        assert np.array_equal(params.P, before.P)
        assert np.array_equal(params.W, before.W)

    def test_scalar_arithmetic(self):
        params = init_parameters(2, 2, 1, 1, 1, seed=0)
        params.W[0, 0] = 1.0
        grads = GradientSet.zeros(params)
        grads.w_grad[0, 0] = 2.0
        apply_update(params, grads, 0.5)
        assert params.W[0, 0] == 0.0

    def test_two_steps_equal_summed_step(self):
        base = init_parameters(3, 3, 2, 2, 2, seed=1)
        g1 = GradientSet.zeros(base)
        g2 = GradientSet.zeros(base)
        g1.w_grad[:] = 0.25
        g2.b_grad[:] = -0.5
        g1 = replace(g1, attr_ids=np.array([1]), attr_grad=np.array([[1.0, -1.0]]))
        g2 = replace(g2, attr_ids=np.array([1]), attr_grad=np.array([[0.5, 0.5]]))

        sequential = base.copy()
        apply_update(sequential, g1, 0.1)
        apply_update(sequential, g2, 0.1)

        combined = GradientSet.zeros(base)
        combined.w_grad[:] = 0.25
        combined.b_grad[:] = -0.5
        combined = replace(combined, attr_ids=np.array([1]), attr_grad=np.array([[1.5, -0.5]]))
        at_once = base.copy()
        apply_update(at_once, combined, 0.1)

        np.testing.assert_allclose(sequential.P, at_once.P, atol=1e-15)
        np.testing.assert_allclose(sequential.W, at_once.W, atol=1e-15)
        np.testing.assert_allclose(sequential.b, at_once.b, atol=1e-15)

    def test_non_finite_gradient_rejected(self):
        params = init_parameters(2, 2, 1, 1, 1, seed=0)
        grads = GradientSet.zeros(params)
        grads.w_grad[0, 0] = np.nan
        with pytest.raises(TrainingDivergedError):
            apply_update(params, grads, 0.1)

    def test_sparse_update_touches_only_named_rows(self):
        params = init_parameters(6, 6, 2, 2, 2, seed=3)
        before = params.copy()
        grads = replace(GradientSet.zeros(params),
                        attr_ids=np.array([2]), attr_grad=np.ones((1, 2)),
                        nbr_ids=np.array([4]), nbr_grad=np.ones((1, 2)))
        apply_update(params, grads, 0.1)
        changed_attr = [r for r in range(6) if not np.array_equal(params.P[r], before.P[r])]
        changed_nbr = [
            r for r in range(6) if not np.array_equal(params.P_prime[r], before.P_prime[r])
        ]
        assert changed_attr == [2]
        assert changed_nbr == [4]


class TestTrain:
    def test_loss_decreases_and_learns(self):
        g = planted_partition(seed=1)
        cfg = TrainConfig(d1=16, d2=16, hidden=32, epochs=30, seed=1,
                          convergence_tol=0.0)
        params, tlog = train(g, cfg)
        losses = tlog.loss
        assert tlog.epochs_run == 30
        # verified on this instance: takeoff completes well below the start
        assert losses[-1] < 0.75 * losses[0]
        assert losses[10] < losses[0]
        assert params.all_finite()

    def test_flattens_within_ten_epochs(self):
        # paper-scale behavior shrunk: relative epoch change < 1e-2 inside 10
        g = planted_partition(seed=1)
        cfg = TrainConfig(d1=16, d2=16, hidden=32, epochs=12, seed=1,
                          convergence_tol=0.0)
        _, tlog = train(g, cfg)
        rel = np.abs(np.diff(tlog.loss)) / np.abs(tlog.loss[:-1])
        assert np.any(rel[:10] < 1e-2)

    def test_heavy_regularization_shrinks_parameters(self):
        g = planted_partition(nodes=20, attributes=8, seed=4)
        cfg = TrainConfig(d1=4, d2=4, hidden=6, epochs=8, seed=0, reg=10.0,
                          learning_rate=0.01, convergence_tol=0.0)
        ss_init, _ = np.random.SeedSequence(cfg.seed).spawn(2)
        start = init_parameters(g.node_count, g.attribute_count, 4, 4, 6, seed=ss_init)
        params, _ = train(g, cfg)
        # W and b are regularized every step, so their norms must shrink
        assert np.linalg.norm(params.W) < np.linalg.norm(start.W)
        assert np.linalg.norm(params.b) < np.linalg.norm(start.b)

    def test_deterministic_under_seed(self):
        g = planted_partition(nodes=20, attributes=8, seed=4)
        cfg = TrainConfig(d1=4, d2=4, hidden=6, epochs=3, seed=9,
                          convergence_tol=0.0)
        p1, log1 = train(g, cfg)
        p2, log2 = train(g, cfg)
        assert np.array_equal(p1.P, p2.P)
        assert np.array_equal(p1.P_prime, p2.P_prime)
        assert np.array_equal(p1.W, p2.W)
        assert np.array_equal(p1.b, p2.b)
        assert log1.bpr_loss == log2.bpr_loss
        assert log1.triplets == log2.triplets

    def test_convergence_tolerance_stops_early(self):
        g = planted_partition(nodes=20, attributes=8, seed=4)
        cfg = TrainConfig(d1=4, d2=4, hidden=6, epochs=50, seed=9,
                          learning_rate=1e-6, convergence_tol=0.5)
        _, tlog = train(g, cfg)
        assert tlog.converged_epoch is not None
        assert tlog.epochs_run < 50

    def test_edgeless_graph_rejected(self, tmp_path):
        from neuralbrane.graph import load_graph
        (tmp_path / "e.txt").write_text("")
        (tmp_path / "a.txt").write_text("0 1\n1 0\n2 1\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        with pytest.raises(ValueError, match="no edges"):
            train(g, TrainConfig(d1=2, d2=2, hidden=2))

    def test_sampler_errors_propagate(self, tmp_path):
        # complete graph: every anchor is adjacent to every other node, so no
        # negative exists anywhere and the first batch must fail
        from neuralbrane.graph import load_graph
        from neuralbrane.sampler import SamplingError
        lines = [f"{u} {v}" for u in range(4) for v in range(u + 1, 4)]
        (tmp_path / "e.txt").write_text("\n".join(lines))
        (tmp_path / "a.txt").write_text("0 0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        with pytest.raises(SamplingError, match="adjacent to every other node"):
            train(g, TrainConfig(d1=2, d2=2, hidden=2, epochs=1))

    def test_batch_step_touches_only_batch_rows(self):
        # diff parameters across one real batch update: only rows looked up
        # by the batch's triplets (plus W and b) may move
        g = planted_partition(nodes=30, attributes=15, seed=8)
        params = init_parameters(30, 15, 4, 4, 6, seed=5)
        before = params.copy()
        batch = TripletSampler(g, seed=4).sample_batch(5)
        grads, _ = batch_gradients(params, g, batch, 0.001, "max")
        grads.scale(1.0 / len(batch))
        apply_update(params, grads, 0.5)

        touched_attr = set()
        touched_nbr = set()
        for t in batch:
            for node in (t.u, t.i, t.j):
                touched_attr.update(int(a) for a in g.attributes[node])
                touched_nbr.update(int(v) for v in g.neighbors[node])
        for row in range(15):
            moved = not np.array_equal(params.P[row], before.P[row])
            assert moved == (row in touched_attr) or not moved
            if row not in touched_attr:
                assert not moved
        for row in range(30):
            if row not in touched_nbr:
                assert np.array_equal(params.P_prime[row], before.P_prime[row])

    def test_fixed_batch_loss_non_increasing_at_small_step(self):
        # one small gradient step on a frozen batch cannot raise its loss
        g = planted_partition(nodes=16, attributes=8, seed=6)
        params = init_parameters(16, 8, 4, 4, 6, seed=2)
        for block in (params.P, params.P_prime, params.W, params.b):
            block *= 5.0
        batch = TripletSampler(g, seed=3).sample_batch(20)
        before = sum(triplet_loss(params, g, t, reg=0.0) for t in batch)
        grads, _ = batch_gradients(params, g, batch, 0.0, "max")
        grads.scale(1.0 / len(batch))
        apply_update(params, grads, 1e-3)
        after = sum(triplet_loss(params, g, t, reg=0.0) for t in batch)
        assert after <= before + 1e-12


class TestTrainLog:
    def test_csv_format(self):
        tlog = TrainLog(bpr_loss=[10.0, 8.0], reg_loss=[1.0, 1.0],
                        seconds=[0.5, 0.4], triplets=[100, 100])
        import io
        buffer = io.StringIO()
        tlog.write_csv(buffer)
        lines = buffer.getvalue().splitlines()
        assert lines[0] == "epoch,loss,seconds,triplets"
        assert lines[1].startswith("0,11,")
        assert lines[2].split(",")[3] == "100"
