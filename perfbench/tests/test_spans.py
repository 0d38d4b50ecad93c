import types

import numpy as np
import pytest

import layers
from spans import SpanTable, Tracer


def hand_built_tree():
    """cli.main [0, 10] holding trainer.train [1, 7] and serialize.write [8, 9];
    train holds sampler.sample_batch [1, 2], model.forward [2, 4] (which holds
    model.hidden [2.5, 3]) and trainer.apply_update [5, 6]."""
    names = ["cli.main", "trainer.train", "sampler.TripletSampler.sample_batch",
             "model.forward", "model.hidden", "trainer.apply_update",
             "serialize.write_embedding_text"]
    rows = [  # name, start, end, parent
        (0, 0.0, 10.0, -1),
        (1, 1.0, 7.0, 0),
        (2, 1.0, 2.0, 1),
        (3, 2.0, 4.0, 1),
        (4, 2.5, 3.0, 3),
        (5, 5.0, 6.0, 1),
        (6, 8.0, 9.0, 0),
    ]
    name_id, start, end, parent = (np.array(col) for col in zip(*rows))
    return SpanTable(names, name_id, start, end, parent, np.zeros(len(rows)))


def test_self_time_subtracts_direct_children_only():
    t = hand_built_tree()
    np.testing.assert_allclose(t.self_time, [3.0, 2.0, 1.0, 1.5, 0.5, 1.0, 1.0])
    assert t.self_time.sum() == pytest.approx(t.duration[0])


def test_descendants_and_outermost_layer_spans():
    t = hand_built_tree()
    assert t.under(t.named("trainer.train")).tolist() == [
        False, False, True, True, True, True, False]
    assert t.outermost("model").tolist() == [
        False, False, False, True, False, False, False]
    assert not t.named("graph.load_graph").any()


def test_per_layer_arithmetic_on_the_tree():
    t = hand_built_tree()
    counters = {"sampler.triplets": 4, "trainer.triplets": 4}
    values, missing = layers.per_layer_metrics(t, counters, traced_s=11.0, untraced_s=10.0)
    assert set(values) == set(layers.PER_LAYER)
    assert values["trainer.train_s"] == 6.0
    # train 6 s minus sample 1 s, forward 2 s and update 1 s
    assert values["trainer.self_s"] == pytest.approx(2.0)
    assert values["model.forward_s"] == 2.0 and values["model.forward_calls"] == 1
    assert values["sampler.sample_s"] == 1.0
    assert values["cli.self_s"] == pytest.approx(3.0)
    assert values["serialize.write_s"] == 1.0
    assert values["trainer.triplets_per_s"] == pytest.approx(4 / 6)
    assert values["trace.overhead_frac"] == pytest.approx(0.1)
    assert "graph.load_s" in missing and "evaluate.kmeans_calls" in missing
    assert "trainer.self_s" not in missing


def test_names_that_do_not_exist_read_zero():
    empty = SpanTable([], [], [], [], [], [])
    values, missing = layers.per_layer_metrics(empty, {}, traced_s=1.0, untraced_s=1.0)
    assert set(missing) == set(layers.PER_LAYER) - {"trace.overhead_frac"}
    assert all(values[name] == 0.0 for name in missing)


def test_tracer_records_nested_spans_and_restores_the_package():
    from neuralbrane import model, trainer

    original = model.forward
    tracer = Tracer()
    try:
        tracer.install("neuralbrane", ("model", "no_such_module"))
        assert trainer.forward is model.forward is not original
        params = model.init_parameters(3, 2, 2, 2, 4, seed=0)
        graph = types.SimpleNamespace(attributes=[np.array([0])] * 3,
                                      neighbors=[np.array([1])] * 3)
        model.forward(params, graph, 0)
    finally:
        tracer.uninstall()
    assert model.forward is original and trainer.forward is original
    t = tracer.table()
    forward = np.flatnonzero(t.named("model.forward"))
    assert len(forward) == 1
    children = {t.names[i] for i in t.name_id[t.parent == forward[0]]}
    assert {"model.encode_attributes", "model.hidden", "model.ForwardTrace"} <= children
    assert (t.self_time >= 0).all()


def test_hook_that_no_longer_fits_is_counted_not_raised():
    def hook(tracer, args, kwargs, result):
        tracer.counters["n"] += len(args[5])

    tracer = Tracer({"x.f": hook})
    wrapped = tracer.wrap("x.f", lambda a: a + 1)
    assert wrapped(1) == 2
    assert tracer.hook_errors["x.f"] == 1 and "n" not in tracer.counters
