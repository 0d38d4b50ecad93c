"""Per-layer metrics: the counter hooks the traced run installs, and the
arithmetic that turns its spans and counters into named numbers.

Every metric is looked up by the name of the span or counter behind it.  A
name a later version of the package no longer has reads as 0 and is listed
as not observed, instead of failing the run.
"""

from __future__ import annotations

import os

# Modules of the package that the traced run wraps; ``synthetic`` only builds
# test graphs and ``cli`` is timed as one span around ``cli.main``.
TRACED_MODULES = ("graph", "sampler", "model", "trainer", "serialize", "evaluate")

# name -> (unit, better)
PER_LAYER = {
    "graph.load_s": ("s", "lower"),
    "graph.validate_s": ("s", "lower"),
    "graph.parse_s": ("s", "lower"),
    "graph.edges": ("count", "higher"),
    "sampler.init_s": ("s", "lower"),
    "sampler.sample_s": ("s", "lower"),
    "sampler.triplets": ("count", "higher"),
    "sampler.alias_draws": ("count", "lower"),
    "sampler.negative_accept_ratio": ("ratio", "higher"),
    "sampler.positive_tables_built": ("count", "lower"),
    "model.forward_s": ("s", "lower"),
    "model.forward_calls": ("count", "lower"),
    "model.rows_gathered": ("count", "lower"),
    "model.gather_bytes_computed": ("bytes", "lower"),
    "model.embed_all_s": ("s", "lower"),
    "model.embed_nodes_per_s": ("1/s", "higher"),
    "model.checkpoint_load_s": ("s", "lower"),
    "model.checkpoint_save_s": ("s", "lower"),
    "trainer.train_s": ("s", "lower"),
    "trainer.self_s": ("s", "lower"),
    "trainer.update_s": ("s", "lower"),
    "trainer.batches": ("count", "lower"),
    "trainer.rows_updated": ("count", "lower"),
    "trainer.triplets_per_s": ("1/s", "higher"),
    "serialize.write_s": ("s", "lower"),
    "serialize.read_s": ("s", "lower"),
    "serialize.bytes_written": ("bytes", "lower"),
    "evaluate.classify_s": ("s", "lower"),
    "evaluate.logreg_fit_s": ("s", "lower"),
    "evaluate.logreg_fits": ("count", "lower"),
    "evaluate.cluster_s": ("s", "lower"),
    "evaluate.kmeans_s": ("s", "lower"),
    "evaluate.kmeans_calls": ("count", "lower"),
    "cli.self_s": ("s", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


# -- counter hooks: hook(tracer, args, kwargs, result) --------------------

def _graph_loaded(tracer, args, kwargs, graph) -> None:
    tracer.counters["graph.edges"] = graph.edge_count


def _batch_sampled(tracer, args, kwargs, batch) -> None:
    tracer.counters["sampler.triplets"] += len(batch)


def _forward(tracer, args, kwargs, result) -> None:
    if not tracer.inside("trainer.train"):
        return
    params, graph, node = args[:3]
    attrs, nbrs = len(graph.attributes[node]), len(graph.neighbors[node])
    tracer.counters["model.rows_gathered"] += attrs + nbrs
    # computed, not measured: rows x width x 8 bytes of float64
    tracer.counters["model.gather_bytes_computed"] += 8 * (attrs * params.d1 + nbrs * params.d2)


def _embedded(tracer, args, kwargs, table) -> None:
    tracer.counters["model.embedded_nodes"] += table.vectors.shape[0]


def _updated(tracer, args, kwargs, result) -> None:
    grads = args[1]
    tracer.counters["trainer.rows_updated"] += len(grads.attr_rows) + len(grads.nbr_rows)


def _trained(tracer, args, kwargs, result) -> None:
    _, log = result
    tracer.counters["trainer.triplets"] += sum(log.triplets)


def _written(tracer, args, kwargs, result) -> None:
    tracer.counters["serialize.bytes_written"] += os.path.getsize(args[1])


HOOKS = {
    "graph.load_graph": _graph_loaded,
    "sampler.TripletSampler.sample_batch": _batch_sampled,
    "model.forward": _forward,
    "model.embed_all": _embedded,
    "trainer.apply_update": _updated,
    "trainer.train": _trained,
    "serialize.write_embedding_text": _written,
    "serialize.write_embedding_binary": _written,
}


def per_layer_metrics(t, counters, traced_s: float, untraced_s: float):
    """(metrics, not_observed) from a SpanTable ``t`` and the hook counters.

    ``traced_s`` and ``untraced_s`` are the wall times of the same pipeline
    with and without tracing.
    """
    values: dict[str, float] = {}
    seen: set[str] = set()

    def put(name, value, observed) -> None:
        values[name] = float(value)
        if observed:
            seen.add(name)

    def time_of(name, mask) -> None:
        put(name, t.duration[mask].sum(), mask.any())

    def calls(name, mask) -> None:
        put(name, mask.sum(), mask.any())

    def counter(name, key=None) -> None:
        key = key or name
        put(name, counters.get(key, 0), key in counters)

    def rate(name, numerator, denominator, observed) -> None:
        ok = observed and denominator > 0
        put(name, numerator / denominator if ok else 0.0, ok)

    load = t.named("graph.load_graph")
    time_of("graph.load_s", load)
    time_of("graph.validate_s", t.named("graph.AttributedGraph.validate"))
    put("graph.parse_s", t.self_time[load].sum(), load.any())
    counter("graph.edges")

    init = t.named("sampler.TripletSampler")
    time_of("sampler.init_s", init)
    time_of("sampler.sample_s", t.outermost("sampler") & ~init)
    counter("sampler.triplets")
    draws = t.named("sampler.AliasTable.draw")
    calls("sampler.alias_draws", draws)
    # each triplet draws exactly one positive; every other draw proposed a negative
    triplets = counters.get("sampler.triplets", 0)
    rate("sampler.negative_accept_ratio", triplets, draws.sum() - triplets,
         draws.any() and "sampler.triplets" in counters)
    calls("sampler.positive_tables_built", t.named("sampler.build_positive_sampler"))

    train = t.named("trainer.train")
    in_train = t.under(train)
    forward = t.named("model.forward") & in_train
    time_of("model.forward_s", forward)
    calls("model.forward_calls", forward)
    counter("model.rows_gathered")
    counter("model.gather_bytes_computed")
    embed = t.named("model.embed_all")
    time_of("model.embed_all_s", embed)
    rate("model.embed_nodes_per_s", counters.get("model.embedded_nodes", 0),
         t.duration[embed].sum(), "model.embedded_nodes" in counters)
    time_of("model.checkpoint_load_s", t.named("model.load_checkpoint"))
    time_of("model.checkpoint_save_s", t.named("model.save_checkpoint"))

    train_s = t.duration[train].sum()
    update = t.named("trainer.apply_update")
    # sampling, forward passes and updates inside train; what is left is
    # backpropagation and gradient bookkeeping
    children = (in_train & ~t.under(update)
                & (t.outermost("sampler") | t.outermost("model") | update))
    time_of("trainer.train_s", train)
    put("trainer.self_s", train_s - t.duration[children].sum(), train.any())
    time_of("trainer.update_s", update)
    calls("trainer.batches", update)
    counter("trainer.rows_updated")
    rate("trainer.triplets_per_s", counters.get("trainer.triplets", 0), train_s,
         "trainer.triplets" in counters)

    serialize = t.outermost("serialize")
    time_of("serialize.write_s", serialize & t.prefixed("serialize.write"))
    time_of("serialize.read_s", serialize & t.prefixed("serialize.read"))
    counter("serialize.bytes_written")

    time_of("evaluate.classify_s", t.named("evaluate.run_classification_eval"))
    fits = t.named("evaluate.train_linear_classifier")
    time_of("evaluate.logreg_fit_s", fits)
    calls("evaluate.logreg_fits", fits)
    time_of("evaluate.cluster_s", t.named("evaluate.run_clustering_eval"))
    kmeans = t.named("evaluate.kmeans")
    time_of("evaluate.kmeans_s", kmeans)
    calls("evaluate.kmeans_calls", kmeans)

    main = t.named("cli.main")
    put("cli.self_s", t.self_time[main].sum(), main.any())
    rate("trace.overhead_frac", traced_s - untraced_s, untraced_s, True)

    return values, sorted(set(values) - seen)
