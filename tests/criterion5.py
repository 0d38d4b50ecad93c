"""The points and bounds of acceptance criterion 5, shared by the gate in
``test_acceptance.py`` and by ``scripts/criterion5_ab.py``.

Each point is ``(x, graph kwargs, TrainConfig kwargs)``: 5a varies the
triplets per epoch (one per edge) on a 4000-node graph, 5b varies h*d on a
fixed 200-node graph.  A point's time is the minimum over epochs 1-3 of two
training runs.
"""

import numpy as np

POINTS = {
    # node count held fixed so the memory and cache profile is the same at
    # every point; only the triplets per epoch change
    "5a": [(edges, dict(nodes=4000, edges=edges, attributes=16, attrs_per_node=4, seed=edges),
            dict(d1=8, d2=8, hidden=16, epochs=4, seed=0, convergence_tol=0.0))
           for edges in (250, 500, 1000, 2000, 4000)],
    "5b": [(2 * half * 2 * half,
            dict(nodes=200, edges=300, attributes=16, attrs_per_node=4, seed=9),
            dict(d1=half, d2=half, hidden=2 * half, epochs=4, seed=0, convergence_tol=0.0))
           for half in (96, 128, 192, 256, 384)],
}


def passes(slope: float, r2: float) -> bool:
    """The gate: a log-log slope of 1 +/- 0.15 and R^2 above 0.95."""
    return 0.85 <= slope <= 1.15 and r2 > 0.95


def min_epoch_seconds(package, graph_kwargs, cfg_kwargs, reps=2) -> float:
    """One point's time with ``package`` (a loaded ``neuralbrane``): epoch 0
    warms caches and allocations; the minimum over the remaining epochs of
    ``reps`` separate runs damps scheduler and contention spikes."""
    g = package.synthetic.gnm_random_graph(**graph_kwargs)
    cfg = package.TrainConfig(**cfg_kwargs)
    best = np.inf
    for _ in range(reps):
        _, tlog = package.train(g, cfg)
        best = min(best, min(tlog.seconds[1:]))
    return best
