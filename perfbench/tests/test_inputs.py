import numpy as np

import inputs
from workloads import WORKLOADS


def generated(tmp_path, workload, seed, scale="full"):
    spec = WORKLOADS[workload].specs[scale]
    directory = tmp_path / f"{workload}-{seed}"
    return spec, directory, inputs.generate(spec, seed, directory)


def read_edges(directory):
    return np.loadtxt(directory / "edges.txt", dtype=np.int64, ndmin=2)


def test_same_seed_same_bytes_other_seed_other_bytes(tmp_path):
    _, _, first = generated(tmp_path / "a", "citeseer-pipeline", 5)
    _, _, again = generated(tmp_path / "b", "citeseer-pipeline", 5)
    _, _, other = generated(tmp_path / "c", "citeseer-pipeline", 6)
    assert first["sha256"] == again["sha256"]
    assert first["sha256"]["edges.txt"] != other["sha256"]["edges.txt"]


def test_citeseer_shape_is_exact(tmp_path):
    spec, directory, _ = generated(tmp_path, "citeseer-pipeline", 3)
    edges = read_edges(directory)
    assert edges.shape == (4600, 2)
    pairs = {(min(u, v), max(u, v)) for u, v in edges.tolist()}
    assert len(pairs) == 4600 and all(u != v for u, v in pairs)
    attrs = np.loadtxt(directory / "attrs.txt", dtype=np.int64)
    assert attrs.shape == (3312, 33)
    assert np.array_equal(attrs[:, 0], np.arange(3312))
    rows = attrs[:, 1:]
    assert (np.diff(rows, axis=1) > 0).all() and rows.min() >= 0 and rows.max() < 3703
    labels = np.loadtxt(directory / "labels.txt", dtype=np.int64)
    assert sorted(set(labels[:, 1].tolist())) == list(range(6))
    assert (spec.nodes, spec.attrs) == (3312, 3703)


def test_hand_written_checkpoint_loads_through_the_package(tmp_path):
    from neuralbrane.model import load_checkpoint

    spec, directory, _ = generated(tmp_path, "large-embed", 4, scale="toy")
    params = load_checkpoint(directory / "model.ckpt")
    P, P_prime, W, b = inputs.read_checkpoint(directory / "model.ckpt")
    assert (params.d1, params.d2, params.h) == (inputs.D1, inputs.D2, inputs.HIDDEN)
    assert params.P_prime.shape == (spec.nodes, inputs.D2)
    for got, want in ((params.P, P), (params.P_prime, P_prime), (params.W, W), (params.b, b)):
        assert np.array_equal(got, want)


def test_cache_reuses_matching_inputs(tmp_path):
    spec = WORKLOADS["large-embed"].specs["toy"]
    first = inputs.cached(spec, 9, tmp_path)
    stamp = (tmp_path / "edges.txt").stat().st_mtime_ns
    assert inputs.cached(spec, 9, tmp_path) == first
    assert (tmp_path / "edges.txt").stat().st_mtime_ns == stamp
