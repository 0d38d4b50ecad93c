"""The tools under ``scripts/``: each starts from a clean shell, and the A/B
harness that the ``bench_*.py`` scripts share (``scripts/benchlib.py``) takes
its turns, counts and stops as its docstrings say.  No test here runs a
benchmark at full scale."""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from .conftest import TOY_ATTRS

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


@pytest.fixture(scope="module")
def benchlib():
    """``scripts/benchlib.py``, imported without leaving ``scripts/`` or
    ``perfbench/`` on this process's path."""
    saved = list(sys.path)
    sys.path.insert(0, str(SCRIPTS))
    try:
        return importlib.import_module("benchlib")
    finally:
        sys.path[:] = saved


@pytest.mark.parametrize("script", sorted(p.name for p in SCRIPTS.glob("*.py")))
def test_every_script_starts_from_a_clean_shell(script, tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run([sys.executable, str(SCRIPTS / script), "--help"], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stderr == ""


def test_alternate_puts_the_parent_first_in_even_rounds(benchlib):
    calls, shown = [], []

    def run(t, r):
        calls.append((t, r))
        return f"{t}{r}"

    def show(r, runs):
        shown.append((r, {t: list(v) for t, v in runs.items()}))

    runs = benchlib.alternate(3, {"parent": "P", "change": "C"}, run, show)
    assert calls == [("parent", 0), ("change", 0), ("change", 1), ("parent", 1),
                     ("parent", 2), ("change", 2)]
    assert runs == {"parent": ["parent0", "parent1", "parent2"],
                    "change": ["change0", "change1", "change2"]}
    assert shown[0] == (0, {"parent": ["parent0"], "change": ["change0"]})
    assert [r for r, _ in shown] == [0, 1, 2]


def test_faster_counts_a_tie_for_neither_side(benchlib):
    parent = [{"s": 1.0}, {"s": 2.0}, {"s": 3.0}, {"s": 5.0}]
    change = [{"s": 1.0}, {"s": 1.5}, {"s": 4.0}, {"s": 5.0}]
    assert benchlib.faster(parent, change, "s") == 1
    assert benchlib.faster(change, parent, "s") == 1


def test_summary_is_none_for_a_missing_measure_and_quartiles_otherwise(benchlib):
    assert benchlib.summary([None, None]) is None
    assert benchlib.summary([4.0, 1.0, 3.0, 2.0]) == {"median": 2.5, "q1": 1.75, "q3": 3.25}
    assert benchlib.summary([1 / 3]) == {"median": 0.3333, "q1": 0.3333, "q3": 0.3333}


def test_timed_adds_each_call_from_zero(benchlib):
    spent = {}
    double = benchlib.timed(lambda x: 2 * x, spent, "double")
    assert spent == {"double": 0.0}
    assert double(4) == 8
    first = spent["double"]
    assert first > 0.0
    double(1)
    assert spent["double"] > first


def test_parse_args_and_head_keep_each_scripts_flags(benchlib, tmp_path):
    args = benchlib.parse_args("Time things.\n", "pairs", 10, seed=2, out="BENCH_x.json",
                               argv=[str(tmp_path), "."])
    assert (args.pairs, args.seed, args.out) == (10, 2, ROOT / "BENCH_x.json")
    assert args.trees == {"parent": tmp_path.resolve(), "change": Path(".").resolve()}
    head = benchlib.head(SCRIPTS / "bench_evaluate.py", args)
    assert head["command"] == "python scripts/bench_evaluate.py PARENT CHANGE --pairs 10 --seed 2"
    assert head["host"]["blas_threads"] == 1
    args = benchlib.parse_args("Time things.\n", "rounds", 20, seed=7, out="BENCH_x.json",
                               argv=[".", ".", "--rounds", "2", "--seed", "5"])
    assert benchlib.head("bench_embed.py", args)["command"].endswith("--rounds 2 --seed 5")


def test_run_cli_stops_with_the_exit_code_and_stderr(benchlib, tmp_path):
    missing = tmp_path / "missing.txt"
    with pytest.raises(SystemExit) as stop:
        benchlib.run_cli(ROOT, ["evaluate", "--embeddings", missing], tmp_path, benchlib.env(ROOT))
    message = str(stop.value)
    assert message.startswith(f"{ROOT}: evaluate exited 1: ")
    assert "No such file or directory" in message and str(missing) in message


def test_run_cli_returns_the_launch_record(benchlib, tmp_path):
    record = benchlib.run_cli(ROOT, ["--help"], tmp_path, benchlib.env(ROOT))
    assert record["exit"] == 0
    assert record["wall_s"] > 0 and record["peak_rss_mb"] > 0
    assert "usage" in (tmp_path / "stdout.txt").read_text(encoding="utf-8")


def test_run_child_returns_the_record_of_bench_loads_child(benchlib, toy_files):
    edges, attrs, _ = toy_files
    attributes = 1 + max(max(ids) for ids in TOY_ATTRS.values())
    phases = [benchlib.run_child(SCRIPTS / "bench_load.py", ROOT, edges, attrs,
                                 len(TOY_ATTRS), attributes) for _ in range(2)]
    assert phases[0]["digest"] == phases[1]["digest"]
    for run in phases:
        assert run["load_s"] >= run["parse_s"] >= run["read_s"] > 0
        assert run["from_edges_s"] >= run["validate_s"] > 0
        assert run["peak_rss_mb"] > 0
