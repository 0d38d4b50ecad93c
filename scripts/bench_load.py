#!/usr/bin/env python3
"""Time the phases of ``load_graph`` on two source trees, in fresh processes.

Usage:
    python scripts/bench_load.py PARENT_TREE CHANGE_TREE [--rounds N] [--seed S]
                                 [--out BENCH_load.json]

Each tree is a checkout holding ``src/neuralbrane``.  The inputs are the
benchmark's own generated files (``perfbench/inputs.py``, imported read-only)
for the ``large-embed`` and ``citeseer-pipeline`` graph shapes, at seed S,
loaded with their declared node and attribute counts as the CLI is given
them.  A third case, ``large-embed-weighted``, is a copy of the
``large-embed`` files with a ``#`` line first in each and `` 1.0`` after
every edge line: the benchmark's files are plain and go the ``np.fromstring``
reader, this copy the line-by-line one.  Every measurement is one
``load_graph`` call in a new process; the trees take turns as
``benchlib.alternate`` sets out.

The phases are read from the module's own functions, wrapped in the child:

* ``read_s``: the readers ``_read_edges`` and ``_read_attributes``, which
  convert a file to arrays (absent in a tree whose parser converts token by
  token: there it is part of ``parse_s``);
* ``checks_s``: the rest of ``_parse``, the whole-array checks and the edge
  deduplication (``parse_s`` minus ``read_s``);
* ``parse_s``: all of ``_parse``;
* ``from_edges_s``: the CSR build and ``validate``;
* ``validate_s``: ``AttributedGraph.validate``, the part of ``from_edges_s``
  that checks the built graph;
* ``load_s``: the whole call, and ``peak_rss_mb`` the child's peak RSS.

Both trees must build identical graph arrays (compared by digest).  The
output file holds each phase's median and quartiles per tree and workload,
and how many rounds the change loaded faster than the parent.
"""

import hashlib
import sys
import tempfile
import time
from pathlib import Path

import benchlib
from benchlib import peak_rss_mb, summary, timed

WORKLOAD_NAMES = ("large-embed", "citeseer-pipeline")
WEIGHTED = "large-embed-weighted"
PHASES = ("load_s", "parse_s", "read_s", "checks_s", "from_edges_s", "validate_s",
          "peak_rss_mb")


def child(tree: Path, edges: str, attrs: str, nodes: str, attributes: str) -> dict:
    """Load one graph with ``tree``'s package; its phase times and a digest."""
    sys.path.insert(0, str(tree / "src"))
    from neuralbrane import graph

    spent = {}
    graph._parse = timed(graph._parse, spent, "_parse")
    graph.from_edges = timed(graph.from_edges, spent, "from_edges")
    graph.AttributedGraph.validate = timed(graph.AttributedGraph.validate, spent, "validate")
    has_readers = hasattr(graph, "_read_edges")
    if has_readers:
        graph._read_edges = timed(graph._read_edges, spent, "read")
        graph._read_attributes = timed(graph._read_attributes, spent, "read")

    started = time.perf_counter()
    g = graph.load_graph(edges, attrs, node_count=int(nodes), attribute_count=int(attributes))
    load_s = time.perf_counter() - started

    digest = hashlib.sha256()
    for rows in (g.neighbors, g.weights, g.attributes):
        digest.update(rows.indptr.tobytes())
        digest.update(rows.values.tobytes())
    digest.update(repr((g.node_count, g.attribute_count, g.self_loops_dropped)).encode())
    return {
        "load_s": load_s,
        "parse_s": spent["_parse"],
        "read_s": spent["read"] if has_readers else None,
        "checks_s": spent["_parse"] - spent["read"] if has_readers else None,
        "from_edges_s": spent["from_edges"],
        "validate_s": spent["validate"],
        "peak_rss_mb": peak_rss_mb(),
        "digest": digest.hexdigest(),
    }


def weighted_copy(files: dict, directory: Path) -> dict:
    """``files`` with a ``#`` line first in each and `` 1.0`` after every
    edge line, written to ``directory``."""
    directory.mkdir()
    edges = Path(files["edges"]).read_text(encoding="ascii").splitlines()
    (directory / "edges.txt").write_text(
        "# weight 1.0 on every edge\n" + "".join(f"{line} 1.0\n" for line in edges),
        encoding="ascii")
    (directory / "attrs.txt").write_text(
        "# node attributes\n" + Path(files["attrs"]).read_text(encoding="ascii"),
        encoding="ascii")
    return {**files, "edges": str(directory / "edges.txt"), "attrs": str(directory / "attrs.txt")}


def main(argv=None) -> int:
    args = benchlib.parse_args(__doc__, "rounds", 10, seed=1, out="BENCH_load.json", argv=argv)
    import inputs
    from workloads import WORKLOADS

    trees = args.trees
    report = {**benchlib.head(__file__, args), "rounds": args.rounds, "workloads": {}}
    with tempfile.TemporaryDirectory() as scratch:
        cases = {}
        for name in WORKLOAD_NAMES:
            spec = WORKLOADS[name].specs["full"]
            directory = Path(scratch) / name
            inputs.generate(spec, args.seed, directory)
            files = {"edges": str(directory / "edges.txt"), "attrs": str(directory / "attrs.txt"),
                     "nodes": spec.nodes, "attributes": spec.attrs}
            shape = {"seed": args.seed, "nodes": spec.nodes, "edges": spec.edges,
                     "attributes": spec.attrs, "attributes_per_node": spec.attrs_per_node}
            cases[name] = files, shape
        files, shape = cases["large-embed"]
        cases[WEIGHTED] = (weighted_copy(files, Path(scratch) / WEIGHTED),
                           {**shape, "copy_of": "large-embed", "edge_weights": 1.0,
                            "comment_lines": 1})
        for name, (files, shape) in cases.items():
            runs = benchlib.alternate(
                args.rounds, trees,
                lambda t, _: benchlib.run_child(__file__, trees[t], files["edges"], files["attrs"],
                                                files["nodes"], files["attributes"]),
                lambda r, runs: print(f"{name} round {r}: " + "  ".join(
                    f"{t} load {runs[t][-1]['load_s']:.3f} s" for t in trees), flush=True))
            if len({run["digest"] for t in trees for run in runs[t]}) != 1:
                raise SystemExit(f"{name}: the trees built different graphs")
            report["workloads"][name] = {
                "inputs": shape,
                **{t: {phase: summary([run[phase] for run in runs[t]]) for phase in PHASES}
                   for t in trees},
                "change_faster_rounds": benchlib.faster(runs["parent"], runs["change"], "load_s"),
            }
    benchlib.write(args.out, report)
    return 0


if __name__ == "__main__":
    sys.exit(benchlib.main_or_child(main, child))
