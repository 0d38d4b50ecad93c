import importlib.util
import re
from contextlib import contextmanager
from pathlib import Path
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from neuralbrane import graph
from neuralbrane.graph import (
    AttributedGraph, GraphFormatError, Rows, _attribute_rows, _pair_key, _pair_order, from_edges,
    load_graph, write_graph,
)

from .conftest import TOY_EDGES, write_toy_files
from .oracles import (
    NaiveFormatError, edge_weight, has_edge, naive_parse, pair_order_attribute_rows,
    symmetry_error,
)


def graphs_equal(a: AttributedGraph, b: AttributedGraph) -> bool:
    if (a.node_count, a.attribute_count) != (b.node_count, b.attribute_count):
        return False
    for key in ("neighbors", "weights", "attributes"):
        rows_a, rows_b = getattr(a, key), getattr(b, key)
        if not (np.array_equal(rows_a.indptr, rows_b.indptr)
                and np.array_equal(rows_a.values, rows_b.values)):
            return False
    if (a.labels is None) != (b.labels is None):
        return False
    return a.labels is None or np.array_equal(a.labels, b.labels)


class TestLoadGraph:
    def test_toy_graph_shape(self, toy_graph):
        assert toy_graph.node_count == 5
        assert toy_graph.attribute_count == 7
        assert toy_graph.edge_count == 6
        # node b (=1) is connected to {a, c, d} and carries attributes {x2, x6}
        assert toy_graph.neighbors[1].tolist() == [0, 2, 3]
        assert toy_graph.attributes[1].tolist() == [1, 5]

    def test_single_node_no_edges(self, tmp_path):
        (tmp_path / "e.txt").write_text("")
        (tmp_path / "a.txt").write_text("0 1 2\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        assert g.node_count == 1
        assert g.neighbors[0].tolist() == []
        assert g.attributes[0].tolist() == [1, 2]

    def test_both_directions_collapse(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1 2.0\n1 0 2.0\n")
        (tmp_path / "a.txt").write_text("0\n1\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        assert g.edge_count == 1
        assert edge_weight(g, 0, 1) == 2.0
        assert edge_weight(g, 1, 0) == 2.0

    def test_missing_weight_defaults_to_one(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "a.txt").write_text("0\n1\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        assert edge_weight(g, 0, 1) == 1.0

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        (tmp_path / "e.txt").write_text("# header\n\n0 1 1.5\n")
        (tmp_path / "a.txt").write_text("# attrs\n0 3\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        assert g.edge_count == 1
        assert g.attribute_count == 4

    def test_self_loops_dropped_and_counted(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 0 1.0\n0 1 1.0\n2 2\n")
        (tmp_path / "a.txt").write_text("0\n1\n2\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        assert g.self_loops_dropped == 2
        assert g.edge_count == 1
        assert not has_edge(g, 0, 0)

    def test_conflicting_duplicate_weight_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1 1.0\n1 0 3.0\n")
        (tmp_path / "a.txt").write_text("0\n")
        with pytest.raises(GraphFormatError, match="conflicting"):
            load_graph(tmp_path / "e.txt", tmp_path / "a.txt")

    def test_malformed_line_reports_location(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1 1.0\nnot numbers here\n")
        (tmp_path / "a.txt").write_text("0\n")
        with pytest.raises(GraphFormatError, match=r"e\.txt:2"):
            load_graph(tmp_path / "e.txt", tmp_path / "a.txt")

    def test_non_positive_weight_rejected(self, tmp_path):
        (tmp_path / "a.txt").write_text("0\n")
        for bad in ("0 1 0.0", "0 1 -2"):
            (tmp_path / "e.txt").write_text(bad + "\n")
            with pytest.raises(GraphFormatError, match="positive"):
                load_graph(tmp_path / "e.txt", tmp_path / "a.txt")

    def test_id_beyond_declared_range_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 5 1.0\n")
        (tmp_path / "a.txt").write_text("0\n")
        with pytest.raises(GraphFormatError, match="declared node count"):
            load_graph(tmp_path / "e.txt", tmp_path / "a.txt", node_count=3)
        (tmp_path / "e.txt").write_text("0 1 1.0\n")
        (tmp_path / "a.txt").write_text("0 9\n")
        with pytest.raises(GraphFormatError, match="attribute count"):
            load_graph(tmp_path / "e.txt", tmp_path / "a.txt", attribute_count=4)

    def test_conflicting_relabel_rejected(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "a.txt").write_text("0\n")
        (tmp_path / "l.txt").write_text("0 1\n0 2\n")
        with pytest.raises(GraphFormatError, match="relabeled"):
            load_graph(tmp_path / "e.txt", tmp_path / "a.txt", tmp_path / "l.txt")

    def test_labels_default_unlabeled(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n0 2\n")
        (tmp_path / "a.txt").write_text("0\n1\n2\n")
        (tmp_path / "l.txt").write_text("1 4\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt", tmp_path / "l.txt")
        assert g.labels.tolist() == [-1, 4, -1]
        assert g.labeled_nodes().tolist() == [1]


class TestRows:
    def test_rows_are_views_of_the_flat_values(self, toy_graph):
        rows = toy_graph.neighbors
        assert len(rows) == toy_graph.node_count
        assert [rows[u].tolist() for u in range(len(rows))] == [
            rows.values[a:b].tolist() for a, b in zip(rows.indptr[:-1], rows.indptr[1:])]
        assert rows[1].base is rows.values
        assert rows.owners().tolist() == np.repeat(np.arange(5), [2, 3, 2, 3, 2]).tolist()

    @pytest.mark.parametrize("u", [-1, 5])
    def test_index_outside_the_rows_raises(self, toy_graph, u):
        with pytest.raises(IndexError):
            toy_graph.attributes[u]
        with pytest.raises(IndexError):
            toy_graph.attributes.take(np.array([0, u]))

    def test_take_rows(self):
        rows = Rows(np.array([0, 0, 2, 3]), np.array([7, 9, 4]))  # rows [], [7, 9], [4]
        taken = rows.take(np.array([1, 0, 2, 1]))
        assert taken.indptr.tolist() == [0, 2, 2, 3, 5]
        assert taken.values.tolist() == [7, 9, 4, 7, 9]
        assert [taken[r].tolist() for r in range(4)] == [[7, 9], [], [4], [7, 9]]
        assert rows.take(np.array([0, 0])).indptr.tolist() == [0, 0, 0]
        none = rows.take(np.array([], dtype=np.int64))
        assert none.indptr.tolist() == [0] and len(none.values) == 0


class TestDegreeVector:
    def test_toy_node_b(self, toy_graph):
        assert toy_graph.degree_vector()[1] == 3

    def test_isolated_node(self, tmp_path):
        (tmp_path / "e.txt").write_text("0 1\n")
        (tmp_path / "a.txt").write_text("2\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        assert g.degree_vector().tolist() == [1, 1, 0]

    def test_complete_graph_on_four(self, tmp_path):
        lines = [f"{u} {v}" for u in range(4) for v in range(u + 1, 4)]
        (tmp_path / "e.txt").write_text("\n".join(lines) + "\n")
        (tmp_path / "a.txt").write_text("0\n")
        g = load_graph(tmp_path / "e.txt", tmp_path / "a.txt")
        assert g.degree_vector().tolist() == [3, 3, 3, 3]

    def test_degree_sum_is_twice_edges(self, toy_graph):
        assert toy_graph.degree_vector().sum() == 2 * toy_graph.edge_count


class TestInvariants:
    def test_weight_symmetric_from_either_endpoint(self, tmp_path):
        write_toy_files(tmp_path, weights=[1.5, 2.0, 0.5, 3.25, 1.0, 7.0])
        g = load_graph(tmp_path / "edges.txt", tmp_path / "attrs.txt")
        for u, v in TOY_EDGES:
            assert edge_weight(g, u, v) == edge_weight(g, v, u)

    def test_round_trip(self, toy_graph, tmp_path):
        write_graph(toy_graph, tmp_path / "e2.txt", tmp_path / "a2.txt", tmp_path / "l2.txt")
        reloaded = load_graph(
            tmp_path / "e2.txt", tmp_path / "a2.txt", tmp_path / "l2.txt",
            node_count=toy_graph.node_count,
            attribute_count=toy_graph.attribute_count,
        )
        assert graphs_equal(toy_graph, reloaded)

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_round_trip_random_graphs(self, tmp_path_factory, data):
        n = data.draw(st.integers(2, 8))
        m = data.draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique=True, max_size=len(pairs)))
        weights = [
            data.draw(st.floats(0.1, 50.0, allow_nan=False)) for _ in chosen
        ]
        directory = tmp_path_factory.mktemp("roundtrip")
        with open(directory / "e.txt", "w") as fh:
            for (u, v), w in zip(chosen, weights):
                fh.write(f"{u} {v} {w!r}\n")
        with open(directory / "a.txt", "w") as fh:
            for u in range(n):
                attrs = data.draw(st.sets(st.integers(0, m - 1)))
                fh.write(f"{u} " + " ".join(map(str, sorted(attrs))) + "\n")
        g = load_graph(directory / "e.txt", directory / "a.txt",
                       node_count=n, attribute_count=m)
        write_graph(g, directory / "e2.txt", directory / "a2.txt")
        reloaded = load_graph(directory / "e2.txt", directory / "a2.txt",
                              node_count=n, attribute_count=m)
        assert graphs_equal(g, reloaded)
        assert g.degree_vector().sum() == 2 * g.edge_count

    @settings(max_examples=25, deadline=None)
    @given(st.data())
    def test_from_edges_round_trip(self, tmp_path_factory, data):
        n = data.draw(st.integers(1, 9))
        m = data.draw(st.integers(1, 6))
        pairs = [(u, v) for u in range(n) for v in range(n) if u != v]
        # each edge once, in either direction; attribute pairs may repeat
        chosen = data.draw(st.lists(st.sampled_from(pairs), unique_by=lambda p: frozenset(p),
                                    max_size=len(pairs))) if pairs else []
        edges = np.array(chosen, dtype=np.int64).reshape(-1, 2)
        weights = np.array([data.draw(st.floats(0.01, 1e6)) for _ in chosen])
        attrs = np.array(data.draw(st.lists(st.tuples(st.integers(0, n - 1),
                                                      st.integers(0, m - 1)))),
                         dtype=np.int64).reshape(-1, 2)
        labels = np.array(data.draw(st.lists(st.integers(-1, 3), min_size=n, max_size=n)))
        g = from_edges(n, m, edges[:, 0], edges[:, 1], weights, attrs[:, 0], attrs[:, 1],
                       labels)
        assert g.weights.indptr is g.neighbors.indptr
        directory = tmp_path_factory.mktemp("from_edges")
        paths = [directory / name for name in ("e.txt", "a.txt", "l.txt")]
        write_graph(g, *paths)
        reloaded = load_graph(*paths, node_count=n, attribute_count=m)
        assert graphs_equal(g, reloaded)


# Files for the parser fuzz.
# Valid ids are small, some in spellings only ``int`` takes, so edges recur,
# with equal weights in several spellings and with conflicting ones.
_IDS = st.one_of(st.integers(0, 3).map(str), st.sampled_from(["+3", "1_0", "\u0663", "07"]))
_BAD_IDS = st.sampled_from(["x", "-1", "1.5", "0x1", "#", str(2**63), "99999999999999999999",
                            "-99999999999999999999"])
_WEIGHTS = st.sampled_from(["1", "1.0", "1e0", "2.5"])
_BAD_WEIGHTS = st.sampled_from(["0", "-2", "nan", "inf", "-inf", "1e400", "w"])


def _joined(tokens):
    """Lines of the drawn tokens, with varied separators and indents."""
    return st.tuples(tokens, st.sampled_from([" ", "\t", "  "]),
                     st.sampled_from(["", " ", "\t"])).map(lambda t: t[2] + t[1].join(t[0]))


def _file(valid, defect):
    """Lines of ``valid`` tokens, blank and comment lines, and at times one
    ``defect`` line among them."""
    junk = st.sampled_from(["", "   ", "# comment", "#1 2", "  #\t1 2", "#"])
    lines = st.lists(st.one_of(_joined(valid), junk), max_size=10)
    return st.tuples(lines, st.one_of(st.none(), defect), st.integers(0, 10)).map(
        lambda t: t[0] if t[1] is None else [*t[0][:t[2]], t[1], *t[0][t[2]:]])


_EDGE_FILE = _file(
    st.one_of(st.tuples(_IDS, _IDS), st.tuples(_IDS, _IDS, _WEIGHTS),
              st.integers(0, 3).map(lambda u: (str(u), str(u)))),  # self-loop
    st.one_of(
        _joined(st.one_of(st.tuples(_BAD_IDS, _IDS), st.tuples(_IDS, _BAD_IDS, _WEIGHTS),
                          st.tuples(_IDS, _IDS, _BAD_WEIGHTS), st.tuples(_IDS),
                          st.tuples(_IDS, _IDS, _WEIGHTS, _IDS))),
        # one edge twice, reversed, with equal or conflicting weights
        st.tuples(_IDS, _IDS, _WEIGHTS, _WEIGHTS).map(
            lambda t: f"{t[0]} {t[1]} {t[2]}\n{t[1]} {t[0]} {t[3]}")))
_ATTR_FILE = _file(st.lists(_IDS, min_size=1, max_size=5),
                   _joined(st.lists(st.one_of(_IDS, _BAD_IDS), min_size=1, max_size=5)))
_LABEL_FILE = _file(st.tuples(_IDS, st.sampled_from(["0", "1", "2"])),
                    _joined(st.lists(st.one_of(_IDS, _BAD_IDS), min_size=1, max_size=3)))


class TestParserFuzz:
    """``load_graph`` against ``naive_parse``, the line-by-line loader, on files
    mixing valid lines with every kind of defect: the same arrays, or the same
    message for the first bad line, and never another exception."""

    @settings(max_examples=300, deadline=None)
    @given(files=st.tuples(_EDGE_FILE, _ATTR_FILE, st.one_of(st.none(), _LABEL_FILE)),
           endings=st.tuples(*[st.sampled_from(["\n", "\r\n"])] * 3),
           node_count=st.sampled_from([None, 4, 11]),
           attribute_count=st.sampled_from([None, 4, 11]))
    # where the value rules and a token that does not convert meet: a
    # conflict on an earlier line comes first, an attribute line's node id
    # is range-checked before its next token is read, and a line's weight
    # is checked before its ids' range
    @example(files=(["0 1 2.0", "0 1 3.0", "1 x"], ["0", "1"], None), endings=("\n",) * 3,
             node_count=None, attribute_count=None)
    @example(files=(["0 1"], ["99 x"], None), endings=("\n",) * 3,
             node_count=10, attribute_count=None)
    @example(files=(["5 99 -1"], ["0"], None), endings=("\n",) * 3,
             node_count=10, attribute_count=None)
    def test_matches_line_by_line_loader(self, tmp_path_factory, files, endings, node_count,
                                         attribute_count):
        directory = tmp_path_factory.mktemp("fuzz")
        paths = [directory / name for name in ("e.txt", "a.txt", "l.txt")]
        for path, lines, ending in zip(paths, files, endings):
            if lines is None:
                paths[2] = None
            else:
                path.write_bytes("".join(line + ending for line in lines).encode())
        counts = dict(node_count=node_count, attribute_count=attribute_count)
        try:
            expected = from_edges(*naive_parse(*paths, **counts))
        except NaiveFormatError as exc:
            with pytest.raises(GraphFormatError) as raised:
                load_graph(*paths, **counts)
            assert str(raised.value) == str(exc)
        else:
            got = load_graph(*paths, **counts)
            assert graphs_equal(got, expected)
            assert got.self_loops_dropped == expected.self_loops_dropped


# Plain files (digits, spaces, tabs and "\n" only), whose ids all convert in
# one np.fromstring.  2**63 - 1 and anything longer make strtoll clamp, so
# those files are read line by line, which gives their exact value or message.
_PLAIN_IDS = st.one_of(st.integers(0, 3).map(str), st.sampled_from(
    ["07", "00", "0003", str(2**63 - 1), str(2**63), "99999999999999999999"]))


def _plain_file(min_fields, max_fields):
    """A plain file's text: lines of ``min_fields``..``max_fields`` ids with
    space or tab separators, blank and whitespace-only lines among them, and
    at times no "\n" after the last line; empty and whitespace-only files too."""
    line = st.tuples(st.lists(_PLAIN_IDS, min_size=min_fields, max_size=max_fields),
                     st.sampled_from([" ", "\t", " \t "]), st.sampled_from(["", " ", "\t"]),
                     st.sampled_from(["", " ", "\t"])).map(
        lambda t: t[2] + t[1].join(t[0]) + t[3])
    lines = st.lists(st.one_of(line, st.sampled_from(["", " ", "\t", " \t  "])), max_size=8)
    return st.tuples(lines, st.booleans()).map(
        lambda t: "\n".join(t[0]) + ("\n" if t[1] and t[0] else ""))


def _clamps(text: str) -> bool:
    """Whether the file holds an id strtoll cannot give exactly."""
    return any(int(token) >= 2**63 - 1 for token in text.split())


class TestPlainFiles:
    """Files of nothing but ASCII digits, spaces, tabs and "\n" convert in
    one np.fromstring: the same arrays or the same message as ``naive_parse``,
    and every other file is read line by line."""

    @staticmethod
    @contextmanager
    def paths_taken():
        """Note, by file name, the reader that gave each file's arrays while
        ``load_graph`` runs: "plain", or "lines" where the plain reader
        passed the file on."""
        taken = {}
        read_plain, read_lines = graph._read_plain, graph._read_lines

        def plain(path):
            taken[path.name] = "plain"
            return read_plain(path)

        def lines(path, *args, **kwargs):
            taken[path.name] = "lines"
            return read_lines(path, *args, **kwargs)

        with patch.object(graph, "_read_plain", plain), \
                patch.object(graph, "_read_lines", lines):
            yield taken

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_matches_line_by_line_loader(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("plain")
        edges, attrs = directory / "e.txt", directory / "a.txt"
        texts = {"e.txt": data.draw(st.one_of(_plain_file(2, 2), _plain_file(1, 3))),
                 "a.txt": data.draw(_plain_file(1, 5))}
        edges.write_text(texts["e.txt"])
        attrs.write_text(texts["a.txt"])
        counts = dict(node_count=data.draw(st.sampled_from([None, 4, 11])),
                      attribute_count=data.draw(st.sampled_from([None, 4, 11])))
        try:
            parsed = naive_parse(edges, attrs, **counts)
        except NaiveFormatError as exc:
            with self.paths_taken() as taken, pytest.raises(GraphFormatError) as raised:
                load_graph(edges, attrs, **counts)
            assert str(raised.value) == str(exc)
        else:
            assume(parsed[0] <= 11)  # 2**63 nodes cannot be allocated
            with self.paths_taken() as taken:
                got = load_graph(edges, attrs, **counts)
            assert graphs_equal(got, from_edges(*parsed))
            assert got.self_loops_dropped == parsed[-1]
        # an edge file is plain only when every line has two fields
        pairs = all(len(line.split()) in (0, 2) for line in texts["e.txt"].split("\n"))
        expected = {"e.txt": pairs and not _clamps(texts["e.txt"]),
                    "a.txt": not _clamps(texts["a.txt"])}
        assert "e.txt" in taken
        assert all((path == "plain") == expected[name] for name, path in taken.items())

    def test_benchmark_shaped_files_take_the_plain_path(self, tmp_path):
        # the lines the benchmark's generator writes: "u v", and "u a a ..."
        rng = np.random.default_rng(5)
        pairs = rng.integers(0, 60, size=(300, 2))
        (tmp_path / "e.txt").write_text("".join(f"{u} {v}\n" for u, v in pairs.tolist()))
        (tmp_path / "a.txt").write_text("".join(
            f"{u} {' '.join(map(str, np.sort(rng.choice(50, 8, replace=False))))}\n"
            for u in range(60)))
        with self.paths_taken() as taken:
            got = load_graph(tmp_path / "e.txt", tmp_path / "a.txt",
                             node_count=60, attribute_count=50)
        assert taken == {"e.txt": "plain", "a.txt": "plain"}
        assert graphs_equal(got, from_edges(*naive_parse(
            tmp_path / "e.txt", tmp_path / "a.txt", node_count=60, attribute_count=50)))

    @pytest.mark.parametrize("text, lineno", [
        ("0 1\r\n\r\n1 2\r\n2 7\r\n", 4),  # CRLF
        ("0 1\r\r1 2\r2 7\n", 4),  # a lone "\r" ends a line in text mode
        ("0 1 1.0\n\n1 2 1.0\n2 7 1.0\n", 4),  # weighted
        ("0 1\n\n1 2 1\n2 7\n", 4),  # plain bytes, but a line of three fields
    ], ids=["crlf", "lone-cr", "weighted", "three-fields"])
    def test_other_files_take_the_token_path(self, tmp_path, text, lineno):
        (tmp_path / "e.txt").write_bytes(text.encode())
        (tmp_path / "a.txt").write_text("0\n")
        with self.paths_taken() as taken, pytest.raises(GraphFormatError) as raised:
            load_graph(tmp_path / "e.txt", tmp_path / "a.txt", node_count=5)
        assert taken == {"e.txt": "lines"}
        assert str(raised.value) == (
            f"{tmp_path / 'e.txt'}:{lineno}: node id exceeds declared node count 5")
        (tmp_path / "e.txt").write_bytes(text.replace("7", "3").encode())
        with self.paths_taken() as taken:
            got = load_graph(tmp_path / "e.txt", tmp_path / "a.txt", node_count=5)
        assert taken == {"e.txt": "lines", "a.txt": "plain"}
        assert got.edge_count == 3

    def test_converted_linqs_edges_load_as_weighted_ones(self, tmp_path, capsys):
        # scripts/convert_linqs.py writes "a b", whose weight defaults to the
        # 1.0 it once wrote; both forms give one graph
        spec = importlib.util.spec_from_file_location(
            "convert_linqs", Path(__file__).resolve().parents[1] / "scripts" / "convert_linqs.py")
        convert = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(convert)
        source = tmp_path / "linqs"
        source.mkdir()
        (source / "tiny.content").write_text(
            "p7\t0\t1\t1\tAI\nq2\t1\t0\t0\tML\n1033\t0\t0\t1\tAI\nzz\t0\t0\t0\tDB\n")
        (source / "tiny.cites").write_text(
            "p7\tq2\n1033\tp7\nq2\t1033\nzz\tq2\nmissing\tp7\nq2\tq2\n")
        out = tmp_path / "out"
        assert convert.main(["convert_linqs.py", str(source), str(out)]) == 0
        assert "2 lines skipped" in capsys.readouterr().out
        weighted = tmp_path / "weighted.txt"
        weighted.write_text("".join(
            line + " 1.0\n" for line in (out / "edges.txt").read_text().splitlines()))
        with self.paths_taken() as taken:
            plain = load_graph(out / "edges.txt", out / "attrs.txt", out / "labels.txt")
        assert taken == {"edges.txt": "plain", "attrs.txt": "plain"}
        assert graphs_equal(plain, load_graph(weighted, out / "attrs.txt", out / "labels.txt"))
        assert plain.edge_count == 4 and plain.attribute_count == 3


def _rows(lists, dtype) -> Rows:
    return Rows(np.cumsum([0, *map(len, lists)]),
                np.array([x for row in lists for x in row], dtype=dtype))


def _path_graph(edits=None) -> AttributedGraph:
    """Path 0-1-2-3 with weights 1, 2, 3 and three attributes.  ``edits``
    replaces a count, maps a per-node field to {node: new list}, where None
    deletes the node's entry, or maps ``"<field>.indptr"`` to new offsets."""
    fields = dict(
        node_count=4,
        attribute_count=3,
        neighbors=[[1], [0, 2], [1, 3], [2]],
        weights=[[1.0], [1.0, 2.0], [2.0, 3.0], [3.0]],
        attributes=[[0], [0, 2], [1], []],
    )
    offsets = {}
    for key, change in (edits or {}).items():
        if key.endswith(".indptr"):
            offsets[key.split(".")[0]] = np.array(change)
        elif isinstance(change, dict):
            fields[key] = [change.get(u, row) for u, row in enumerate(fields[key])]
        else:
            fields[key] = change
    rows = {
        key: _rows([row for row in fields[key] if row is not None],
                   np.float64 if key == "weights" else np.int64)
        for key in ("neighbors", "weights", "attributes")
    }
    for key, indptr in offsets.items():
        rows[key] = Rows(indptr, rows[key].values)
    return AttributedGraph(fields["node_count"], fields["attribute_count"], **rows)


VALIDATE_REJECTIONS = {
    "negative count": ({"attribute_count": -1}, "negative node or attribute count"),
    "adjacency length": ({"weights": {3: None}}, "adjacency length does not match"),
    "attribute length": ({"attributes": {3: None}}, "attribute list length does not match"),
    "weight count": ({"weights": {2: [2.0]}}, "node 2: neighbor/weight length mismatch"),
    "neighbor range": ({"neighbors": {3: [2, 4]}, "weights": {3: [3.0, 1.0]}},
                       "node 3: neighbor id out of range"),
    "neighbor order": ({"neighbors": {1: [2, 0]}, "weights": {1: [2.0, 1.0]}},
                       "node 1: neighbors not strictly sorted"),
    "weight sign": ({"weights": {2: [2.0, 0.0], 3: [0.0]}}, "node 2: non-positive edge weight"),
    "self-loop": ({"neighbors": {3: [2, 3]}, "weights": {3: [3.0, 1.0]}}, "node 3: self-loop"),
    "attribute range": ({"attributes": {1: [0, 3]}}, "node 1: attribute id out of range"),
    "attribute order": ({"attributes": {1: [2, 0]}}, "node 1: attributes not strictly sorted"),
    "reverse": ({"neighbors": {3: []}, "weights": {3: []}}, "edge (2, 3) missing reverse direction"),
    "weight symmetry": ({"weights": {3: [4.0]}}, "edge (2, 3) has asymmetric weights"),
    # offset rules; the valid offsets are [0, 1, 3, 5, 6] for neighbors and
    # weights and [0, 1, 3, 4, 4] for attributes
    "offset count": ({"neighbors.indptr": [0, 1, 3, 6]}, "adjacency length does not match"),
    "offset start": ({"attributes.indptr": [1, 1, 3, 4, 4]},
                     "attribute offsets start at 1, not 0"),
    "offset order": ({"neighbors.indptr": [0, 2, 1, 5, 6]}, "node 1: neighbor offsets decrease"),
    "offset end": ({"weights.indptr": [0, 1, 3, 5, 5]}, "weight offsets end at 5, not at the 6"),
    "weight offsets": ({"weights.indptr": [0, 2, 3, 5, 6]},
                       "node 0: neighbor/weight length mismatch"),
}


class TestValidate:
    def test_path_graph_is_valid(self):
        _path_graph().validate()

    @pytest.mark.parametrize("rows, message", [
        ({1: [], 2: [], 3: [0, 3]}, "node 3: attribute id out of range"),
        ({1: [], 2: [], 3: [2, 0]}, "node 3: attributes not strictly sorted"),
        ({0: [], 1: [5]}, "node 1: attribute id out of range"),
        ({0: [], 1: [2, 2]}, "node 1: attributes not strictly sorted"),
    ])
    def test_empty_rows_before_the_bad_entry_are_passed_over(self, rows, message):
        # the bad entry's offset is also the start of the empty rows before it
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            _path_graph({"attributes": rows}).validate()

    def test_descent_across_rows_is_not_unsorted(self):
        _path_graph({"attributes": {0: [2], 1: [], 2: [0, 1], 3: [0]}}).validate()

    @pytest.mark.parametrize("case", sorted(VALIDATE_REJECTIONS))
    def test_rejection_names_offender(self, case):
        edits, message = VALIDATE_REJECTIONS[case]
        with pytest.raises(GraphFormatError, match=re.escape(message)):
            _path_graph(edits).validate()

    @pytest.mark.parametrize("seed", range(40))
    def test_symmetry_check_matches_the_binary_search(self, seed):
        # a random valid graph, then one entry dropped or one weight changed
        # (to another value, NaN included); validate names the edge the
        # per-edge lookup names first
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 40))
        lo, hi = np.triu_indices(n, 1)
        pick = rng.random(len(lo)) < rng.uniform(0.05, 0.6)
        if not pick.any():
            pick[rng.integers(len(pick))] = True
        src, dst = lo[pick], hi[pick]
        flip = rng.random(len(src)) < 0.5
        src, dst = np.where(flip, dst, src), np.where(flip, src, dst)
        weight = rng.integers(1, 4, len(src)).astype(np.float64)
        g = from_edges(n, 1, src, dst, weight, np.empty(0, dtype=np.int64),
                       np.empty(0, dtype=np.int64))
        assert symmetry_error(g) is None
        nbrs, wts, indptr = g.neighbors.values, g.weights.values, g.neighbors.indptr
        k = int(rng.integers(len(nbrs)))
        if seed % 2:
            owner = int(np.searchsorted(indptr, k, side="right")) - 1
            cut = indptr.copy()
            cut[owner + 1:] -= 1
            nbrs, wts = np.delete(nbrs, k), np.delete(wts, k)
        else:
            cut, wts = indptr, wts.copy()
            wts[k] = np.nan if seed % 4 == 0 else wts[k] + float(rng.integers(1, 3))
        bad = AttributedGraph(n, 1, Rows(cut, nbrs), Rows(cut, wts), g.attributes)
        expected = symmetry_error(bad)
        assert expected is not None
        with pytest.raises(GraphFormatError) as raised:
            bad.validate()
        assert str(raised.value) == expected

    def test_from_edges_rejects_node_id_past_n(self):
        one = np.array([1])
        with pytest.raises(GraphFormatError, match="neighbor offsets end at 1, not at the 2"):
            from_edges(3, 2, np.array([0]), np.array([5]), np.ones(1), one, one)
        with pytest.raises(GraphFormatError, match="attribute offsets end at 0, not at the 1"):
            from_edges(3, 2, np.array([0]), one, np.ones(1), np.array([7]), one)


class TestPairOrder:
    @pytest.mark.parametrize("low, high", [
        (0, 50),  # in range
        (-7, 10**6),  # negative and out-of-range ids, as validate must see them
        (-2**62, 2**62),  # a key span past int64
    ])
    def test_matches_lexsort(self, low, high):
        rng = np.random.default_rng(11)
        major = np.sort(rng.integers(0, 40, size=600))
        minor = rng.integers(low, high, size=600)
        minor[::5] = minor[1::5]  # repeated pairs keep their input order
        for perm in (np.arange(600), rng.permutation(600)):
            a, b = major[perm], minor[perm]
            assert np.array_equal(_pair_order(a, b), np.lexsort((b, a)))

    @pytest.mark.parametrize("repeated", [2, 17, 600])
    def test_repeated_keys_take_the_stable_sort(self, repeated):
        # the default sort may order equal keys either way; with any key
        # repeated, the stable sort runs and equal pairs keep their order
        rng = np.random.default_rng(repeated)
        major, minor = rng.integers(0, 30, 600), rng.integers(0, 30, 600)
        minor[:repeated] = minor[0]
        major[:repeated] = major[0]
        order = rng.permutation(600)
        major, minor = major[order], minor[order]
        with patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = _pair_order(major, minor)
        assert np.array_equal(got, np.lexsort((minor, major)))
        assert [call.kwargs.get("kind") for call in argsort.call_args_list] == [None, "stable"]

    def test_unique_keys_take_one_sort(self):
        rng = np.random.default_rng(5)
        pairs = rng.permutation(900)[:600]
        major, minor = pairs // 30, pairs % 30
        with patch.object(np, "argsort", wraps=np.argsort) as argsort:
            got = _pair_order(major, minor)
        assert np.array_equal(got, np.lexsort((minor, major)))
        assert argsort.call_count == 1

    def test_empty(self):
        empty = np.empty(0, dtype=np.int64)
        assert _pair_order(empty, empty).tolist() == []


class TestAttributeRows:
    """``from_edges`` sorts the attribute pairs' int64 key in place and decodes
    the rows from it; ``pair_order_attribute_rows`` is the build that sorted
    the pairs by a permutation and gathered both arrays."""

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_the_permuting_build(self, seed):
        rng = np.random.default_rng(seed)
        n, m = int(rng.integers(1, 30)), int(rng.integers(1, 12))
        count = int(rng.integers(0, 4 * n))
        node, ids = rng.integers(0, n, count), rng.integers(0, m, count)
        repeats = rng.integers(0, count + 1, count // 3)
        node = np.concatenate([node, node[repeats[repeats < count]]])
        ids = np.concatenate([ids, ids[repeats[repeats < count]]])
        order = rng.permutation(len(node))
        node, ids = node[order], ids[order]
        g = from_edges(n, m, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                       np.empty(0), node, ids)
        offsets, values = pair_order_attribute_rows(n, node, ids)
        assert np.array_equal(g.attributes.indptr, offsets)
        assert np.array_equal(g.attributes.values, values)

    @pytest.mark.parametrize("edit", ["none", "repeat", "step down", "repeat at the end",
                                      "step down at the start"])
    def test_ascending_pairs_match_the_permuting_build(self, edit):
        # a file listing nodes in order with ascending ids gives ascending
        # keys, which are not sorted; one repeat or one step down is
        rng = np.random.default_rng(3)
        n, m = 20, 9
        lists = [np.flatnonzero(rng.random(m) < 0.4) for _ in range(n)]
        node = np.repeat(np.arange(n), [len(ids) for ids in lists])
        ids = np.concatenate(lists)
        k = {"none": None, "repeat": len(ids) // 2, "step down": len(ids) // 2,
             "repeat at the end": len(ids) - 1, "step down at the start": 1}[edit]
        if edit.startswith("repeat"):
            node, ids = np.insert(node, k, node[k]), np.insert(ids, k, ids[k])
        elif edit.startswith("step down"):
            ids[k - 1], ids[k] = ids[k], ids[k - 1]
            node[k - 1], node[k] = node[k], node[k - 1]
        rows = _attribute_rows(n, node, ids)
        offsets, values = pair_order_attribute_rows(n, node, ids)
        assert np.array_equal(rows.indptr, offsets)
        assert np.array_equal(rows.values, values)

    @pytest.mark.parametrize("low, high", [(-7, 10**6), (-2**62, 2**62)])
    def test_out_of_range_pairs_match_the_permuting_build(self, low, high):
        # node ids past n and ids outside [0, m), as validate must see them
        rng = np.random.default_rng(17)
        node, ids = rng.integers(0, 12, 300), rng.integers(low, high, 300)
        ids[::4] = ids[1::4]
        rows = _attribute_rows(9, node, ids)
        offsets, values = pair_order_attribute_rows(9, node, ids)
        assert np.array_equal(rows.indptr, offsets)
        assert np.array_equal(rows.values, values)

    def test_a_key_past_int64_builds_through_lexsort(self):
        m = 2**62
        node = np.array([2, 0, 2, 0, 2], dtype=np.int64)
        ids = np.array([m - 1, m - 1, 0, 5, m - 1], dtype=np.int64)
        assert _pair_key(node, ids) is None
        g = from_edges(3, m, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                       np.empty(0), node, ids)
        assert [g.attributes[u].tolist() for u in range(3)] == [[5, m - 1], [], [0, m - 1]]
        offsets, values = pair_order_attribute_rows(3, node, ids)
        assert np.array_equal(g.attributes.indptr, offsets)
        assert np.array_equal(g.attributes.values, values)

    def test_negative_node_is_rejected(self):
        with pytest.raises(GraphFormatError, match="attribute offsets start at 1, not 0"):
            from_edges(2, 3, np.empty(0, dtype=np.int64), np.empty(0, dtype=np.int64),
                       np.empty(0), np.array([-1, 0]), np.array([1, 1]))
