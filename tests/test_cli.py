import contextlib
import io
import re
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from neuralbrane.cli import main
from neuralbrane.graph import write_graph
from neuralbrane.graph import load_graph
from neuralbrane.model import embed_all, init_parameters, save_checkpoint
from neuralbrane.serialize import read_embedding
from neuralbrane.synthetic import planted_partition

from .conftest import write_toy_files
from .oracles import whole_table_write_embedding_text


def train_args(paths, out, extra=()):
    edge_path, attr_path, label_path = paths
    return [
        "train",
        "--edges", str(edge_path),
        "--attr-file", str(attr_path),
        "--label-file", str(label_path),
        "--d1", "4", "--d2", "4", "--hidden", "6",
        "--epochs", "2", "--seed", "1",
        "--out", str(out),
    ] + list(extra)


class TestTrainCommand:
    def test_writes_embedding_checkpoint_and_log(self, toy_files, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        log_file = tmp_path / "log.csv"
        code = main(train_args(toy_files, out, ["--log-file", str(log_file)]))
        assert code == 0
        table = read_embedding(out)
        assert table.node_count == 5
        assert (tmp_path / "emb.txt.ckpt").exists()
        lines = log_file.read_text().splitlines()
        assert lines[0] == "epoch,loss,seconds,triplets"
        assert len(lines) >= 2

    def test_log_to_stdout_by_default(self, toy_files, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        assert main(train_args(toy_files, out)) == 0
        captured = capsys.readouterr().out
        assert captured.startswith("epoch,loss,seconds,triplets")

    def test_missing_attribute_file_exits_one(self, toy_files, tmp_path, capsys):
        edge_path, _, label_path = toy_files
        missing = tmp_path / "nope.txt"
        code = main([
            "train", "--edges", str(edge_path), "--attr-file", str(missing),
            "--label-file", str(label_path), "--out", str(tmp_path / "x.txt"),
            "--epochs", "1",
        ])
        assert code == 1
        assert "nope.txt" in capsys.readouterr().err

    def test_seed_reproducibility_byte_identical(self, toy_files, tmp_path, capsys):
        out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
        assert main(train_args(toy_files, out1)) == 0
        assert main(train_args(toy_files, out2)) == 0
        assert out1.read_bytes() == out2.read_bytes()
        assert (tmp_path / "a.txt.ckpt").read_bytes() == (tmp_path / "b.txt.ckpt").read_bytes()

    def test_binary_output(self, toy_files, tmp_path, capsys):
        out = tmp_path / "emb.bin"
        assert main(train_args(toy_files, out, ["--emb-format", "binary"])) == 0
        assert out.read_bytes()[:4] == b"NBRN"
        assert read_embedding(out).node_count == 5

    def test_export_f_layer(self, toy_files, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        assert main(train_args(toy_files, out, ["--export-layer", "f"])) == 0
        assert read_embedding(out).dim == 8  # d1 + d2


class TestConfigFile:
    def test_file_supplies_defaults_flags_win(self, toy_files, tmp_path, capsys):
        edge_path, attr_path, label_path = toy_files
        config = tmp_path / "run.cfg"
        config.write_text(
            "# training setup\n"
            f"edges={edge_path}\n"
            f"attr-file={attr_path}\n"
            f"label-file={label_path}\n"
            "d1=4\nd2=4\nhidden=6\nepochs=5\nseed=1\n"
            f"out={tmp_path / 'from_config.txt'}\n"
        )
        code = main(["train", "--config", str(config), "--epochs", "1",
                     "--log-file", str(tmp_path / "log.csv")])
        assert code == 0
        # the flag (1 epoch) overrides the file (5 epochs)
        rows = (tmp_path / "log.csv").read_text().splitlines()
        assert len(rows) == 2
        assert (tmp_path / "from_config.txt").exists()

    def test_unknown_key_rejected(self, toy_files, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_text("no-such-option=1\n")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        assert "no-such-option" in capsys.readouterr().err

    def test_file_not_utf8_rejected(self, toy_files, tmp_path, capsys):
        config = tmp_path / "run.cfg"
        config.write_bytes(b"epochs=1\n# \xff\n")
        code = main(["train", "--config", str(config), "--out", str(tmp_path / "x")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"error: {config}: not UTF-8 text (byte 0xff: invalid start byte)\n" in err
        assert "Traceback" not in err


class TestEmbedCommand:
    def test_checkpoint_reexport_matches(self, toy_files, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        assert main(train_args(toy_files, out)) == 0
        edge_path, attr_path, label_path = toy_files
        again = tmp_path / "again.txt"
        code = main([
            "embed", "--edges", str(edge_path), "--attr-file", str(attr_path),
            "--label-file", str(label_path),
            "--checkpoint", str(tmp_path / "emb.txt.ckpt"),
            "--out", str(again),
        ])
        assert code == 0
        assert again.read_bytes() == out.read_bytes()

    @pytest.mark.parametrize("n, m", [(3, 4), (9, 7), (5, 8)])
    def test_checkpoint_for_another_graph_rejected(self, toy_files, tmp_path, capsys, n, m):
        # the toy graph has 5 nodes and 7 attributes
        checkpoint = tmp_path / "other.ckpt"
        save_checkpoint(init_parameters(n, m, 2, 2, 3, seed=0), checkpoint)
        edge_path, attr_path, _ = toy_files
        code = main([
            "embed", "--edges", str(edge_path), "--attr-file", str(attr_path),
            "--checkpoint", str(checkpoint), "--out", str(tmp_path / "emb.txt"),
        ])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{n} nodes and {m} attributes" in err
        assert "5 nodes and 7 attributes" in err
        assert not (tmp_path / "emb.txt").exists()


def write_v1_checkpoint(params, path):
    """A checkpoint in the version 1 layout, which records no pooling."""
    n, m = params.P_prime.shape[0], params.P.shape[0]
    path.write_bytes(b"NBRN" + struct.pack("<6I", 1, n, m, params.d1, params.d2, params.h)
                     + b"".join(a.astype("<f8").tobytes()
                                for a in (params.P, params.P_prime, params.W, params.b)))


class TestEmbedPooling:
    def embed(self, toy_files, checkpoint, out, extra=()):
        edge_path, attr_path, _ = toy_files
        return main(["embed", "--edges", str(edge_path), "--attr-file", str(attr_path),
                     "--checkpoint", str(checkpoint), "--out", str(out), *extra])

    def test_defaults_to_the_pooling_the_checkpoint_records(self, toy_files, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        assert main(train_args(toy_files, out, ["--pooling", "sum"])) == 0
        for extra in ((), ("--pooling", "sum")):
            assert self.embed(toy_files, tmp_path / "emb.txt.ckpt", tmp_path / "e.txt",
                              extra) == 0
            assert (tmp_path / "e.txt").read_bytes() == out.read_bytes()

    def test_the_other_pooling_is_rejected(self, toy_files, tmp_path, capsys):
        assert main(train_args(toy_files, tmp_path / "emb.txt", ["--pooling", "sum"])) == 0
        capsys.readouterr()
        checkpoint = tmp_path / "emb.txt.ckpt"
        assert self.embed(toy_files, checkpoint, tmp_path / "e.txt", ["--pooling", "max"]) == 1
        err = capsys.readouterr().err
        assert err == (f"error: {checkpoint}: checkpoint was trained with sum pooling, "
                       "not the --pooling max asked for\n")
        assert not (tmp_path / "e.txt").exists()

    def test_a_version_1_checkpoint_takes_either_pooling_and_defaults_to_max(
            self, toy_files, tmp_path, capsys):
        params = init_parameters(5, 7, 2, 3, 4, seed=2)
        write_v1_checkpoint(params, tmp_path / "v1.ckpt")
        g = load_graph(toy_files[0], toy_files[1])
        for extra, pooling in (((), "max"), (("--pooling", "sum"), "sum"),
                               (("--pooling", "max"), "max")):
            assert self.embed(toy_files, tmp_path / "v1.ckpt", tmp_path / "e.txt", extra) == 0
            whole_table_write_embedding_text(embed_all(params, g, pooling=pooling),
                                             tmp_path / "want.txt")
            assert (tmp_path / "e.txt").read_bytes() == (tmp_path / "want.txt").read_bytes()


class TestEvaluateCommand:
    @pytest.fixture
    def trained(self, toy_files, tmp_path, capsys):
        out = tmp_path / "emb.txt"
        main(train_args(toy_files, out))
        capsys.readouterr()
        return out, toy_files[2]

    def test_classify_report(self, trained, tmp_path, capsys):
        emb, labels = trained
        report = tmp_path / "report.csv"
        code = main([
            "evaluate", "--embeddings", str(emb), "--labels", str(labels),
            "--task", "classify", "--ratios", "0.5", "--repeats", "2",
            "--seed", "3", "--report", str(report),
        ])
        assert code == 0
        lines = report.read_text().splitlines()
        assert lines[0] == "task,train_ratio,runs,macro_f1_mean,macro_f1_std"
        assert lines[1].startswith("classify,0.5,2,")
        assert "macro-F1" in capsys.readouterr().out

    @pytest.mark.parametrize("task", ["classify", "cluster"])
    def test_sparse_class_ids_give_the_dense_report(self, trained, tmp_path, capsys, task):
        # class c becomes c * 10**12: same order, but far past a one-hot sized by id
        emb, labels = trained
        sparse = tmp_path / "sparse_labels.txt"
        sparse.write_text("".join(f"{u} {int(c) * 10**12}\n" for u, c in
                                  (line.split() for line in labels.read_text().splitlines())))
        reports = []
        for label_file in (labels, sparse):
            report = tmp_path / f"{label_file.stem}.csv"
            assert main(["evaluate", "--embeddings", str(emb), "--labels", str(label_file),
                         "--task", task, "--ratios", "0.3,0.7", "--repeats", "2",
                         "--report", str(report)]) == 0
            reports.append(report.read_bytes())
        assert reports[0] == reports[1]

    def test_cluster_report(self, trained, tmp_path, capsys):
        emb, labels = trained
        report = tmp_path / "report.csv"
        code = main([
            "evaluate", "--embeddings", str(emb), "--labels", str(labels),
            "--task", "cluster", "--repeats", "2", "--report", str(report),
        ])
        assert code == 0
        header = report.read_text().splitlines()[0]
        assert header == "task,clusters,runs,nmi_mean,nmi_std,purity_mean,purity_std"

    def test_classify_without_labels_fails(self, trained, capsys):
        emb, _ = trained
        assert main(["evaluate", "--embeddings", str(emb)]) == 1
        assert "labels" in capsys.readouterr().err

    def test_project_task_csv(self, trained, tmp_path, capsys):
        emb, labels = trained
        out = tmp_path / "proj.csv"
        code = main([
            "evaluate", "--embeddings", str(emb), "--labels", str(labels),
            "--task", "project", "--out", str(out),
        ])
        assert code == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert len(rows) == 5
        assert all(len(r) == 4 for r in rows)  # id, x, y, label

    def test_project_subcommand_without_labels(self, trained, tmp_path, capsys):
        emb, _ = trained
        out = tmp_path / "proj.csv"
        assert main(["project", "--embeddings", str(emb), "--out", str(out)]) == 0
        rows = [line.split(",") for line in out.read_text().splitlines()]
        assert all(len(r) == 3 for r in rows)  # id, x, y

    @pytest.mark.parametrize("header", ["4000000000 2", "99999999999999999999 2"])
    def test_embedding_header_past_the_file_is_user_error(self, tmp_path, capsys, header):
        emb = tmp_path / "huge.txt"
        emb.write_text(f"{header}\n0 1 2\n")
        code = main(["evaluate", "--embeddings", str(emb), "--task", "project",
                     "--out", str(tmp_path / "proj.csv")])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith(f"error: {emb}: header '{header}' needs")

    def test_embedding_header_dim_no_array_can_hold_is_user_error(self, tmp_path, capsys):
        emb = tmp_path / "wide.txt"
        emb.write_text("0 99999999999999999999\n")
        code = main(["evaluate", "--embeddings", str(emb), "--task", "project",
                     "--out", str(tmp_path / "proj.csv")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {emb}: header '0 99999999999999999999' "
                                           "declares more values than an array can hold\n")

    def test_evaluate_reads_binary_embeddings(self, toy_files, tmp_path, capsys):
        out = tmp_path / "emb.bin"
        assert main(train_args(toy_files, out, ["--emb-format", "binary"])) == 0
        code = main([
            "evaluate", "--embeddings", str(out), "--labels", str(toy_files[2]),
            "--ratios", "0.5", "--repeats", "2",
        ])
        assert code == 0
        assert "macro-F1" in capsys.readouterr().out

    @pytest.mark.parametrize("bad_line, problem", [
        ("0 1", "relabeled from 0 to 1"),
        ("2 -3", "class id -3 is negative"),
        ("2 99999999999999999999", "class id 99999999999999999999 is too large"),
    ])
    @pytest.mark.parametrize("command", [
        ["evaluate", "--task", "classify"],
        ["evaluate", "--task", "project"],
        ["project"],
    ])
    def test_bad_label_file_is_user_error(self, trained, tmp_path, capsys, command,
                                          bad_line, problem):
        # the label file's third line relabels node 0 or gives a negative class;
        # train --label-file rejects the same file, so evaluate must as well
        emb, _ = trained
        labels = tmp_path / "bad_labels.txt"
        labels.write_text(f"0 0\n1 0\n{bad_line}\n3 1\n")
        code = main([*command, "--embeddings", str(emb), "--labels", str(labels),
                     "--out", str(tmp_path / "proj.csv")])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{labels}:3:" in err
        assert problem in err

    @pytest.mark.parametrize("rows, problem", [
        (["0 1 2 3", "1 2 3 1", "2 3 1 2", "3 1 2 3", "4 nan 3 1"],
         "row 4 holds a non-finite value"),
        (["0 1 2 3", "1 2 3 1", "2 3 1 2", "3 1 2 3", "0 2 3 1"], "row 4 repeats node id 0"),
        (["0 1e200 2 3", "1 2 3e200 1", "2 3 1 2e200", "3 1e200 2 3", "4 2 3e200 1"],
         "embedding values are too large"),
    ])
    @pytest.mark.parametrize("task", ["classify", "cluster", "project"])
    def test_bad_embedding_values_are_user_error(self, trained, tmp_path, capsys, task,
                                                 rows, problem):
        import warnings
        _, labels = trained
        emb = tmp_path / "bad_emb.txt"
        emb.write_text("5 3\n" + "\n".join(rows) + "\n")
        out = tmp_path / "out.csv"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["evaluate", "--embeddings", str(emb), "--labels", str(labels),
                         "--task", task, "--ratios", "0.5", "--repeats", "2",
                         "--report", str(out), "--out", str(out)])
        assert code == 1
        err = capsys.readouterr().err
        assert problem in err
        assert "Traceback" not in err and "internal error" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize("repeats", ["0", "-2"])
    @pytest.mark.parametrize("command, name", [
        ("classify", "repeats"), ("cluster", "runs (--repeats)"), ("ablate-pooling", "repeats"),
    ])
    def test_no_repeats_is_user_error(self, trained, toy_files, tmp_path, capsys, command,
                                      name, repeats):
        import warnings
        emb, labels = trained
        out = tmp_path / "out.csv"
        if command == "ablate-pooling":
            edge_path, attr_path, _ = toy_files
            argv = ["ablate-pooling", "--edges", str(edge_path), "--attr-file", str(attr_path),
                    "--label-file", str(labels), "--d1", "2", "--d2", "2", "--hidden", "2",
                    "--epochs", "1", "--out", str(out)]
        else:
            argv = ["evaluate", "--embeddings", str(emb), "--labels", str(labels),
                    "--task", command, "--report", str(out)]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(argv + ["--repeats", repeats])
        assert code == 1
        err = capsys.readouterr().err
        assert f"{name} must be at least 1, not {repeats}" in err
        assert "Traceback" not in err and "internal error" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    def test_evaluate_determinism(self, trained, tmp_path, capsys):
        emb, labels = trained
        r1, r2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
        for path in (r1, r2):
            assert main([
                "evaluate", "--embeddings", str(emb), "--labels", str(labels),
                "--ratios", "0.5,0.7", "--repeats", "3", "--seed", "11",
                "--report", str(path),
            ]) == 0
        assert r1.read_bytes() == r2.read_bytes()


class TestAblateCommand:
    def test_two_result_rows_and_shared_seed(self, toy_files, tmp_path, capsys, caplog):
        import logging
        edge_path, attr_path, label_path = toy_files
        out = tmp_path / "ablation.csv"
        with caplog.at_level(logging.INFO, logger="neuralbrane.cli"):
            code = main([
                "ablate-pooling", "--edges", str(edge_path),
                "--attr-file", str(attr_path), "--label-file", str(label_path),
                "--d1", "4", "--d2", "4", "--hidden", "6", "--epochs", "2",
                "--seed", "5", "--repeats", "2", "--out", str(out),
            ])
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pooling,macro_f1_mean,macro_f1_std"
        assert len(lines) == 3
        assert lines[1].startswith("max,") and lines[2].startswith("sum,")
        # both runs must log the same triplet stream seed
        seed_lines = [r.message for r in caplog.records if "triplet stream seed" in r.message]
        assert seed_lines == ["pooling=max triplet stream seed: 5",
                              "pooling=sum triplet stream seed: 5"]


class TestExitCodes:
    def test_unknown_flag_is_user_error(self, capsys):
        assert main(["train", "--no-such-flag"]) == 1

    def test_bad_choice_is_user_error(self, toy_files, tmp_path, capsys):
        assert main(train_args(toy_files, tmp_path / "x", ["--pooling", "avg"])) == 1

    @pytest.mark.parametrize("planted, lr", [(False, "1e12"), (True, "1e30")],
                             ids=["toy", "planted-120"])
    def test_divergence_is_user_error(self, toy_files, tmp_path, capsys, planted, lr):
        import warnings
        paths = toy_files
        if planted:
            paths = [tmp_path / name for name in ("e.txt", "a.txt", "l.txt")]
            write_graph(planted_partition(nodes=120, seed=0), *paths)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(train_args(paths, tmp_path / "x", ["--lr", lr, "--epochs", "8"]))
        assert code == 1
        err = capsys.readouterr().err
        assert re.search(r"error: training diverged at epoch \d+ ", err)
        assert f"(lr {float(lr):g}); lower --lr" in err
        assert "internal error" not in err and "Traceback" not in err
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("flag, value, field", [
        ("--lr", "nan", "learning_rate"),
        ("--lr", "inf", "learning_rate"),
        ("--lambda", "nan", "reg"),
        ("--lambda", "inf", "reg"),
        ("--tol", "nan", "convergence_tol"),
    ])
    def test_non_finite_hyperparameter_is_user_error(self, toy_files, tmp_path, capsys,
                                                     flag, value, field):
        assert main(train_args(toy_files, tmp_path / "x", [flag, value])) == 1
        err = capsys.readouterr().err
        assert f"error: {field} must be" in err and "internal error" not in err
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("file, line, problem", [
        (0, "1 99999999999999999999", "node id 99999999999999999999 is too large"),
        (1, "2 3 18446744073709551616", "attribute id 18446744073709551616 is too large"),
        (2, "9223372036854775808 1", "node id 9223372036854775808 is too large"),
    ], ids=["edges", "attributes", "labels"])
    def test_id_past_int64_is_user_error(self, toy_files, tmp_path, capsys, file, line,
                                         problem):
        # no --nodes / --attrs, so nothing but the id's size can reject it
        path = toy_files[file]
        lineno = len(path.read_text().splitlines()) + 1
        with open(path, "a") as fh:
            fh.write(line + "\n")
        assert main(train_args(toy_files, tmp_path / "x", ["--epochs", "1"])) == 1
        err = capsys.readouterr().err
        assert f"error: {path}:{lineno}: {problem}" in err
        assert "internal error" not in err

    @pytest.mark.parametrize("command, file", [
        ("train", 0), ("train", 1), ("train", 2), ("evaluate", 0), ("evaluate", 1),
    ], ids=["edges", "attributes", "labels", "embedding", "evaluate-labels"])
    def test_file_not_utf8_is_user_error(self, toy_files, tmp_path, capsys, command, file):
        if command == "train":
            paths = toy_files
            argv = train_args(toy_files, tmp_path / "x", ["--epochs", "1"])
        else:
            emb = tmp_path / "emb.txt"
            emb.write_text("5 2\n" + "".join(f"{u} {u}.5 1\n" for u in range(5)))
            paths = (emb, toy_files[2])
            argv = ["evaluate", "--embeddings", str(emb), "--labels", str(toy_files[2]),
                    "--task", "classify", "--ratios", "0.5", "--repeats", "1"]
        path = paths[file]
        path.write_bytes(path.read_bytes() + b"3 \xff\n")  # 0xff starts no UTF-8 character
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert f"error: {path}: not UTF-8 text (byte 0xff: invalid start byte)\n" in err
        assert "Traceback" not in err and "internal error" not in err

    def test_log_level_env_var(self, toy_files, tmp_path, capsys, monkeypatch):
        import logging
        monkeypatch.setenv("NEURAL_BRANE_LOG", "warn")
        logging.getLogger().handlers.clear()
        assert main(train_args(toy_files, tmp_path / "x.txt")) == 0
        assert logging.getLogger().level == logging.WARNING
        logging.getLogger().handlers.clear()

    def test_module_entry_point(self, tmp_path):
        import subprocess, sys
        result = subprocess.run(
            [sys.executable, "-m", "neuralbrane.cli", "train", "--help"],
            capture_output=True, text=True,
        )
        assert result.returncode == 0
        assert "--batch-size" in result.stdout


class TestHelp:
    def test_subcommand_help_documents_defaults(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["train", "--help"])
        assert excinfo.value.code == 0
        text = capsys.readouterr().out
        for token in ("--lr", "0.5", "--lambda", "5e-05", "--batch-size", "100",
                      "--epochs", "30", "--pooling", "--grad-agg", "--tol"):
            assert token in text

    def test_all_subcommands_have_help(self, capsys):
        for command in ("train", "embed", "evaluate", "project", "ablate-pooling"):
            with pytest.raises(SystemExit) as excinfo:
                main([command, "--help"])
            assert excinfo.value.code == 0
            assert capsys.readouterr().out


class TestNonFiniteCheckpoint:
    @pytest.mark.parametrize("fmt", ["text", "binary"])
    @pytest.mark.parametrize("value", [np.nan, np.inf])
    def test_embed_exits_one_naming_file_and_block(self, toy_files, tmp_path, capsys, fmt,
                                                   value):
        params = init_parameters(5, 7, 2, 2, 3, seed=0)
        params.W[1, 2] = value
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(params, checkpoint)
        edge_path, attr_path, _ = toy_files
        code = main(["embed", "--edges", str(edge_path), "--attr-file", str(attr_path),
                     "--checkpoint", str(checkpoint), "--emb-format", fmt,
                     "--out", str(tmp_path / "emb")])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {checkpoint}: checkpoint block W holds "
                                           "a non-finite value\n")
        assert not (tmp_path / "emb").exists()

    @pytest.mark.parametrize("fmt", ["text", "binary"])
    def test_overflowing_forward_exits_one_and_leaves_no_file(self, toy_files, tmp_path, capsys,
                                                              fmt):
        # a finite checkpoint whose hidden layer overflows to inf for every node
        params = init_parameters(5, 7, 2, 2, 3, seed=0)
        params.P[:] = 1e10
        params.W[:] = 1e300
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(params, checkpoint)
        edge_path, attr_path, _ = toy_files
        out = tmp_path / "emb"
        code = main(["embed", "--edges", str(edge_path), "--attr-file", str(attr_path),
                     "--checkpoint", str(checkpoint), "--emb-format", fmt, "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (f"error: {out}: the embedding of node 0 holds "
                                           "a non-finite value\n")
        assert not out.exists()


_ODD_TOKENS = st.sampled_from([
    "-1", "9223372036854775807", "9223372036854775808", "1000000000000", "1e3", "1.0", "0x2",
    "+1", "٣", "#", "#1", "nan", "\x00", "\r",
])
_CONSISTENT_LABEL = st.integers(0, 13).map(lambda u: f"{u} {u % 3}")
_LABEL_LINES = st.one_of(
    _CONSISTENT_LABEL, _CONSISTENT_LABEL, _CONSISTENT_LABEL, _CONSISTENT_LABEL,
    st.integers(0, 13).map(lambda u: f"{u}\t{u % 2 * 7}"),
    st.builds("{} {}".format, st.integers(0, 13), st.integers(0, 3)),
    st.lists(st.one_of(st.integers(0, 13).map(str), _ODD_TOKENS), max_size=3).map(" ".join),
)


@st.composite
def _label_file(draw):
    """A label file, mostly well formed: lines of a node (some past the
    embedding's 12) and a class, with repeats, conflicts, odd tokens and
    field counts, comments, blank lines and bytes that are not UTF-8."""
    lines = draw(st.lists(_LABEL_LINES, max_size=16))
    ending = draw(st.sampled_from(["\n", "\r\n"]))
    return (ending.join(lines).encode()
            + draw(st.sampled_from([b"", b"", b"", b"\n", b"\xff\n", b"\xc3"])))


_CONFIG_VALUES = st.sampled_from([
    "0", "1", "2", "2", "3", "-1", "0.5", "0.05", "1e-3", "nan", "inf", "-inf", "1e400", "",
    "x", "max", "sum", "mean", "h", "f", "text", "binary", "=", " 1 ",
])
_CONFIG_KEYS = st.one_of(st.sampled_from([
    "d1", "d2", "hidden", "lr", "learning_rate", "lambda", "reg", "batch-size", "batch_size",
    "epochs", "seed", "pooling", "grad-agg", "tol", "convergence_tol", "export-layer",
    "emb-format", "threads", "nodes", "attrs",
]), st.sampled_from(["config", "c", "e", "no-such", "--lr", ""]))


@st.composite
def _config_file(draw):
    """A config file of key=value lines over train's options (values kept
    small, so that no run is long), with comments, blank lines, lines
    without '=', unknown keys and odd bytes."""
    lines = []
    for _ in range(draw(st.integers(0, 6))):
        kind = draw(st.sampled_from(["pair"] * 6 + ["comment", "blank", "bare"]))
        if kind == "pair":
            lines.append(f"{draw(_CONFIG_KEYS)}={draw(_CONFIG_VALUES)}")
        elif kind == "comment":
            lines.append("# " + draw(_CONFIG_VALUES))
        elif kind == "bare":
            lines.append(draw(_CONFIG_KEYS))
        else:
            lines.append(draw(st.sampled_from(["", "  ", "\t"])))
    return ("\n".join(lines).encode()
            + draw(st.sampled_from([b"", b"", b"\n", b"\r\n", b"\xff"])))


class TestFuzz:
    """Odd label and config files end in exit 0 or 1, never in an internal
    error (exit 2) or a traceback."""

    def run(self, argv):
        with contextlib.redirect_stderr(io.StringIO()) as stderr:
            code = main(argv)
        err = stderr.getvalue()
        assert code in (0, 1), err
        assert "internal error" not in err and "Traceback" not in err

    @settings(max_examples=150, deadline=None)
    @given(data=_label_file(), task=st.sampled_from(["classify", "cluster", "project"]))
    def test_label_files(self, tmp_path_factory, data, task):
        directory = tmp_path_factory.mktemp("labels")
        emb = directory / "emb.txt"
        emb.write_text("12 2\n" + "".join(f"{u} {u}.5 {u % 3}\n" for u in range(12)))
        labels = directory / "labels.txt"
        labels.write_bytes(data)
        self.run(["evaluate", "--embeddings", str(emb), "--labels", str(labels),
                          "--task", task, "--ratios", "0.5", "--repeats", "1",
                          "--out", str(directory / "p.csv")])

    @settings(max_examples=150, deadline=None)
    @given(data=_config_file())
    def test_config_files(self, tmp_path_factory, data):
        directory = tmp_path_factory.mktemp("config")
        paths = write_toy_files(directory)
        config = directory / "run.cfg"
        config.write_bytes(data)
        self.run(train_args(paths, directory / "emb.txt",
                                    ["--epochs", "1", "--config", str(config)]))
