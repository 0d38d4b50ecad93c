"""Option handling of the CLI: config files, value checks and help text."""

import logging
import re

import pytest

from neuralbrane.cli import main
from neuralbrane.model import init_parameters, save_checkpoint


def write_config(tmp_path, toy_files, *lines):
    edge_path, attr_path, label_path = toy_files
    config = tmp_path / "run.cfg"
    config.write_text("\n".join([
        f"edges={edge_path}", f"attr-file={attr_path}", f"label-file={label_path}",
        "d1=4", "d2=4", "hidden=6", "epochs=2", "seed=1",
        f"out={tmp_path / 'emb.txt'}", *lines,
    ]) + "\n")
    return config


def effective_config(caplog) -> str:
    return next(r.message for r in caplog.records if r.message.startswith("effective config"))


class TestConfigKeys:
    @pytest.mark.parametrize("lines", [
        ("lr=0.25", "lambda=0.001", "tol=0.5", "batch-size=3"),
        ("learning_rate=0.25", "reg=0.001", "convergence_tol=0.5", "batch_size=3"),
    ])
    def test_flag_and_dest_spellings_train(self, toy_files, tmp_path, capsys, caplog, lines):
        config = write_config(tmp_path, toy_files, *lines)
        with caplog.at_level(logging.INFO, logger="neuralbrane.cli"):
            assert main(["train", "--config", str(config)]) == 0
        echoed = effective_config(caplog)
        for setting in ("learning_rate=0.25", "reg=0.001", "batch_size=3", "convergence_tol=0.5"):
            assert setting in echoed

    def test_equals_form_of_config_flag(self, toy_files, tmp_path, capsys):
        config = write_config(tmp_path, toy_files)
        assert main(["train", f"--config={config}"]) == 0
        assert (tmp_path / "emb.txt").exists()

    def test_abbreviated_config_flag_is_ambiguous_on_train(self, toy_files, tmp_path, capsys):
        config = write_config(tmp_path, toy_files)
        assert main(["train", "--c", str(config)]) == 1
        assert "ambiguous option: --c could match --config, --checkpoint" in (
            capsys.readouterr().err)
        assert not (tmp_path / "emb.txt").exists()

    @pytest.mark.parametrize("flag", ["--c", "--conf"])
    def test_unambiguous_abbreviation_is_not_ignored(self, tmp_path, capsys, flag):
        config = tmp_path / "run.cfg"
        config.write_text("task=cluster\n")
        code = main(["evaluate", "--embeddings", str(tmp_path / "none.txt"), flag, str(config)])
        assert code == 1
        assert "write --config in full" in capsys.readouterr().err

    def test_flag_before_config_beats_file(self, toy_files, tmp_path, capsys):
        config = write_config(tmp_path, toy_files, "epochs=5")
        log_file = tmp_path / "log.csv"
        code = main(["train", "--epochs", "1", "--log-file", str(log_file),
                     "--config", str(config)])
        assert code == 0
        assert len(log_file.read_text().splitlines()) == 2  # header and one epoch

    @pytest.mark.parametrize("line, flag", [("epochs=abc", "--epochs"),
                                            ("pooling=avg", "--pooling")])
    def test_bad_value_in_file_is_user_error(self, toy_files, tmp_path, capsys, line, flag):
        config = write_config(tmp_path, toy_files, line)
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert line.split("=")[1] in err
        assert f"argument {flag}:" in err
        assert not (tmp_path / "emb.txt").exists()

    def test_bad_int_flag_names_the_flag(self, toy_files, tmp_path, capsys):
        config = write_config(tmp_path, toy_files)
        assert main(["train", "--config", str(config), "--epochs", "abc"]) == 1
        assert "argument --epochs:" in capsys.readouterr().err

    @pytest.mark.parametrize("line, problem", [("bogus-key=1", "unknown option 'bogus-key'"),
                                               ("threads 2", "expected key=value")])
    def test_bad_line_names_file_and_line(self, tmp_path, capsys, line, problem):
        config = tmp_path / "run.cfg"
        config.write_text(f"# comment\nepochs=1\n{line}\n")
        assert main(["train", "--config", str(config)]) == 1
        err = capsys.readouterr().err
        assert f"{config}:3: {problem}" in err

    @pytest.mark.parametrize("key", ["help", "config"])
    def test_help_and_config_are_not_keys(self, tmp_path, capsys, key):
        config = tmp_path / "run.cfg"
        config.write_text(f"{key}=x\n")
        assert main(["train", "--config", str(config)]) == 1
        assert f"unknown option {key!r}" in capsys.readouterr().err

    def test_missing_config_file_is_user_error(self, tmp_path, capsys):
        assert main(["train", "--config", str(tmp_path / "none.cfg")]) == 1
        assert "none.cfg" in capsys.readouterr().err


# Per subcommand: each choice and each non-empty default its help must show.
HELP_EXPECTS = {
    "train": ("max", "sum", "mean", "h", "f", "text", "binary", "default: 75",
              "default: 150", "default: 0.5", "default: 5e-05", "default: 100",
              "default: 30", "default: 42", "default: max", "default: mean",
              "default: 0.0001", "default: h", "default: text", "default: 1"),
    "embed": ("h", "f", "text", "binary", "max", "sum", "default: h", "default: text",
              "default: max", "default: 1"),
    "evaluate": ("classify", "cluster", "project", "default: classify",
                 "default: (0.3, 0.5, 0.7)", "default: 10", "default: 7"),
    "project": ("--embeddings", "--labels", "--out"),
    "ablate-pooling": ("max", "sum", "mean", "h", "f", "default: 0.7", "default: 10",
                       "default: 42", "default: h", "default: 5e-05"),
}


class TestHelpText:
    @pytest.mark.parametrize("command", sorted(HELP_EXPECTS))
    def test_lists_defaults_and_choices(self, capsys, command):
        with pytest.raises(SystemExit) as excinfo:
            main([command, "--help"])
        assert excinfo.value.code == 0
        text = " ".join(capsys.readouterr().out.split())  # undo line wrapping
        for token in HELP_EXPECTS[command]:
            assert re.search(rf"(?<![\w.]){re.escape(token)}(?![\w.])", text), token
        assert "--config" in text
        assert "default: None" not in text


class TestArtifactMismatch:
    def test_checkpoint_given_as_embeddings_rejected(self, tmp_path, capsys):
        checkpoint = tmp_path / "model.ckpt"
        save_checkpoint(init_parameters(40, 12, 75, 75, 150, seed=0), checkpoint)
        out = tmp_path / "proj.csv"
        assert main(["project", "--embeddings", str(checkpoint), "--out", str(out)]) == 1
        assert str(checkpoint) in capsys.readouterr().err
        assert not out.exists()
