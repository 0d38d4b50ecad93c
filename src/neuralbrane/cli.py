"""Command-line entry point.

Subcommands: ``train`` (fit and export embeddings), ``embed`` (re-export from
a checkpoint), ``evaluate`` (classification / clustering / projection of an
embedding file), ``project`` (shorthand for the projection task), and
``ablate-pooling`` (max versus sum pooling side by side).

Every option can also be given as a ``key=value`` line of a config file
named by ``--config``; the key is the flag's name (``lr``, ``batch-size``) or
its destination (``learning_rate``, ``batch_size``).  Flags on the command
line win over file values, wherever they stand.  The environment variable
``NEURAL_BRANE_LOG`` (debug|info|warn) controls verbosity.  Exit codes:
0 success, 1 user or input error (a non-finite or out-of-range hyperparameter,
a diverging training run and sizes the host has no memory for included), 2
internal error.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .evaluate import run_classification_eval, run_clustering_eval, project_2d
from .graph import GraphFormatError, load_graph, open_text, read_labels
from .model import embed_all, embed_blocks, load_checkpoint, save_checkpoint
from .sampler import SamplingError
from .serialize import (
    EmbeddingTable,
    SerializationError,
    read_embedding,
    write_embedding_binary,
    write_embedding_text,
)
from .trainer import TrainConfig, TrainingDivergedError, train

log = logging.getLogger(__name__)


def _configure_logging() -> None:
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "warn": logging.WARNING}
    name = os.environ.get("NEURAL_BRANE_LOG", "info").lower()
    logging.basicConfig(
        level=levels.get(name, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    """Shows each option's default, unless it has none."""

    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def _expand_config(commands: dict, argv: list[str]) -> list[str]:
    """``argv`` with ``--config PATH`` replaced by the file's ``key=value``
    lines as ``--flag=value``, right after the subcommand, so that flags on
    the command line come later and win.  A key is a flag's name (``lr``,
    ``batch-size``) or its destination (``learning_rate``, ``batch_size``).
    Only the full flag is taken: an abbreviation is left for the real parser,
    which knows whether it is ambiguous (``--c`` is, on ``train``)."""
    command = commands.get(argv[0]) if argv else None
    if command is None:
        return argv
    pre = argparse.ArgumentParser(prog=command.prog, add_help=False, allow_abbrev=False)
    pre.add_argument("--config", metavar="PATH")
    known, rest = pre.parse_known_args(argv[1:])
    if known.config is None:
        return argv
    flags = {}
    for action in command._actions:
        if action.dest not in ("help", "config"):
            for flag in action.option_strings:
                flags[flag.lstrip("-").replace("-", "_")] = flags[action.dest] = flag
    with open_text(Path(known.config), ValueError) as fh:
        text = fh.read()
    lines = []
    for lineno, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if not stripped or stripped.startswith("#"):
            continue
        key, eq, value = (part.strip() for part in stripped.partition("="))
        if not eq:
            raise ValueError(f"{known.config}:{lineno}: expected key=value")
        flag = flags.get(key.replace("-", "_"))
        if flag is None:
            raise ValueError(f"{known.config}:{lineno}: unknown option {key!r}")
        lines.append(f"{flag}={value}")
    return [argv[0], *lines, *rest]


def _output(path):
    """The file at ``path`` opened for writing, or stdout if there is no path."""
    return open(path, "w", encoding="utf-8") if path else contextlib.nullcontext(sys.stdout)


def _ratio_list(text: str) -> tuple[float, ...]:
    try:
        ratios = tuple(float(tok) for tok in text.split(",") if tok.strip())
    except ValueError:
        ratios = ()
    if not ratios:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")
    return ratios


def _add_graph_options(p, need_labels: bool = False) -> None:
    p.add_argument("--edges", required=True, help="edge list file")
    p.add_argument("--attr-file", required=True, help="node attribute file")
    p.add_argument("--label-file", required=need_labels, help="node label file")
    p.add_argument("--nodes", type=int, help="override node count (default: max id + 1)")
    p.add_argument("--attrs", type=int, help="override attribute count (default: max id + 1)")


def _add_train_options(p) -> None:
    fields = TrainConfig()
    p.add_argument("--d1", type=int, default=fields.d1, help="attribute embedding width")
    p.add_argument("--d2", type=int, default=fields.d2, help="neighbor embedding width")
    p.add_argument("--hidden", type=int, default=fields.hidden, help="hidden layer width")
    p.add_argument("--lr", type=float, default=fields.learning_rate, dest="learning_rate",
                   help="SGD learning rate")
    p.add_argument("--lambda", type=float, default=fields.reg, dest="reg",
                   help="L2 regularization coefficient")
    p.add_argument("--batch-size", type=int, default=fields.batch_size,
                   help="triplets per batch")
    p.add_argument("--epochs", type=int, default=fields.epochs, help="maximum epochs")
    p.add_argument("--seed", type=int, default=fields.seed, help="random seed")
    p.add_argument("--pooling", default=fields.pooling, choices=("max", "sum"),
                   help="embedding layer pooling")
    p.add_argument("--grad-agg", default=fields.grad_agg, choices=("mean", "sum"),
                   help="batch gradient aggregation")
    p.add_argument("--tol", type=float, default=fields.convergence_tol, dest="convergence_tol",
                   help="relative epoch-loss change that counts as converged")


def _add_export_options(p) -> None:
    p.add_argument("--export-layer", default="h", choices=("h", "f"),
                   help="which layer to export")
    p.add_argument("--emb-format", default="text", choices=("text", "binary"),
                   help="embedding file format")
    p.add_argument("--threads", type=int, default=1,
                   help="accepted for compatibility; has no effect")


def _load_graph_from_args(args) -> "AttributedGraph":
    return load_graph(args.edges, args.attr_file, args.label_file,
                      node_count=args.nodes, attribute_count=args.attrs)


_TRAIN_FIELDS = tuple(f.name for f in dataclasses.fields(TrainConfig))  # the options' dests


def _train_config(args) -> TrainConfig:
    return TrainConfig(**{name: getattr(args, name) for name in _TRAIN_FIELDS})


def _export(params, g: "AttributedGraph", args, pooling: str) -> None:
    """Write every node's embedding to ``args.out``, one ``EMBED_BLOCK`` of
    rows at a time."""
    write = write_embedding_binary if args.emb_format == "binary" else write_embedding_text
    dim = params.h if args.export_layer == "h" else params.d
    # a forward that overflows gives non-finite rows, which the writer
    # refuses, naming the node; numpy's warning would only come before that
    with np.errstate(over="ignore", invalid="ignore"):
        write(embed_blocks(params, g, args.export_layer, pooling), args.out, (g.node_count, dim))


def cmd_train(args) -> int:
    keys = ("edges", "attr_file", "label_file", *_TRAIN_FIELDS, "export_layer")
    log.info("effective config: %s", " ".join(f"{k}={getattr(args, k)}" for k in keys))
    g = _load_graph_from_args(args)
    log.info("loaded graph: %d nodes, %d edges, %d attributes",
             g.node_count, g.edge_count, g.attribute_count)
    cfg = _train_config(args)
    log.info("triplet stream seed: %d", cfg.seed)
    params, tlog = train(g, cfg)

    checkpoint = args.checkpoint or f"{args.out}.ckpt"
    save_checkpoint(params, checkpoint)
    _export(params, g, args, args.pooling)
    log.info("wrote %s and %s", args.out, checkpoint)

    with _output(args.log_file) as fh:
        tlog.write_csv(fh)
    return 0


def cmd_embed(args) -> int:
    g = _load_graph_from_args(args)
    params = load_checkpoint(args.checkpoint)
    shape = (params.P_prime.shape[0], params.P.shape[0])
    if shape != (g.node_count, g.attribute_count):
        raise ValueError(
            f"{args.checkpoint}: checkpoint is for {shape[0]} nodes and {shape[1]} "
            f"attributes, but the graph has {g.node_count} nodes and "
            f"{g.attribute_count} attributes"
        )
    if params.pooling is not None and args.pooling not in (None, params.pooling):
        raise ValueError(f"{args.checkpoint}: checkpoint was trained with {params.pooling} "
                         f"pooling, not the --pooling {args.pooling} asked for")
    _export(params, g, args, args.pooling or params.pooling or "max")  # v1 records none
    return 0


def _load_labels_for(table: EmbeddingTable, label_file: str) -> np.ndarray:
    """Labels aligned with the embedding table's rows; -1 where unknown."""
    mapping = read_labels(label_file)
    return np.array([mapping.get(int(i), -1) for i in table.ids], dtype=np.int64)


def _project_to_csv(table: EmbeddingTable, labels, path) -> None:
    coords = project_2d(table.vectors)
    with _output(path) as out:
        for row, node_id in enumerate(table.ids):
            line = f"{int(node_id)},{coords[row, 0]:.9g},{coords[row, 1]:.9g}"
            if labels is not None:
                line += f",{int(labels[row])}"
            out.write(line + "\n")


def cmd_evaluate(args) -> int:
    """Classify, cluster or project an embedding file (``project`` runs here
    with ``task="project"``)."""
    table = read_embedding(args.embeddings)
    labels = _load_labels_for(table, args.labels) if args.labels else None
    if args.task == "project":
        _project_to_csv(table, labels, args.out)
        return 0
    if labels is None:
        raise ValueError(f"task {args.task!r} requires --labels")
    if args.task == "classify":
        report = run_classification_eval(table.vectors, labels, ratios=args.ratios,
                                         repeats=args.repeats, seed=args.seed)
    else:
        report = run_clustering_eval(table.vectors, labels, k=args.k,
                                     runs=args.repeats, seed=args.seed)
    print(report.summary())
    with _output(args.report) as fh:
        report.write_csv(fh)
    return 0


def cmd_ablate_pooling(args) -> int:
    g = _load_graph_from_args(args)
    if g.labels is None or len(g.labeled_nodes()) == 0:
        raise ValueError("ablate-pooling needs a labeled graph (--label-file)")
    rows = []
    for pooling in ("max", "sum"):
        args.pooling = pooling
        cfg = _train_config(args)
        log.info("pooling=%s triplet stream seed: %d", pooling, cfg.seed)
        params, _ = train(g, cfg)
        table = embed_all(params, g, layer=args.export_layer, pooling=pooling)
        report = run_classification_eval(table.vectors, g.labels,
                                         ratios=(args.ratio,), repeats=args.repeats,
                                         seed=args.seed)
        rows.append((pooling, report.macro_f1_mean[0], report.macro_f1_std[0]))
        print(f"pooling={pooling}: macro-F1 {rows[-1][1]:.4f} +/- {rows[-1][2]:.4f}")
    with _output(args.out) as out:
        out.write("pooling,macro_f1_mean,macro_f1_std\n")
        for pooling, mean, std in rows:
            out.write(f"{pooling},{mean:.9g},{std:.9g}\n")
    return 0


def build_parser():
    """The top-level parser, and its subcommand parsers by name."""
    parser = argparse.ArgumentParser(
        prog="neuralbrane",
        description="Attributed network embedding with a ranking objective.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, func, **defaults):
        p = sub.add_parser(name, help=help, formatter_class=_HelpFormatter)
        p.add_argument("--config", metavar="PATH",
                       help="key=value file of option values; flags on the command line win")
        p.set_defaults(func=func, **defaults)
        return p

    t = command("train", "fit a model and export embeddings", cmd_train)
    _add_graph_options(t)
    _add_train_options(t)
    t.add_argument("--out", required=True, help="embedding output path")
    t.add_argument("--checkpoint", help="checkpoint path (default: <out>.ckpt)")
    t.add_argument("--log-file", help="write the per-epoch CSV here instead of stdout")
    _add_export_options(t)

    e = command("embed", "export embeddings from a checkpoint", cmd_embed)
    _add_graph_options(e)
    e.add_argument("--checkpoint", required=True, help="checkpoint produced by train")
    e.add_argument("--out", required=True, help="embedding output path")
    _add_export_options(e)
    e.add_argument("--pooling", choices=("max", "sum"),
                   help="embedding layer pooling (default: max, or the mode a version 2 "
                        "checkpoint records; naming the other mode is an error)")

    v = command("evaluate", "score an embedding file", cmd_evaluate)
    v.add_argument("--embeddings", required=True, help="embedding file (text or binary)")
    v.add_argument("--labels", help="label file")
    v.add_argument("--task", default="classify", choices=("classify", "cluster", "project"),
                   help="what to compute")
    v.add_argument("--ratios", type=_ratio_list, default=(0.3, 0.5, 0.7),
                   help="train ratios for classification")
    v.add_argument("--repeats", type=int, default=10, help="splits or clustering runs")
    v.add_argument("--seed", type=int, default=7, help="random seed")
    v.add_argument("--k", type=int, help="cluster count (default: number of classes)")
    v.add_argument("--report", help="write the CSV report here instead of stdout")
    v.add_argument("--out", help="projection CSV path (project task)")

    p = command("project", "2-component projection to CSV", cmd_evaluate, task="project")
    p.add_argument("--embeddings", required=True, help="embedding file (text or binary)")
    p.add_argument("--labels", help="optional labels appended as a column")
    p.add_argument("--out", help="output CSV (default: stdout)")

    a = command("ablate-pooling", "train with max and sum pooling, compare macro-F1",
                cmd_ablate_pooling)
    _add_graph_options(a, need_labels=True)
    _add_train_options(a)
    a.add_argument("--ratio", type=float, default=0.7, help="train ratio for the comparison")
    a.add_argument("--repeats", type=int, default=10, help="classification splits")
    a.add_argument("--export-layer", default="h", choices=("h", "f"),
                   help="which layer to export")
    a.add_argument("--out", help="result CSV (default: stdout)")
    return parser, sub.choices


def main(argv=None) -> int:
    _configure_logging()
    parser, commands = build_parser()
    try:
        argv = sys.argv[1:] if argv is None else list(argv)
        args = parser.parse_args(_expand_config(commands, argv))
        if args.config is not None:  # _expand_config took every full --config
            raise ValueError(f"write --config in full; {args.config} was not read")
        return args.func(args)
    except SystemExit as exc:
        if exc.code in (0, None):
            raise  # --help and friends
        return 1  # argparse usage problems are user errors
    except (GraphFormatError, SamplingError, SerializationError, TrainingDivergedError,
            OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:  # sizes come from the ids, --nodes, --attrs, --d1, --d2, --hidden
        print("error: not enough memory" + (f": {exc}" if str(exc) else ""), file=sys.stderr)
        return 1
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
