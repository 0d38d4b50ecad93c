"""Command-line entry point.

Subcommands: ``train`` (fit and export embeddings), ``embed`` (re-export from
a checkpoint), ``evaluate`` (classification / clustering / projection of an
embedding file), ``project`` (shorthand for the projection task), and
``ablate-pooling`` (max versus sum pooling side by side).

Every flag can also be given in a ``key=value`` config file via ``--config``;
explicit flags win over file values.  The environment variable
``NEURAL_BRANE_LOG`` (debug|info|warn) controls verbosity.  Exit codes:
0 success, 1 user or input error, 2 internal error.
"""

from __future__ import annotations

import argparse
import logging
import os
import sys
from pathlib import Path

import numpy as np

from .evaluate import run_classification_eval, run_clustering_eval, project_2d
from .graph import GraphFormatError, load_graph, read_labels
from .model import embed_all, load_checkpoint, save_checkpoint
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

_UNSET = "\0unset"  # sentinel distinguishing flag-supplied values from defaults


def _configure_logging() -> None:
    levels = {"debug": logging.DEBUG, "info": logging.INFO, "warn": logging.WARNING}
    name = os.environ.get("NEURAL_BRANE_LOG", "info").lower()
    logging.basicConfig(
        level=levels.get(name, logging.INFO),
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


class _Command:
    """A subparser plus the bookkeeping needed for config-file fallback."""

    def __init__(self, parser: argparse.ArgumentParser) -> None:
        self.parser = parser
        self.types: dict[str, object] = {}
        self.defaults: dict[str, object] = {}
        parser.add_argument("--config", default=None,
                            help="key=value file supplying flag defaults")

    def add(self, flag: str, *, type=str, default=None, choices=None,
            required=False, dest=None, help=None) -> None:
        dest = dest or flag.lstrip("-").replace("-", "_")
        notes = []
        if choices is not None:
            notes.append("|".join(str(c) for c in choices))
        if default is not None:
            notes.append(f"default: {default}")
        shown = f"({'; '.join(notes)})" if notes else ""
        self.parser.add_argument(
            flag, dest=dest, type=str, default=_UNSET,
            help=f"{help or ''} {shown}".strip(),
        )
        self.types[dest] = (type, choices, required)
        self.defaults[dest] = default

    def resolve(self, args: argparse.Namespace) -> argparse.Namespace:
        """Fill unset options from the config file, then from defaults."""
        file_values: dict[str, str] = {}
        if args.config:
            for lineno, line in enumerate(Path(args.config).read_text().splitlines(), 1):
                stripped = line.strip()
                if not stripped or stripped.startswith("#"):
                    continue
                if "=" not in stripped:
                    raise ValueError(f"{args.config}:{lineno}: expected key=value")
                key, _, value = stripped.partition("=")
                dest = key.strip().replace("-", "_")
                if dest not in self.types:
                    raise ValueError(f"{args.config}:{lineno}: unknown option {key.strip()!r}")
                file_values[dest] = value.strip()
        for dest, (type_fn, choices, required) in self.types.items():
            raw = getattr(args, dest)
            if raw == _UNSET:
                if dest in file_values:
                    raw = file_values[dest]
                else:
                    setattr(args, dest, self.defaults[dest])
                    if required and self.defaults[dest] is None:
                        self.parser.error(f"missing required option for {dest}")
                    continue
            value = type_fn(raw)
            if choices is not None and value not in choices:
                self.parser.error(f"{dest}: {value!r} not in {choices}")
            setattr(args, dest, value)
        return args


def _ratio_list(text: str) -> tuple[float, ...]:
    ratios = tuple(float(tok) for tok in text.split(",") if tok.strip())
    if not ratios:
        raise ValueError("empty ratio list")
    return ratios


def _add_graph_options(cmd: _Command, need_labels: bool = False) -> None:
    cmd.add("--edges", required=True, help="edge list file")
    cmd.add("--attr-file", required=True, help="node attribute file")
    cmd.add("--label-file", required=need_labels, help="node label file")
    cmd.add("--nodes", type=int, help="override node count (default: max id + 1)")
    cmd.add("--attrs", type=int, help="override attribute count (default: max id + 1)")


def _add_train_options(cmd: _Command) -> None:
    fields = TrainConfig()
    cmd.add("--d1", type=int, default=fields.d1, help="attribute embedding width")
    cmd.add("--d2", type=int, default=fields.d2, help="neighbor embedding width")
    cmd.add("--hidden", type=int, default=fields.hidden, help="hidden layer width")
    cmd.add("--lr", type=float, default=fields.learning_rate, dest="learning_rate",
            help="SGD learning rate")
    cmd.add("--lambda", type=float, default=fields.reg, dest="reg",
            help="L2 regularization coefficient")
    cmd.add("--batch-size", type=int, default=fields.batch_size, help="triplets per batch")
    cmd.add("--epochs", type=int, default=fields.epochs, help="maximum epochs")
    cmd.add("--seed", type=int, default=fields.seed, help="random seed")
    cmd.add("--pooling", default=fields.pooling, choices=("max", "sum"),
            help="embedding layer pooling")
    cmd.add("--grad-agg", default=fields.grad_agg, choices=("mean", "sum"),
            help="batch gradient aggregation")
    cmd.add("--tol", type=float, default=fields.convergence_tol, dest="convergence_tol",
            help="relative epoch-loss change that counts as converged")


def _load_graph_from_args(args) -> "AttributedGraph":
    return load_graph(
        args.edges, args.attr_file, args.label_file,
        node_count=args.nodes, attribute_count=args.attrs,
    )


def _train_config(args) -> TrainConfig:
    return TrainConfig(
        d1=args.d1, d2=args.d2, hidden=args.hidden,
        learning_rate=args.learning_rate, reg=args.reg,
        batch_size=args.batch_size, epochs=args.epochs, seed=args.seed,
        pooling=args.pooling, grad_agg=args.grad_agg,
        convergence_tol=args.convergence_tol,
    )


def _echo_config(args, keys) -> None:
    rendered = " ".join(f"{k}={getattr(args, k)}" for k in keys)
    log.info("effective config: %s", rendered)


def _write_embedding(table: EmbeddingTable, path: str, fmt: str) -> None:
    if fmt == "binary":
        write_embedding_binary(table, path)
    else:
        write_embedding_text(table, path)


def cmd_train(args) -> int:
    _echo_config(args, ("edges", "attr_file", "label_file", "d1", "d2", "hidden",
                        "learning_rate", "reg", "batch_size", "epochs", "seed",
                        "pooling", "grad_agg", "convergence_tol", "export_layer"))
    g = _load_graph_from_args(args)
    log.info("loaded graph: %d nodes, %d edges, %d attributes",
             g.node_count, g.edge_count, g.attribute_count)
    cfg = _train_config(args)
    log.info("triplet stream seed: %d", cfg.seed)
    params, tlog = train(g, cfg)

    checkpoint = args.checkpoint or f"{args.out}.ckpt"
    save_checkpoint(params, checkpoint)
    table = embed_all(params, g, layer=args.export_layer, pooling=args.pooling)
    _write_embedding(table, args.out, args.emb_format)
    log.info("wrote %s and %s", args.out, checkpoint)

    if args.log_file:
        with open(args.log_file, "w", encoding="utf-8") as fh:
            tlog.write_csv(fh)
    else:
        tlog.write_csv(sys.stdout)
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
    table = embed_all(params, g, layer=args.export_layer, pooling=args.pooling)
    _write_embedding(table, args.out, args.emb_format)
    return 0


def _load_labels_for(table: EmbeddingTable, label_file: str) -> np.ndarray:
    """Labels aligned with the embedding table's rows; -1 where unknown."""
    mapping = read_labels(label_file)
    return np.array([mapping.get(int(i), -1) for i in table.ids], dtype=np.int64)


def _emit_report(report, path) -> None:
    print(report.summary())
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            report.write_csv(fh)
    else:
        report.write_csv(sys.stdout)


def _project_to_csv(table: EmbeddingTable, labels, path) -> None:
    coords = project_2d(table.vectors)
    out = open(path, "w", encoding="utf-8") if path else sys.stdout
    try:
        for row, node_id in enumerate(table.ids):
            line = f"{int(node_id)},{coords[row, 0]:.9g},{coords[row, 1]:.9g}"
            if labels is not None:
                line += f",{int(labels[row])}"
            out.write(line + "\n")
    finally:
        if path:
            out.close()


def cmd_evaluate(args) -> int:
    table = read_embedding(args.embeddings)
    labels = None
    if args.labels:
        labels = _load_labels_for(table, args.labels)
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
    _emit_report(report, args.report)
    return 0


def cmd_project(args) -> int:
    table = read_embedding(args.embeddings)
    labels = _load_labels_for(table, args.labels) if args.labels else None
    _project_to_csv(table, labels, args.out)
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
    out = open(args.out, "w", encoding="utf-8") if args.out else sys.stdout
    try:
        out.write("pooling,macro_f1_mean,macro_f1_std\n")
        for pooling, mean, std in rows:
            out.write(f"{pooling},{mean:.9g},{std:.9g}\n")
    finally:
        if args.out:
            out.close()
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="neuralbrane",
        description="Attributed network embedding with a ranking objective.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands: dict[str, _Command] = {}

    t = _Command(sub.add_parser("train", help="fit a model and export embeddings"))
    _add_graph_options(t)
    _add_train_options(t)
    t.add("--out", required=True, help="embedding output path")
    t.add("--checkpoint", help="checkpoint path (default: <out>.ckpt)")
    t.add("--log-file", help="write the per-epoch CSV here instead of stdout")
    t.add("--export-layer", default="h", choices=("h", "f"),
          help="which layer to export")
    t.add("--emb-format", default="text", choices=("text", "binary"),
          help="embedding file format")
    t.add("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    t.parser.set_defaults(func=cmd_train)
    commands["train"] = t

    e = _Command(sub.add_parser("embed", help="export embeddings from a checkpoint"))
    _add_graph_options(e)
    e.add("--checkpoint", required=True, help="checkpoint produced by train")
    e.add("--out", required=True, help="embedding output path")
    e.add("--export-layer", default="h", choices=("h", "f"))
    e.add("--emb-format", default="text", choices=("text", "binary"))
    e.add("--pooling", default="max", choices=("max", "sum"))
    e.add("--threads", type=int, default=1, help="accepted for compatibility; has no effect")
    e.parser.set_defaults(func=cmd_embed)
    commands["embed"] = e

    v = _Command(sub.add_parser("evaluate", help="score an embedding file"))
    v.add("--embeddings", required=True, help="embedding file (text or binary)")
    v.add("--labels", help="label file")
    v.add("--task", default="classify", choices=("classify", "cluster", "project"))
    v.add("--ratios", type=_ratio_list, default=(0.3, 0.5, 0.7),
          help="train ratios for classification")
    v.add("--repeats", type=int, default=10, help="splits or clustering runs")
    v.add("--seed", type=int, default=7)
    v.add("--k", type=int, help="cluster count (default: number of classes)")
    v.add("--report", help="write the CSV report here instead of stdout")
    v.add("--out", help="projection CSV path (project task)")
    v.parser.set_defaults(func=cmd_evaluate)
    commands["evaluate"] = v

    p = _Command(sub.add_parser("project", help="2-component projection to CSV"))
    p.add("--embeddings", required=True)
    p.add("--labels", help="optional labels appended as a column")
    p.add("--out", help="output CSV (default: stdout)")
    p.parser.set_defaults(func=cmd_project)
    commands["project"] = p

    a = _Command(sub.add_parser("ablate-pooling",
                                help="train with max and sum pooling, compare macro-F1"))
    _add_graph_options(a, need_labels=True)
    _add_train_options(a)
    a.add("--ratio", type=float, default=0.7, help="train ratio for the comparison")
    a.add("--repeats", type=int, default=10)
    a.add("--export-layer", default="h", choices=("h", "f"))
    a.add("--out", help="result CSV (default: stdout)")
    a.parser.set_defaults(func=cmd_ablate_pooling)
    commands["ablate-pooling"] = a

    return parser, commands


def main(argv=None) -> int:
    _configure_logging()
    parser, commands = build_parser()
    try:
        args = parser.parse_args(argv)
        commands[args.command].resolve(args)
        return args.func(args)
    except SystemExit as exc:
        if exc.code in (0, None):
            raise  # --help and friends
        return 1  # argparse usage problems are user errors
    except (GraphFormatError, SamplingError, SerializationError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except TrainingDivergedError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
