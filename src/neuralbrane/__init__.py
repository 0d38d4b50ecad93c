"""Attributed network embedding with a neural BPR ranking objective."""

from .graph import AttributedGraph, GraphFormatError, Rows, load_graph, write_graph
from .model import (
    ForwardTrace,
    ModelParameters,
    embed_all,
    forward,
    init_parameters,
    load_checkpoint,
    save_checkpoint,
)
from .sampler import SamplingError, Triplet, TripletSampler
from .serialize import EmbeddingTable, read_embedding, write_embedding_text
from .trainer import GradientSet, TrainConfig, TrainLog, train
from .evaluate import EvalReport, run_classification_eval, run_clustering_eval

__version__ = "0.1.0"

__all__ = [
    "AttributedGraph",
    "GraphFormatError",
    "Rows",
    "load_graph",
    "write_graph",
    "SamplingError",
    "Triplet",
    "TripletSampler",
    "ModelParameters",
    "ForwardTrace",
    "init_parameters",
    "forward",
    "embed_all",
    "save_checkpoint",
    "load_checkpoint",
    "EmbeddingTable",
    "read_embedding",
    "write_embedding_text",
    "TrainConfig",
    "TrainLog",
    "GradientSet",
    "train",
    "EvalReport",
    "run_classification_eval",
    "run_clustering_eval",
    "__version__",
]
