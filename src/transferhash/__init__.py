"""Learning to hash with privileged source-domain data.

Trainers: plain iterative quantization (itq), the privileged-slack variant
(itq_plus), and the graph-regularized variant (lap_itq_plus), plus LSH and
CCA-initialized baselines, Hamming retrieval evaluation, and a benchmark
CLI (`transferhash`).
"""

from .baselines import cca_itq_fit, lsh_fit
from .codes import BinaryCodeMatrix, sgn
from .config import RunConfig
from .data import (
    SplitBundle,
    load_matrix,
    load_model,
    make_split,
    save_matrix,
    save_model,
    zero_center,
)
from .evaluate import (
    EvalReport,
    GroundTruth,
    average_precision,
    encode,
    evaluate_model,
    ground_truth,
    hamming_distance,
    precision_at_k,
    search,
)
from .itq import itq_train, procrustes, quantization_loss, random_orthonormal
from .itq_plus import (
    ItqPlusState,
    itq_plus_objective,
    itq_plus_train,
    update_b_balanced,
    update_p,
    update_r,
)
from .lap_itq_plus import (
    AdjacencyGraph,
    LaplacianMatrix,
    knn_hamming_graph,
    lap_itq_plus_train,
    laplacian,
    source_codes_offline,
    update_b_relaxed,
)
from .model import CenteringInfo, HashModel, LinearProjection, with_pipeline
from .preprocess import cca_fit, pca_fit, project
from .synth import make_two_view_clusters, write_synth_dataset

__version__ = "0.1.0"

__all__ = [
    "AdjacencyGraph",
    "BinaryCodeMatrix",
    "CenteringInfo",
    "EvalReport",
    "GroundTruth",
    "HashModel",
    "ItqPlusState",
    "LaplacianMatrix",
    "LinearProjection",
    "RunConfig",
    "SplitBundle",
    "average_precision",
    "cca_fit",
    "cca_itq_fit",
    "encode",
    "evaluate_model",
    "ground_truth",
    "hamming_distance",
    "itq_plus_objective",
    "itq_plus_train",
    "itq_train",
    "knn_hamming_graph",
    "lap_itq_plus_train",
    "laplacian",
    "load_matrix",
    "load_model",
    "lsh_fit",
    "make_split",
    "make_two_view_clusters",
    "pca_fit",
    "precision_at_k",
    "procrustes",
    "project",
    "quantization_loss",
    "random_orthonormal",
    "save_matrix",
    "save_model",
    "search",
    "sgn",
    "source_codes_offline",
    "update_b_balanced",
    "update_b_relaxed",
    "update_p",
    "update_r",
    "with_pipeline",
    "write_synth_dataset",
    "zero_center",
]
