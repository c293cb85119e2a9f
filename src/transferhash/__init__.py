"""Learning to hash with privileged source-domain data.

Trainers: plain iterative quantization (itq), the privileged-slack variant
(itq_plus), and the graph-regularized variant (lap_itq_plus), plus LSH and
CCA-initialized baselines, Hamming retrieval evaluation, and a benchmark
CLI (`transferhash`).
"""

from .baselines import cca_itq_fit, lsh_fit
from .bench import fit_model, run_bench
from .codes import BinaryCodeMatrix
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
    encode,
    evaluate_model,
    ground_truth,
    search,
)
from .itq import itq_train
from .itq_plus import ItqPlusState, itq_plus_train
from .lap_itq_plus import lap_itq_plus_train
from .model import HashModel
from .synth import make_two_view_clusters

__version__ = "0.1.0"

__all__ = [
    "BinaryCodeMatrix",
    "EvalReport",
    "GroundTruth",
    "HashModel",
    "ItqPlusState",
    "RunConfig",
    "SplitBundle",
    "cca_itq_fit",
    "encode",
    "evaluate_model",
    "fit_model",
    "ground_truth",
    "itq_plus_train",
    "itq_train",
    "lap_itq_plus_train",
    "load_matrix",
    "load_model",
    "lsh_fit",
    "make_split",
    "make_two_view_clusters",
    "run_bench",
    "save_matrix",
    "save_model",
    "search",
    "zero_center",
]
