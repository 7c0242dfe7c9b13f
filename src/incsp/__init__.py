"""Incremental (1+eps)-approximate shortest paths with warm-start predictions.

The library maintains single-source (and optionally all-pairs) distance
estimates under a stream of edge insertions.  An offline engine builds a
recursion tree over the whole timeline; an online engine keeps that
structure consistent while edges arrive in an order that may disagree
with a predicted order, repairing only the subproblems the disagreement
touches.
"""

from .apsp import ApspStructure, OnlineApsp, build_apsp
from .bucketing import BucketTable, derive_internal_epsilon, make_table
from .metrics import (
    ErrorProfile,
    compute_profile,
    edit_distance,
    hamming,
    min_threshold_objective,
    per_edge_displacement,
)
from .model import (
    UNREACHABLE,
    EdgeInsert,
    InsertSequence,
    ProblemInstance,
    align_prediction,
    pad_to_power_of_two,
    parse_instance,
    parse_prediction,
    prepare_for_build,
    serialize_instance,
    serialize_prediction,
)
from .offline import OfflineStructure, build_offline, structures_equal
from .online import OnlineEngine, start_online
from .oracle import (
    exact_rows,
    verify_offline,
    verify_online_run,
)
from .workload import PerturbationSpec, generate, perturb

__version__ = "0.1.0"

__all__ = [
    "ApspStructure",
    "BucketTable",
    "EdgeInsert",
    "ErrorProfile",
    "InsertSequence",
    "OfflineStructure",
    "OnlineApsp",
    "OnlineEngine",
    "PerturbationSpec",
    "ProblemInstance",
    "UNREACHABLE",
    "align_prediction",
    "build_apsp",
    "build_offline",
    "compute_profile",
    "derive_internal_epsilon",
    "edit_distance",
    "exact_rows",
    "generate",
    "hamming",
    "make_table",
    "min_threshold_objective",
    "pad_to_power_of_two",
    "parse_instance",
    "parse_prediction",
    "per_edge_displacement",
    "perturb",
    "prepare_for_build",
    "serialize_instance",
    "serialize_prediction",
    "start_online",
    "structures_equal",
    "verify_offline",
    "verify_online_run",
    "__version__",
]
