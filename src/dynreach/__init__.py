"""Dynamic reachability index over directed graphs.

Maintains the strongly-connected-component condensation of a mutating
digraph together with k-dimensional randomized interval labels, answers
reachability queries with label-pruned search, and ships generators plus
a benchmark CLI for replaying intermixed update/query workloads.
"""

from .bench import DfsBaseline, run_bench
from .errors import DynReachError, InputError, InternalError, LogicError
from .graph import SccGraph
from .index import QueryStats, ReachabilityIndex
from .labeling import IntervalLabeler, Label, LabelerConfig, subsumes
from .ops import DeleteEdge, DeleteNode, InsertEdge, InsertNode, Query, UpdateOp
from .workload import OpRatios, gen_ba_directed, gen_er, gen_updates

__all__ = [
    "DeleteEdge",
    "DeleteNode",
    "DfsBaseline",
    "DynReachError",
    "InputError",
    "InsertEdge",
    "InsertNode",
    "IntervalLabeler",
    "InternalError",
    "Label",
    "LabelerConfig",
    "LogicError",
    "OpRatios",
    "Query",
    "QueryStats",
    "ReachabilityIndex",
    "SccGraph",
    "UpdateOp",
    "gen_ba_directed",
    "gen_er",
    "gen_updates",
    "run_bench",
    "subsumes",
]

__version__ = "0.1.0"
