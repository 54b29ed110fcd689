"""Update and query operations: the unit of workload files, of
``gen_updates`` and of ``run_bench``."""
from __future__ import annotations

from dataclasses import dataclass
from typing import Union


@dataclass(frozen=True, slots=True)
class InsertEdge:
    u: int
    v: int


@dataclass(frozen=True, slots=True)
class DeleteEdge:
    u: int
    v: int


@dataclass(frozen=True, slots=True)
class InsertNode:
    u: int
    out_edges: tuple[int, ...] = ()
    in_edges: tuple[int, ...] = ()


@dataclass(frozen=True, slots=True)
class DeleteNode:
    u: int


@dataclass(frozen=True, slots=True)
class Query:
    u: int
    v: int


UpdateOp = Union[InsertEdge, DeleteEdge, InsertNode, DeleteNode, Query]
