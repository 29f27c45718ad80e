"""Dataflow-graph IR for accelerator datapath modelling.

gem5-SALAM / gem5-MARVEL model a domain-specific accelerator from the LLVM
IR of its C description: the IR becomes a dataflow graph whose nodes are
scheduled dynamically subject to data dependencies and hardware resource
limits.  This module provides the equivalent substrate: a small typed
dataflow graph, per-operation latency/energy tables, and a list scheduler
that reports the cycle count, resource occupancy and energy of executing
the graph — exactly what the compute-unit timing model needs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional

import networkx as nx

#: Default per-operation latency in accelerator clock cycles.
DEFAULT_OP_LATENCY: Dict[str, int] = {
    "load": 2,
    "store": 2,
    "add": 1,
    "mul": 3,
    "mac": 4,
    "relu": 1,
    "phi": 0,
    "branch": 1,
    "photonic_mvm": 1,
}

#: Default per-operation energy [J].
DEFAULT_OP_ENERGY: Dict[str, float] = {
    "load": 1e-12,
    "store": 1e-12,
    "add": 0.1e-12,
    "mul": 0.8e-12,
    "mac": 1.0e-12,
    "relu": 0.05e-12,
    "phi": 0.0,
    "branch": 0.05e-12,
    "photonic_mvm": 0.0,
}


class DataflowError(Exception):
    """Raised for malformed graphs (cycles, unknown operations...)."""


@dataclass(frozen=True)
class DFGNode:
    """One operation of the dataflow graph.

    Attributes:
        name: unique node name.
        op: operation type (a key of the latency/energy tables).
        latency: optional per-node latency override [cycles].
    """

    name: str
    op: str
    latency: Optional[int] = None


@dataclass
class ScheduleResult:
    """Outcome of scheduling one dataflow graph.

    Attributes:
        total_cycles: makespan of the schedule.
        start_times: node name -> issue cycle.
        energy_j: summed per-operation energy.
        critical_path: node names on the longest dependency chain.
        resource_limited: True if functional-unit limits (not dependencies)
            set the makespan.
    """

    total_cycles: int
    start_times: Dict[str, int]
    energy_j: float
    critical_path: List[str]
    resource_limited: bool


class DataflowGraph:
    """A typed dataflow graph with a resource-constrained list scheduler."""

    def __init__(
        self,
        op_latency: Optional[Dict[str, int]] = None,
        op_energy: Optional[Dict[str, float]] = None,
    ):
        self.graph = nx.DiGraph()
        self.op_latency = dict(DEFAULT_OP_LATENCY, **(op_latency or {}))
        self.op_energy = dict(DEFAULT_OP_ENERGY, **(op_energy or {}))

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_node(self, name: str, op: str, latency: Optional[int] = None) -> DFGNode:
        """Add an operation node."""
        if name in self.graph:
            raise DataflowError(f"duplicate node {name!r}")
        if op not in self.op_latency:
            raise DataflowError(f"unknown operation {op!r}")
        node = DFGNode(name=name, op=op, latency=latency)
        self.graph.add_node(name, data=node)
        return node

    def add_edge(self, producer: str, consumer: str) -> None:
        """Add a data dependency from ``producer`` to ``consumer``."""
        for name in (producer, consumer):
            if name not in self.graph:
                raise DataflowError(f"unknown node {name!r}")
        self.graph.add_edge(producer, consumer)

    def node(self, name: str) -> DFGNode:
        """Look up a node by name."""
        return self.graph.nodes[name]["data"]

    def node_latency(self, name: str) -> int:
        """Latency of a node: its own override, else its operation's default."""
        node = self.node(name)
        return node.latency if node.latency is not None else self.op_latency[node.op]

    @property
    def n_nodes(self) -> int:
        """Number of nodes in the graph."""
        return self.graph.number_of_nodes()

    # ------------------------------------------------------------------ #
    # scheduling
    # ------------------------------------------------------------------ #
    def schedule(self, resources: Optional[Dict[str, int]] = None) -> ScheduleResult:
        """List-schedule the graph under per-operation resource limits.

        ``resources`` maps operation type to the number of functional units
        of that type (missing types are unlimited).  Nodes issue as soon as
        their dependencies have completed and a unit is free; this mirrors
        the dynamic dataflow execution engine of gem5-SALAM.
        """
        if self.graph.number_of_nodes() == 0:
            return ScheduleResult(0, {}, 0.0, [], False)
        if not nx.is_directed_acyclic_graph(self.graph):
            raise DataflowError("dataflow graph has a cycle")
        resources = resources or {}

        order = list(nx.topological_sort(self.graph))
        ready_time: Dict[str, int] = {}
        start_times: Dict[str, int] = {}
        # Per-op-type list of unit busy-until times.
        units: Dict[str, List[int]] = {
            op: [0] * count for op, count in resources.items() if count > 0
        }
        resource_limited = False

        for name in order:
            node = self.node(name)
            dependency_ready = max(
                (start_times[p] + self.node_latency(p) for p in self.graph.predecessors(name)),
                default=0,
            )
            issue = dependency_ready
            if node.op in units:
                pool = units[node.op]
                best_unit = min(range(len(pool)), key=lambda i: pool[i])
                if pool[best_unit] > issue:
                    resource_limited = True
                issue = max(issue, pool[best_unit])
                pool[best_unit] = issue + self.node_latency(name)
            start_times[name] = issue
            ready_time[name] = issue + self.node_latency(name)

        total = max(ready_time.values())
        energy = sum(self.op_energy[self.node(name).op] for name in order)
        critical = self._critical_path(ready_time)
        return ScheduleResult(
            total_cycles=int(total),
            start_times=start_times,
            energy_j=float(energy),
            critical_path=critical,
            resource_limited=resource_limited,
        )

    def _critical_path(self, ready_time: Dict[str, int]) -> List[str]:
        """Trace back the dependency chain ending at the latest-finishing node."""
        current = max(ready_time, key=ready_time.get)
        path = [current]
        while True:
            predecessors = list(self.graph.predecessors(current))
            if not predecessors:
                break
            current = max(predecessors, key=lambda p: ready_time[p])
            path.append(current)
        return list(reversed(path))


def build_gemm_dfg(
    n_rows: int,
    n_inner: int,
    n_cols: int,
    mac_latency: int = 4,
) -> DataflowGraph:
    """Dataflow graph of a blocked digital GeMM (the MAC-array baseline).

    One ``mac`` node per multiply-accumulate, chained along the inner
    dimension (the accumulation is a true dependency), with loads feeding
    the first element of every chain and a store after every output.  The
    resulting graph scheduled with ``{"mac": n_units}`` reproduces the
    throughput of a digital MAC-array accelerator.
    """
    if min(n_rows, n_inner, n_cols) < 1:
        raise ValueError("all GeMM dimensions must be >= 1")
    dfg = DataflowGraph()
    for i in range(n_rows):
        for j in range(n_cols):
            load_name = f"load_{i}_{j}"
            dfg.add_node(load_name, "load")
            previous = load_name
            for k in range(n_inner):
                mac_name = f"mac_{i}_{j}_{k}"
                dfg.add_node(mac_name, "mac", latency=mac_latency)
                dfg.add_edge(previous, mac_name)
                previous = mac_name
            store_name = f"store_{i}_{j}"
            dfg.add_node(store_name, "store")
            dfg.add_edge(previous, store_name)
    return dfg
