"""Model graph IR: a content-hashable DAG of compiler ops.

:class:`ModelGraph` captures a whole model — a DAG of
:class:`~repro.compiler.ops.GraphOp` nodes (dense layers plus the
split/concat/add glue that fan-out and fan-in branches) and the
activation shapes flowing between them — as the unit the compiler plans,
places and caches.  Builders cover the model sources in the repo: raw
weight-matrix stacks (:meth:`ModelGraph.from_matrices`) and
:class:`~repro.core.nn.MLP` models (:meth:`ModelGraph.from_mlp`) produce
linear chains; branching models (residual MLPs, multi-head readouts) are
wired explicitly through :meth:`ModelGraph.add_op` or the eval builders
in :mod:`repro.eval.workloads`.

Both execution targets (:func:`~repro.compiler.execute.compile_for_soc`
and :func:`~repro.compiler.execute.compile_for_pool`) lower the graph's
deterministic **topological schedule** (:meth:`ModelGraph.schedule`):
dead branches — ops the designated output never consumes — are pruned at
compile time, and every schedule step carries the buffers whose last
consumer it is, so executors track liveness instead of keeping every
intermediate alive.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.compiler.ops import DenseOp, GraphOp
from repro.core.nn import MLP

#: Buffer name of the graph input in :meth:`ModelGraph.schedule` liveness
#: (root ops read it; it is released after its last root consumes it).
INPUT_BUFFER = "__input__"


class GraphError(ValueError):
    """Raised for malformed graphs (cycles, shape breaks, duplicate names)."""


@dataclass(frozen=True)
class ScheduleStep:
    """One step of a graph's deterministic topological schedule.

    Attributes:
        op: the node to execute.
        inputs: producer op names in edge order (empty = the op is a root
            and reads the graph input).
        release: buffer names (op names, or :data:`INPUT_BUFFER`) whose
            last consumer is this step — executors free them afterwards.
    """

    op: GraphOp
    inputs: Tuple[str, ...]
    release: Tuple[str, ...]


class ModelGraph:
    """A DAG of compiler ops with content hashing and topological order.

    Attributes:
        name: human-readable model label (not part of the content hash).
    """

    def __init__(self, name: str = "model"):
        self.name = str(name)
        self._ops: Dict[str, GraphOp] = {}
        self._inputs: Dict[str, Tuple[str, ...]] = {}
        self._output: Optional[str] = None
        self._order: Optional[List[str]] = None
        self._schedule: Optional[List[ScheduleStep]] = None
        self._hash: Optional[str] = None

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_op(self, op: GraphOp, inputs: Sequence[str] = ()) -> GraphOp:
        """Add an op fed by the named producer ops (empty = graph input).

        Edge order is semantic (a :class:`~repro.compiler.ops.ConcatOp`
        glues producers in wiring order) and each op's wiring contract
        (edge count and per-edge feature sizes) is checked immediately;
        the DAG property is revalidated lazily on the next traversal.

        Args:
            op: the node to add (its ``name`` must be unique in the graph).
            inputs: names of already-added producer ops, in edge order.
                An empty sequence marks a root fed by the graph input.

        Returns:
            The op, for chaining.

        Raises:
            GraphError: on duplicate names, unknown producers, edge-count
                or feature-size mismatches.
        """
        if op.name in self._ops:
            raise GraphError(f"duplicate op name {op.name!r}")
        if op.name == INPUT_BUFFER:
            raise GraphError(f"op name {INPUT_BUFFER!r} is reserved")
        inputs = tuple(str(name) for name in inputs)
        for producer in inputs:
            if producer not in self._ops:
                raise GraphError(
                    f"op {op.name!r} depends on unknown op {producer!r}"
                )
        if inputs:
            try:
                op.validate_inputs(
                    [self._ops[producer].n_outputs for producer in inputs]
                )
            except ValueError as exc:
                raise GraphError(str(exc)) from None
        elif len(op.expected_input_sizes()) != 1:
            raise GraphError(
                f"op {op.name!r} ({op.kind}) takes "
                f"{len(op.expected_input_sizes())} inputs and cannot be a "
                f"root fed by the single graph input"
            )
        self._ops[op.name] = op
        self._inputs[op.name] = inputs
        self._order = None
        self._schedule = None
        self._hash = None
        return op

    def set_output(self, name: str) -> None:
        """Designate the op whose result is the graph output.

        Graphs with exactly one sink resolve their output automatically;
        call this for multi-sink graphs (or to read an intermediate node,
        leaving the rest as dead branches the executors prune).

        Raises:
            GraphError: when ``name`` is not an op of this graph.
        """
        if name not in self._ops:
            raise GraphError(f"cannot set output to unknown op {name!r}")
        self._output = str(name)
        self._schedule = None
        self._hash = None

    @classmethod
    def from_matrices(
        cls,
        matrices: Sequence[np.ndarray],
        biases: Optional[Sequence[Optional[np.ndarray]]] = None,
        activations: Optional[Sequence[str]] = None,
        name: str = "model",
    ) -> "ModelGraph":
        """Build a linear chain from a stack of (n_out, n_in) matrices.

        Args:
            matrices: per-layer weight matrices, input to output.
            biases: optional per-layer bias vectors (``None`` entries skip
                the bias); must match ``matrices`` in length when given.
            activations: optional per-layer activation names; must match
                ``matrices`` in length when given.
            name: model label (not part of the content hash).

        Returns:
            A chain :class:`ModelGraph` with one ``layer{i}`` op per matrix.

        Raises:
            GraphError: on empty stacks, length mismatches or shape breaks.
        """
        if not matrices:
            raise GraphError("a model graph needs at least one op")
        if biases is not None and len(biases) != len(matrices):
            raise GraphError("biases must match the number of layers")
        if activations is not None and len(activations) != len(matrices):
            raise GraphError("activations must match the number of layers")
        graph = cls(name=name)
        previous: Tuple[str, ...] = ()
        for index, weights in enumerate(matrices):
            op = DenseOp(
                f"layer{index}",
                weights,
                bias=biases[index] if biases is not None else None,
                activation=activations[index] if activations is not None else "identity",
            )
            graph.add_op(op, inputs=previous)
            previous = (op.name,)
        return graph

    @classmethod
    def from_mlp(cls, model: MLP, name: str = "mlp") -> "ModelGraph":
        """Capture an :class:`~repro.core.nn.MLP` as a graph (one op per layer)."""
        return cls.from_matrices(
            [layer.weights for layer in model.layers],
            biases=[layer.biases for layer in model.layers],
            activations=[layer.activation for layer in model.layers],
            name=name,
        )

    # ------------------------------------------------------------------ #
    # traversal
    # ------------------------------------------------------------------ #
    def topological_order(self) -> List[GraphOp]:
        """Ops in dependency order, deterministically.

        Kahn's algorithm with name-sorted ready sets: the order depends
        only on the graph's nodes and edges, never on insertion order —
        which is what keeps :meth:`graph_hash` (and therefore the plan
        cache) stable when the same DAG is built in a different order.

        Raises:
            GraphError: when the graph contains a dependency cycle.
        """
        if self._order is None:
            remaining = {name: set(deps) for name, deps in self._inputs.items()}
            order: List[str] = []
            while remaining:
                ready = sorted(
                    name for name, deps in remaining.items() if not deps
                )
                if not ready:
                    raise GraphError(
                        f"graph {self.name!r} has a dependency cycle among "
                        f"{sorted(remaining)}"
                    )
                for name in ready:
                    order.append(name)
                    del remaining[name]
                for deps in remaining.values():
                    deps.difference_update(ready)
            self._order = order
        return [self._ops[name] for name in self._order]

    def is_chain(self) -> bool:
        """True when the graph is one linear op chain (fan-in/out <= 1)."""
        consumers: Dict[str, int] = {name: 0 for name in self._ops}
        roots = 0
        for name, deps in self._inputs.items():
            if len(deps) > 1:
                return False
            if not deps:
                roots += 1
            for producer in deps:
                consumers[producer] += 1
        return roots == 1 and all(count <= 1 for count in consumers.values())

    def sinks(self) -> List[str]:
        """Names of ops no other op consumes, name-sorted."""
        consumed: Set[str] = set()
        for deps in self._inputs.values():
            consumed.update(deps)
        return sorted(name for name in self._ops if name not in consumed)

    def output_name(self) -> str:
        """The designated output op's name.

        Defaults to the unique sink; multi-sink graphs must designate one
        with :meth:`set_output`.

        Raises:
            GraphError: on empty graphs, or multi-sink graphs with no
                explicit output.
        """
        if self._output is not None:
            return self._output
        sinks = self.sinks()
        if not sinks:
            raise GraphError(f"graph {self.name!r} has no ops")
        if len(sinks) > 1:
            raise GraphError(
                f"graph {self.name!r} has multiple sinks {sinks}; designate "
                f"one with set_output()"
            )
        return sinks[0]

    def live_op_names(self) -> Set[str]:
        """Names of ops the designated output transitively depends on."""
        live: Set[str] = set()
        frontier = [self.output_name()]
        while frontier:
            name = frontier.pop()
            if name in live:
                continue
            live.add(name)
            frontier.extend(self._inputs[name])
        return live

    def schedule(self) -> List[ScheduleStep]:
        """The deterministic topological schedule both executors lower.

        Dead ops (never consumed by the designated output) are pruned;
        each step records the buffers whose **last consumer** it is, so an
        executor frees intermediates as branches retire instead of keeping
        the whole DAG's activations resident.  Root steps read the graph
        input (buffer :data:`INPUT_BUFFER`); every live root must agree on
        the input feature length.

        The computed schedule is cached (invalidated by :meth:`add_op` /
        :meth:`set_output`); callers receive a fresh list over the shared
        immutable steps.

        Raises:
            GraphError: on cycles, unresolved outputs or root input-length
                disagreements.
        """
        if self._schedule is not None:
            return list(self._schedule)
        live = self.live_op_names()
        order = [op for op in self.topological_order() if op.name in live]
        root_sizes = {
            op.name: op.n_inputs for op in order if not self._inputs[op.name]
        }
        if len(set(root_sizes.values())) > 1:
            raise GraphError(
                f"graph {self.name!r} roots disagree on the input feature "
                f"length: {root_sizes}"
            )
        output = self.output_name()
        last_use: Dict[str, int] = {}
        for index, op in enumerate(order):
            for dep in self._inputs[op.name] or (INPUT_BUFFER,):
                last_use[dep] = index
        steps: List[ScheduleStep] = []
        for index, op in enumerate(order):
            deps = self._inputs[op.name] or (INPUT_BUFFER,)
            release = tuple(sorted(
                {dep for dep in deps if last_use[dep] == index and dep != output}
            ))
            steps.append(
                ScheduleStep(op=op, inputs=self._inputs[op.name], release=release)
            )
        self._schedule = steps
        return list(steps)

    def op(self, name: str) -> GraphOp:
        """The op registered under ``name`` (raises ``KeyError`` if absent)."""
        return self._ops[name]

    def __len__(self) -> int:
        """Number of ops in the graph (dead branches included)."""
        return len(self._ops)

    def __iter__(self):
        """Iterate ops in deterministic topological order."""
        return iter(self.topological_order())

    @property
    def n_inputs(self) -> int:
        """Feature length of the graph input (shared by every live root)."""
        live = self.live_op_names()
        for op in self.topological_order():
            if op.name in live and not self._inputs[op.name]:
                return op.n_inputs
        raise GraphError(f"graph {self.name!r} has no root ops")

    @property
    def n_outputs(self) -> int:
        """Feature length of the designated output op."""
        return self._ops[self.output_name()].n_outputs

    # ------------------------------------------------------------------ #
    # content hash
    # ------------------------------------------------------------------ #
    def graph_hash(self) -> str:
        """Content hash over ops *and* topology (ordered edges by position).

        Two graphs with the same layer bytes but different wiring hash
        differently, edge **order** counts (concat fan-ins are ordered),
        and the *resolved* output designation is folded in — explicitly
        setting the sole sink hashes the same as relying on the default,
        so redundant ``set_output`` calls never defeat the plan cache;
        neither do model renames or insertion-order changes.  Multi-sink
        graphs with no designated output hash on structure alone (they
        cannot execute until one is designated).
        """
        if self._hash is None:
            order = self.topological_order()
            position = {op.name: index for index, op in enumerate(order)}
            digest = hashlib.sha1()
            for op in order:
                digest.update(op.op_hash().encode())
                for producer in self._inputs[op.name]:
                    digest.update(str(position[producer]).encode())
                    digest.update(b",")
                digest.update(b"|")
            try:
                output = self.output_name()
            except GraphError:
                output = None
            if output is not None:
                digest.update(f"out:{position[output]}".encode())
            self._hash = digest.hexdigest()
        return self._hash

    # ------------------------------------------------------------------ #
    # reference execution
    # ------------------------------------------------------------------ #
    def reference_forward(
        self,
        columns: np.ndarray,
        matmul: Optional[Callable[[np.ndarray, np.ndarray], np.ndarray]] = None,
    ) -> np.ndarray:
        """Direct per-op execution of the schedule (the compiler oracle).

        Executes the same pruned topological schedule the plan executors
        lower, but inline: dense products through ``matmul`` (exact
        ``weights @ columns`` by default — pass a backend's ``matmul`` to
        oracle a compiled plan on that backend), glue ops as plain NumPy.

        Args:
            columns: ``(n_inputs,)`` vector or ``(n_inputs, batch)`` block.
            matmul: optional ``(weights, columns) -> product`` override
                for dense ops.

        Returns:
            The designated output's ``(n_outputs, batch)`` column block.
        """
        out = np.asarray(columns, dtype=float)
        if out.ndim == 1:
            out = out[:, None]
        buffers: Dict[str, np.ndarray] = {INPUT_BUFFER: out}
        output = self.output_name()
        for step in self.schedule():
            sources = [buffers[name] for name in step.inputs or (INPUT_BUFFER,)]
            op = step.op
            if matmul is not None and isinstance(op, DenseOp):
                result = op.finish(matmul(op.weights, sources[0]))
            else:
                result = op.apply(sources)
            buffers[op.name] = result
            for name in step.release:
                del buffers[name]
        return buffers[output]

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<ModelGraph {self.name!r} ops={len(self._ops)} "
            f"hash={self.graph_hash()[:10]}>"
        )
