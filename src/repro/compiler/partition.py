"""Partitioning and placement: sharding decisions and op-to-replica maps.

Two placement axes:

* **Within one layer** — :func:`choose_sharding` picks between row sharding
  (:func:`~repro.system.soc.plan_shards`) and K-dimension sharding with
  partial-product accumulation (:func:`~repro.system.soc.plan_k_shards`)
  for a GeMM on an ``n_pes`` cluster.  The decision is **batch-aware**:
  with a calibrated :class:`~repro.compiler.costmodel.SoCCostModel` every
  candidate partition (rows, and each viable K-slice count) is predicted
  at the expected micro-batch width ``n_cols`` — the K-shard reduction and
  the duplicated-input DMA both scale with the batch, so the best plan at
  batch 1 is often not the best plan at batch 32.  Without a model a
  shape heuristic stands in (K-sharding wins when there are too few
  output rows to keep every PE busy).  :func:`expected_batch_width`
  bridges the serving layer: it turns a live
  :class:`~repro.serving.batching.MicroBatcher` (or its replica) into the
  batch width the decisions should be optimised for.
* **Across layers** — :func:`place_graph` assigns each *placeable* op of a
  :class:`~repro.compiler.graph.ModelGraph` to a serving replica using the
  measured :class:`~repro.compiler.costmodel.ReplicaProfile` costs:
  ``min-cost`` sends every op to its cheapest replica, ``balanced`` runs
  greedy list scheduling on predicted finish times so heavy chains spread
  across comparable replicas (and independent DAG branches land on
  different replicas, which is what the pool executor's level-parallel
  dispatch exploits).  Glue ops (split/concat/add) execute host-side and
  are never placed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from numbers import Integral
from typing import Dict, Optional, Sequence, Tuple, Union

from repro.compiler.costmodel import ReplicaProfile, SoCCostModel
from repro.compiler.graph import ModelGraph

PLACEMENT_STRATEGIES = ("min-cost", "balanced")


@dataclass(frozen=True)
class FusionDecision:
    """Whether a same-input dense fan-out is fused into one offload.

    Attributes:
        fuse: True when the branches lower as one vertically-stacked GeMM.
        predicted_fused_cycles: cost-model estimate of the stacked offload
            (None when the decision came from the shape heuristic).
        predicted_serial_cycles: cost-model estimate of offloading the
            branches one after the other (None without a model).
    """

    fuse: bool
    predicted_fused_cycles: Optional[float] = None
    predicted_serial_cycles: Optional[float] = None


@dataclass(frozen=True)
class ShardingDecision:
    """How one GeMM layer is split across the PE cluster.

    Attributes:
        strategy: ``"rows"`` or ``"k"``.
        k_shards: K-slice count (1 under row sharding).
        predicted_cycles: cost-model estimate backing the choice (None when
            the decision came from the shape heuristic).
    """

    strategy: str
    k_shards: int = 1
    predicted_cycles: Optional[float] = None


def expected_batch_width(source: Union[int, object]) -> int:
    """Resolve the micro-batch width a sharding decision should assume.

    The serving layer owns the fusing: a compiled plan executes whatever
    column width the :class:`~repro.serving.batching.MicroBatcher` fuses,
    so sharding decisions tuned for single columns mis-predict under load.
    This bridges the two layers without a hard import:

    Args:
        source: either an integer batch width (a NumPy integer counts, a
            ``bool`` does not), or a serving object — a
            :class:`~repro.serving.scheduler.Replica` (unwrapped to its
            batcher) or a :class:`~repro.serving.batching.MicroBatcher`.
            Batchers report their observed mean fused batch when they have
            served traffic, else their configured ``max_batch`` bound.

    Returns:
        The batch width, always >= 1.

    Raises:
        ValueError: for widths below 1, non-integers (``2.7``, ``"3"``,
            ``True``) and objects that carry no batching information.
    """
    if hasattr(source, "expected_columns"):  # a Replica or MicroBatcher
        return max(1, int(source.expected_columns()))
    if not isinstance(source, Integral) or isinstance(source, bool):
        raise ValueError(
            f"cannot derive a batch width from {source!r}: pass an int, a "
            f"MicroBatcher or a Replica"
        )
    if source < 1:
        raise ValueError(f"batch width must be >= 1, got {source}")
    return int(source)


def choose_sharding(
    n_rows: int,
    n_inner: int,
    n_cols: int,
    n_pes: int,
    cost_model: Optional[SoCCostModel] = None,
    tile_rows: Optional[int] = None,
) -> ShardingDecision:
    """Pick rows- vs K-sharding for one (M, K, N) GeMM on ``n_pes`` PEs.

    With a calibrated cost model the choice is an argmin over predicted
    pipelined cycles of **every candidate partition** — row sharding and
    each viable K-slice count (2 … ``min(n_pes, n_inner)``) — evaluated at
    the expected batch width ``n_cols`` (see :func:`expected_batch_width`
    for deriving it from a live batcher).  Ties prefer row sharding, then
    fewer K-slices, so the decision is deterministic.

    Args:
        n_rows: output rows M of the GeMM.
        n_inner: inner (reduction) dimension K.
        n_cols: expected batch width N the plan will execute at.
        n_pes: accelerator count of the target cluster.
        cost_model: calibrated predictor; ``None`` falls back to the
            batch-oblivious shape heuristic.
        tile_rows: row-tiling override forwarded to the predictions.

    Returns:
        The winning :class:`ShardingDecision`.

    Raises:
        ValueError: for non-positive GeMM dimensions or PE counts.
    """
    if min(n_rows, n_inner, n_cols) < 1:
        raise ValueError(
            f"GeMM dimensions must be positive, got "
            f"(M, K, N) = ({n_rows}, {n_inner}, {n_cols})"
        )
    if n_pes < 1:
        raise ValueError("n_pes must be >= 1")
    if n_pes == 1 or n_inner < 2:
        predicted = None
        if cost_model is not None:
            predicted = cost_model.predict_gemm(
                n_rows, n_inner, n_cols, n_pes=n_pes, tile_rows=tile_rows
            ).pipelined_cycles
        return ShardingDecision(strategy="rows", k_shards=1, predicted_cycles=predicted)
    max_k = min(n_pes, n_inner)
    if cost_model is not None:
        best = ShardingDecision(
            strategy="rows",
            k_shards=1,
            predicted_cycles=cost_model.predict_gemm(
                n_rows, n_inner, n_cols, n_pes=n_pes, tile_rows=tile_rows
            ).pipelined_cycles,
        )
        for k_shards in range(2, max_k + 1):
            predicted = cost_model.predict_gemm(
                n_rows, n_inner, n_cols, n_pes=n_pes, k_shards=k_shards,
                tile_rows=tile_rows,
            ).pipelined_cycles
            if predicted < best.predicted_cycles:
                best = ShardingDecision(
                    strategy="k", k_shards=k_shards, predicted_cycles=predicted
                )
        return best
    # heuristic: rows-sharding starves PEs when M < n_pes (some get empty
    # shards) — split K instead whenever it is wide enough to share.  The
    # heuristic is batch-oblivious by construction; calibrate a cost model
    # for batch-aware decisions.
    if n_rows < n_pes and n_inner >= n_pes:
        return ShardingDecision(strategy="k", k_shards=max_k)
    return ShardingDecision(strategy="rows", k_shards=1)


def sharding_signature(
    shapes: Sequence[Tuple[int, int]],
    n_cols: int,
    n_pes: int,
    cost_model: Optional[SoCCostModel] = None,
    tile_rows: Optional[int] = None,
) -> Tuple[Tuple[str, int], ...]:
    """Per-shape ``(strategy, k_shards)`` decisions at one batch width.

    The adaptive replanner's flip detector: two signatures of the same
    ``(rows, inner)`` shape list taken at different widths (or under
    different cost models) are equal exactly when recompiling would
    reproduce the same partitioning — so a plan only recompiles when an
    observed width (or a refit) actually crosses a sharding flip point,
    never on width jitter within a region.

    Args:
        shapes: the dense ``(n_rows, n_inner)`` shapes of a plan's offload
            steps, in step order.
        n_cols: the batch width to evaluate the decisions at.
        n_pes: accelerator count of the target cluster.
        cost_model: calibrated predictor forwarded to
            :func:`choose_sharding`.
        tile_rows: row-tiling override forwarded to the predictions.

    Returns:
        A tuple of ``(strategy, k_shards)`` pairs, one per shape.
    """
    return tuple(
        (decision.strategy, decision.k_shards)
        for decision in (
            choose_sharding(
                rows, inner, n_cols, n_pes, cost_model=cost_model, tile_rows=tile_rows
            )
            for rows, inner in shapes
        )
    )


def choose_fusion(
    branch_shapes,
    fused_inner: int,
    n_cols: int,
    n_pes: int,
    cost_model: Optional[SoCCostModel] = None,
    tile_rows: Optional[int] = None,
    padded: bool = False,
) -> FusionDecision:
    """Decide whether a same-input dense fan-out fuses into one offload.

    Independent dense branches reading the same buffer can lower as a
    single vertically-stacked GeMM — one offload's driver/DMA cost instead
    of one per branch, with the output split back into branch rows on the
    host.  Whether that wins is a cost question: a plain fan-out stacks
    the weights for free, but split heads embed block-diagonally into the
    full source width and the zero padding is real streamed work.

    With a calibrated cost model the decision is
    :meth:`~repro.compiler.costmodel.SoCCostModel.predict_fanout` — fused
    and sequential each priced at their best sharding, at the expected
    batch width.  Without one the decision is **no fusion**: stacking
    changes which shardings are reachable (and padded split-head stacks
    stream zero columns as real work), so fusing is only worth it when a
    measured model predicts it — callers who want it anyway force it with
    ``compile_for_soc(..., fuse="always")``.

    Args:
        branch_shapes: per-branch ``(n_rows, n_inner)`` GeMM shapes.
        fused_inner: reduction width of the stacked offload.
        n_cols: expected batch width.
        n_pes: accelerator count of the target cluster.
        cost_model: calibrated predictor; ``None`` falls back to the
            heuristic.
        tile_rows: row-tiling override forwarded to the predictions.
        padded: True when branches embed block-diagonally (split heads)
            rather than stacking their exact weights (plain fan-out).

    Returns:
        The :class:`FusionDecision`.

    Raises:
        ValueError: for empty branch lists or non-positive dimensions.
    """
    branch_shapes = list(branch_shapes)
    if len(branch_shapes) < 2:
        raise ValueError("fusion needs at least two branches")
    for rows, inner in branch_shapes:
        if min(rows, inner) < 1:
            raise ValueError(
                f"branch dimensions must be positive, got ({rows}, {inner})"
            )
    if min(fused_inner, n_cols) < 1:
        raise ValueError("fused_inner and n_cols must be positive")
    if n_pes < 1:
        raise ValueError("n_pes must be >= 1")
    if cost_model is None:
        return FusionDecision(fuse=False)
    prediction = cost_model.predict_fanout(
        branch_shapes, fused_inner, n_cols, n_pes=n_pes, tile_rows=tile_rows
    )
    return FusionDecision(
        fuse=prediction.fuse,
        predicted_fused_cycles=prediction.fused_cycles,
        predicted_serial_cycles=prediction.serial_cycles,
    )


@dataclass
class Placement:
    """An op-to-replica assignment with its predicted per-replica load.

    Attributes:
        assignments: ``{op_name: replica_name}`` (placeable ops only).
        predicted_op_s: predicted service seconds per op.
        predicted_replica_s: predicted total seconds per replica.
        strategy: the placement strategy that produced it.
    """

    assignments: Dict[str, str] = field(default_factory=dict)
    predicted_op_s: Dict[str, float] = field(default_factory=dict)
    predicted_replica_s: Dict[str, float] = field(default_factory=dict)
    strategy: str = "min-cost"

    @property
    def predicted_total_s(self) -> float:
        """Summed predicted service seconds across every placed op."""
        return sum(self.predicted_op_s.values())


def place_graph(
    graph: ModelGraph,
    profiles: Dict[str, ReplicaProfile],
    strategy: str = "min-cost",
) -> Placement:
    """Assign every placeable op of ``graph`` to a replica by calibrated cost.

    Only live, *placeable* ops (dense layers — see
    :attr:`~repro.compiler.ops.GraphOp.placeable`) receive assignments;
    glue ops execute host-side and dead branches are pruned by the
    schedule.  ``min-cost`` routes each op to the replica with the lowest
    predicted service time for that op's arithmetic size; ``balanced``
    additionally tracks accumulated predicted load per replica and
    greedily minimises each op's predicted finish time, so pools of
    comparable replicas share deep chains — and independent branches of a
    DAG spread across replicas instead of hot-spotting the cheapest one.

    Args:
        graph: the model to place.
        profiles: measured per-replica service profiles.
        strategy: one of :data:`PLACEMENT_STRATEGIES`.

    Returns:
        The :class:`Placement` with assignments and predicted loads.

    Raises:
        ValueError: on empty profiles or unknown strategies.
    """
    if not profiles:
        raise ValueError("placement needs at least one replica profile")
    if strategy not in PLACEMENT_STRATEGIES:
        raise ValueError(
            f"unknown placement strategy {strategy!r} "
            f"(choose from {PLACEMENT_STRATEGIES})"
        )
    placement = Placement(strategy=strategy)
    accumulated: Dict[str, float] = {name: 0.0 for name in profiles}
    for step in graph.schedule():
        op = step.op
        if not op.placeable:
            continue
        costs = {
            name: profile.predict_request_s(op.macs)
            for name, profile in profiles.items()
        }
        if strategy == "min-cost":
            best = min(costs, key=lambda name: (costs[name], name))
        else:
            best = min(
                costs, key=lambda name: (accumulated[name] + costs[name], name)
            )
        placement.assignments[op.name] = best
        placement.predicted_op_s[op.name] = costs[best]
        accumulated[best] += costs[best]
    placement.predicted_replica_s = {
        name: load for name, load in accumulated.items() if load > 0.0
    }
    return placement
