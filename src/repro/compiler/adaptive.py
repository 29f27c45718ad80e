"""Adaptive replanning: the monitor → refit → recompile control loop.

Boot-time calibration is right exactly once.  The paper's augmented
photonic accelerators drift in deployment — thermal crosstalk, bias
aging, bus contention that wasn't there on the calibration bench — and
the serving layer's observed batch width rarely matches the width a plan
was compiled for.  :class:`AdaptiveReplanner` closes both loops:

* **Cost-model drift** — production offloads stream their measured
  :class:`~repro.system.soc.WorkloadReport` pipeline phases into a
  bounded sample window (:meth:`AdaptiveReplanner.observe_offload`).
  When the window's mean relative predicted-cycle error exceeds a
  threshold with at least ``min_samples`` samples — or the attached
  :class:`~repro.obs.drift.DriftMonitor` raises flags — the replanner
  refits a fresh :class:`~repro.compiler.costmodel.SoCCostModel` from
  the window (:meth:`~repro.compiler.costmodel.SoCCostModel.refit`).
  The refit changes the fitted coefficients, which changes
  :func:`~repro.compiler.execute.cost_model_fingerprint`, which changes
  every ``(graph_hash, fingerprint)`` plan-cache key — stale plans can
  never be returned again, and the next compile re-runs
  :func:`~repro.compiler.partition.choose_sharding` against the
  refreshed model.
* **Batch-width drift** — the serving layer feeds observed fused batch
  widths (:meth:`AdaptiveReplanner.observe_batch`, wired through
  ``InferenceServer(replanner=...)``).  When the deterministic expected
  width crosses a sharding flip point — the
  :func:`~repro.compiler.partition.sharding_signature` of a managed
  plan's shapes changes at the new width — the plan recompiles once and
  swaps in atomically (a Python reference rebind; the old plan serves
  every request started before the swap).  Width jitter inside a
  sharding region never recompiles.

Every decision is deterministic: no RNG, no wall-clock — the decision
trace (:meth:`AdaptiveReplanner.decision_trace`) of a replayed workload
is bitwise identical.  And because sharding only moves *where* tiles
execute, never *what* they compute, compiled outputs are bitwise
identical before and after any replan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import asdict, dataclass
from typing import Callable, Deque, Dict, List, Optional, Tuple

from repro.compiler.costmodel import (
    CalibrationSample,
    ReplicaProfile,
    SoCCostModel,
    replica_cost_fn,
)
from repro.compiler.execute import (
    DEFAULT_PLAN_CACHE,
    PlanCache,
    SoCPlan,
    compile_for_soc,
    cost_model_fingerprint,
)
from repro.compiler.partition import sharding_signature


@dataclass(frozen=True)
class RefitEvent:
    """One cost-model refit decision in the replay trace.

    Attributes:
        generation: model generation after the refit (boot model is 0).
        n_samples: window size the refit regressed over.
        error_before: mean relative pipelined-cycle error of the retired
            model over the window.
        error_after: the refitted model's error over the same window.
        fingerprint: the refitted model's coefficient fingerprint — the
            hardware-fingerprint bump that invalidates stale plan-cache
            keys.
        drift_flags: number of :class:`~repro.obs.drift.DriftMonitor`
            flags pending when the refit fired.
    """

    generation: int
    n_samples: int
    error_before: float
    error_after: float
    fingerprint: str
    drift_flags: int = 0


@dataclass(frozen=True)
class ReplanEvent:
    """One plan recompilation decision in the replay trace.

    Attributes:
        generation: model generation the new plan was compiled against.
        graph_hash: the managed graph that recompiled.
        reason: ``"width-flip"`` (observed batch width crossed a sharding
            flip point) or ``"refit"`` (a cost-model refit changed the
            sharding decisions at the current width).
        old_width / new_width: batch widths of the retired and new plans.
        old_signature / new_signature: per-shape ``(strategy, k_shards)``
            sharding signatures — unequal by construction, that's what
            triggered the recompile.
        fingerprint: the new plan's hardware fingerprint.
    """

    generation: int
    graph_hash: str
    reason: str
    old_width: int
    new_width: int
    old_signature: Tuple[Tuple[str, int], ...]
    new_signature: Tuple[Tuple[str, int], ...]
    fingerprint: str


@dataclass
class ManagedPlan:
    """One graph under adaptive management and its active compiled plan.

    Attributes:
        graph: the managed :class:`~repro.compiler.graph.ModelGraph`.
        soc: the SoC cluster the plan targets.
        tile_rows / fuse: compile options pinned at :meth:`manage` time.
        plan: the active :class:`~repro.compiler.execute.SoCPlan` —
            rebinding this reference IS the atomic swap.
        width: batch width the active plan was compiled for.
        shapes: the plan's dense ``(n_rows, n_inner)`` offload shapes.
        signature: sharding signature of the active plan at ``width``.
        replans: recompiles performed since :meth:`manage`.
    """

    graph: object
    soc: object
    tile_rows: Optional[int]
    fuse: str
    plan: SoCPlan
    width: int
    shapes: Tuple[Tuple[int, int], ...]
    signature: Tuple[Tuple[str, int], ...]
    replans: int = 0


def _plan_shapes(plan: SoCPlan) -> Tuple[Tuple[int, int], ...]:
    """The dense ``(n_rows, n_inner)`` shapes a plan offloads, in order."""
    return tuple(
        (step.weights.shape[0], step.weights.shape[1])
        for step in plan.steps
        if step.weights is not None
    )


class AdaptiveReplanner:
    """Online recalibration and drift-triggered plan recompilation.

    Deterministic by construction: decisions read only the sample/width
    windows and the current model — no RNG, no clocks — so replaying the
    same observation sequence yields a bitwise-identical
    :meth:`decision_trace`.

    Args:
        soc: the serving SoC whose offloads feed the sample window (its
            accelerator roster supplies the refit device types).
        cost_model: the boot-time calibrated model (generation 0).
        drift_monitor: optional :class:`~repro.obs.drift.DriftMonitor`;
            its flags are consumed as an additional refit trigger and it
            is reset after each refit (old-model errors say nothing about
            the new model).
        refit_threshold: mean relative pipelined-cycle error over the
            window above which a refit fires (strictly greater).
        min_samples: refits never fire below this window size, however
            large the error — guards against one-shot noise.
        max_samples: bounded sample window length (oldest evicted).
        width_window: bounded observed-batch-width window length.
        cache: plan cache shared with ``compile_for_soc`` callers; refits
            invalidate managed graphs' stale entries in it.
    """

    def __init__(
        self,
        soc,
        cost_model: SoCCostModel,
        drift_monitor=None,
        refit_threshold: float = 0.10,
        min_samples: int = 8,
        max_samples: int = 64,
        width_window: int = 32,
        cache: Optional[PlanCache] = DEFAULT_PLAN_CACHE,
    ):
        if refit_threshold <= 0:
            raise ValueError("refit_threshold must be positive")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if max_samples < min_samples:
            raise ValueError("max_samples must be >= min_samples")
        if not getattr(soc, "accelerators", None):
            raise ValueError("adaptive replanning needs an SoC with accelerators")
        self.soc = soc
        self.model = cost_model
        self.drift_monitor = drift_monitor
        self.refit_threshold = float(refit_threshold)
        self.min_samples = int(min_samples)
        self.cache = cache
        self.generation = 0
        self.events: List[object] = []
        self._samples: Deque[CalibrationSample] = deque(maxlen=int(max_samples))
        self._widths: Deque[int] = deque(maxlen=int(width_window))
        self._plans: Dict[str, ManagedPlan] = {}
        self._profiles: Dict[str, ReplicaProfile] = {}
        self._device_types = [pe.device_type for pe in soc.accelerators]

    # ------------------------------------------------------------------ #
    # observation feeds
    # ------------------------------------------------------------------ #
    def observe_offload(
        self, shape: Tuple[int, int, int], report, tile_rows: Optional[int] = None
    ) -> None:
        """Record one production offload's measured pipeline phases.

        K-sharded and accounting-free reports are ignored — the refit
        regresses row-shard features, so only row-sharded pipelines are
        valid samples.  Wired from ``SoCGemmEngine(replanner=...)``.

        Args:
            shape: the offloaded ``(n_rows, n_inner, n_cols)`` shape.
            report: the :class:`~repro.system.soc.WorkloadReport`.
            tile_rows: row-tiling override the offload ran with.
        """
        try:
            sample = CalibrationSample.from_report(shape, report, tile_rows=tile_rows)
        except ValueError:
            return
        self._samples.append(sample)

    def observe_batch(self, n_columns: int) -> None:
        """Record one served fused-batch width.

        Wired from ``InferenceServer(replanner=...)`` via the replica
        batch observers; offline callers can feed widths directly.
        """
        if n_columns >= 1:
            self._widths.append(int(n_columns))

    def ingest_profiles(self, profiles: Dict[str, ReplicaProfile]) -> None:
        """Adopt a fresh ``profile_replicas`` result (replacing the old one).

        Scoring callables built from :meth:`current_profiles` see the new
        profiles immediately — no scheduler rebuild required.
        """
        self._profiles = dict(profiles)

    # ------------------------------------------------------------------ #
    # read-through views
    # ------------------------------------------------------------------ #
    def current_profiles(self) -> Dict[str, ReplicaProfile]:
        """The live replica-profile mapping (see :meth:`ingest_profiles`)."""
        return self._profiles

    def cost_fn(self) -> Callable[[object], float]:
        """A read-through scorer for ``ReplicaScheduler(policy="cost-based")``.

        Built over :meth:`current_profiles` (the callable form of
        :func:`~repro.compiler.costmodel.replica_cost_fn`), so cost-based
        routing sees every :meth:`ingest_profiles` refresh without the
        scheduler being rebuilt.
        """
        return replica_cost_fn(self.current_profiles)

    def fingerprint(self) -> str:
        """The current model's coefficient fingerprint (bumps on refit)."""
        return cost_model_fingerprint(self.model)

    def expected_width(self) -> Optional[int]:
        """Deterministic expected batch width from the observed window.

        The round of the window mean (always >= 1), or ``None`` before
        any width has been observed.
        """
        if not self._widths:
            return None
        return max(1, int(round(sum(self._widths) / len(self._widths))))

    def window_error(self, model: Optional[SoCCostModel] = None) -> Optional[float]:
        """Mean relative pipelined-cycle error of ``model`` over the window.

        Args:
            model: the model to score (default: the current one).

        Returns:
            ``mean(|measured - predicted| / measured)`` across the sample
            window, or ``None`` when the window is empty.
        """
        model = model if model is not None else self.model
        if not self._samples:
            return None
        total = 0.0
        for sample in self._samples:
            predicted = model.predict_gemm(
                *sample.shape, tile_rows=sample.tile_rows
            ).pipelined_cycles
            measured = sample.pipelined_cycles
            total += abs(measured - predicted) / max(measured, 1.0)
        return total / len(self._samples)

    # ------------------------------------------------------------------ #
    # plan management
    # ------------------------------------------------------------------ #
    def manage(
        self,
        graph,
        soc=None,
        tile_rows: Optional[int] = None,
        fuse: str = "auto",
        n_columns: Optional[int] = None,
    ) -> SoCPlan:
        """Compile ``graph`` and put its plan under adaptive management.

        Args:
            graph: the :class:`~repro.compiler.graph.ModelGraph` to serve.
            soc: target cluster (default: the replanner's SoC).
            tile_rows / fuse: compile options, pinned for every replan.
            n_columns: initial batch width (default: the observed
                expected width, else 1).

        Returns:
            The active compiled :class:`~repro.compiler.execute.SoCPlan`.
        """
        soc = soc if soc is not None else self.soc
        width = n_columns if n_columns is not None else (self.expected_width() or 1)
        plan = compile_for_soc(
            graph,
            soc,
            cost_model=self.model,
            tile_rows=tile_rows,
            n_columns=width,
            fuse=fuse,
            cache=self.cache,
        )
        shapes = _plan_shapes(plan)
        self._plans[plan.graph_hash] = ManagedPlan(
            graph=graph,
            soc=soc,
            tile_rows=tile_rows,
            fuse=fuse,
            plan=plan,
            width=width,
            shapes=shapes,
            signature=sharding_signature(
                shapes,
                width,
                len(soc.accelerators),
                cost_model=self.model,
                tile_rows=tile_rows,
            ),
        )
        return plan

    def active_plan(self, graph_or_hash) -> SoCPlan:
        """The currently-served plan of a managed graph.

        Args:
            graph_or_hash: the managed graph or its ``graph_hash`` string.

        Raises:
            KeyError: when the graph is not under management.
        """
        key = (
            graph_or_hash
            if isinstance(graph_or_hash, str)
            else graph_or_hash.graph_hash()
        )
        return self._plans[key].plan

    def managed(self) -> Dict[str, ManagedPlan]:
        """The managed-plan registry keyed by graph hash (live view)."""
        return self._plans

    # ------------------------------------------------------------------ #
    # decisions
    # ------------------------------------------------------------------ #
    def maybe_refit(self) -> Optional[RefitEvent]:
        """Refit the cost model if the sample window says it drifted.

        Fires only with at least ``min_samples`` samples AND (window
        error strictly above ``refit_threshold`` OR the attached drift
        monitor holding flags).  On refit: the model reference swaps to
        the freshly fitted one (bumping :meth:`fingerprint`, so every
        ``(graph_hash, fingerprint)`` plan-cache key changes), managed
        graphs' stale cache entries are invalidated, the drift monitor is
        reset, and managed plans whose sharding decisions change under
        the new model recompile immediately.

        Returns:
            The :class:`RefitEvent`, or ``None`` when no refit fired.
        """
        if len(self._samples) < self.min_samples:
            return None
        error_before = self.window_error()
        n_flags = len(self.drift_monitor.flags()) if self.drift_monitor else 0
        if error_before <= self.refit_threshold and n_flags == 0:
            return None
        refitted = self.model.refit(
            list(self._samples), device_types=self._device_types
        )
        error_after = self.window_error(model=refitted)
        self.generation += 1
        self.model = refitted
        if self.drift_monitor is not None:
            self.drift_monitor.reset()
        if self.cache is not None:
            for graph_hash in self._plans:
                self.cache.invalidate(graph_hash=graph_hash)
        event = RefitEvent(
            generation=self.generation,
            n_samples=len(self._samples),
            error_before=error_before,
            error_after=error_after,
            fingerprint=self.fingerprint(),
            drift_flags=n_flags,
        )
        self.events.append(event)
        for entry in self._plans.values():
            self._replan(entry, entry.width, reason="refit")
        return event

    def maybe_replan(self) -> List[ReplanEvent]:
        """Recompile managed plans whose width crossed a sharding flip point.

        The observed :meth:`expected_width` is compared against each
        managed plan's compiled width; a plan recompiles only when the
        :func:`~repro.compiler.partition.sharding_signature` at the new
        width differs from the active plan's — width jitter inside a
        sharding region is free.

        Returns:
            The :class:`ReplanEvent` list (empty when nothing flipped).
        """
        width = self.expected_width()
        if width is None:
            return []
        events = []
        for entry in self._plans.values():
            if width == entry.width:
                continue
            event = self._replan(entry, width, reason="width-flip")
            if event is not None:
                events.append(event)
        return events

    def poll(self) -> List[object]:
        """Run one decision round (refit check, then replan check).

        Call between serving batches — from a scheduler idle hook, a
        maintenance timer, or inline in a driver loop.  Deterministic:
        the same windows produce the same decisions.

        Returns:
            The events emitted by this round, in order.
        """
        before = len(self.events)
        self.maybe_refit()
        self.maybe_replan()
        return self.events[before:]

    def decision_trace(self) -> List[Dict]:
        """The full decision history as plain-JSON dicts (replay-comparable).

        Two runs fed identical observation sequences produce identical
        traces — the bitwise-replay contract the determinism tests pin.
        """
        trace = []
        for event in self.events:
            record = asdict(event)
            record["kind"] = "refit" if isinstance(event, RefitEvent) else "replan"
            if "old_signature" in record:
                record["old_signature"] = [list(pair) for pair in record["old_signature"]]
                record["new_signature"] = [list(pair) for pair in record["new_signature"]]
            trace.append(record)
        return trace

    # ------------------------------------------------------------------ #
    # internals
    # ------------------------------------------------------------------ #
    def _replan(
        self, entry: ManagedPlan, new_width: int, reason: str
    ) -> Optional[ReplanEvent]:
        """Recompile ``entry`` at ``new_width`` if its sharding flips."""
        new_signature = sharding_signature(
            entry.shapes,
            new_width,
            len(entry.soc.accelerators),
            cost_model=self.model,
            tile_rows=entry.tile_rows,
        )
        if new_signature == entry.signature:
            return None
        plan = compile_for_soc(
            entry.graph,
            entry.soc,
            cost_model=self.model,
            tile_rows=entry.tile_rows,
            n_columns=new_width,
            fuse=entry.fuse,
            cache=self.cache,
        )
        event = ReplanEvent(
            generation=self.generation,
            graph_hash=entry.plan.graph_hash,
            reason=reason,
            old_width=entry.width,
            new_width=new_width,
            old_signature=entry.signature,
            new_signature=new_signature,
            fingerprint=plan.fingerprint,
        )
        # the swap: every request started before this line runs the old
        # plan to completion; every request after it runs the new one
        entry.plan = plan
        entry.width = new_width
        shapes = _plan_shapes(plan)
        if shapes != entry.shapes:  # fusion decisions moved with the width
            entry.shapes = shapes
            new_signature = sharding_signature(
                shapes,
                new_width,
                len(entry.soc.accelerators),
                cost_model=self.model,
                tile_rows=entry.tile_rows,
            )
        entry.signature = new_signature
        entry.replans += 1
        self.events.append(event)
        return event
