"""Calibrated cost model: predicted cycles/seconds per tile, plan, replica.

Two calibration sources feed the compiler's placement decisions:

* **SoC side** — :meth:`SoCCostModel.calibrate` runs a handful of probe
  GeMMs through :meth:`~repro.system.soc.PhotonicSoC.run_tiled_gemm` and
  fits linear models of the measured ``WorkloadReport.pipeline`` phase
  cycles (DMA cycles against words/bursts/transfers moved, compute cycles
  against per-tile shape features, one fit per device type).  The fitted
  model predicts per-tile, per-stream and whole-plan cycles for both
  row-sharded and K-sharded partitions without running the simulator.
* **Serving side** — :func:`profile_engine` / :func:`profile_replicas`
  measure each replica engine's wall-clock service time (and, for
  :class:`~repro.serving.engine.SoCGemmEngine` replicas, the simulated
  ``offload_cycles`` per request).  :func:`replica_cost_fn` turns the
  profiles into the scoring callable the serving scheduler's
  ``cost-based`` routing policy consumes.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.serving.errors import ServingError
from repro.system.soc import plan_k_shards, plan_shards

#: Probe shapes (M, K, N) used by default calibration runs.
DEFAULT_PROBE_SHAPES = (
    (8, 8, 8),
    (16, 8, 8),
    (8, 16, 8),
    (8, 8, 16),
    (16, 16, 8),
    (12, 16, 16),
    (16, 16, 16),
)


def _tile_dma_features(
    rows: int, inner: int, cols: int, load_input: bool, words_per_burst: int
) -> np.ndarray:
    """DMA-phase features of one tile: [words, bursts, transfers].

    Matches the DMA engine's burst model: every transfer's first word per
    burst pays the full access latency, the rest stream one word/cycle —
    so measured DMA cycles are exactly linear in these features.
    """
    blocks = [rows * inner, rows * cols]  # weights in, outputs back
    if load_input:
        blocks.append(inner * cols)
    words = sum(blocks)
    bursts = sum(-(-block // words_per_burst) for block in blocks)
    return np.array([words, bursts, len(blocks)], dtype=float)

def _tile_compute_features(rows: int, inner: int, cols: int) -> np.ndarray:
    """Compute-phase features of one tile: [1, cols, macs, rows*inner].

    Covers both attached device types: the photonic PE's latency is affine
    in the streamed columns, the MAC array's in the MAC count.
    """
    return np.array([1.0, cols, rows * inner * cols, rows * inner], dtype=float)


def _shard_features(
    shape: Tuple[int, int, int],
    n_pes: int,
    device_types: Sequence[str],
    words_per_burst: int,
    tile_rows: Optional[int] = None,
) -> Tuple[np.ndarray, Dict[str, np.ndarray], int]:
    """Summed regression features of one row-sharded GeMM shape.

    Rebuilds the exact shard streams ``run_tiled_gemm`` would execute (via
    ``plan_shards``) and sums each tile's DMA and compute features, so a
    measured ``WorkloadReport.pipeline`` can be regressed against them.

    Returns:
        ``(dma_feature, per_device_compute_features, n_streams)`` where
        ``n_streams`` counts the PEs that received at least one tile.
    """
    n_rows, n_inner, n_cols = shape
    plans = plan_shards(n_rows, n_inner, n_cols, n_pes, 0, 0, 0, tile_rows=tile_rows)
    dma_feature = np.zeros(3)
    per_device: Dict[str, np.ndarray] = {}
    for device, descriptors in zip(device_types, plans):
        for descriptor in descriptors:
            dma_feature += _tile_dma_features(
                descriptor.rows,
                descriptor.inner,
                descriptor.cols,
                descriptor.load_input,
                words_per_burst,
            )
            per_device.setdefault(device, np.zeros(4))
            per_device[device] += _tile_compute_features(
                descriptor.rows, descriptor.inner, descriptor.cols
            )
    n_streams = sum(1 for descriptors in plans if descriptors)
    return dma_feature, per_device, n_streams


def _solve_phase_fits(
    samples: Sequence[CalibrationSample],
    n_pes: int,
    device_types: Sequence[str],
    words_per_burst: int,
) -> Tuple[np.ndarray, np.ndarray, Dict[str, np.ndarray]]:
    """Least-squares fits of the three phases (DMA, host, compute).

    The cost model's one fit: :meth:`SoCCostModel.calibrate` is its probe
    offloads fitted here, and :meth:`SoCCostModel.refit` fits production
    samples here, so the same measurements always yield the same
    coefficients.  Each sample's measured phases are regressed against
    the summed per-tile features of the shard streams its shape plans to.
    Homogeneous PE clusters fit one compute model per device type; mixed
    clusters are fitted jointly over per-device feature blocks (their tiles
    are split deterministically by ``plan_shards``, so each device's share
    of the features is known).
    """
    dma_rows, dma_targets = [], []
    host_rows, host_targets = [], []
    compute_rows: Dict[str, List[np.ndarray]] = {}
    compute_targets: Dict[str, List[float]] = {}
    for sample in samples:
        dma_feature, per_device, n_streams = _shard_features(
            sample.shape,
            n_pes,
            device_types,
            words_per_burst,
            tile_rows=sample.tile_rows,
        )
        dma_rows.append(dma_feature)
        dma_targets.append(sample.dma_cycles)
        host_rows.append([float(sample.n_tiles), float(n_streams), 1.0])
        # the host MMR-driver cost is whatever serial_cycles carries beyond
        # the two measured PE phases — exact by construction
        host_targets.append(
            sample.serial_cycles - sample.dma_cycles - sample.compute_cycles
        )
        if len(per_device) == 1:
            # homogeneous: the whole measured compute belongs to the device
            device = next(iter(per_device))
            compute_rows.setdefault(device, []).append(per_device[device])
            compute_targets.setdefault(device, []).append(sample.compute_cycles)
        else:
            stacked = np.concatenate(
                [
                    per_device.get(device, np.zeros(4))
                    for device in sorted(set(device_types))
                ]
            )
            compute_rows.setdefault("__mixed__", []).append(stacked)
            compute_targets.setdefault("__mixed__", []).append(sample.compute_cycles)
    dma_coeffs, *_ = np.linalg.lstsq(
        np.asarray(dma_rows), np.asarray(dma_targets, dtype=float), rcond=None
    )
    host_coeffs, *_ = np.linalg.lstsq(
        np.asarray(host_rows, dtype=float),
        np.asarray(host_targets, dtype=float),
        rcond=None,
    )
    compute_coeffs: Dict[str, np.ndarray] = {}
    if "__mixed__" in compute_rows:
        stacked_coeffs, *_ = np.linalg.lstsq(
            np.asarray(compute_rows["__mixed__"]),
            np.asarray(compute_targets["__mixed__"], dtype=float),
            rcond=None,
        )
        for offset, device in enumerate(sorted(set(device_types))):
            compute_coeffs[device] = stacked_coeffs[offset * 4 : (offset + 1) * 4]
    else:
        for device, rows in compute_rows.items():
            coeffs, *_ = np.linalg.lstsq(
                np.asarray(rows),
                np.asarray(compute_targets[device], dtype=float),
                rcond=None,
            )
            compute_coeffs[device] = coeffs
    return dma_coeffs, host_coeffs, compute_coeffs


@dataclass(frozen=True)
class CalibrationSample:
    """One production offload distilled to its measured pipeline phases.

    The adaptive replanner collects these from live
    :class:`~repro.system.soc.WorkloadReport` instances (row-sharded runs
    only — K-sharded reports mix in staging/accumulate phases the
    calibration features don't model) and feeds them to
    :meth:`SoCCostModel.refit`.

    Attributes:
        shape: the offloaded ``(n_rows, n_inner, n_cols)`` GeMM shape.
        dma_cycles: measured DMA phase cycles.
        compute_cycles: measured compute phase cycles.
        serial_cycles: measured back-to-back total (host target source).
        pipelined_cycles: measured overlapped total (error metric source).
        n_tiles: tiles the offload was split into.
        tile_rows: row-tiling override the offload ran with, if any.
    """

    shape: Tuple[int, int, int]
    dma_cycles: float
    compute_cycles: float
    serial_cycles: float
    pipelined_cycles: float
    n_tiles: int
    tile_rows: Optional[int] = None

    @classmethod
    def from_report(
        cls, shape: Tuple[int, int, int], report, tile_rows: Optional[int] = None
    ) -> "CalibrationSample":
        """Distill a row-sharded ``WorkloadReport`` into a sample.

        Raises:
            ValueError: when the report has no pipeline accounting or was
                K-sharded (its phases don't match row-shard features).
        """
        pipeline = getattr(report, "pipeline", None) or {}
        if not pipeline:
            raise ValueError("report carries no pipeline accounting")
        if int(pipeline.get("k_shards", 1)) > 1:
            raise ValueError("K-sharded reports cannot seed a row-shard refit")
        return cls(
            shape=tuple(int(dim) for dim in shape),
            dma_cycles=float(pipeline["dma_cycles"]),
            compute_cycles=float(pipeline["compute_cycles"]),
            serial_cycles=float(pipeline["serial_cycles"]),
            pipelined_cycles=float(pipeline["pipelined_cycles"]),
            n_tiles=int(pipeline["n_tiles"]),
            tile_rows=tile_rows,
        )


@dataclass
class StreamPrediction:
    """Predicted phase cycles of one PE's tile stream."""

    dma_cycles: float
    compute_cycles: float
    n_tiles: int

    @property
    def serial_cycles(self) -> float:
        """Back-to-back phase sum (no double-buffering overlap)."""
        return self.dma_cycles + self.compute_cycles

    @property
    def pipelined_cycles(self) -> float:
        """Double-buffered estimate: the slower phase hides the faster one.

        The first tile's DMA-in cannot overlap anything, so the stream pays
        one mean DMA latency of startup plus the dominant phase.
        """
        if self.n_tiles <= 0:
            return 0.0
        startup = self.dma_cycles / self.n_tiles
        return startup + max(
            self.dma_cycles - startup + self.compute_cycles / self.n_tiles,
            self.compute_cycles,
        )


@dataclass
class FanoutPrediction:
    """Predicted cycles of a same-input dense fan-out, fused vs sequential.

    Attributes:
        fused_cycles: best predicted cycles of ONE vertically-stacked
            offload covering every branch (rows = sum of branch rows,
            inner = the shared/fused reduction width).
        serial_cycles: sum of each branch's best predicted cycles when
            offloaded one after the other.
    """

    fused_cycles: float
    serial_cycles: float

    @property
    def fuse(self) -> bool:
        """True when the fused offload is predicted to be faster."""
        return self.fused_cycles < self.serial_cycles


@dataclass
class PlanPrediction:
    """Predicted cycles of a whole sharded-GeMM plan."""

    per_pe: List[StreamPrediction] = field(default_factory=list)
    extra_cycles: float = 0.0  # accumulation / host driver overheads

    @property
    def serial_cycles(self) -> float:
        """Every stream's phases back-to-back plus the fixed overheads."""
        return sum(stream.serial_cycles for stream in self.per_pe) + self.extra_cycles

    @property
    def pipelined_cycles(self) -> float:
        """Concurrent-stream estimate: the slowest PE plus fixed overheads."""
        if not self.per_pe:
            return self.extra_cycles
        return max(stream.pipelined_cycles for stream in self.per_pe) + self.extra_cycles


class SoCCostModel:
    """Per-tile DMA/compute cycle predictor fitted from measured pipelines.

    Attributes:
        dma_coeffs: coefficients over :func:`_tile_dma_features`.
        compute_coeffs: coefficients over :func:`_tile_compute_features`,
            one vector per accelerator ``device_type``.
        clock_hz: SoC clock used to convert cycles to seconds.
        n_pes: PE count of the calibrated configuration.
    """

    def __init__(
        self,
        dma_coeffs: np.ndarray,
        compute_coeffs: Dict[str, np.ndarray],
        clock_hz: float = 1e9,
        n_pes: int = 1,
        words_per_burst: int = 8,
        host_coeffs: Optional[np.ndarray] = None,
    ):
        self.dma_coeffs = np.asarray(dma_coeffs, dtype=float)
        self.compute_coeffs = {
            name: np.asarray(coeffs, dtype=float)
            for name, coeffs in compute_coeffs.items()
        }
        self.clock_hz = float(clock_hz)
        self.n_pes = int(n_pes)
        self.words_per_burst = int(words_per_burst)
        #: host MMR-driver cycles against [n_tiles, n_streams, 1]
        self.host_coeffs = (
            np.asarray(host_coeffs, dtype=float)
            if host_coeffs is not None
            else np.zeros(3)
        )

    # ------------------------------------------------------------------ #
    # calibration
    # ------------------------------------------------------------------ #
    @classmethod
    def calibrate(
        cls,
        soc,
        probe_shapes: Sequence[Tuple[int, int, int]] = DEFAULT_PROBE_SHAPES,
        value_range: int = 4,
        rng_seed: int = 0,
        words_per_burst: int = 8,
    ) -> "SoCCostModel":
        """Fit the model by running probe GeMMs on the given SoC.

        Probes run through the exact offload path the compiled plans use
        (``run_tiled_gemm`` with default row tiling).  Each probe's report
        becomes a :meth:`CalibrationSample.from_report`, and the samples
        are fitted the way :meth:`refit` fits production samples.

        Mixed-cluster caveat: the joint fit predicts *total* compute
        cycles well, but even row sharding makes the per-device feature
        blocks strongly correlated, so the system is near rank-deficient
        and the per-device attribution is a minimum-norm split — treat
        ``predict_tile_cycles(device_type=...)`` on heterogeneous clusters
        as an aggregate estimate, not a per-device measurement.

        Args:
            soc: a :class:`~repro.system.soc.PhotonicSoC` with
                accelerators attached (the probe offloads run on it).
            probe_shapes: (M, K, N) GeMM shapes to measure.
            value_range: integer magnitude bound of the probe operands.
            rng_seed: seed for the probe operand draws.
            words_per_burst: DMA burst length assumed by the features.

        Returns:
            The fitted :class:`SoCCostModel`.

        Raises:
            ValueError: when the SoC has no accelerators attached.
        """
        if not getattr(soc, "accelerators", None):
            raise ValueError("cost-model calibration needs an SoC with accelerators")
        generator = np.random.default_rng(rng_seed)
        samples = []
        for shape in probe_shapes:
            n_rows, n_inner, n_cols = shape
            weights = generator.integers(
                -value_range, value_range + 1, size=(n_rows, n_inner)
            )
            inputs = generator.integers(
                -value_range, value_range + 1, size=(n_inner, n_cols)
            )
            report = soc.run_tiled_gemm(weights, inputs)
            samples.append(CalibrationSample.from_report(shape, report))
        n_pes = len(soc.accelerators)
        dma_coeffs, host_coeffs, compute_coeffs = _solve_phase_fits(
            samples,
            n_pes,
            [pe.device_type for pe in soc.accelerators],
            words_per_burst,
        )
        return cls(
            dma_coeffs,
            compute_coeffs,
            clock_hz=soc.clock_hz,
            n_pes=n_pes,
            words_per_burst=words_per_burst,
            host_coeffs=host_coeffs,
        )

    def refit(
        self,
        samples: Sequence[CalibrationSample],
        device_types: Optional[Sequence[str]] = None,
    ) -> "SoCCostModel":
        """Fit a fresh model from production offload samples.

        The online half of calibration: where :meth:`calibrate` runs its
        own probe GeMMs, ``refit`` regresses the same three phase fits
        (DMA, host, compute — through the shared solver, so identical
        samples yield identical coefficients) against pipeline phases
        *already measured in production*.  The returned model is new — the
        boot model is untouched, so an
        :class:`~repro.compiler.adaptive.AdaptiveReplanner` can compare
        both and plan caches keyed on the old fingerprint stay coherent.

        Args:
            samples: production :class:`CalibrationSample` window (order
                and duplication don't change the fit beyond float
                round-off of the summed normal equations).
            device_types: per-PE device types of the deployed cluster;
                defaults to the fitted devices repeated across ``n_pes``
                (exact for homogeneous clusters).

        Returns:
            A new :class:`SoCCostModel` with refreshed coefficients and
            the same ``clock_hz`` / ``n_pes`` / ``words_per_burst``.

        Raises:
            ValueError: when ``samples`` is empty.
        """
        samples = list(samples)
        if not samples:
            raise ValueError("refit needs at least one calibration sample")
        if device_types is None:
            fitted = sorted(self.compute_coeffs)
            device_types = [fitted[index % len(fitted)] for index in range(self.n_pes)]
        dma_coeffs, host_coeffs, compute_coeffs = _solve_phase_fits(
            samples, self.n_pes, device_types, self.words_per_burst
        )
        return type(self)(
            dma_coeffs,
            compute_coeffs,
            clock_hz=self.clock_hz,
            n_pes=self.n_pes,
            words_per_burst=self.words_per_burst,
            host_coeffs=host_coeffs,
        )

    # ------------------------------------------------------------------ #
    # prediction
    # ------------------------------------------------------------------ #
    def _compute_coeffs_for(self, device_type: Optional[str]) -> np.ndarray:
        if device_type is not None and device_type in self.compute_coeffs:
            return self.compute_coeffs[device_type]
        # fall back to the first fitted device (homogeneous clusters)
        return next(iter(self.compute_coeffs.values()))

    def predict_tile_cycles(
        self,
        rows: int,
        inner: int,
        cols: int,
        load_input: bool = True,
        device_type: Optional[str] = None,
    ) -> Tuple[float, float]:
        """Predicted ``(dma_cycles, compute_cycles)`` of one tile."""
        dma = float(
            _tile_dma_features(rows, inner, cols, load_input, self.words_per_burst)
            @ self.dma_coeffs
        )
        compute = float(
            _tile_compute_features(rows, inner, cols)
            @ self._compute_coeffs_for(device_type)
        )
        return max(dma, 0.0), max(compute, 0.0)

    def predict_stream(
        self, descriptors, device_type: Optional[str] = None
    ) -> StreamPrediction:
        """Predicted phase cycles of one PE's tile stream."""
        dma = compute = 0.0
        count = 0
        for descriptor in descriptors:
            tile_dma, tile_compute = self.predict_tile_cycles(
                descriptor.rows,
                descriptor.inner,
                descriptor.cols,
                load_input=descriptor.load_input,
                device_type=device_type,
            )
            dma += tile_dma
            compute += tile_compute
            count += 1
        return StreamPrediction(dma_cycles=dma, compute_cycles=compute, n_tiles=count)

    def predict_gemm(
        self,
        n_rows: int,
        n_inner: int,
        n_cols: int,
        n_pes: Optional[int] = None,
        k_shards: int = 1,
        tile_rows: Optional[int] = None,
        device_types: Optional[Sequence[str]] = None,
    ) -> PlanPrediction:
        """Predict a sharded GeMM's cycles under rows- or K-sharding."""
        n_pes = self.n_pes if n_pes is None else int(n_pes)
        if device_types is None:
            device_types = [None] * n_pes
        prediction = PlanPrediction()
        if k_shards > 1:
            slices = plan_k_shards(
                n_rows, n_inner, n_cols, k_shards, tile_rows=tile_rows
            )
            streams: List[List] = [[] for _ in range(n_pes)]
            for piece in slices:
                streams[piece.index % n_pes].extend(piece.descriptors)
            # the reduction reads every partial and writes the result once
            prediction.extra_cycles = float((k_shards + 1) * n_rows * n_cols)
        else:
            streams = plan_shards(
                n_rows, n_inner, n_cols, n_pes, 0, 0, 0, tile_rows=tile_rows
            )
        for device, descriptors in zip(device_types, streams):
            if descriptors:
                prediction.per_pe.append(self.predict_stream(descriptors, device))
        n_tiles = sum(stream.n_tiles for stream in prediction.per_pe)
        n_streams = len(prediction.per_pe)
        prediction.extra_cycles += max(
            float(np.array([n_tiles, n_streams, 1.0]) @ self.host_coeffs), 0.0
        )
        return prediction

    def best_gemm_cycles(
        self,
        n_rows: int,
        n_inner: int,
        n_cols: int,
        n_pes: Optional[int] = None,
        tile_rows: Optional[int] = None,
    ) -> float:
        """Best predicted pipelined cycles over every candidate partition.

        The same argmin :func:`~repro.compiler.partition.choose_sharding`
        runs — row sharding plus each viable K-slice count — collapsed to
        its winning cycle count, so fusion comparisons weigh each side at
        its best sharding rather than a fixed one.
        """
        n_pes = self.n_pes if n_pes is None else int(n_pes)
        best = self.predict_gemm(
            n_rows, n_inner, n_cols, n_pes=n_pes, tile_rows=tile_rows
        ).pipelined_cycles
        for k_shards in range(2, min(n_pes, n_inner) + 1):
            best = min(
                best,
                self.predict_gemm(
                    n_rows, n_inner, n_cols, n_pes=n_pes, k_shards=k_shards,
                    tile_rows=tile_rows,
                ).pipelined_cycles,
            )
        return best

    def predict_fanout(
        self,
        branch_shapes: Sequence[Tuple[int, int]],
        fused_inner: int,
        n_cols: int,
        n_pes: Optional[int] = None,
        tile_rows: Optional[int] = None,
    ) -> FanoutPrediction:
        """Predict a same-input dense fan-out, fused vs sequential.

        Args:
            branch_shapes: per-branch ``(n_rows, n_inner)`` GeMM shapes.
            fused_inner: reduction width of the stacked offload — equal to
                the branches' shared width for a plain fan-out, or the
                full source width when split heads are embedded
                block-diagonally (the zero padding is real streamed work,
                which is exactly why the decision needs a prediction).
            n_cols: expected batch width.
            n_pes / tile_rows: cluster size and row-tiling override.

        Returns:
            The :class:`FanoutPrediction` comparing one stacked offload
            against the branches offloaded one after the other, each side
            at its best sharding.
        """
        if not branch_shapes:
            raise ValueError("predict_fanout needs at least one branch shape")
        serial = sum(
            self.best_gemm_cycles(
                rows, inner, n_cols, n_pes=n_pes, tile_rows=tile_rows
            )
            for rows, inner in branch_shapes
        )
        fused = self.best_gemm_cycles(
            sum(rows for rows, _ in branch_shapes),
            fused_inner,
            n_cols,
            n_pes=n_pes,
            tile_rows=tile_rows,
        )
        return FanoutPrediction(fused_cycles=fused, serial_cycles=serial)


# ---------------------------------------------------------------------- #
# serving-side calibration
# ---------------------------------------------------------------------- #
@dataclass
class ReplicaProfile:
    """Measured service profile of one replica engine.

    Attributes:
        name: replica (or engine) label.
        service_s: wall-clock seconds per single-column request (min over
            repeats, compile excluded — the steady-state service time).
        macs: arithmetic work of the probe request (for scaling the profile
            to differently-sized ops during placement).
        offload_cycles: simulated cycles per request for SoC-backed engines
            (``SoCGemmEngine.offload_cycles`` delta), else ``None``.
        latency_hint_s: the engine's own static schedule hint.
    """

    name: str
    service_s: float
    macs: int
    offload_cycles: Optional[float] = None
    latency_hint_s: float = 0.0

    def predict_request_s(self, macs: Optional[int] = None) -> float:
        """Service-time estimate for a request of ``macs`` work."""
        if macs is None or self.macs <= 0:
            return self.service_s
        return self.service_s * max(macs, 1) / self.macs


def profile_engine(
    engine,
    weights: Optional[np.ndarray] = None,
    repeats: int = 3,
    probe_shape: Tuple[int, int] = (16, 16),
) -> ReplicaProfile:
    """Measure an engine's steady-state single-column service time.

    The first ``run_batch`` (compile: mesh programming, plan building) is
    excluded; the profile keeps the minimum of ``repeats`` timed runs.  For
    :class:`~repro.serving.engine.SoCGemmEngine` replicas the simulated
    offload cycles per request are recorded too, so schedulers can reason
    in device time as well as wall time.

    Engines without a bound default model are probed with a synthetic
    ``probe_shape`` weight matrix (the same explicit-weights path compiled
    plans execute through).

    Args:
        engine: the :class:`~repro.serving.engine.InferenceEngine` to probe.
        weights: explicit probe weights (default: the engine's bound
            model, else a ones matrix of ``probe_shape``).
        repeats: timed runs to take the minimum over.
        probe_shape: synthetic weight shape for unbound engines.

    Returns:
        The measured :class:`ReplicaProfile`.

    Raises:
        ValueError: when ``repeats`` is not positive.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if weights is None:
        try:
            compiled = engine.compile(None)
        except ServingError:
            weights = np.ones(probe_shape, dtype=float)
            compiled = engine.compile(weights)
    else:
        compiled = engine.compile(weights)
    column = np.zeros((compiled.n_inputs, 1))
    engine.run_batch(weights, column)  # warm: everything compiled/cached
    cycles_attr = getattr(engine, "offload_cycles", None)
    cycles_before = cycles_attr if isinstance(cycles_attr, (int, float)) else None
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        engine.run_batch(weights, column)
        best = min(best, time.perf_counter() - started)
    offload_cycles = None
    if cycles_before is not None:
        offload_cycles = (engine.offload_cycles - cycles_before) / repeats
    return ReplicaProfile(
        name=engine.name,
        service_s=best,
        macs=compiled.n_outputs * compiled.n_inputs,
        offload_cycles=offload_cycles,
        latency_hint_s=engine.latency_hint_s(1),
    )


def profile_replicas(
    replicas,
    weights: Optional[np.ndarray] = None,
    repeats: int = 3,
) -> Dict[str, ReplicaProfile]:
    """Profile every replica's engine; returns ``{replica_name: profile}``.

    Run this before serving starts — probe batches execute inline on the
    engines (they show up in engine stats, not in server telemetry).
    """
    profiles: Dict[str, ReplicaProfile] = {}
    for replica in replicas:
        profile = profile_engine(replica.engine, weights=weights, repeats=repeats)
        profiles[replica.name] = replace(profile, name=replica.name)
    return profiles


def replica_cost_fn(profiles: Mapping[str, ReplicaProfile]) -> Callable[[object], float]:
    """Scoring callable for ``ReplicaScheduler(policy="cost-based")``.

    Returns the calibrated per-request service seconds of a replica;
    unprofiled replicas fall back to their engine's static latency hint,
    so a partially-profiled pool still routes sensibly.  The scheduler
    clamps the result at 0.

    ``profiles`` is read on every call, so refreshing the mapping in place
    (``profiles.update(profile_replicas(...))``) is seen by the next routed
    request; a copy taken before the refresh keeps the old profiles.
    """

    def cost(replica) -> float:
        profile = profiles.get(replica.name)
        if profile is None:
            return replica.engine.latency_hint_s(1)
        return profile.service_s

    return cost
