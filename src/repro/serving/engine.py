"""Inference engines: the execution side of the serving runtime.

An :class:`InferenceEngine` turns "a model + a batch of input columns" into
output columns, behind a **compiled-weights cache** keyed by a content hash
of the weights.  Compiling is whatever is expensive for the datapath —
programming an MZI mesh for the analog backend, building the per-layer
:class:`~repro.core.nn.PhotonicMLP` engines — so repeated requests against
the same model skip mesh reprogramming entirely and only pay the streaming
cost.

Three engines cover the stack:

* :class:`GemmEngine` — one dense product on any registered
  :mod:`repro.core.backends` backend (``ideal-digital`` /
  ``quantized-digital`` / ``analog-photonic`` / user backends).
* :class:`MLPEngine` — full photonic (or float reference) MLP forward pass.
* :class:`SoCGemmEngine` — tiled GeMM offload through the cycle-accurate
  :class:`~repro.system.soc.PhotonicSoC` cluster.

Engines are synchronous and single-threaded; concurrency lives one level up
in the micro-batcher and replica scheduler.
"""

from __future__ import annotations

import hashlib
import time
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.core.backends import AnalogPhotonicBackend, BackendSpec, resolve_backend
from repro.core.nn import MLP, PhotonicMLP
from repro.serving.errors import ServingError

#: model key used when a request does not carry explicit weights and the
#: engine serves its bound default model.
DEFAULT_MODEL_KEY = "default"


def weight_hash(weights: np.ndarray) -> str:
    """Content hash of a weight matrix (shape + dtype + raw bytes)."""
    weights = np.ascontiguousarray(weights)
    # ``dtype.str`` (e.g. '<f8') keeps byte order distinct and formats far
    # faster than ``str(dtype)``; ``data`` hashes the buffer without a copy.
    digest = hashlib.sha1(f"{weights.shape}{weights.dtype.str}".encode())
    digest.update(weights.data)
    return digest.hexdigest()


@dataclass
class CompiledModel:
    """One cache entry: a model lowered onto its execution substrate.

    Attributes:
        key: weight-hash cache key.
        n_inputs / n_outputs: expected column length in and out.
        runner: callable mapping an ``(n_inputs, batch)`` column block to an
            ``(n_outputs, batch)`` result.
        compile_s: wall time spent compiling (mesh programming etc.).
    """

    key: str
    n_inputs: int
    n_outputs: int
    runner: Callable[[np.ndarray], np.ndarray]
    compile_s: float = 0.0


@dataclass
class EngineStats:
    """Counters of one engine instance."""

    compiles: int = 0
    cache_hits: int = 0
    batches: int = 0
    columns: int = 0
    busy_s: float = 0.0
    compile_s: float = 0.0

    @property
    def mean_batch(self) -> float:
        """Mean columns executed per engine batch."""
        return self.columns / self.batches if self.batches else 0.0


class InferenceEngine:
    """Base engine: compiled-weights LRU cache + batch execution.

    Subclasses implement :meth:`_compile`, which lowers a weight matrix (or
    the engine's bound default model when ``weights`` is ``None``) into a
    :class:`CompiledModel`.

    Attributes:
        name: label used by telemetry and scheduler reports.
        max_models: compiled-model cache bound (least recently used wins).
    """

    def __init__(
        self,
        name: str = "engine",
        max_models: int = 8,
    ):
        if max_models < 1:
            raise ValueError("max_models must be >= 1")
        self.name = str(name)
        self.max_models = int(max_models)
        self.stats = EngineStats()
        self._models: "OrderedDict[str, CompiledModel]" = OrderedDict()

    # ------------------------------------------------------------------ #
    # compiled-weights cache
    # ------------------------------------------------------------------ #
    def model_key(self, weights: Optional[np.ndarray]) -> str:
        """Cache key for a request's weights (``None`` = bound default model)."""
        if weights is None:
            return DEFAULT_MODEL_KEY
        return weight_hash(weights)

    def compile(
        self, weights: Optional[np.ndarray] = None, key: Optional[str] = None
    ) -> CompiledModel:
        """Return the compiled form of ``weights``, caching by content hash.

        A cache hit skips the expensive lowering (mesh reprogramming for the
        analog paths) and only refreshes the entry's LRU position.  Callers
        that already hold the content hash (the micro-batcher computes it
        when a request joins a pull) pass it as ``key`` so cache hits skip
        re-hashing the weights too.
        """
        if key is None:
            key = self.model_key(weights)
        cached = self._models.get(key)
        if cached is not None:
            self._models.move_to_end(key)
            self.stats.cache_hits += 1
            return cached
        started = time.perf_counter()
        compiled = self._compile(key, weights)
        compiled.compile_s = time.perf_counter() - started
        self.stats.compiles += 1
        self.stats.compile_s += compiled.compile_s
        self._models[key] = compiled
        while len(self._models) > self.max_models:
            self._models.popitem(last=False)
        return compiled

    def _compile(self, key: str, weights: Optional[np.ndarray]) -> CompiledModel:
        raise NotImplementedError

    @property
    def cached_models(self) -> int:
        """Number of compiled models currently resident."""
        return len(self._models)

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def run_batch(
        self,
        weights: Optional[np.ndarray],
        inputs: np.ndarray,
        key: Optional[str] = None,
    ) -> np.ndarray:
        """Execute one micro-batch: ``(n_in, B)`` columns in, ``(n_out, B)`` out."""
        compiled = self.compile(weights, key=key)
        inputs = np.asarray(inputs)
        if inputs.ndim != 2 or inputs.shape[0] != compiled.n_inputs:
            raise ValueError(
                f"inputs must be a ({compiled.n_inputs}, batch) column block, "
                f"got shape {inputs.shape}"
            )
        started = time.perf_counter()
        outputs = compiled.runner(inputs)
        self.stats.busy_s += time.perf_counter() - started
        self.stats.batches += 1
        self.stats.columns += inputs.shape[1]
        return outputs

    def latency_hint_s(self, n_columns: int) -> float:
        """Rough service-time hint for routing (0.0 = no physical model)."""
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r} models={self.cached_models}>"


class GemmEngine(InferenceEngine):
    """Dense-product engine on a registered execution backend.

    ``weights=`` binds a default model so requests without explicit weights
    are served too.  For an on-demand :class:`AnalogPhotonicBackend`, compile
    time is where the SVD + mesh programming happens: the compiled runner
    captures the programmed :class:`~repro.core.mvm.PhotonicMVM` directly, so
    serving never re-hashes or re-programs a cached model.
    """

    def __init__(
        self,
        backend: BackendSpec = None,
        weights: Optional[np.ndarray] = None,
        name: str = "gemm",
        max_models: int = 8,
        **backend_kwargs,
    ):
        super().__init__(name=name, max_models=max_models)
        self.backend = resolve_backend(backend, **backend_kwargs)
        self.default_weights = (
            np.asarray(weights, dtype=float) if weights is not None else None
        )

    def _compile(self, key: str, weights: Optional[np.ndarray]) -> CompiledModel:
        if weights is None:
            if self.default_weights is None:
                raise ServingError(
                    f"engine {self.name!r} has no bound default model; "
                    f"submit requests with explicit weights"
                )
            weights = self.default_weights
        weights = np.asarray(weights, dtype=float)
        if weights.ndim != 2:
            raise ValueError("weights must be a matrix")
        n_out, n_in = weights.shape
        backend = self.backend
        if isinstance(backend, AnalogPhotonicBackend):
            # program the mesh once, at compile time; the runner keeps the
            # programmed engine so cache hits skip mesh reprogramming
            engine = backend.engine_for(weights)
            runner = lambda X: engine.matmul(X, add_noise=backend.add_noise)  # noqa: E731
        else:
            runner = lambda X: backend.matmul(weights, X)  # noqa: E731
        return CompiledModel(key=key, n_inputs=n_in, n_outputs=n_out, runner=runner)

    def latency_hint_s(self, n_columns: int) -> float:
        """The backend's modelled service time for ``n_columns`` columns."""
        return self.backend.schedule_latency_s(n_columns)


class MLPEngine(InferenceEngine):
    """Full MLP forward-pass engine (photonic or float reference).

    The engine serves exactly its bound model; compiling builds every
    layer's :class:`~repro.core.mvm.PhotonicMVM` engine (the expensive mesh
    programming), which the cache then reuses for the lifetime of the
    replica.  Requests must not carry explicit weights.
    """

    def __init__(
        self,
        model: MLP,
        photonic: bool = True,
        name: str = "mlp",
        **photonic_kwargs,
    ):
        super().__init__(name=name, max_models=1)
        self.model = model
        self.photonic = bool(photonic)
        self.photonic_kwargs = photonic_kwargs

    def model_key(self, weights: Optional[np.ndarray]) -> str:
        """The bound model's key; rejects requests carrying explicit weights."""
        if weights is not None:
            raise ServingError(
                f"MLP engine {self.name!r} serves its bound model; "
                f"requests must not carry explicit weights"
            )
        return DEFAULT_MODEL_KEY

    def _compile(self, key: str, weights: Optional[np.ndarray]) -> CompiledModel:
        if weights is not None:
            # guard the pre-hashed key path too: explicit weights must never
            # silently compile to the bound model
            raise ServingError(
                f"MLP engine {self.name!r} serves its bound model; "
                f"requests must not carry explicit weights"
            )
        model = self.model
        if self.photonic:
            photonic = PhotonicMLP(model=model, **self.photonic_kwargs)
            forward = photonic.forward
        else:
            forward = model.forward
        # engines speak column blocks; MLP.forward speaks row batches
        runner = lambda X: np.asarray(forward(np.asarray(X, dtype=float).T)).T  # noqa: E731
        return CompiledModel(
            key=key,
            n_inputs=model.n_inputs,
            n_outputs=model.n_outputs,
            runner=runner,
        )


class SoCGemmEngine(InferenceEngine):
    """Tiled-GeMM offload engine on the full-system SoC model.

    Every micro-batch becomes one
    :meth:`~repro.system.soc.PhotonicSoC.run_tiled_gemm` offload (host MMR
    programming, sharded tile streams, double-buffered DMA), so the serving
    layer exercises the same datapath the system benchmarks measure.  The
    SoC works on integers; inputs are rounded to ``int64`` columns.

    Attributes:
        soc: the configured SoC (accelerators already attached).
        last_report: the most recent :class:`~repro.system.soc.WorkloadReport`.
        offload_cycles: cumulative simulated cycles across served batches.
        tracer: optional :class:`~repro.obs.trace.Tracer`; when set, each
            offload's :class:`~repro.system.soc.WorkloadReport` pipeline
            phases and DMA deltas attach as cycle-domain child spans under
            the currently active (engine) span.
        cost_model: optional calibrated
            :class:`~repro.compiler.costmodel.SoCCostModel` used to predict
            cycles per offload.
        drift_monitor: optional :class:`~repro.obs.drift.DriftMonitor` fed
            one (predicted, measured) cycle pair per offload, keyed by
            ``(n_out, n_in, batch)`` shape and the engine name.
        replanner: optional
            :class:`~repro.compiler.adaptive.AdaptiveReplanner` fed each
            offload's measured ``WorkloadReport`` as a refit sample (same
            opt-in discipline as tracing: default off, one truthiness
            check, bitwise invisible).  When set, drift recording predicts
            with the replanner's *current* model, so post-refit flags
            reflect the refreshed coefficients rather than the boot model.
    """

    def __init__(
        self,
        soc,
        weights: Optional[np.ndarray] = None,
        tile_rows: Optional[int] = None,
        name: str = "soc",
        max_models: int = 8,
        tracer=None,
        cost_model=None,
        drift_monitor=None,
        replanner=None,
    ):
        super().__init__(name=name, max_models=max_models)
        if not getattr(soc, "accelerators", None):
            raise ValueError("SoC engine needs a PhotonicSoC with accelerators attached")
        self.soc = soc
        self.tile_rows = tile_rows
        self.default_weights = (
            np.asarray(weights, dtype=np.int64) if weights is not None else None
        )
        self.last_report = None
        self.offload_cycles = 0
        self.tracer = tracer
        self.cost_model = cost_model
        self.drift_monitor = drift_monitor
        self.replanner = replanner

    def _compile(self, key: str, weights: Optional[np.ndarray]) -> CompiledModel:
        if weights is None:
            if self.default_weights is None:
                raise ServingError(
                    f"engine {self.name!r} has no bound default model; "
                    f"submit requests with explicit weights"
                )
            weights = self.default_weights
        weights = np.asarray(np.round(np.asarray(weights, dtype=float)), dtype=np.int64)
        if weights.ndim != 2:
            raise ValueError("weights must be a matrix")
        n_out, n_in = weights.shape

        def runner(X: np.ndarray) -> np.ndarray:
            columns = np.asarray(np.round(np.asarray(X, dtype=float)), dtype=np.int64)
            report = self.soc.run_tiled_gemm(weights, columns, tile_rows=self.tile_rows)
            self.last_report = report
            self.offload_cycles += report.cycles
            if self.tracer:
                from repro.obs.trace import attach_soc_report

                attach_soc_report(
                    self.tracer,
                    report,
                    parent=self.tracer.current,
                    end_cycle=self.offload_cycles,
                )
            if self.replanner:
                self.replanner.observe_offload(
                    (n_out, n_in, columns.shape[1]), report, tile_rows=self.tile_rows
                )
            model = self.replanner.model if self.replanner else self.cost_model
            if self.drift_monitor is not None and model is not None:
                shape = (n_out, n_in, columns.shape[1])
                predicted = model.predict_gemm(
                    n_out, n_in, columns.shape[1], tile_rows=self.tile_rows
                ).pipelined_cycles
                self.drift_monitor.record(shape, self.name, predicted, report.cycles)
            return report.result

        return CompiledModel(key=key, n_inputs=n_in, n_outputs=n_out, runner=runner)
