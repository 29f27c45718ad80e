"""Pluggable execution backends: one registry for every matmul in the stack.

The repo grew three independent ways of answering "who multiplies the
matrices?": ``core.gemm`` talks to a :class:`~repro.core.mvm.PhotonicMVM`
engine directly, the system-level accelerators carried an
``Optional[PhotonicMVM]`` flag, and the eval workloads hardcoded ``W @ X``.
This module unifies them behind a small registry of named
:class:`ExecutionBackend` implementations:

* ``ideal-digital`` — exact floating/integer product (the digital reference).
* ``quantized-digital`` — fixed-point digital datapath with saturating
  operand precision (exact whenever the operands fit the bit widths).
* ``analog-photonic`` — the full analog chain, always routed through
  :meth:`repro.core.mvm.PhotonicMVM.apply_batch` so every noise source of
  the photonic datapath reaches the caller.

Users can register their own backends (e.g. a stochastic fault model or an
FPGA bit-accurate model) with :func:`register_backend`; everything that
resolves backends by name — ``core.gemm.backend_gemm``, the SoC
accelerators, ``eval.sweeps`` — picks them up automatically.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Union

import numpy as np

from repro.core.mvm import PhotonicMVM
from repro.core.quantization import QuantizationSpec, quantize_uniform
from repro.mesh.base import MeshErrorModel
from repro.utils.rng import RngLike


class ExecutionBackend:
    """A named matrix-multiplication implementation.

    Subclasses implement :meth:`matmul`; everything else (timing, energy,
    tiling) stays with the caller, so one backend serves the core GeMM
    schedulers, the SoC accelerators and the eval sweeps alike.

    Attributes:
        name: registry name of the backend class.
        deterministic: False when repeated calls draw fresh noise (analog).
    """

    name = "base"
    deterministic = True

    def matmul(self, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        """Return this backend's estimate of ``weights @ inputs``."""
        raise NotImplementedError

    def schedule_latency_s(self, n_columns: int) -> float:
        """Wall-clock latency of streaming ``n_columns`` input columns.

        Digital backends are treated as instantaneous at this layer (their
        cycle cost is charged by the system simulator); analog backends
        report the modulator-limited symbol schedule.
        """
        return 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} name={self.name!r}>"


class IdealDigitalBackend(ExecutionBackend):
    """Exact digital product — the reference every other backend is judged by."""

    name = "ideal-digital"

    def matmul(self, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return np.asarray(weights) @ np.asarray(inputs)


class QuantizedDigitalBackend(ExecutionBackend):
    """Fixed-point digital datapath with saturating operand quantisation.

    Integer operands are saturated to signed ``weight_bits`` / ``input_bits``
    ranges (exact when they already fit, which is how the SoC offload tests
    use it); float operands are uniformly quantised against their own full
    scale.  The accumulator is kept wide, as in a real MAC array.

    Attributes:
        weight_bits / input_bits: operand precision in bits.
    """

    name = "quantized-digital"

    def __init__(self, weight_bits: int = 8, input_bits: int = 8):
        if weight_bits < 2 or input_bits < 2:
            raise ValueError("operand precision must be >= 2 bits")
        self.weight_bits = int(weight_bits)
        self.input_bits = int(input_bits)

    @staticmethod
    def _quantize(values: np.ndarray, bits: int) -> np.ndarray:
        values = np.asarray(values)
        if np.issubdtype(values.dtype, np.integer):
            low, high = -(1 << (bits - 1)), (1 << (bits - 1)) - 1
            return np.clip(values, low, high)
        scale = float(np.max(np.abs(values))) if values.size else 0.0
        if scale == 0.0:
            return values
        return quantize_uniform(values, bits, full_scale=scale)

    def matmul(self, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        return self._quantize(weights, self.weight_bits) @ self._quantize(
            inputs, self.input_bits
        )


class AnalogPhotonicBackend(ExecutionBackend):
    """The analog photonic datapath, routed through ``PhotonicMVM.apply_batch``.

    Either wraps a pre-programmed engine (weights resident in the mesh) or
    programs engines on demand, caching them per weight matrix so repeated
    tiles of a sharded GeMM reuse their programmed mesh — the in-memory
    computing property the paper builds on.

    Attributes:
        engine: optional pre-programmed :class:`PhotonicMVM`; when set, the
            ``weights`` argument of :meth:`matmul` only selects the tile
            shape and the engine's programmed matrix is the ground truth.
        quantization / error_model / rng: forwarded to engines built on
            demand.
        add_noise: disable to get the noise-free analog transfer function.
    """

    name = "analog-photonic"
    deterministic = False

    #: programmed-engine cache bound (per backend instance)
    MAX_CACHED_ENGINES = 16

    def __init__(
        self,
        engine: Optional[PhotonicMVM] = None,
        quantization: Optional[QuantizationSpec] = None,
        error_model: Optional[MeshErrorModel] = None,
        add_noise: bool = True,
        rng: RngLike = 0,
    ):
        self.engine = engine
        self.quantization = quantization if quantization is not None else QuantizationSpec()
        self.error_model = error_model
        self.add_noise = bool(add_noise)
        self.rng = rng
        self._engines: Dict[tuple, PhotonicMVM] = {}

    def engine_for(self, weights: np.ndarray) -> PhotonicMVM:
        """The programmed engine used for this weight matrix."""
        if self.engine is not None:
            expected = tuple(self.engine.shape)
            observed = tuple(np.asarray(weights).shape)
            if observed != expected:
                # a fixed engine holds its weights resident in the mesh; a
                # differently-shaped tile would silently compute with the
                # wrong matrix (e.g. a sharded GeMM splitting the shard
                # into tiles smaller than the programmed engine)
                raise ValueError(
                    f"tile weights {observed} do not match the programmed "
                    f"engine {expected}; fixed-engine analog backends need "
                    f"one tile per offload (e.g. run_tiled_gemm with "
                    f"tile_rows equal to the PE's shard) or an on-demand "
                    f"AnalogPhotonicBackend without a fixed engine"
                )
            return self.engine
        weights = np.asarray(weights, dtype=float)
        cache_key = (weights.shape, weights.tobytes())
        cached = self._engines.get(cache_key)
        if cached is None:
            if len(self._engines) >= self.MAX_CACHED_ENGINES:
                self._engines.clear()
            cached = PhotonicMVM(
                weights,
                quantization=self.quantization,
                error_model=self.error_model,
                rng=self.rng,
            )
            self._engines[cache_key] = cached
        return cached

    def matmul(self, weights: np.ndarray, inputs: np.ndarray) -> np.ndarray:
        engine = self.engine_for(weights)
        return engine.matmul(inputs, add_noise=self.add_noise)

    def schedule_latency_s(self, n_columns: int) -> float:
        if self.engine is None and not self._engines:
            return 0.0
        engine = self.engine if self.engine is not None else next(iter(self._engines.values()))
        return n_columns / engine.modulator.symbol_rate


#: Name of the backend used when callers pass ``backend=None``.
DEFAULT_BACKEND = "ideal-digital"

BackendSpec = Union[None, str, ExecutionBackend]

_REGISTRY: Dict[str, Callable[..., ExecutionBackend]] = {}


def register_backend(
    name: str, factory: Callable[..., ExecutionBackend], overwrite: bool = False
) -> None:
    """Register a backend factory under ``name``.

    ``factory(**kwargs)`` must return an :class:`ExecutionBackend`.
    Re-registering an existing name requires ``overwrite=True`` so two
    subsystems cannot silently shadow each other's backends.
    """
    if not callable(factory):
        raise TypeError("backend factory must be callable")
    if name in _REGISTRY and not overwrite:
        raise ValueError(f"backend {name!r} is already registered")
    _REGISTRY[str(name)] = factory


def unregister_backend(name: str) -> None:
    """Remove a registered backend (unknown names are ignored)."""
    _REGISTRY.pop(name, None)


def available_backends() -> tuple:
    """Sorted names of all registered backends."""
    return tuple(sorted(_REGISTRY))


def create_backend(name: str, **kwargs) -> ExecutionBackend:
    """Instantiate a registered backend by name."""
    try:
        factory = _REGISTRY[name]
    except KeyError:
        known = ", ".join(available_backends())
        raise KeyError(f"unknown backend {name!r} (registered: {known})") from None
    backend = factory(**kwargs)
    if not isinstance(backend, ExecutionBackend):
        raise TypeError(f"factory for {name!r} returned {type(backend).__name__}")
    return backend


def resolve_backend(spec: BackendSpec = None, **kwargs) -> ExecutionBackend:
    """Resolve a backend spec: instance (pass-through), name, or None (default)."""
    if spec is None:
        spec = DEFAULT_BACKEND
    if isinstance(spec, ExecutionBackend):
        return spec
    if isinstance(spec, str):
        return create_backend(spec, **kwargs)
    raise TypeError(f"cannot resolve backend from {type(spec).__name__}")


def matmul(weights: np.ndarray, inputs: np.ndarray, backend: BackendSpec = None) -> np.ndarray:
    """One-shot ``weights @ inputs`` on a named (or default) backend."""
    return resolve_backend(backend).matmul(weights, inputs)


register_backend(IdealDigitalBackend.name, IdealDigitalBackend)
register_backend(QuantizedDigitalBackend.name, QuantizedDigitalBackend)
register_backend(AnalogPhotonicBackend.name, AnalogPhotonicBackend)
