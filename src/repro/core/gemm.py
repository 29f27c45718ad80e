"""Generalised matrix-matrix multiplication (GeMM) on the photonic MVM core.

Section 4 of the paper: "Generalization to GeMM operations can be realized
through separating of the input matrix into rows, and processing those
either via time-division multiplexing or through encoding into multiple
dense wavelength division multiplexed (DWDM) channels that can be processed
in parallel in a single multiport interferometer without incurring
additional resource costs."

Two schedulers are provided on top of :class:`repro.core.mvm.PhotonicMVM`:

* ``TDMGeMM`` — input-matrix columns are streamed one per modulator symbol
  period (time-division multiplexing).
* ``WDMGeMM`` — columns are distributed over DWDM channels that share the
  same mesh; each channel behaves like an independent TDM stream, and
  inter-channel crosstalk couples the detected results.

Both return the numerical product plus a latency/energy estimate so the
system-level simulator and the E5 benchmark can compare the schedules.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.backends import BackendSpec, resolve_backend
from repro.core.mvm import PhotonicMVM
from repro.core.wdm import WDMChannelPlan
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class GeMMResult:
    """Result of one photonic GeMM operation.

    Attributes:
        value: the analog estimate of ``W @ X``.
        reference: the exact digital product.
        latency_s: wall-clock time of the schedule [s].
        n_symbols: total modulator symbols consumed.
        n_passes: number of sequential mesh passes (TDM slots).
    """

    value: np.ndarray
    reference: np.ndarray
    latency_s: float
    n_symbols: int
    n_passes: int

    @property
    def relative_error(self) -> float:
        norm = np.linalg.norm(self.reference)
        if norm == 0.0:
            return float(np.linalg.norm(self.value))
        return float(np.linalg.norm(self.value - self.reference) / norm)

    @property
    def total_macs(self) -> int:
        """Total multiply-accumulate operations of the product (m * n * k)."""
        return int(self.reference.shape[0] * self.n_symbols)

    @property
    def throughput_macs_per_s(self) -> float:
        """Effective multiply-accumulate throughput of the schedule."""
        if self.latency_s == 0:
            return float("inf")
        return self.total_macs / self.latency_s


def backend_gemm(
    weights: np.ndarray,
    input_matrix: np.ndarray,
    backend: BackendSpec = None,
    **backend_kwargs,
) -> GeMMResult:
    """Compute ``W @ X`` on a registered execution backend.

    The registry (``repro.core.backends``) supplies the matmul
    implementation — ``ideal-digital`` (default), ``quantized-digital``,
    ``analog-photonic`` or any user-registered backend — while the exact
    digital product is always kept as the reference, so backend accuracy
    can be compared through the usual :class:`GeMMResult` metrics.  Analog
    backends report their modulator-limited schedule latency; digital
    backends are instantaneous at this layer.
    """
    weights = np.asarray(weights)
    input_matrix = np.asarray(input_matrix)
    if input_matrix.ndim != 2 or weights.ndim != 2:
        raise ValueError("weights and input matrix must be two-dimensional")
    if weights.shape[1] != input_matrix.shape[0]:
        raise ValueError(
            f"inner dimensions disagree: {weights.shape} @ {input_matrix.shape}"
        )
    impl = resolve_backend(backend, **backend_kwargs)
    n_in, n_columns = input_matrix.shape
    reference = weights @ input_matrix
    value = impl.matmul(weights, input_matrix)
    return GeMMResult(
        value=np.asarray(value),
        reference=reference,
        latency_s=impl.schedule_latency_s(n_columns),
        n_symbols=n_columns * n_in,
        n_passes=n_columns,
    )


class TDMGeMM:
    """Time-division-multiplexed GeMM scheduler.

    Attributes:
        engine: the programmed photonic MVM engine (matrix ``W``).
    """

    def __init__(self, engine: PhotonicMVM):
        self.engine = engine

    def multiply(self, input_matrix: np.ndarray, add_noise: bool = True) -> GeMMResult:
        """Compute ``W @ X`` by streaming the columns of ``X`` through the mesh.

        The whole column stream is simulated as one batched engine pass
        (the physical schedule is still ``n_columns`` sequential symbols,
        which is what the latency model charges for).
        """
        input_matrix = np.asarray(input_matrix, dtype=complex)
        n_in = self.engine.shape[1]
        if input_matrix.ndim != 2 or input_matrix.shape[0] != n_in:
            raise ValueError(f"input matrix must have {n_in} rows")
        n_columns = input_matrix.shape[1]
        batched = self.engine.apply_batch(input_matrix, add_noise=add_noise)
        reference = batched.reference
        value = batched.value
        symbol_period = 1.0 / self.engine.modulator.symbol_rate
        latency = n_columns * symbol_period
        if np.allclose(reference.imag, 0.0) and np.allclose(value.imag, 0.0):
            reference = np.real(reference)
            value = np.real(value)
        return GeMMResult(
            value=value,
            reference=reference,
            latency_s=latency,
            n_symbols=n_columns * n_in,
            n_passes=n_columns,
        )


class WDMGeMM:
    """DWDM-parallel GeMM scheduler sharing one mesh across channels.

    Attributes:
        engine: the programmed photonic MVM engine (matrix ``W``).
        channel_plan: the DWDM channel plan (number of channels, crosstalk).
        rng: seed or generator for the crosstalk/dispersion noise.
    """

    def __init__(
        self,
        engine: PhotonicMVM,
        channel_plan: Optional[WDMChannelPlan] = None,
        rng: RngLike = None,
    ):
        self.engine = engine
        self.channel_plan = channel_plan if channel_plan is not None else WDMChannelPlan()
        self._rng = ensure_rng(rng)

    def multiply(self, input_matrix: np.ndarray, add_noise: bool = True) -> GeMMResult:
        """Compute ``W @ X`` with columns distributed over DWDM channels.

        Columns are assigned round-robin to channels; all channels of a
        round traverse the mesh simultaneously, so the latency is the
        number of rounds times the symbol period.  After detection the
        per-channel results are mixed by the crosstalk matrix.
        """
        input_matrix = np.asarray(input_matrix, dtype=complex)
        n_in = self.engine.shape[1]
        if input_matrix.ndim != 2 or input_matrix.shape[0] != n_in:
            raise ValueError(f"input matrix must have {n_in} rows")
        n_columns = input_matrix.shape[1]
        n_channels = self.channel_plan.n_channels
        reference = np.asarray(self.engine.weight_matrix) @ input_matrix
        value = np.zeros(reference.shape, dtype=complex)

        n_rounds = int(np.ceil(n_columns / n_channels))
        for round_index in range(n_rounds):
            start = round_index * n_channels
            stop = min(start + n_channels, n_columns)
            n_active = stop - start
            # One batched engine pass per DWDM round: the round's columns
            # ride different wavelengths through the same mesh simultaneously.
            round_result = self.engine.apply_batch(
                input_matrix[:, start:stop], add_noise=add_noise, compute_reference=False
            )
            channel_outputs = np.asarray(round_result.value, dtype=complex).T
            if add_noise and n_active > 1:
                padded = np.zeros((n_channels,) + channel_outputs.shape[1:], dtype=complex)
                padded[:n_active] = channel_outputs
                mixed_real = self.channel_plan.apply_crosstalk(padded.real, rng=self._rng)
                mixed_imag = self.channel_plan.apply_crosstalk(padded.imag, rng=self._rng)
                channel_outputs = (mixed_real + 1j * mixed_imag)[:n_active]
            value[:, start:stop] = channel_outputs.T

        symbol_period = 1.0 / self.engine.modulator.symbol_rate
        latency = n_rounds * symbol_period
        if np.allclose(reference.imag, 0.0) and np.allclose(value.imag, 0.0):
            reference = reference.real
            value = value.real
        return GeMMResult(
            value=value,
            reference=reference,
            latency_s=latency,
            n_symbols=n_columns * n_in,
            n_passes=n_rounds,
        )
