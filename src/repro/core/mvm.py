"""Photonic matrix-vector multiplication (MVM) engine.

This is the paper's core computing architecture: an in-memory optical MVM
engine built from programmable MZI meshes.  An arbitrary (not necessarily
unitary) weight matrix ``W`` is realised through its singular value
decomposition ``W = U . diag(s) . V^H``: two unitary meshes implement ``U``
and ``V^H`` and a column of amplitude attenuators (or modulators)
implements the singular values, normalised so every optical element is
passive.  Input vectors are encoded onto the mesh inputs by high-speed
Mach-Zehnder modulators, and the outputs are read by photodetectors.

The engine exposes the full noise chain of the analog datapath: input DAC
quantisation, modulator extinction, mesh programming/fabrication errors,
PCM phase quantisation, detector shot/thermal noise and ADC quantisation.
A digital reference path (``W @ x``) is kept alongside for accuracy
studies.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from repro.core.quantization import QuantizationSpec, quantize_uniform
from repro.devices.modulator import MachZehnderModulator
from repro.devices.photodetector import Photodetector
from repro.mesh.base import MeshErrorModel
from repro.mesh.clements import ClementsMesh
from repro.utils.rng import RngLike, ensure_rng


@dataclass
class MVMResult:
    """Result of one photonic MVM operation (single vector or batch).

    Attributes:
        value: the analog (noisy) estimate of ``W @ x`` — a vector for
            :meth:`PhotonicMVM.apply`, an ``(n_out, batch)`` matrix for
            :meth:`PhotonicMVM.apply_batch`.
        reference: the exact digital result for comparison (``None`` when
            the caller opted out via ``compute_reference=False``).
        relative_error: ``||value - reference|| / ||reference||``
            (Frobenius norm for batches).
    """

    value: np.ndarray
    reference: Optional[np.ndarray]

    @property
    def relative_error(self) -> float:
        if self.reference is None:
            raise ValueError(
                "result has no reference (produced with compute_reference=False)"
            )
        norm = np.linalg.norm(self.reference)
        if norm == 0.0:
            return float(np.linalg.norm(self.value))
        return float(np.linalg.norm(self.value - self.reference) / norm)


@dataclass
class PhotonicMVM:
    """SVD-programmed photonic MVM engine.

    Attributes:
        weight_matrix: the programmed matrix ``W`` (real or complex,
            rectangular allowed).
        mesh_factory: callable mapping a mode count to a fresh unitary mesh
            (defaults to the Clements architecture).
        modulator: input encoder model.
        detector: output receiver model.
        quantization: datapath precision specification.
        error_model: mesh hardware error model applied to both meshes
            (``None`` = ideal meshes).
        coherent_detection: when True the output field (amplitude and sign)
            is recovered, modelling a coherent receiver; when False only
            intensities are detected and the sign information is lost.
        rng: seed or generator for the stochastic noise sources.
    """

    weight_matrix: np.ndarray
    mesh_factory: Callable[[int], object] = ClementsMesh
    modulator: MachZehnderModulator = field(default_factory=MachZehnderModulator)
    detector: Photodetector = field(default_factory=Photodetector)
    quantization: QuantizationSpec = field(default_factory=QuantizationSpec)
    error_model: Optional[MeshErrorModel] = None
    coherent_detection: bool = True
    rng: RngLike = None

    def __post_init__(self):
        weights = np.asarray(self.weight_matrix, dtype=complex)
        if weights.ndim != 2:
            raise ValueError("weight_matrix must be two-dimensional")
        self.weight_matrix = weights
        self._real_weights = bool(np.allclose(weights.imag, 0.0))
        self._rng = ensure_rng(self.rng)
        self._program()

    # ------------------------------------------------------------------ #
    # programming
    # ------------------------------------------------------------------ #
    def _program(self) -> None:
        """Program the two meshes and the singular-value attenuators."""
        n_out, n_in = self.weight_matrix.shape
        left, singular, right_h = np.linalg.svd(self.weight_matrix)
        self._scale = float(singular[0]) if singular.size and singular[0] > 0 else 1.0
        self._singular = singular / self._scale if self._scale > 0 else singular

        quant_levels = self.quantization.weight_levels
        error_model = self.error_model
        if quant_levels is not None:
            if error_model is None:
                error_model = MeshErrorModel(phase_quantization_levels=quant_levels)
            elif error_model.phase_quantization_levels is None:
                error_model = MeshErrorModel(
                    phase_error_std=error_model.phase_error_std,
                    coupler_ratio_error_std=error_model.coupler_ratio_error_std,
                    mzi_insertion_loss_db=error_model.mzi_insertion_loss_db,
                    phase_quantization_levels=quant_levels,
                    rng=error_model.rng,
                )
        self._effective_error_model = error_model

        self._left_mesh = self.mesh_factory(n_out) if n_out >= 2 else None
        self._right_mesh = self.mesh_factory(n_in) if n_in >= 2 else None
        if self._left_mesh is not None:
            self._left_mesh.program(left)
        if self._right_mesh is not None:
            self._right_mesh.program(right_h)

        # Realised (analog) transfer matrices, including errors/quantisation.
        left_real = (
            self._left_mesh.matrix(self._effective_error_model)
            if self._left_mesh is not None
            else self._realize_single_port(left)
        )
        right_real = (
            self._right_mesh.matrix(self._effective_error_model)
            if self._right_mesh is not None
            else self._realize_single_port(right_h)
        )
        sigma = np.zeros((n_out, n_in))
        np.fill_diagonal(sigma, self._singular)
        self._realized_normalized = left_real @ sigma @ right_real

    def _realize_single_port(self, unitary_1x1: np.ndarray) -> np.ndarray:
        """Realise a degenerate 1x1 unitary factor through the analog model.

        A one-port side of the SVD core has no mesh — just a single output
        phase shifter — but that shifter still sees the same phase
        programming error and PCM quantisation as the mesh phases, exactly
        like the output-phase column of :meth:`MZIMesh._physical_matrix`.
        """
        value = complex(np.asarray(unitary_1x1, dtype=complex).reshape(-1)[0])
        error_model = self._effective_error_model
        if error_model is None:
            return np.array([[value]], dtype=complex)
        phase = float(np.angle(value))
        generator = ensure_rng(error_model.rng)
        if error_model.phase_error_std > 0:
            phase += generator.normal(0.0, error_model.phase_error_std)
        phase = error_model.quantize_phase(phase)
        return np.array([[abs(value) * np.exp(1j * phase)]], dtype=complex)

    @property
    def shape(self) -> tuple:
        """Shape of the programmed weight matrix."""
        return self.weight_matrix.shape

    @property
    def realized_matrix(self) -> np.ndarray:
        """The matrix the analog hardware actually implements (rescaled)."""
        return self._realized_normalized * self._scale

    @property
    def component_count(self) -> dict:
        """Hardware inventory of the engine (for footprint accounting)."""
        n_out, n_in = self.weight_matrix.shape
        counts = {"modulators": n_in, "detectors": n_out, "attenuators": min(n_in, n_out)}
        for name, mesh in (("left", self._left_mesh), ("right", self._right_mesh)):
            if mesh is not None:
                for key, value in mesh.component_count().items():
                    counts[f"{name}_{key}"] = value
        return counts

    # ------------------------------------------------------------------ #
    # execution
    # ------------------------------------------------------------------ #
    def apply_batch(
        self,
        vectors: np.ndarray,
        add_noise: bool = True,
        compute_reference: bool = True,
    ) -> MVMResult:
        """Run a batched photonic MVM: estimate ``W @ X`` for an ``(n_in, B)`` block.

        The whole batch is encoded, propagated (one ``matrix @ batch``
        product), detected and rescaled as ``(n_out, B)`` arrays — this is
        the engine's hot path; :meth:`apply` and :meth:`apply_many` are thin
        wrappers around it.  Each column is normalised to the modulator full
        scale independently, exactly as the single-vector path does.

        ``compute_reference=False`` skips the exact digital product (the
        result's ``reference`` is ``None``) — callers that only consume
        ``value`` save a second matmul of the same size as the optical one.

        Real weights applied to real inputs return real arrays.  Float,
        integer and bool inputs are real by their dtype; any other input
        (a complex or object array) is real when its imaginary part is
        all close to zero.
        """
        vectors = np.asarray(vectors)
        real_typed = vectors.dtype.kind in "biuf"
        vectors = np.asarray(vectors, dtype=complex)
        n_out, n_in = self.weight_matrix.shape
        if vectors.ndim != 2 or vectors.shape[0] != n_in:
            raise ValueError(f"vectors must be a ({n_in}, batch) matrix")

        reference = self.weight_matrix @ vectors if compute_reference else None

        # --- input normalisation and encoding ---------------------------------
        input_scale = np.max(np.abs(vectors), axis=0)
        active = input_scale > 0.0
        safe_scale = np.where(active, input_scale, 1.0)
        normalized = vectors / safe_scale
        amplitudes = np.abs(normalized)
        phases = np.angle(normalized)
        if self.quantization.input_bits is not None:
            n_levels = 2 ** self.quantization.input_bits
            amplitudes = np.round(amplitudes * (n_levels - 1)) / (n_levels - 1)
            # Physical encoding: the modulator adds its own DAC grid and
            # extinction-ratio floor.  (Its insertion loss is common to all
            # inputs and removed again by the digital rescaling.)
            amplitudes = (
                self.modulator.encode(amplitudes) / self.modulator.field_transmission
            )
        fields = amplitudes * np.exp(1j * phases)

        # --- optical propagation ----------------------------------------------
        output_fields = self._realized_normalized @ fields

        # --- detection ---------------------------------------------------------
        if self.coherent_detection:
            detected = output_fields
            if add_noise:
                noise_scale = self._coherent_noise_scale()
                detected = detected + self._rng.normal(
                    0.0, noise_scale, size=detected.shape
                ) + 1j * self._rng.normal(0.0, noise_scale, size=detected.shape)
            if self.quantization.output_bits is not None:
                # The coherent ADC full scale must accommodate constructive
                # interference of all inputs, i.e. sqrt(n_in) in field units.
                # One quantiser pass over the interleaved (re, im) float view.
                adc_full_scale = float(np.sqrt(n_in))
                parts = quantize_uniform(
                    detected.view(float),
                    self.quantization.output_bits,
                    full_scale=adc_full_scale,
                )
                detected = parts[:, 0::2] + 1j * parts[:, 1::2]
            analog = detected
        else:
            intensities = self.detector.detect(
                output_fields, rng=self._rng, add_noise=add_noise
            )
            analog = np.sqrt(np.maximum(intensities, 0.0))

        # --- digital rescaling -------------------------------------------------
        value = analog * safe_scale * self._scale
        if not np.all(active):
            # All-zero input columns produce exactly zero output (the early
            # return of the scalar path), not the modulator extinction floor.
            value = value * active
        real_case = self._real_weights and (
            real_typed or bool(np.allclose(vectors.imag, 0.0))
        )
        if real_case:
            if reference is not None:
                reference = reference.real
            value = value.real if np.iscomplexobj(value) else value
        return MVMResult(value=value, reference=reference)

    def apply(self, vector: np.ndarray, add_noise: bool = True) -> MVMResult:
        """Run one photonic MVM: estimate ``W @ x`` through the analog path.

        The input is normalised to the modulator full scale, pushed through
        the (possibly imperfect) optical transfer matrix, detected, and
        rescaled back to the digital domain.  Thin wrapper over
        :meth:`apply_batch` with a batch of one.
        """
        vector = np.asarray(vector).reshape(-1)
        if vector.shape[0] != self.weight_matrix.shape[1]:
            raise ValueError(f"input vector must have length {self.weight_matrix.shape[1]}")
        batched = self.apply_batch(vector[:, None], add_noise=add_noise)
        return MVMResult(value=batched.value[:, 0], reference=batched.reference[:, 0])

    def _coherent_noise_scale(self) -> float:
        """Equivalent field-noise std of the coherent receiver.

        Derived from the detector's current-noise floor referenced to the
        full-scale photocurrent, so the same receiver parameters drive both
        detection modes.
        """
        full_scale_power = 1e-3
        current_noise = float(np.mean(self.detector.noise_std(np.array([full_scale_power]))))
        full_scale_current = self.detector.responsivity * full_scale_power
        relative = current_noise / full_scale_current
        # Intensity noise maps to roughly half the relative field noise.
        return relative / 2.0

    def apply_many(self, vectors: np.ndarray, add_noise: bool = True) -> np.ndarray:
        """Apply the engine to the columns of ``vectors``; returns the result matrix.

        Batched: one optical propagation for the whole block.  Real weight
        matrices applied to real inputs return a real array (including
        all-zero columns), matching the single-vector :meth:`apply`.
        """
        return self.apply_batch(vectors, add_noise=add_noise, compute_reference=False).value

    def matmul(self, inputs: np.ndarray, add_noise: bool = True) -> np.ndarray:
        """Execution-backend hook: analog ``W @ X`` through :meth:`apply_batch`.

        Real-valued problems come back as real arrays so the result can be
        compared (or rounded) against the digital reference directly.
        """
        return self.apply_batch(inputs, add_noise=add_noise, compute_reference=False).value
