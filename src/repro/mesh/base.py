"""Base classes shared by all multiport-interferometer mesh architectures.

A mesh is a programmable linear-optical circuit: an ordered sequence of
two-mode MZI elements (each with phases theta and phi) plus a final column
of single-mode output phase shifters.  Given programmed phases it realises
an N x N matrix on the optical field amplitudes; given a target unitary a
mesh architecture provides a programming routine (analytic decomposition or
numerical optimisation) to find those phases.

The forward model applies each 2x2 block to the two affected columns of the
accumulating transfer matrix (O(K * N) work for K MZIs) rather than
composing full N x N matmuls per MZI, so building an N-mode mesh matrix is
O(N^3) overall.  Phases and layout live in flat NumPy arrays;
``placements`` exposes them as :class:`MZIPlacement` objects for
programming routines and introspection.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np

from repro.devices.mzi import ideal_mzi_blocks, physical_mzi_blocks
from repro.utils.linalg import is_unitary


@dataclass
class MZIPlacement:
    """One programmable MZI in a mesh.

    Attributes:
        mode: index of the upper mode the MZI couples (couples ``mode`` and
            ``mode + 1``).
        theta: splitting angle [rad] in [0, pi/2] for an ideal device.
        phi: external phase [rad].
        column: physical column (depth position) of the MZI; used for
            circuit-depth and footprint accounting, not for the matrix
            product order.
    """

    mode: int
    theta: float = 0.0
    phi: float = 0.0
    column: int = 0


@dataclass
class MeshErrorModel:
    """Hardware non-idealities applied when building a *physical* mesh matrix.

    Attributes:
        phase_error_std: std-dev of Gaussian phase programming error [rad],
            applied independently to every theta and phi.
        coupler_ratio_error_std: std-dev of the splitting-ratio error of
            every directional coupler (nominal ratio 0.5).
        mzi_insertion_loss_db: excess loss per MZI.
        phase_quantization_levels: if not None, phases are quantised onto
            this many uniform levels over [0, 2*pi) (models multilevel PCM
            programming).
        rng: seed or generator for drawing the random errors.
    """

    phase_error_std: float = 0.0
    coupler_ratio_error_std: float = 0.0
    mzi_insertion_loss_db: float = 0.0
    phase_quantization_levels: Optional[int] = None
    rng: object = None

    def quantize_phase(self, phase: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """Quantise phases onto the PCM level grid (no-op when disabled).

        Accepts a scalar or an array; a scalar in gives a float back, an
        array is quantised elementwise in one shot.
        """
        if self.phase_quantization_levels is None:
            return phase
        n_levels = int(self.phase_quantization_levels)
        if n_levels < 2:
            raise ValueError("phase_quantization_levels must be >= 2")
        step = 2.0 * np.pi / n_levels
        quantized = np.round(np.mod(phase, 2.0 * np.pi) / step) * step
        if np.ndim(phase) == 0:
            return float(quantized)
        return quantized


class MZIMesh:
    """Base class for MZI mesh architectures.

    Subclasses define the MZI layout (``_build_placements``) and a
    programming routine (``program``).  The base class provides the forward
    model: applying the per-MZI 2x2 blocks (ideal or with an error model)
    to the accumulating N x N transfer matrix.

    Internally the layout and phases are stored as flat arrays
    (``_mzi_modes``, ``_mzi_thetas``, ``_mzi_phis``, ``_mzi_columns``); the
    ``placements`` property materialises them as :class:`MZIPlacement`
    snapshots and its setter ingests a placement list, so programming
    routines keep their object-level interface.
    """

    #: human-readable architecture name, overridden by subclasses
    name = "base"

    def __init__(self, n_modes: int):
        if n_modes < 2:
            raise ValueError("a mesh needs at least 2 modes")
        self.n_modes = int(n_modes)
        self.output_phases = np.zeros(self.n_modes)
        self._ideal_cache = None
        self.placements = self._build_placements()

    # ------------------------------------------------------------------ #
    # layout / bookkeeping
    # ------------------------------------------------------------------ #
    def _build_placements(self) -> List[MZIPlacement]:
        """Return the ordered MZI placements of an un-programmed mesh."""
        raise NotImplementedError

    @property
    def placements(self) -> List[MZIPlacement]:
        """The ordered MZI placements as a snapshot list.

        Mutating the returned objects does not write back into the mesh;
        assign a (possibly modified) list to ``placements`` to reprogram the
        layout and phases.
        """
        return [
            MZIPlacement(mode=int(m), theta=float(t), phi=float(p), column=int(c))
            for m, t, p, c in zip(
                self._mzi_modes, self._mzi_thetas, self._mzi_phis, self._mzi_columns
            )
        ]

    @placements.setter
    def placements(self, value: Sequence[MZIPlacement]) -> None:
        value = list(value)
        count = len(value)
        self._mzi_modes = np.fromiter((p.mode for p in value), dtype=np.int64, count=count)
        self._mzi_thetas = np.fromiter((p.theta for p in value), dtype=float, count=count)
        self._mzi_phis = np.fromiter((p.phi for p in value), dtype=float, count=count)
        self._mzi_columns = np.fromiter((p.column for p in value), dtype=np.int64, count=count)
        self._ideal_cache = None

    @property
    def n_mzis(self) -> int:
        """Number of MZIs in the mesh."""
        return len(self._mzi_modes)

    @property
    def n_phase_shifters(self) -> int:
        """Total number of programmable phase shifters (2 per MZI + outputs)."""
        return 2 * self.n_mzis + self.n_modes

    @property
    def depth(self) -> int:
        """Circuit depth: number of physical MZI columns."""
        if self.n_mzis == 0:
            return 0
        return int(self._mzi_columns.max()) + 1

    def phase_vector(self) -> np.ndarray:
        """All programmable phases as a flat vector (thetas, phis, outputs)."""
        return np.concatenate(
            [self._mzi_thetas, self._mzi_phis, np.asarray(self.output_phases, dtype=float)]
        )

    def set_phase_vector(self, phases: Sequence[float]) -> None:
        """Set all programmable phases from a flat vector (inverse of ``phase_vector``)."""
        phases = np.asarray(phases, dtype=float)
        n_mzis = self.n_mzis
        expected = 2 * n_mzis + self.n_modes
        if phases.shape != (expected,):
            raise ValueError(f"expected {expected} phases, got {phases.shape}")
        self._mzi_thetas = phases[:n_mzis].copy()
        self._mzi_phis = phases[n_mzis : 2 * n_mzis].copy()
        self.output_phases = phases[2 * n_mzis :].copy()
        self._ideal_cache = None

    # ------------------------------------------------------------------ #
    # forward model
    # ------------------------------------------------------------------ #
    def matrix(self, error_model: Optional[MeshErrorModel] = None) -> np.ndarray:
        """Transfer matrix realised by the currently programmed phases.

        Without an error model the ideal algebraic MZI matrices are used
        and the result is exactly unitary.  With an error model, phases are
        perturbed/quantised and physical MZI matrices (imperfect couplers,
        loss) are composed instead.
        """
        if error_model is None:
            return self._ideal_matrix()
        return self._physical_matrix(error_model)

    def _compose(self, diagonal_phases: np.ndarray, blocks: np.ndarray) -> np.ndarray:
        """Compose ``diag(e^{i phases}) . T_1 . T_2 ...`` with 2-column updates.

        Right-multiplying the accumulator by an embedded 2x2 block only
        touches the two columns of the block's mode pair, so each factor is
        an (N, 2) @ (2, 2) product instead of an N x N matmul.
        """
        result = np.diag(np.exp(1j * np.asarray(diagonal_phases, dtype=float))).astype(complex)
        for mode, block in zip(self._mzi_modes, blocks):
            cols = result[:, mode : mode + 2]
            result[:, mode : mode + 2] = cols @ block
        return result

    def _ideal_matrix(self) -> np.ndarray:
        cache_key = self.phase_vector()
        if self._ideal_cache is not None and np.array_equal(self._ideal_cache[0], cache_key):
            return self._ideal_cache[1].copy()
        # placements[0] is the factor closest to the output-phase diagonal:
        # U = D * T(placements[0]) * T(placements[1]) * ...
        blocks = ideal_mzi_blocks(self._mzi_thetas, self._mzi_phis)
        result = self._compose(self.output_phases, blocks)
        self._ideal_cache = (cache_key, result.copy())
        return result

    def _physical_matrix(self, error_model: MeshErrorModel) -> np.ndarray:
        from repro.utils.rng import ensure_rng

        generator = ensure_rng(error_model.rng)
        n_mzis = self.n_mzis
        phase_std = error_model.phase_error_std
        coupler_std = error_model.coupler_ratio_error_std
        output = np.asarray(self.output_phases, dtype=float).copy()
        thetas = self._mzi_thetas.copy()
        phis = self._mzi_phis.copy()

        # All random errors are drawn in bulk, in the exact stream order of
        # the historical per-element loop (output phases first, then
        # theta/phi/coupler-in/coupler-out interleaved per MZI), so a given
        # seed keeps describing the same fabricated chip.
        if phase_std > 0:
            output = output + phase_std * generator.standard_normal(output.shape)
        ratios_in = ratios_out = None
        n_per_mzi = (2 if phase_std > 0 else 0) + (2 if coupler_std > 0 else 0)
        if n_per_mzi:
            draws = generator.standard_normal((n_mzis, n_per_mzi))
            column = 0
            if phase_std > 0:
                thetas = thetas + phase_std * draws[:, 0]
                phis = phis + phase_std * draws[:, 1]
                column = 2
            if coupler_std > 0:
                ratios_in = np.clip(0.5 + coupler_std * draws[:, column], 0.0, 1.0)
                ratios_out = np.clip(0.5 + coupler_std * draws[:, column + 1], 0.0, 1.0)
        output = error_model.quantize_phase(output)
        thetas = error_model.quantize_phase(thetas)
        phis = error_model.quantize_phase(phis)
        blocks = physical_mzi_blocks(
            thetas,
            phis,
            ratios_in=ratios_in,
            ratios_out=ratios_out,
            arm_loss_db=error_model.mzi_insertion_loss_db,
        )
        return self._compose(output, blocks)

    def transform(self, input_fields: np.ndarray, error_model: Optional[MeshErrorModel] = None) -> np.ndarray:
        """Propagate a vector of input field amplitudes through the mesh."""
        input_fields = np.asarray(input_fields, dtype=complex)
        if input_fields.shape[-1] != self.n_modes:
            raise ValueError(
                f"input has {input_fields.shape[-1]} modes, mesh has {self.n_modes}"
            )
        return input_fields @ self.matrix(error_model).T

    # ------------------------------------------------------------------ #
    # programming
    # ------------------------------------------------------------------ #
    def program(self, target_unitary: np.ndarray) -> "MZIMesh":
        """Program the mesh phases to realise ``target_unitary``.

        Returns ``self`` for chaining.  Subclasses implement either an
        analytic decomposition or a numerical optimisation.
        """
        raise NotImplementedError

    def _check_target(self, target_unitary: np.ndarray) -> np.ndarray:
        target = np.asarray(target_unitary, dtype=complex)
        if target.shape != (self.n_modes, self.n_modes):
            raise ValueError(
                f"target must be {self.n_modes}x{self.n_modes}, got {target.shape}"
            )
        if not is_unitary(target, atol=1e-6):
            raise ValueError("target matrix is not unitary; use an SVD core for general matrices")
        return target

    def component_count(self) -> dict:
        """Inventory of active components (for footprint/energy accounting)."""
        return {
            "mzis": self.n_mzis,
            "phase_shifters": self.n_phase_shifters,
            "couplers": 2 * self.n_mzis,
            "modes": self.n_modes,
            "depth": self.depth,
        }
