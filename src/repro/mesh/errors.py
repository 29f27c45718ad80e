"""Error-injection helpers for mesh robustness studies (experiment E3).

The robustness of a mesh architecture is measured by programming it for a
target unitary under ideal assumptions and then evaluating the matrix it
*actually* realises when hardware errors are applied: phase programming
noise, coupler splitting-ratio errors, per-MZI insertion loss and PCM phase
quantisation.  This module wraps those perturbations into convenient
sweep factories on top of :class:`repro.mesh.base.MeshErrorModel`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.mesh.base import MeshErrorModel
from repro.utils.linalg import matrix_fidelity, normalized_frobenius_error
from repro.utils.rng import RngLike, ensure_rng


@dataclass(frozen=True)
class ErrorSweepPoint:
    """Result of evaluating one mesh under one error magnitude."""

    architecture: str
    n_modes: int
    error_kind: str
    error_magnitude: float
    fidelity_mean: float
    fidelity_std: float
    frobenius_error_mean: float


def phase_error_model(sigma: float, rng: RngLike = None, quantization: Optional[int] = None) -> MeshErrorModel:
    """Error model with Gaussian phase-programming noise of std ``sigma`` [rad]."""
    return MeshErrorModel(
        phase_error_std=float(sigma), phase_quantization_levels=quantization, rng=rng
    )


def coupler_error_model(sigma: float, rng: RngLike = None) -> MeshErrorModel:
    """Error model with Gaussian coupler splitting-ratio error of std ``sigma``."""
    return MeshErrorModel(coupler_ratio_error_std=float(sigma), rng=rng)


def loss_error_model(loss_db: float) -> MeshErrorModel:
    """Error model with a deterministic per-MZI insertion loss [dB]."""
    return MeshErrorModel(mzi_insertion_loss_db=float(loss_db))


def quantization_error_model(n_levels: int) -> MeshErrorModel:
    """Error model with PCM phase quantisation onto ``n_levels`` levels."""
    return MeshErrorModel(phase_quantization_levels=int(n_levels))


def evaluate_mesh_under_error(
    mesh,
    target_unitary: np.ndarray,
    error_model: MeshErrorModel,
    n_trials: int = 10,
    rng: RngLike = 0,
) -> dict:
    """Evaluate fidelity statistics of a programmed mesh under an error model.

    The mesh must already be programmed for ``target_unitary``.  Each trial
    draws fresh random errors (the seed stream is derived from ``rng``) and
    the mean/std fidelity and mean Frobenius error are returned.
    """
    generator = ensure_rng(rng)
    fidelities = []
    frobenius = []
    for _ in range(max(1, n_trials)):
        trial_model = MeshErrorModel(
            phase_error_std=error_model.phase_error_std,
            coupler_ratio_error_std=error_model.coupler_ratio_error_std,
            mzi_insertion_loss_db=error_model.mzi_insertion_loss_db,
            phase_quantization_levels=error_model.phase_quantization_levels,
            rng=generator.integers(0, 2**31 - 1),
        )
        realized = mesh.matrix(trial_model)
        fidelities.append(matrix_fidelity(realized, target_unitary))
        frobenius.append(normalized_frobenius_error(realized, target_unitary))
    return {
        "fidelity_mean": float(np.mean(fidelities)),
        "fidelity_std": float(np.std(fidelities)),
        "frobenius_error_mean": float(np.mean(frobenius)),
    }


def sweep_error_magnitude(
    mesh_factory,
    target_unitary: np.ndarray,
    error_kind: str,
    magnitudes: Sequence[float],
    n_trials: int = 10,
    rng: RngLike = 0,
) -> List[ErrorSweepPoint]:
    """Sweep one error kind over a list of magnitudes for one architecture.

    ``mesh_factory`` is a zero-argument callable returning a fresh mesh of
    the right size; ``error_kind`` is one of ``"phase"``, ``"coupler"``,
    ``"loss"`` or ``"quantization"`` (for quantisation the magnitude is the
    number of levels).
    """
    builders = {
        "phase": phase_error_model,
        "coupler": coupler_error_model,
        "loss": lambda magnitude, rng=None: loss_error_model(magnitude),
        "quantization": lambda magnitude, rng=None: quantization_error_model(int(magnitude)),
    }
    if error_kind not in builders:
        raise ValueError(f"unknown error kind {error_kind!r}; known: {sorted(builders)}")
    target = np.asarray(target_unitary, dtype=complex)
    results = []
    generator = ensure_rng(rng)
    for magnitude in magnitudes:
        mesh = mesh_factory()
        mesh.program(target)
        model = builders[error_kind](magnitude, rng=generator.integers(0, 2**31 - 1))
        stats = evaluate_mesh_under_error(
            mesh, target, model, n_trials=n_trials, rng=generator.integers(0, 2**31 - 1)
        )
        results.append(
            ErrorSweepPoint(
                architecture=mesh.name,
                n_modes=mesh.n_modes,
                error_kind=error_kind,
                error_magnitude=float(magnitude),
                fidelity_mean=stats["fidelity_mean"],
                fidelity_std=stats["fidelity_std"],
                frobenius_error_mean=stats["frobenius_error_mean"],
            )
        )
    return results
