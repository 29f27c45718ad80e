"""Phase-change material (PCM) models.

The paper's key device-level augmentation is a non-volatile optical phase
shifter realised by a PCM patch (GSST, GeSe, or classic GST) on top of a
silicon waveguide, switched between amorphous and (partially) crystalline
states by an integrated heater.  Two material properties drive all
architecture-level conclusions:

* the complex refractive-index contrast ``delta_n + i*delta_k`` between the
  amorphous and crystalline phases at 1550 nm, and
* the figure of merit ``FOM = delta_n / delta_k`` — a large FOM means a
  large phase shift can be programmed with little added optical loss.

The models here are deliberately phenomenological: the refractive index of a
partially crystallised patch is interpolated between the two end states with
an effective-medium (Lorentz-Lorenz style) mixing rule, and multilevel
operation is modelled as a finite set of reachable crystalline fractions.
Literature values are taken from the papers cited in the DAC manuscript
(Soref 2015 for GeSe, Dory 2020 for Ge-Sb-S-Se-Te alloys, and the widely
used GST225 numbers as a low-FOM baseline).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np


@dataclass(frozen=True)
class PCMState:
    """A programmed state of a PCM cell.

    Attributes:
        crystalline_fraction: fraction of the patch volume in the
            crystalline phase, in ``[0, 1]``.
        level: index of the discrete level this fraction corresponds to, or
            ``None`` for a continuously programmed state.
    """

    crystalline_fraction: float
    level: Optional[int] = None

    def __post_init__(self):
        if not 0.0 <= self.crystalline_fraction <= 1.0:
            raise ValueError("crystalline_fraction must lie in [0, 1]")


@dataclass(frozen=True)
class PCMMaterial:
    """Optical model of a phase-change material at a fixed wavelength.

    Attributes:
        name: human-readable material name.
        n_amorphous / k_amorphous: real and imaginary refractive index in
            the amorphous phase at ``wavelength``.
        n_crystalline / k_crystalline: same for the fully crystalline phase.
        wavelength: vacuum wavelength the indices are quoted at [m].
        switching_energy_per_um3: energy to switch 1 um^3 of material
            between phases (single SET or RESET pulse) [J].
        switching_time: duration of a switching pulse [s].
        retention_years: nominal non-volatile retention.
    """

    name: str
    n_amorphous: float
    k_amorphous: float
    n_crystalline: float
    k_crystalline: float
    wavelength: float = 1550e-9
    switching_energy_per_um3: float = 10e-12
    switching_time: float = 100e-9
    retention_years: float = 10.0

    @property
    def delta_n(self) -> float:
        """Real refractive-index contrast between the two phases."""
        return self.n_crystalline - self.n_amorphous

    @property
    def delta_k(self) -> float:
        """Imaginary refractive-index (extinction) contrast between phases."""
        return self.k_crystalline - self.k_amorphous

    @property
    def figure_of_merit(self) -> float:
        """FOM = |delta_n| / |delta_k| (larger is better for phase shifting)."""
        if self.delta_k == 0.0:
            return float("inf")
        return abs(self.delta_n) / abs(self.delta_k)

    def effective_index(self, crystalline_fractions) -> np.ndarray:
        """Vectorised effective complex index for partially crystallised patches.

        Accepts a scalar or an array of crystalline fractions and returns
        the Lorentz-Lorenz effective-medium index elementwise; this is the
        kernel the array-backed synapse state evaluates for whole weight
        matrices at once.
        """
        fractions = np.asarray(crystalline_fractions, dtype=float)
        if np.any(fractions < 0.0) or np.any(fractions > 1.0):
            raise ValueError("crystalline_fraction must lie in [0, 1]")
        eps_a = (self.n_amorphous + 1j * self.k_amorphous) ** 2
        eps_c = (self.n_crystalline + 1j * self.k_crystalline) ** 2
        # Lorentz-Lorenz mixing on (eps - 1)/(eps + 2).
        mix = fractions * (eps_c - 1.0) / (eps_c + 2.0) + (1.0 - fractions) * (
            eps_a - 1.0
        ) / (eps_a + 2.0)
        eps_eff = (1.0 + 2.0 * mix) / (1.0 - mix)
        index = np.sqrt(eps_eff)
        # The physical branch has non-negative absorption.
        return np.where(index.imag < 0, -index, index)

    def refractive_index(self, crystalline_fraction: float) -> complex:
        """Effective complex index for a partially crystallised patch.

        Uses the Lorentz-Lorenz effective-medium approximation on the
        complex permittivity, which is the standard model for partially
        crystallised PCM cells and reduces to the end-point values at
        fractions 0 and 1.
        """
        return complex(self.effective_index(crystalline_fraction))

    def phase_shift_per_length(self, crystalline_fraction, confinement: float = 0.1):
        """Phase shift per unit length relative to the amorphous state [rad/m].

        ``confinement`` is the fraction of the optical mode overlapping the
        PCM patch (the patch sits on top of the waveguide, so only a small
        part of the mode sees it).  Scalar in, float out; array in, array out.
        """
        if not 0.0 < confinement <= 1.0:
            raise ValueError("confinement must lie in (0, 1]")
        index = self.effective_index(crystalline_fraction)
        index_a = self.effective_index(0.0)
        delta_n_eff = confinement * (index.real - index_a.real)
        shift = 2.0 * np.pi * delta_n_eff / self.wavelength
        return float(shift) if np.ndim(crystalline_fraction) == 0 else shift

    def absorption_per_length(self, crystalline_fraction, confinement: float = 0.1):
        """Excess power absorption coefficient relative to amorphous [1/m].

        Returned ``alpha`` attenuates power as ``exp(-alpha * L)``.
        Scalar in, float out; array in, array out.
        """
        if not 0.0 < confinement <= 1.0:
            raise ValueError("confinement must lie in (0, 1]")
        index = self.effective_index(crystalline_fraction)
        index_a = self.effective_index(0.0)
        delta_k_eff = confinement * (index.imag - index_a.imag)
        alpha = 4.0 * np.pi * delta_k_eff / self.wavelength
        return float(alpha) if np.ndim(crystalline_fraction) == 0 else alpha

    def level_fractions(self, n_levels: int) -> np.ndarray:
        """Crystalline fractions of an ``n_levels``-state multilevel cell.

        Levels are spaced uniformly in crystalline fraction, the standard
        assumption for partial-crystallisation multilevel programming.
        """
        if n_levels < 2:
            raise ValueError("a multilevel cell needs at least 2 levels")
        return np.linspace(0.0, 1.0, n_levels)

    def switching_energy(self, volume_um3: float) -> float:
        """Energy of one programming pulse for a patch of given volume [J]."""
        if volume_um3 <= 0.0:
            raise ValueError("volume must be positive")
        return self.switching_energy_per_um3 * volume_um3


#: GSST (Ge2Sb2Se4Te1): the low-loss PCM highlighted in the paper.
GSST = PCMMaterial(
    name="GSST",
    n_amorphous=3.325,
    k_amorphous=0.0002,
    n_crystalline=5.083,
    k_crystalline=0.350,
    switching_energy_per_um3=8e-12,
    switching_time=50e-9,
)

#: GeSe: very low loss in both states (Soref 2015), large FOM.
GESE = PCMMaterial(
    name="GeSe",
    n_amorphous=2.45,
    k_amorphous=0.0001,
    n_crystalline=3.05,
    k_crystalline=0.012,
    switching_energy_per_um3=12e-12,
    switching_time=80e-9,
)

#: GST225: classic, lossy PCM used as an unfavourable baseline.
GST225 = PCMMaterial(
    name="GST225",
    n_amorphous=3.94,
    k_amorphous=0.045,
    n_crystalline=6.11,
    k_crystalline=0.83,
    switching_energy_per_um3=15e-12,
    switching_time=30e-9,
)

#: Registry of the built-in materials, keyed by lower-case name.
registry: Dict[str, PCMMaterial] = {
    "gsst": GSST,
    "gese": GESE,
    "gst225": GST225,
}


def get_material(name: str) -> PCMMaterial:
    """Look up a built-in PCM material by (case-insensitive) name."""
    key = name.strip().lower()
    if key not in registry:
        raise KeyError(f"unknown PCM material {name!r}; known: {sorted(registry)}")
    return registry[key]
