"""Phase shifter models: volatile thermo-optic and non-volatile PCM.

The central device-level argument of the paper is that thermo-optic phase
shifters burn static electrical power to *hold* a programmed weight, while
PCM phase shifters hold it for free (non-volatile) at the cost of discrete
programming levels, programming energy, and a small excess optical loss.
Both device types expose the same interface so the mesh and energy models
can swap them transparently.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from repro.materials.pcm import GSST, PCMMaterial
from repro.materials.silicon import SiliconWaveguideMaterial


@dataclass
class PhaseShifter:
    """Abstract phase shifter: a programmable single-mode phase element.

    Attributes:
        phase: programmed phase [rad], stored wrapped to [0, 2*pi).
        insertion_loss_db: static insertion loss of the element.
    """

    phase: float = 0.0
    insertion_loss_db: float = 0.0

    def __post_init__(self):
        if self.insertion_loss_db < 0.0:
            raise ValueError("insertion_loss_db must be non-negative")
        self.phase = float(np.mod(self.phase, 2.0 * np.pi))

    @property
    def is_volatile(self) -> bool:
        """Whether holding the phase costs static power."""
        raise NotImplementedError

    def set_phase(self, phase: float) -> float:
        """Program a new phase; returns the actually realised phase [rad]."""
        self.phase = float(np.mod(phase, 2.0 * np.pi))
        return self.phase

    @property
    def field_transmission(self) -> complex:
        """Complex field transfer coefficient of the programmed element."""
        amplitude = 10.0 ** (-self.total_loss_db / 20.0)
        return complex(amplitude * np.exp(1j * self.phase))

    @property
    def total_loss_db(self) -> float:
        """Total optical loss in dB for the current programmed state."""
        return self.insertion_loss_db

    def static_power(self) -> float:
        """Electrical power [W] required to hold the programmed phase."""
        raise NotImplementedError

    def programming_energy(self, previous_phase: Optional[float] = None) -> float:
        """Energy [J] to program the current phase from ``previous_phase``."""
        raise NotImplementedError


@dataclass
class ThermoOpticPhaseShifter(PhaseShifter):
    """Volatile thermo-optic phase shifter (heater over an SOI waveguide).

    Attributes:
        material: SOI material model providing the per-pi heater power.
        response_time: thermal time constant [s], limits reprogram rate.
    """

    material: SiliconWaveguideMaterial = field(default_factory=SiliconWaveguideMaterial)
    response_time: float = 10e-6
    insertion_loss_db: float = 0.05

    @property
    def is_volatile(self) -> bool:
        return True

    def static_power(self) -> float:
        """Holding power is proportional to the programmed phase."""
        return self.material.heater_power_for_phase(self.phase)

    def programming_energy(self, previous_phase: Optional[float] = None) -> float:
        """Energy of one reprogramming step.

        Approximated as the new holding power integrated over one thermal
        time constant (the energy needed to settle the heater).
        """
        return self.static_power() * self.response_time


@dataclass
class PCMPhaseShifter(PhaseShifter):
    """Non-volatile multilevel PCM phase shifter.

    The phase is set by partially crystallising a PCM patch of a given
    length on top of the waveguide.  Only ``n_levels`` discrete crystalline
    fractions are reachable, so programmed phases are quantised; the excess
    optical absorption of the crystalline phase contributes a
    state-dependent loss.

    Attributes:
        material: PCM material model.
        patch_length: length of the PCM patch along the waveguide [m].
        patch_cross_section_um2: patch cross-section [um^2] (for switching
            energy).
        confinement: modal overlap with the PCM patch.
        n_levels: number of programmable levels.
        full_range_phase: phase reached at 100% crystallisation [rad].
            If ``None`` it is derived from the material and geometry.
    """

    material: PCMMaterial = field(default_factory=lambda: GSST)
    patch_length: float = 9e-6
    patch_cross_section_um2: float = 0.08
    confinement: float = 0.1
    n_levels: int = 16
    full_range_phase: Optional[float] = None
    insertion_loss_db: float = 0.1

    def __post_init__(self):
        super().__post_init__()
        if self.n_levels < 2:
            raise ValueError("a PCM phase shifter needs at least 2 levels")
        if self.patch_length <= 0.0:
            raise ValueError("patch_length must be positive")
        if self.full_range_phase is None:
            self.full_range_phase = abs(
                self.material.phase_shift_per_length(1.0, self.confinement)
                * self.patch_length
            )
        self._level = 0
        self._crystalline_fraction = 0.0
        # Re-apply the initial phase through the quantiser.
        self.set_phase(self.phase)

    @property
    def is_volatile(self) -> bool:
        return False

    @property
    def level(self) -> int:
        """Currently programmed discrete level index."""
        return self._level

    @property
    def crystalline_fraction(self) -> float:
        """Crystalline fraction of the currently programmed level."""
        return self._crystalline_fraction

    @property
    def phase_levels(self) -> np.ndarray:
        """The reachable phase values [rad], one per level."""
        fractions = self.material.level_fractions(self.n_levels)
        return np.array(
            [
                abs(
                    self.material.phase_shift_per_length(f, self.confinement)
                    * self.patch_length
                )
                for f in fractions
            ]
        )

    def set_phase(self, phase: float) -> float:
        """Program the closest reachable phase level.

        The requested phase is first folded into the reachable range
        ``[0, full_range_phase]`` modulo 2*pi; phases beyond the full range
        saturate at the maximum level.  Returns the realised phase.
        """
        requested = float(np.mod(phase, 2.0 * np.pi))
        levels = self.phase_levels
        reachable = np.minimum(requested, levels[-1]) if levels[-1] > 0 else 0.0
        self._level = int(np.argmin(np.abs(levels - reachable)))
        self._crystalline_fraction = float(
            self.material.level_fractions(self.n_levels)[self._level]
        )
        self.phase = float(levels[self._level])
        return self.phase

    @property
    def total_loss_db(self) -> float:
        """Insertion loss plus the state-dependent PCM absorption."""
        alpha = self.material.absorption_per_length(
            self._crystalline_fraction, self.confinement
        )
        pcm_loss_db = 10.0 * np.log10(np.e) * alpha * self.patch_length
        return self.insertion_loss_db + max(pcm_loss_db, 0.0)

    def static_power(self) -> float:
        """Non-volatile: holding the phase costs no electrical power."""
        return 0.0

    def programming_energy(self, previous_phase: Optional[float] = None) -> float:
        """Energy of one programming operation.

        A programming operation is only needed when the level changes; its
        energy is the material switching energy for the patch volume.  When
        ``previous_phase`` is ``None`` a full (re)programming is assumed.
        """
        if previous_phase is not None:
            levels = self.phase_levels
            previous_level = int(
                np.argmin(np.abs(levels - np.minimum(np.mod(previous_phase, 2 * np.pi), levels[-1])))
            )
            if previous_level == self._level:
                return 0.0
        volume_um3 = self.patch_cross_section_um2 * self.patch_length * 1e6
        return self.material.switching_energy(volume_um3)

    def quantize(self, phase: float) -> float:
        """Return the phase the device would realise for ``phase`` without programming it."""
        saved_level = self._level
        saved_fraction = self._crystalline_fraction
        saved_phase = self.phase
        realized = self.set_phase(phase)
        self._level = saved_level
        self._crystalline_fraction = saved_fraction
        self.phase = saved_phase
        return realized
