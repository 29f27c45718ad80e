"""High-speed Mach-Zehnder modulator (MZM) used as the input vector encoder.

Input vectors are encoded onto the optical amplitudes of the mesh inputs by
an array of high-speed (>50 GHz in the paper's platform) MZMs driven by
DACs.  The model captures the three non-idealities that matter at the
architecture level: finite DAC resolution, finite extinction ratio, and
modulator insertion loss.  Energy per symbol feeds the accelerator energy
model.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class MachZehnderModulator:
    """Amplitude modulator with a DAC driver.

    Attributes:
        dac_bits: DAC resolution in bits (amplitude levels = 2**bits).
        extinction_ratio_db: ratio between maximum and minimum transmitted
            power; limits how close to zero an encoded value can get.
        insertion_loss_db: optical insertion loss.
        bandwidth_hz: 3-dB electro-optic bandwidth; sets the symbol rate.
        energy_per_symbol: electrical energy per encoded symbol [J]
            (driver + DAC), typical tens of fJ for SiPh MZMs.
    """

    dac_bits: int = 8
    extinction_ratio_db: float = 30.0
    insertion_loss_db: float = 3.0
    bandwidth_hz: float = 50e9
    energy_per_symbol: float = 50e-15

    def __post_init__(self):
        if self.dac_bits < 1:
            raise ValueError("dac_bits must be >= 1")
        if self.extinction_ratio_db <= 0.0:
            raise ValueError("extinction_ratio_db must be positive")

    @property
    def symbol_rate(self) -> float:
        """Maximum symbol rate [baud], taken as the EO bandwidth."""
        return self.bandwidth_hz

    @property
    def minimum_amplitude(self) -> float:
        """Smallest encodable field amplitude (extinction-ratio floor)."""
        return float(10.0 ** (-self.extinction_ratio_db / 20.0))

    @property
    def field_transmission(self) -> float:
        """Peak field transmission (insertion loss only)."""
        return float(10.0 ** (-self.insertion_loss_db / 20.0))

    def encode(self, values: np.ndarray) -> np.ndarray:
        """Encode normalised values in [0, 1] into output field amplitudes.

        Values are quantised to the DAC grid, floored at the extinction
        limit, and scaled by the insertion loss.  Values outside [0, 1]
        raise ``ValueError`` — the accelerator layer is responsible for
        normalising its inputs.
        """
        values = np.asarray(values, dtype=float)
        # fmin/fmax skip NaNs, so a NaN passes unless another value is out
        # of range, as with elementwise comparisons.
        if values.size and (
            np.fmin.reduce(values, axis=None) < 0.0
            or np.fmax.reduce(values, axis=None) > 1.0 + 1e-12
        ):
            raise ValueError("modulator inputs must be normalised into [0, 1]")
        n_levels = 2 ** self.dac_bits
        quantized = np.round(np.clip(values, 0.0, 1.0) * (n_levels - 1)) / (n_levels - 1)
        floored = np.maximum(quantized, self.minimum_amplitude * (quantized > 0))
        # keep exact zeros at the extinction floor rather than zero
        floored = np.where(quantized == 0.0, self.minimum_amplitude, floored)
        return self.field_transmission * floored

    def encoding_energy(self, n_symbols: int) -> float:
        """Total driver energy [J] to encode ``n_symbols`` symbols."""
        if n_symbols < 0:
            raise ValueError("n_symbols must be non-negative")
        return self.energy_per_symbol * n_symbols
