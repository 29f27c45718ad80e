"""Tests for the input modulator and output photodetector models."""

import numpy as np
import pytest

from repro.devices.modulator import MachZehnderModulator
from repro.devices.photodetector import Photodetector


class TestMachZehnderModulator:
    def test_encode_full_scale(self):
        modulator = MachZehnderModulator(insertion_loss_db=0.0)
        assert modulator.encode(np.array([1.0]))[0] == pytest.approx(1.0)

    def test_encode_quantizes_to_dac_grid(self):
        modulator = MachZehnderModulator(dac_bits=2, insertion_loss_db=0.0, extinction_ratio_db=60)
        encoded = modulator.encode(np.array([0.4]))[0]
        assert encoded == pytest.approx(1.0 / 3.0, abs=1e-9)

    def test_encode_floors_zero_at_extinction(self):
        modulator = MachZehnderModulator(extinction_ratio_db=30.0, insertion_loss_db=0.0)
        assert modulator.encode(np.array([0.0]))[0] == pytest.approx(10 ** (-30 / 20))

    def test_insertion_loss_scales_output(self):
        lossy = MachZehnderModulator(insertion_loss_db=3.0)
        lossless = MachZehnderModulator(insertion_loss_db=0.0)
        assert lossy.encode(np.array([1.0]))[0] == pytest.approx(
            lossless.encode(np.array([1.0]))[0] * 10 ** (-3 / 20)
        )

    def test_rejects_out_of_range_values(self):
        modulator = MachZehnderModulator()
        with pytest.raises(ValueError):
            modulator.encode(np.array([1.5]))
        with pytest.raises(ValueError):
            modulator.encode(np.array([-0.2]))

    def test_rejects_any_negative_value(self):
        with pytest.raises(ValueError):
            MachZehnderModulator().encode(np.array([[0.5, 0.2], [-1e-300, 1.0]]))

    def test_full_scale_tolerance_is_one_part_in_1e12(self):
        modulator = MachZehnderModulator()
        assert modulator.encode(np.array([1 + 1e-12])).shape == (1,)
        with pytest.raises(ValueError):
            modulator.encode(np.array([1 + 2e-12]))

    def test_empty_input_encodes_to_empty(self):
        encoded = MachZehnderModulator().encode(np.array([]))
        assert encoded.shape == (0,)
        assert encoded.dtype == np.float64

    def test_nan_passes_through_unless_another_value_is_out_of_range(self):
        modulator = MachZehnderModulator(insertion_loss_db=0.0)
        encoded = modulator.encode(np.array([np.nan, 1.0]))
        assert np.isnan(encoded[0])
        assert encoded[1] == pytest.approx(1.0)
        assert np.isnan(modulator.encode(np.array([np.nan, np.nan]))).all()
        for neighbour in (-0.5, 2.0):
            with pytest.raises(ValueError):
                modulator.encode(np.array([np.nan, neighbour]))

    def test_encoding_energy(self):
        modulator = MachZehnderModulator(energy_per_symbol=50e-15)
        assert modulator.encoding_energy(100) == pytest.approx(5e-12)

    def test_encoding_energy_rejects_negative(self):
        with pytest.raises(ValueError):
            MachZehnderModulator().encoding_energy(-1)

    def test_symbol_rate_is_bandwidth(self):
        assert MachZehnderModulator(bandwidth_hz=25e9).symbol_rate == 25e9

    def test_rejects_invalid_configuration(self):
        with pytest.raises(ValueError):
            MachZehnderModulator(dac_bits=0)
        with pytest.raises(ValueError):
            MachZehnderModulator(extinction_ratio_db=0.0)


class TestPhotodetector:
    def test_photocurrent_linear_in_power(self):
        detector = Photodetector(responsivity=0.8, dark_current=0.0)
        assert detector.photocurrent(np.array([1e-3]))[0] == pytest.approx(0.8e-3)

    def test_photocurrent_rejects_negative_power(self):
        with pytest.raises(ValueError):
            Photodetector().photocurrent(np.array([-1.0]))

    def test_noise_grows_with_power(self):
        detector = Photodetector()
        low = detector.noise_std(np.array([1e-6]))[0]
        high = detector.noise_std(np.array([1e-3]))[0]
        assert high > low

    def test_noiseless_detection_recovers_intensity(self):
        detector = Photodetector(adc_bits=0, dark_current=0.0)
        fields = np.array([0.5 + 0.0j, 0.25j])
        intensities = detector.detect(fields, add_noise=False)
        assert intensities[0] == pytest.approx(0.25, rel=1e-6)
        assert intensities[1] == pytest.approx(0.0625, rel=1e-6)

    def test_adc_quantization_levels(self):
        detector = Photodetector(adc_bits=2, dark_current=0.0)
        values = detector.detect(np.array([np.sqrt(0.4)]), add_noise=False)
        grid = np.array([0.0, 1 / 3, 2 / 3, 1.0])
        assert np.min(np.abs(grid - values[0])) < 1e-9

    def test_noisy_detection_is_reproducible_with_seed(self):
        detector = Photodetector()
        fields = np.array([0.3, 0.7], dtype=complex)
        a = detector.detect(fields, rng=5)
        b = detector.detect(fields, rng=5)
        assert np.allclose(a, b)

    def test_readout_energy(self):
        detector = Photodetector(energy_per_sample=200e-15)
        assert detector.readout_energy(10) == pytest.approx(2e-12)

    def test_readout_energy_rejects_negative(self):
        with pytest.raises(ValueError):
            Photodetector().readout_energy(-5)

    def test_invalid_configuration_rejected(self):
        with pytest.raises(ValueError):
            Photodetector(responsivity=0.0)
        with pytest.raises(ValueError):
            Photodetector(bandwidth_hz=0.0)
