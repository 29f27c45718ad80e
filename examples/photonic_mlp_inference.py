"""Photonic neural-network inference (the paper's edge-AI motivation).

Trains a small MLP on a synthetic digit-like dataset with plain NumPy, then
re-runs inference through the photonic MVM engines with increasing levels
of hardware realism:

* ideal photonic datapath (sanity check — must match the float model),
* 8-bit DAC/ADC with detector noise,
* additionally 16-level PCM weight quantisation,
* additionally random phase errors in the meshes.

The printed table is the accuracy-vs-precision trade-off the accelerator
designer cares about (experiment E6).

Run with:  python examples/photonic_mlp_inference.py
"""

from repro.core import MLP, PhotonicMLP, QuantizationSpec, train_mlp
from repro.eval import classification_accuracy, format_table, make_digit_dataset
from repro.mesh import MeshErrorModel


def main() -> None:
    dataset = make_digit_dataset(n_samples_per_class=50, n_classes=4, n_features=16, rng=0)

    model = MLP.random_init([dataset.n_features, 12, dataset.n_classes], rng=0)
    losses = train_mlp(model, dataset.train_x, dataset.train_y, epochs=30, rng=0)
    float_accuracy = classification_accuracy(model.predict(dataset.test_x), dataset.test_y)
    print(f"training loss: {losses[0]:.3f} -> {losses[-1]:.3f}")
    print(f"float32 test accuracy: {float_accuracy:.3f}\n")

    # Keep the photonic evaluation set small: every sample is a sequence of
    # analog mesh traversals.
    test_x, test_y = dataset.test_x[:30], dataset.test_y[:30]
    float_subset_accuracy = classification_accuracy(model.predict(test_x), test_y)

    configurations = [
        ("ideal photonic", QuantizationSpec.ideal(), None, False),
        ("8-bit I/O + noise", QuantizationSpec(8, 8, None), None, True),
        ("+ 16-level PCM weights", QuantizationSpec(8, 8, 16), None, True),
        ("+ 0.05 rad phase error", QuantizationSpec(8, 8, 16),
         MeshErrorModel(phase_error_std=0.05, rng=7), True),
    ]
    rows = [["float reference", float_subset_accuracy]]
    for label, quantization, error_model, noise in configurations:
        photonic = PhotonicMLP(
            model,
            quantization=quantization,
            error_model=error_model,
            add_noise=noise,
            rng=1,
        )
        rows.append([label, photonic.accuracy(test_x, test_y)])

    print(format_table(["configuration", "test accuracy"], rows))


if __name__ == "__main__":
    main()
