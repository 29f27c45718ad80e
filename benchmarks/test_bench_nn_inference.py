"""E6: deep-learning inference accuracy on the photonic MVM core.

Regenerates the accuracy-vs-analog-precision curve for a small MLP
classifier executed on the photonic datapath: float reference, ideal
photonic, 8-bit converters with detector noise, and decreasing PCM weight
level counts.
"""

from repro.core import MLP, PhotonicMLP, QuantizationSpec, train_mlp
from repro.eval import classification_accuracy, format_table, make_digit_dataset

WEIGHT_LEVELS = (None, 64, 16, 8)


def _inference_study(n_eval=24):
    dataset = make_digit_dataset(n_samples_per_class=40, n_classes=4, n_features=16, rng=0)
    model = MLP.random_init([dataset.n_features, 12, dataset.n_classes], rng=0)
    train_mlp(model, dataset.train_x, dataset.train_y, epochs=25, rng=0)
    test_x, test_y = dataset.test_x[:n_eval], dataset.test_y[:n_eval]

    rows = [["float reference", "-", classification_accuracy(model.predict(test_x), test_y)]]
    rows.append([
        "photonic ideal", "-",
        PhotonicMLP(model, quantization=QuantizationSpec.ideal(), add_noise=False, rng=0)
        .accuracy(test_x, test_y),
    ])
    for levels in WEIGHT_LEVELS:
        photonic = PhotonicMLP(
            model, quantization=QuantizationSpec(8, 8, levels), add_noise=True, rng=1
        )
        label = "analog 8b I/O" if levels is None else f"analog 8b I/O + {levels}-level PCM"
        rows.append([label, levels if levels else "continuous", photonic.accuracy(test_x, test_y)])
    return rows


def test_bench_photonic_mlp_accuracy():
    rows = _inference_study()
    print("\n[E6] MLP classification accuracy on the photonic core")
    print(format_table(["configuration", "weight levels", "accuracy"], rows))
    accuracies = [row[2] for row in rows]
    float_accuracy, ideal_accuracy = accuracies[0], accuracies[1]
    # The ideal photonic path must reproduce the float model exactly.
    assert ideal_accuracy == float_accuracy
    # 8-bit analog operation stays close to the float baseline...
    assert accuracies[2] >= float_accuracy - 0.15
    # ...and accuracy degrades monotonically (within noise) as the PCM level
    # count shrinks, with 8-level weights clearly below the float baseline
    # or at best equal.
    assert accuracies[-1] <= accuracies[2] + 1e-9
