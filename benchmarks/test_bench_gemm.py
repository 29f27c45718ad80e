"""E5: GeMM via time-division multiplexing vs DWDM wavelength parallelism.

Regenerates the Section 4 claim that GeMM generalisation can use multiple
DWDM channels "processed in parallel in a single multiport interferometer
without incurring additional resource costs": latency and throughput of the
TDM and WDM schedules versus channel count, plus the accuracy cost of
inter-channel crosstalk.
"""

import numpy as np

from repro.core import PhotonicMVM, QuantizationSpec, TDMGeMM, WDMGeMM, WDMChannelPlan
from repro.eval import format_table

CHANNEL_COUNTS = (1, 2, 4, 8)


def _gemm_comparison(n=8, batch=16):
    rng = np.random.default_rng(0)
    weights = rng.normal(size=(n, n))
    inputs = rng.normal(size=(n, batch))
    engine = PhotonicMVM(weights, quantization=QuantizationSpec(8, 8, None), rng=0)

    rows = []
    tdm = TDMGeMM(engine).multiply(inputs)
    rows.append(["TDM", 1, tdm.n_passes, tdm.latency_s, tdm.throughput_macs_per_s,
                 tdm.relative_error, 1])
    for channels in CHANNEL_COUNTS[1:]:
        plan = WDMChannelPlan(n_channels=channels, crosstalk_db=-30)
        wdm = WDMGeMM(engine, plan, rng=1).multiply(inputs)
        rows.append(["WDM", channels, wdm.n_passes, wdm.latency_s,
                     wdm.throughput_macs_per_s, wdm.relative_error,
                     plan.resource_overhead()["meshes"]])
    return rows


def test_bench_tdm_vs_wdm_gemm():
    rows = _gemm_comparison()
    print("\n[E5] GeMM scheduling: TDM vs DWDM channels (8x8 x 16 columns)")
    print(format_table(
        ["schedule", "channels", "mesh passes", "latency (s)",
         "throughput (MAC/s)", "relative error", "meshes used"],
        rows,
    ))
    latency = {row[1]: row[3] for row in rows}
    error = {row[1]: row[5] for row in rows}
    # Latency drops roughly linearly with the channel count...
    assert latency[8] < latency[4] < latency[1]
    assert latency[1] / latency[8] > 4
    # ...while the mesh count stays at one and the accuracy cost of -30 dB
    # crosstalk remains small (same order as the TDM analog error).
    assert all(row[6] == 1 for row in rows)
    assert error[8] < 3 * error[1] + 0.05
