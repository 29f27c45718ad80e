"""Bitwise oracles of the SoC cost-model fit and the single-shot START protocol.

The literals pin, bit for bit, the coefficients ``SoCCostModel.calibrate``
fits and the device state each step of the single-shot START protocol
leaves.  They must not change: a refactor of either path that moves one
bit of a coefficient, a status word, a counter or an output word fails
here.
"""

import numpy as np
import pytest

from repro.compiler.costmodel import SoCCostModel
from repro.system.accelerator import REG_TILES_DONE
from repro.system.mmr import CTRL_ENQUEUE, CTRL_OFFSET, CTRL_START, DATA_OFFSET
from repro.system.soc import PhotonicSoC

# ---------------------------------------------------------------------- #
# calibrate: the hex of every coefficient array (default probes and seed)
# ---------------------------------------------------------------------- #
CLUSTERS = {
    "1-photonic": ("photonic",),
    "2-photonic": ("photonic",) * 2,
    "4-photonic": ("photonic",) * 4,
    "photonic+mac": ("photonic", "mac"),
    "2-mac": ("mac",) * 2,
}

CALIBRATED_COEFFS = {
    "1-photonic": {
        "dma": "3533333333331340343333333333e33f9cd1acbc9aed403d",
        "host": "020000000000344001000000000024400000000000002440",
        "photonic": "030000000000f03fae21d816b2bd61bc5d83ea9ae60f323c50010ffaa8af7bbc",
    },
    "2-photonic": {
        "dma": "3233333333331340333333333333e33f5ac75d53a65627bd",
        "host": "ba6ddbb66ddb3640b96ddbb66ddb2640b96ddbb66ddb1640",
        "photonic": "040000000000f03f3ea00847929f94bc8daa6300561b423caa6a2e8860e77ebc",
    },
    "4-photonic": {
        "dma": "3433333333331340363333333333e33fea150eb79da538bd",
        "host": "407b09ed25b437403f7b09ed25b427403f7b09ed25b40740",
        "photonic": "050000000000f03fe19fb9e66f0f9bbcb94cea2d47d3523cb1f1512fa42590bc",
    },
    "photonic+mac": {
        "dma": "3233333333331340333333333333e33f5ac75d53a65627bd",
        "host": "ba6ddbb66ddb3640b96ddbb66ddb2640b96ddbb66ddb1640",
        "mac-array": "2d3fe1cf843f15406c45df1c7d73084041a13d60f680b93fae59114b452cc5bf",
        "photonic": "9e3fe1cf843f15406b45df1c7d73084061903d60f680b93fde59114b452cc5bf",
    },
    "2-mac": {
        "dma": "3233333333331340333333333333e33f5ac75d53a65627bd",
        "host": "ba6ddbb66ddb3640b96ddbb66ddb2640b96ddbb66ddb1640",
        "mac-array": "c332e1cf843f23404f47df1c7d73184001983d60f680c93f4053114b452cd5bf",
    },
}


def _cluster(kinds):
    soc = PhotonicSoC()
    for kind in kinds:
        if kind == "photonic":
            soc.add_photonic_accelerator()
        else:
            soc.add_mac_array_accelerator()
    return soc


def _coefficient_hex(model):
    return {
        "dma": np.asarray(model.dma_coeffs, dtype=float).tobytes().hex(),
        "host": np.asarray(model.host_coeffs, dtype=float).tobytes().hex(),
        **{
            device: np.asarray(coeffs, dtype=float).tobytes().hex()
            for device, coeffs in sorted(model.compute_coeffs.items())
        },
    }


class TestCalibrationOracle:
    @pytest.mark.parametrize("cluster", sorted(CLUSTERS))
    def test_calibrated_coefficients_are_bitwise_pinned(self, cluster):
        model = SoCCostModel.calibrate(_cluster(CLUSTERS[cluster]))
        assert _coefficient_hex(model) == CALIBRATED_COEFFS[cluster]


# ---------------------------------------------------------------------- #
# single-shot START on a 1-PE SoC with 1 KiB scratchpads
# ---------------------------------------------------------------------- #
A_ADDR, B_ADDR, C_ADDR = 0x1000, 0x4000, 0x8000


def _registers(rows, inner, cols):
    """The eight descriptor data registers of a dense tile."""
    return [A_ADDR, B_ADDR, C_ADDR, rows, inner, cols, 0, 0]


ZEROS = (0,) * 20
PRODUCT_4X4X4 = (
    1, 5, 4, 4294967294, 5, 4294967294, 4294967282, 4,
    2, 5, 3, 4294967292, 4294967295, 4294967280, 4294967295, 9,
    0, 0, 0, 0,
)
PRODUCT_10X20X2 = (
    4294967295, 6, 6, 4294967295, 4294967281, 4294967295, 6, 6, 4294967295,
    4294967281, 4294967295, 6, 6, 4294967295, 4294967295, 6, 6, 4294967295,
    4294967281, 4294967295,
)

#: steps -> one snapshot per control write, each taken once the event
#: queue has drained: (mmr.status, busy, stats.invocations,
#: REG_TILES_DONE, mmr.write_count, cycle, first 20 output words)
START_CASES = {
    "rows-zero": (
        [("regs", _registers(0, 4, 4)), ("ctrl", CTRL_START)],
        [(4, False, 0, 0, 9, 0, ZEROS)],
    ),
    "larger-than-scratchpad": (
        [("regs", _registers(20, 20, 2)), ("ctrl", CTRL_START)],
        [(4, False, 0, 0, 9, 0, ZEROS)],
    ),
    "exclusive": (
        [("regs", _registers(10, 20, 2)), ("ctrl", CTRL_START)],
        [(2, False, 1, 1, 9, 1284, PRODUCT_10X20X2)],
    ),
    "good-after-refused": (
        [
            ("regs", _registers(0, 4, 4)), ("ctrl", CTRL_START),
            ("regs", _registers(4, 4, 4)), ("ctrl", CTRL_START),
        ],
        [
            (4, False, 0, 0, 9, 0, ZEROS),
            (2, False, 1, 1, 18, 235, PRODUCT_4X4X4),
        ],
    ),
    "start-after-invalid-enqueue": (
        [
            ("regs", _registers(0, 4, 4)), ("ctrl", CTRL_ENQUEUE),
            ("regs", _registers(4, 4, 4)), ("ctrl", CTRL_START),
            ("ctrl", CTRL_START),
        ],
        [
            (4, False, 0, 0, 9, 0, ZEROS),
            (4, False, 0, 0, 18, 0, ZEROS),
            (2, False, 1, 1, 19, 235, PRODUCT_4X4X4),
        ],
    ),
}


def _run_start_protocol(steps):
    soc = PhotonicSoC()
    pe = soc.add_photonic_accelerator(scratchpad_bytes=1024)
    soc.main_memory.load_words(A_ADDR, [(i % 7) - 3 for i in range(400)])
    soc.main_memory.load_words(B_ADDR, [(i % 5) - 2 for i in range(80)])
    snapshots = []
    for kind, value in steps:
        if kind == "regs":
            for index, word in enumerate(value):
                soc.bus.write_word(pe.mmr_base + DATA_OFFSET + 4 * index, word)
            continue
        soc.bus.write_word(pe.mmr_base + CTRL_OFFSET, value)
        soc.scheduler.run()
        snapshots.append((
            pe.mmr.status,
            pe.busy,
            pe.stats.invocations,
            pe.mmr.data_register(REG_TILES_DONE),
            pe.mmr.write_count,
            soc.scheduler.current_cycle,
            tuple(soc.main_memory.dump_words(C_ADDR, 20)),
        ))
    return snapshots


class TestSingleShotStartOracle:
    @pytest.mark.parametrize("case", sorted(START_CASES))
    def test_start_protocol_is_bitwise_pinned(self, case):
        steps, expected = START_CASES[case]
        assert _run_start_protocol(steps) == expected
