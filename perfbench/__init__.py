"""Drift-corrected end-to-end benchmark of the photonic accelerator stack.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
from the repository root; ``perfbench/NOTES.md`` explains the workloads and
metrics.
"""
