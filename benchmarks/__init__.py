"""Benchmark harness: paper-experiment benchmarks and the section registry."""
