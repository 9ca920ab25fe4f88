"""Benchmark for the translate engine; run ``python3 perfbench/run.py --help``."""
