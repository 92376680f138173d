"""Benchmark for the msmil slide classifier; run it with `python3 perfbench/run.py`."""
