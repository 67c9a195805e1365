"""Benchmark of the autconj solvers; run it with perfbench/run.py."""
