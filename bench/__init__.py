"""Benchmark harness for fewboost; run it with ``python3 bench/run.py``."""
