"""Extraction benchmark: ``python3 perfbench/run.py --help``; choices in ``perfbench/METRICS.md``."""
