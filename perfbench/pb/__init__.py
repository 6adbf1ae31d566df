"""Support code for the benchmark of record (``perfbench/run.py``)."""
