"""Benchmark of the MBQC-QAOA loop and served jobs (see README.md)."""
