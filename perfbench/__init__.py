"""Benchmark of the ARSP program; see README.md in this directory."""
