"""Benchmark of the mathcorpus command-line pipeline (see README.md)."""
