"""Workloads: traces, synthetic streams and SPEC-like benchmark models."""
