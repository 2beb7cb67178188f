"""Simulation driver: scheme factory, trace runner, sweeps, tables."""
