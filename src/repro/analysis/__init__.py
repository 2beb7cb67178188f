"""Analyses: stack distances, capacity demand, metrics, classification,
hardware overhead."""
