"""Timing models: the paper's LLC latencies and the analytic CPI model."""
