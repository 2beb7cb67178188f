"""Spatial LLC management: V-Way, SBC and their shared structures."""
