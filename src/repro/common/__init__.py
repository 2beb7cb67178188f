"""Shared plumbing: addressing, hashing, DIP's PSEL counter, RNGs, statistics."""
