"""Temporal LLC management: the replacement-policy family.

LRU/LIP/BIP/DIP/FIFO/Random/NRU/SRRIP are online policies pluggable
into :class:`repro.cache.basecache.SetAssociativeCache`; PeLIFO adds
fill-stack learning; :mod:`repro.policies.belady` provides the offline
OPT oracle used by analyses.
"""
