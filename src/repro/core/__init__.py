"""STEM — the paper's contribution: spatiotemporal LLC management.

:class:`~repro.core.stem_cache.StemCache` is the whole controller, each
set's SCDM (shadow set, SC_S and SC_T) included;
:class:`~repro.core.config.StemConfig` holds its knobs.
"""
