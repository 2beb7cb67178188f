"""STEM — the paper's contribution: spatiotemporal LLC management.

:class:`StemCache` is the whole controller, each set's SCDM (shadow
set, SC_S and SC_T) included; :class:`StemConfig` holds its knobs.
"""

from repro.core.config import PAPER_STEM_CONFIG, StemConfig
from repro.core.stem_cache import StemCache

__all__ = [
    "PAPER_STEM_CONFIG",
    "StemCache",
    "StemConfig",
]
