"""Run provenance: a manifest describing exactly what was simulated.

Every :class:`~repro.sim.simulator.RunResult` carries a
:class:`RunManifest` recording the scheme's configuration, the trace's
metadata, the RNG seed, wall-clock phase timings, and the interpreter /
platform the run executed on.  The ``content_hash`` covers only the
*deterministic* inputs (scheme, geometry, config, trace metadata, seed,
package version) so two identical runs hash identically — benchmark
JSONs become reproducible and diffable — while wall-clock and host
details remain visible but outside the hash.
"""

from __future__ import annotations

import functools
import hashlib
import json
import platform
import sys
from dataclasses import asdict, dataclass, field, is_dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Union

from repro._version import __version__
from repro.common.io import atomic_write_text

#: Scalar attribute types copied into a scheme description.
_SCALARS = (int, float, bool, str)

#: Cache attributes that are bookkeeping, not configuration.
_SKIPPED_ATTRS = frozenset({"name", "seed"})


def describe_scheme(cache: Any) -> Dict[str, Any]:
    """Deterministic configuration summary of any cache scheme object.

    Collects the class name, the geometry, any ``config`` dataclass
    (e.g. :class:`~repro.core.config.StemConfig`) and every public
    scalar attribute — which captures knobs such as SBC's
    ``saturation_limit`` or V-Way's ``tag_ratio`` without per-scheme
    special cases.
    """
    description: Dict[str, Any] = {
        "class": type(cache).__name__,
        "scheme": getattr(cache, "name", type(cache).__name__),
    }
    geometry = getattr(cache, "geometry", None)
    if geometry is not None:
        description["geometry"] = {
            "num_sets": geometry.num_sets,
            "associativity": geometry.associativity,
            "line_size": geometry.line_size,
        }
    config = getattr(cache, "config", None)
    if is_dataclass(config) and not isinstance(config, type):
        description["config"] = asdict(config)
    policy = getattr(cache, "policy", None)
    if policy is not None:
        description["policy"] = getattr(policy, "name", type(policy).__name__)
    for attr, value in sorted(vars(cache).items()):
        if attr.startswith("_") or attr in _SKIPPED_ATTRS:
            continue
        if isinstance(value, _SCALARS):
            description[attr] = value
    return description


@dataclass(frozen=True)
class RunManifest:
    """Provenance record for one (scheme, trace) simulation."""

    scheme: str
    trace_name: str
    seed: Optional[int]
    scheme_config: Dict[str, Any]
    trace_metadata: Dict[str, Any]
    package_version: str
    python_version: str
    platform: str
    warmup_seconds: float
    measured_seconds: float
    measured_accesses: int
    content_hash: str = field(default="", compare=False)

    @property
    def wall_clock_seconds(self) -> float:
        """Total simulation wall-clock (warm-up + measured)."""
        return self.warmup_seconds + self.measured_seconds

    @property
    def accesses_per_second(self) -> float:
        """Measured-phase simulation throughput."""
        if self.measured_seconds <= 0.0:
            return 0.0
        return self.measured_accesses / self.measured_seconds

    def hashed_payload(self) -> Dict[str, Any]:
        """The deterministic inputs covered by :attr:`content_hash`."""
        return {
            "scheme": self.scheme,
            "trace_name": self.trace_name,
            "seed": self.seed,
            "scheme_config": self.scheme_config,
            "trace_metadata": self.trace_metadata,
            "package_version": self.package_version,
        }

    def as_dict(self) -> Dict[str, Any]:
        """JSON-serialisable view (derived throughput included)."""
        record = asdict(self)
        record["wall_clock_seconds"] = self.wall_clock_seconds
        record["accesses_per_second"] = self.accesses_per_second
        return record

    def save(self, path: Union[str, Path]) -> None:
        """Write the manifest as JSON, atomically (write-then-rename).

        A manifest is the provenance record other tooling trusts, so a
        crash mid-save must leave either the previous complete file or
        the new complete file — never a truncated one.
        """
        atomic_write_text(
            path,
            json.dumps(self.as_dict(), indent=2, sort_keys=True) + "\n",
        )


@functools.cache
def host_platform() -> str:
    """The host's system, release, machine and C library, as one string.

    ``platform.platform()`` asks a ``uname -p`` subprocess for the
    processor, once per process.  The forked child inherits its
    parent's peak RSS, so a process that waits for it reads that peak
    again as its largest child's.  This string skips the processor: on
    Linux it equals ``platform.platform()`` unless ``uname -p`` names a
    processor other than the machine.  Computed once per process.
    """
    libc, version = platform.libc_ver()
    parts = [platform.system(), platform.release(), platform.machine()]
    if libc:
        parts += ["with", libc + version]
    return "-".join(part for part in parts if part)


def canonical_digest(payload: Dict[str, Any]) -> str:
    """sha256 of ``payload``'s canonical JSON: sorted keys, no spaces.

    The one content hash of manifests, run-cache keys, campaign spec
    digests and result digests.
    """
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def build_manifest(
    cache: Any,
    trace: Any,
    warmup_seconds: float = 0.0,
    measured_seconds: float = 0.0,
    measured_accesses: int = 0,
    seed: Optional[int] = None,
) -> RunManifest:
    """Assemble the manifest for one finished run.

    ``seed`` defaults to the ``seed`` attribute
    :func:`~repro.sim.config.make_scheme` stamps on the caches it
    builds; hand-constructed caches may pass it explicitly.
    """
    if seed is None:
        seed = getattr(cache, "seed", None)
    metadata = getattr(trace, "metadata", None)
    if is_dataclass(metadata) and not isinstance(metadata, type):
        trace_metadata = asdict(metadata)
    else:
        trace_metadata = {"name": getattr(trace, "name", str(trace))}
    trace_metadata["accesses"] = len(trace)
    scheme_config = describe_scheme(cache)
    manifest = RunManifest(
        scheme=scheme_config["scheme"],
        trace_name=trace_metadata.get("name", ""),
        seed=seed,
        scheme_config=scheme_config,
        trace_metadata=trace_metadata,
        package_version=__version__,
        python_version=sys.version.split()[0],
        platform=host_platform(),
        warmup_seconds=warmup_seconds,
        measured_seconds=measured_seconds,
        measured_accesses=measured_accesses,
    )
    digest = canonical_digest(manifest.hashed_payload())
    object.__setattr__(manifest, "content_hash", digest)
    return manifest
