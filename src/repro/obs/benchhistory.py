"""Bench-history ledger: throughput trajectory across recordings.

``BENCH_throughput.json`` pins a single snapshot — the last recorded
accesses/sec per scheme — which the BENCH_GUARD CI step compares fresh
measurements against.  What it cannot answer is *trajectory*: did STEM
get slower three recordings ago and nobody noticed because each step
stayed inside the guard ratio?

The ledger fixes that.  Every ``BENCH_RECORD=1`` run **appends** one
entry to ``BENCH_HISTORY.jsonl`` — schemes with their accesses/sec and
run-manifest hashes (provenance: a rate is only comparable when the
workload hash matches), plus the machine parameters that make
cross-entry comparison honest (platform, Python version, CPU count,
package version).  The file is append-only JSONL, so history survives
re-records and merges cleanly.

On top of the ledger sit:

* :func:`detect_regressions` — per-scheme verdicts comparing the latest
  entry against the best of a trailing reference window, used by the
  BENCH_GUARD step to report trajectory next to its hard floor;
* :func:`render_history` — the ``repro bench --history`` trend view
  (per-scheme sparkline, best/latest, drift).
"""

from __future__ import annotations

import platform
import os
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

from repro._version import __version__
from repro.common.errors import ConfigError
from repro.common.jsonl import TAIL, JsonlAppender, JsonlCorruption, read_jsonl
from repro.obs.manifest import host_platform

#: Trailing entries (excluding the latest) a regression check uses as
#: its reference window.
DEFAULT_REFERENCE_WINDOW = 5

#: Latest/reference ratio below which a scheme counts as regressed.
DEFAULT_REGRESSION_RATIO = 0.8

#: Unicode block sparkline alphabet, slowest to fastest.
_SPARK = "▁▂▃▄▅▆▇█"


def machine_params() -> Dict[str, Any]:
    """The environment fingerprint stamped on every ledger entry."""
    return {
        "platform": host_platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count(),
    }


def make_entry(
    schemes: Dict[str, Dict[str, Any]],
    recorded_at: Optional[str] = None,
) -> Dict[str, Any]:
    """Build one ledger entry from per-scheme measurement dicts.

    ``schemes`` maps scheme key to (at least) ``accesses_per_sec`` and
    ``manifest_hash`` — the same shape ``BENCH_throughput.json``
    stores.
    """
    return {
        "recorded_at": (
            recorded_at
            if recorded_at is not None
            else datetime.now(timezone.utc).isoformat(timespec="seconds")
        ),
        "package_version": __version__,
        "machine": machine_params(),
        "schemes": {
            name: {
                "accesses_per_sec": values["accesses_per_sec"],
                "manifest_hash": values.get("manifest_hash"),
            }
            for name, values in sorted(schemes.items())
        },
    }


def append_history(
    path: Union[str, Path], entry: Dict[str, Any]
) -> Path:
    """Append one entry to the ledger (one JSON line, fsynced)."""
    with JsonlAppender(path, fsync=True) as ledger:
        ledger.write(entry)
    return Path(path)


def load_history(path: Union[str, Path]) -> List[Dict[str, Any]]:
    """Read the ledger, oldest first; a missing file is empty history.

    A torn tail (a recorder killed mid-append) is dropped, per the
    contract of :mod:`repro.common.jsonl`; a malformed line anywhere
    else is corruption and raises.
    """
    path = Path(path)
    if not path.is_file():
        return []
    try:
        read = read_jsonl(path, TAIL)
    except JsonlCorruption as exc:
        raise ConfigError(f"{path}:{exc.line}: malformed ledger line") from exc
    return [entry for entry in read.records if isinstance(entry, dict)]


def scheme_trajectories(
    history: List[Dict[str, Any]]
) -> Dict[str, List[float]]:
    """Per-scheme accesses/sec across entries (gaps skipped)."""
    trajectories: Dict[str, List[float]] = {}
    for entry in history:
        for name, values in entry.get("schemes", {}).items():
            rate = values.get("accesses_per_sec")
            if isinstance(rate, (int, float)):
                trajectories.setdefault(name, []).append(float(rate))
    return trajectories


@dataclass(frozen=True)
class TrajectoryVerdict:
    """Regression verdict for one scheme's throughput trajectory."""

    scheme: str
    latest: float
    reference: float
    ratio: float
    regressed: bool

    def __str__(self) -> str:
        direction = "REGRESSED" if self.regressed else "ok"
        return (
            f"{self.scheme}: {self.latest:,.0f} acc/s vs reference "
            f"{self.reference:,.0f} ({self.ratio:.2f}x) — {direction}"
        )

    def as_dict(self) -> Dict[str, Any]:
        """Flat JSON-serialisable view (``--history --json``, server)."""
        return {
            "scheme": self.scheme,
            "latest": self.latest,
            "reference": self.reference,
            "ratio": self.ratio,
            "regressed": self.regressed,
        }


def detect_regressions(
    history: List[Dict[str, Any]],
    ratio: float = DEFAULT_REGRESSION_RATIO,
    reference_window: int = DEFAULT_REFERENCE_WINDOW,
) -> List[TrajectoryVerdict]:
    """Compare each scheme's newest rate against its recent best.

    The reference is the **best** rate over the last
    ``reference_window`` entries preceding the newest one — best, not
    mean, so a sequence of small step-downs that never individually
    trips the guard still shows up as drift from the peak.  Schemes
    with fewer than two data points have no trajectory and are skipped.
    """
    if not 0 < ratio <= 1:
        raise ConfigError(f"ratio must lie in (0, 1], got {ratio}")
    if reference_window < 1:
        raise ConfigError(
            f"reference_window must be >= 1, got {reference_window}"
        )
    verdicts: List[TrajectoryVerdict] = []
    for scheme, rates in sorted(scheme_trajectories(history).items()):
        if len(rates) < 2:
            continue
        latest = rates[-1]
        reference = max(rates[-1 - reference_window:-1])
        achieved = latest / reference if reference > 0 else 1.0
        verdicts.append(TrajectoryVerdict(
            scheme=scheme,
            latest=latest,
            reference=reference,
            ratio=round(achieved, 4),
            regressed=achieved < ratio,
        ))
    return verdicts


def history_document(
    history: List[Dict[str, Any]],
    ratio: float = DEFAULT_REGRESSION_RATIO,
    reference_window: int = DEFAULT_REFERENCE_WINDOW,
) -> Dict[str, Any]:
    """The machine-readable trajectory document.

    This is what ``repro bench --history --json`` prints and the
    observatory serves at ``/api/regressions``: the ledger span, every
    per-scheme :class:`TrajectoryVerdict`, and the sorted list of
    regressed schemes — so CI can gate on trajectory (exit code 3)
    without parsing the human trend view.
    """
    verdicts = detect_regressions(
        history, ratio=ratio, reference_window=reference_window
    )
    return {
        "entries": len(history),
        "first_recorded_at": (
            history[0].get("recorded_at") if history else None
        ),
        "last_recorded_at": (
            history[-1].get("recorded_at") if history else None
        ),
        "ratio": ratio,
        "reference_window": reference_window,
        "verdicts": [verdict.as_dict() for verdict in verdicts],
        "regressed": sorted(
            verdict.scheme for verdict in verdicts if verdict.regressed
        ),
    }


def _sparkline(rates: List[float]) -> str:
    low, high = min(rates), max(rates)
    if high <= low:
        return _SPARK[-1] * len(rates)
    span = high - low
    return "".join(
        _SPARK[int((rate - low) / span * (len(_SPARK) - 1))]
        for rate in rates
    )


def render_history(
    history: List[Dict[str, Any]],
    ratio: float = DEFAULT_REGRESSION_RATIO,
) -> str:
    """The ``repro bench --history`` trend view."""
    if not history:
        return "bench history: no entries recorded yet\n"
    lines = [
        f"bench history: {len(history)} recording(s), "
        f"{history[0].get('recorded_at', '?')} → "
        f"{history[-1].get('recorded_at', '?')}",
    ]
    verdicts = {v.scheme: v for v in detect_regressions(history, ratio=ratio)}
    trajectories = scheme_trajectories(history)
    width = max(len(name) for name in trajectories) + 2
    for scheme, rates in sorted(trajectories.items()):
        verdict = verdicts.get(scheme)
        if verdict is None:
            note = "(single point)"
        elif verdict.regressed:
            note = f"REGRESSED {verdict.ratio:.2f}x of recent best"
        else:
            note = f"{verdict.ratio:.2f}x of recent best"
        lines.append(
            f"  {scheme.ljust(width)} {_sparkline(rates)}  "
            f"latest {rates[-1]:>12,.0f} acc/s  "
            f"best {max(rates):>12,.0f}  {note}"
        )
    regressed = [v for v in verdicts.values() if v.regressed]
    if regressed:
        lines.append(
            f"{len(regressed)} scheme(s) below {ratio:.2f}x of their "
            f"recent best: "
            + ", ".join(sorted(v.scheme for v in regressed))
        )
    return "\n".join(lines) + "\n"
