"""The four benchmark workloads, and the references their cells must match.

Every workload is the paper's own evaluation shape: a scheme x
benchmark grid over Figure 6's capacity-demand classes, at 64 sets x
16 ways.

* ``hot_loop`` and ``observed`` run the same 18 cells (omnetpp, mcf and
  vpr, one benchmark per class, x the six paper schemes) in process.
  ``observed`` turns on windowed metrics, the capacity-flow ledger and
  live telemetry, which force the scalar access path.
* ``campaign_cold`` and ``campaign_resume`` run the 30-cell class I
  campaign through the journal, the run cache and the index with two
  pool workers; the second re-runs it over a completed directory.

The seed is the schemes' seed: it drives every random decision of DIP,
PeLIFO, V-Way, SBC and STEM.  The traces are each benchmark's fixed
model stream, as the campaign layer synthesises them, so every seed
does the same amount of trace work and only the schemes' choices vary.

A workload has three steps.  ``prepare`` builds the inputs,
``populate`` builds state the repetitions read but do not measure, and
``rep`` runs one repetition and returns a :class:`Rep`.
"""

from __future__ import annotations

import hashlib
import json
import shutil
from collections import OrderedDict
from dataclasses import asdict, dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.common.addressing import AddressMapper
from repro.common.errors import ConfigError
from repro.sim.campaign import run_campaign
from repro.sim.config import PAPER_SCHEMES, ExperimentScale
from repro.sim.runner import run_matrix
from repro.sim.simulator import RunResult
from repro.workloads import spec_like
from repro.workloads.benchmark_sets import BENCHMARK_SETS

SETS = 64
WAYS = 16
LINE = 64
JOBS = 2
METRICS_WINDOW = 4096
WARMUP_FRACTION = 0.25
GRID_BENCHMARKS = ("omnetpp", "mcf", "vpr")
CAMPAIGN_BENCHMARKS = BENCHMARK_SETS["class_i"]
CAMPAIGN_ARTIFACTS = ("matrix.txt", "summary.json")


def scheme_seed(seed: int) -> int:
    """Benchmark seed -> scheme (LFSR) seed; seed 0 gives 0xACE1.

    LFSR seeds must be non-zero in 16 bits, hence the fold.
    """
    return 1 + (0xACE0 + seed) % 0xFFFF


def seed_free(cell: str) -> bool:
    """LRU draws no random bits, so its cells are the same at every seed."""
    return cell.endswith("/LRU")


def cell_digest(result: RunResult) -> str:
    """What the simulation computed, without provenance.

    Covers the measured-window statistics and instruction count only;
    manifest hashes are deliberately left out because they include the
    package version.
    """
    payload = {
        "stats": asdict(result.stats),
        "measured_instructions": result.measured_instructions,
    }
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()[:16]


def lru_reference(addresses: List[int]) -> Tuple[int, int, int]:
    """(hits, misses, evictions) of a plain LRU cache over the window.

    An independent model of the baseline, kept deliberately naive: one
    ordered dict per set, reset after the same warm-up prefix the
    simulator discards.
    """
    sets = [OrderedDict() for _ in range(SETS)]
    warm = int(len(addresses) * WARMUP_FRACTION)
    hits = misses = evictions = 0
    offset = LINE.bit_length() - 1
    for position, address in enumerate(addresses):
        if position == warm:
            hits = misses = evictions = 0
        block = address >> offset
        lines = sets[block % SETS]
        if block in lines:
            lines.move_to_end(block)
            hits += 1
            continue
        misses += 1
        if len(lines) == WAYS:
            lines.popitem(last=False)
            evictions += 1
        lines[block] = None
    return hits, misses, evictions


@dataclass
class Rep:
    """One repetition: its wall time and what it computed.

    ``cells`` maps ``"<benchmark>/<scheme>"`` to the cell digest, or to
    None when the cell failed.  ``busy`` maps each scheme to the
    measured accesses and seconds its manifests report, and
    ``simulated_s`` sums the manifests' wall-clock seconds; both cover
    only cells this repetition simulated (a resumed campaign simulates
    none).
    """

    wall_s: float
    accesses: int
    cells: Dict[str, Optional[str]]
    busy: Dict[str, Tuple[int, float]] = field(default_factory=dict)
    simulated_s: float = 0.0
    lru: Dict[str, Tuple[int, int, int]] = field(default_factory=dict)
    lru_mpki: Dict[str, float] = field(default_factory=dict)
    artifacts: Dict[str, bytes] = field(default_factory=dict)
    problems: List[str] = field(default_factory=list)


def _collect(rep: Rep, matrix, benchmarks, simulated: bool) -> Rep:
    for benchmark in benchmarks:
        for scheme in PAPER_SCHEMES:
            name = f"{benchmark}/{scheme}"
            try:
                result = matrix.get(benchmark, scheme)
            except ConfigError:
                rep.cells[name] = None
                continue
            rep.cells[name] = cell_digest(result)
            if simulated:
                manifest = result.manifest
                done, busy = rep.busy.get(scheme, (0, 0.0))
                rep.busy[scheme] = (done + manifest.measured_accesses,
                                    busy + manifest.measured_seconds)
                rep.simulated_s += manifest.wall_clock_seconds
            if scheme == "LRU":
                stats = result.stats
                rep.lru[benchmark] = (
                    stats.hits, stats.misses, stats.evictions
                )
                rep.lru_mpki[benchmark] = result.mpki
    return rep


class GridWorkload:
    """``hot_loop`` (plain) and ``observed`` (every observer on)."""

    benchmarks = GRID_BENCHMARKS
    populated: Optional[Rep] = None

    def __init__(self, seed: int, length: int, work: Path,
                 observed: bool) -> None:
        self.seed = seed
        self.length = length
        self.work = work
        self.observed = observed
        self.scale = ExperimentScale(
            num_sets=SETS, associativity=WAYS, trace_length=length,
            warmup_fraction=WARMUP_FRACTION,
        )
        self.traces = []
        self._plain: Optional[Rep] = None

    def prepare(self) -> None:
        mapper = AddressMapper(num_sets=SETS, line_size=LINE)
        self.traces = [
            spec_like.make_benchmark_trace(
                name, num_sets=SETS, length=self.length
            )
            for name in self.benchmarks
        ]
        for trace in self.traces:
            trace.precompute_geometry(mapper)

    def populate(self) -> None:
        pass

    def grid(self, **options) -> Rep:
        """One pass over the 18 cells with the given observers."""
        started = perf_counter()
        matrix = run_matrix(
            self.traces, PAPER_SCHEMES, scale=self.scale,
            seed=scheme_seed(self.seed), **options,
        )
        wall = perf_counter() - started
        rep = Rep(wall, len(PAPER_SCHEMES) * self.length * len(self.traces),
                  {})
        return _collect(rep, matrix, self.benchmarks, simulated=True)

    def telemetry_dir(self, label: str) -> Path:
        path = self.work / "telemetry" / label
        shutil.rmtree(path, ignore_errors=True)
        return path

    def rep(self, label: str) -> Rep:
        if not self.observed:
            return self.grid()
        return self.grid(
            metrics_window=METRICS_WINDOW, ledger=True,
            telemetry_dir=self.telemetry_dir(label),
        )

    def plain_reference(self) -> Rep:
        """The plain grid, which ``observed`` must reproduce exactly."""
        if self._plain is None:
            self._plain = self.grid()
        return self._plain

    def overhead_reps(self) -> Dict[str, Rep]:
        """The grid once plain and once per observer, each on its own."""
        self.plain_reference()  # warms the plain path's lazy plans
        return {
            "plain": self.grid(),
            "metrics": self.grid(metrics_window=METRICS_WINDOW),
            "ledger": self.grid(ledger=True),
            "telemetry": self.grid(
                telemetry_dir=self.telemetry_dir("overhead")
            ),
        }

    def expected(self) -> Dict[str, str]:
        """Digests every repetition must match, beyond the golden."""
        return self.plain_reference().cells if self.observed else {}

    def lru_traces(self) -> Dict[str, List[int]]:
        """Address streams for the naive LRU model, one per benchmark."""
        return {trace.name: trace.addresses for trace in self.traces}


class CampaignWorkload:
    """``campaign_cold`` (fresh directory) and ``campaign_resume``."""

    benchmarks = CAMPAIGN_BENCHMARKS

    def __init__(self, seed: int, length: int, work: Path,
                 resume: bool) -> None:
        self.seed = seed
        self.length = length
        self.work = work
        self.resume = resume
        self.spec_path = work / "spec.json"
        self.completed = work / "completed"
        self.populated: Optional[Rep] = None

    def prepare(self) -> None:
        spec = {
            "name": "bench",
            "schemes": list(PAPER_SCHEMES),
            "benchmarks": ["class_i"],
            "geometries": [{"sets": SETS, "assoc": WAYS}],
            "seeds": [scheme_seed(self.seed)],
            "trace_length": self.length,
            "warmup_fraction": WARMUP_FRACTION,
        }
        self.work.mkdir(parents=True, exist_ok=True)
        self.spec_path.write_text(json.dumps(spec, indent=2) + "\n")

    def populate(self) -> None:
        if self.resume:
            shutil.rmtree(self.completed, ignore_errors=True)
            self.populated = self._run(self.completed)

    def _run(self, directory: Path) -> Rep:
        started = perf_counter()
        outcome = run_campaign(
            self.spec_path, directory=directory, jobs=JOBS,
            index_db=directory / "index.sqlite",
        )
        wall = perf_counter() - started
        rep = Rep(
            wall, len(PAPER_SCHEMES) * self.length * len(self.benchmarks), {}
        )
        _collect(rep, outcome.matrix, self.benchmarks,
                 simulated=outcome.executed > 0)
        for name in CAMPAIGN_ARTIFACTS:
            rep.artifacts[name] = (directory / name).read_bytes()
        if self.resume and self.populated is not None and outcome.executed:
            rep.problems.append(
                f"resume executed {outcome.executed} cell(s) instead of 0"
            )
        return rep

    def rep(self, label: str) -> Rep:
        if self.resume:
            return self._run(self.completed)
        directory = self.work / f"cold-{label}"
        try:
            return self._run(directory)
        finally:
            shutil.rmtree(directory, ignore_errors=True)

    def expected(self) -> Dict[str, str]:
        return {}

    def lru_traces(self) -> Dict[str, List[int]]:
        """None: the golden's seed-free LRU digests cover these cells."""
        return {}


def make_workload(name: str, seed: int, length: int, work: Path):
    if name in ("hot_loop", "observed"):
        return GridWorkload(seed, length, work, observed=name == "observed")
    if name in ("campaign_cold", "campaign_resume"):
        return CampaignWorkload(
            seed, length, work, resume=name == "campaign_resume"
        )
    raise ValueError(f"unknown workload {name!r}")
