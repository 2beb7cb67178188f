"""Run one workload in a fresh process: set up, measure, check, report.

``run.py`` starts this script once per workload with ``PYTHONHASHSEED=0``
and the package's ``src`` on ``PYTHONPATH``, passing its settings as
one JSON argument.  The script prints one JSON document as the last
line of its standard output and exits 1 when any cell failed.
"""

from time import perf_counter

STARTED = perf_counter()

import gc  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import Dict, List, Tuple  # noqa: E402

import spans  # noqa: E402
import workloads as wl  # noqa: E402
from repro.workloads.spec_like import BENCHMARKS  # noqa: E402

IMPORT_S = perf_counter() - STARTED

#: Input builds per run; ``setup_s`` takes their median.
SETUP_PASSES = 3

#: Accesses in the host-speed probe (see ``probe``).
PROBE_ACCESSES = 300_000

#: The probe's time on the reference host, a 2-vCPU Xeon VM: the
#: fastest of 179 probes over ten runs of each workload.  Timings are
#: reported at that speed (see ``measured``).
REFERENCE_PROBE_S = 0.21

#: Scheme display name -> the package layer that implements it.
SCHEME_LAYERS = {
    "LRU": "policies.lru",
    "DIP": "policies.dip",
    "PeLIFO": "policies.pelifo",
    "V-Way": "spatial.vway",
    "SBC": "spatial.sbc",
    "STEM": "core.stem",
}

Metrics = Dict[str, Dict[str, float]]


def _put(metrics: Metrics, name: str, value: float, unit: str) -> None:
    metrics[name] = {"value": float(value), "unit": unit}


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest pool worker."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + workers) / 1024.0


def quartiles(values: List[float]) -> Tuple[float, float]:
    """First and third quartile, never outside the observed range."""
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def timed_rep(workload, label: str):
    gc.collect()
    started = perf_counter()
    rep = workload.rep(label)
    return rep, perf_counter() - started


class _Way:
    __slots__ = ("tag", "stamp")

    def __init__(self) -> None:
        self.tag = -1
        self.stamp = 0


def probe() -> float:
    """Seconds the host takes right now for a fixed piece of work.

    The work is a small set-associative LRU cache in plain Python, fed
    by a fixed pseudo-random stream: interpreted, object-heavy code like
    the simulator's, but none of the package's, so no change to the
    package can move it.
    """
    gc.collect()
    started = perf_counter()
    sets = [[_Way() for _ in range(wl.WAYS)] for _ in range(wl.SETS)]
    state = 12345
    for clock in range(PROBE_ACCESSES):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        block = (state >> 8) % 3000
        ways = sets[block % wl.SETS]
        victim = ways[0]
        for way in ways:
            if way.tag == block:
                way.stamp = clock
                break
            if way.stamp < victim.stamp:
                victim = way
        else:
            victim.tag = block
            victim.stamp = clock
    return perf_counter() - started


# ----------------------------------------------------------------------
# Checks
# ----------------------------------------------------------------------

def load_golden(config) -> Dict[str, str]:
    """The golden digests that apply to this run.

    All of them at the seed and length they were recorded at; at other
    seeds, only those of cells that do not depend on the seed.
    """
    path = Path(config["golden"])
    if config["write_golden"] or not path.is_file():
        return {}
    document = json.loads(path.read_text(encoding="utf-8"))
    if document["length"] != config["length"]:
        return {}
    if document["seed"] == config["seed"]:
        return document["cells"]
    return {cell: digest for cell, digest in document["cells"].items()
            if wl.seed_free(cell)}


def verify(workload, reps, golden: Dict[str, str]):
    """Count attempted and failed cells over every repetition.

    A cell fails when it returned a failure or was quarantined, when its
    digest differs from the golden, from the workload's own reference
    (``observed`` must equal the plain grid) or from the first
    repetition, or when an LRU cell disagrees with the naive model.  A
    repetition whose campaign artifacts differ byte for byte from the
    first repetition's fails every cell it ran.  The first repetition is
    the populating cold run for ``campaign_resume`` and the warm-up
    otherwise.
    """
    expectations = [("golden", golden), ("plain grid", workload.expected())]
    lru = {
        name: wl.lru_reference(addresses)
        for name, addresses in workload.lru_traces().items()
    }
    first = reps[0]
    attempted = failed = 0
    problems: List[str] = []
    for rep in reps:
        bad: Dict[str, str] = {}
        for cell, digest in rep.cells.items():
            if digest is None:
                bad[cell] = "failed or quarantined"
                continue
            for source, cells in expectations:
                if cell in cells and cells[cell] != digest:
                    bad[cell] = f"digest {digest} != {source} {cells[cell]}"
            if cell not in bad and digest != first.cells.get(cell):
                bad[cell] = "differs from the first repetition"
        for benchmark, counts in rep.lru.items():
            if benchmark in lru and counts != lru[benchmark]:
                bad[f"{benchmark}/LRU"] = (
                    f"(hits, misses, evictions) {counts} != naive LRU "
                    f"{lru[benchmark]}"
                )
        rep_problems = list(rep.problems)
        if rep.artifacts != first.artifacts:
            rep_problems.append("campaign artifacts differ from the first "
                                "repetition's")
        for problem in rep_problems:
            for cell in rep.cells:
                bad.setdefault(cell, problem)
        attempted += len(rep.cells)
        failed += len(bad)
        problems.extend(f"{cell}: {why}" for cell, why in sorted(bad.items()))
    return attempted, failed, problems


def write_golden(config, rep) -> List[str]:
    """Merge this run's cell digests into the golden file."""
    path = Path(config["golden"])
    document = {"seed": config["seed"], "length": config["length"],
                "cells": {}}
    if path.is_file():
        existing = json.loads(path.read_text(encoding="utf-8"))
        if (existing["seed"], existing["length"]) == (
            config["seed"], config["length"]
        ):
            document = existing
    problems = []
    for cell, digest in rep.cells.items():
        known = document["cells"].get(cell)
        if digest is None or (known is not None and known != digest):
            problems.append(f"{cell}: cannot record {digest} over {known}")
        else:
            document["cells"][cell] = digest
    document["cells"] = dict(sorted(document["cells"].items()))
    path.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")
    return problems


def model_error(rep) -> List[List]:
    """LRU MPKI against Table 2, for information only."""
    lines = []
    for benchmark, mpki in sorted(rep.lru_mpki.items()):
        paper = BENCHMARKS[benchmark].paper_mpki_lru
        lines.append([f"lru_mpki.{benchmark}", mpki, "mpki"])
        lines.append([f"lru_mpki_paper.{benchmark}", paper, "mpki"])
        lines.append([f"lru_mpki_error.{benchmark}",
                      100.0 * (mpki - paper) / paper, "%"])
    return lines


# ----------------------------------------------------------------------
# Measured run (end-to-end metrics)
# ----------------------------------------------------------------------

def measured(workload, seconds: float):
    prepare_s = []
    for _ in range(SETUP_PASSES):
        started = perf_counter()
        workload.prepare()
        prepare_s.append(perf_counter() - started)
    started = perf_counter()
    workload.populate()
    populate_s = perf_counter() - started
    warmup, warmup_s = timed_rep(workload, "warmup")
    setup_s = IMPORT_S + statistics.median(prepare_s) + populate_s + warmup_s

    # A shared host can run 50-70% slower for minutes, which no
    # run length averages out.  So the probe is timed before the first
    # repetition and after each one; a repetition's host factor is the
    # mean of the probes either side of it over REFERENCE_PROBE_S, and
    # its wall time is divided by that factor.  The metrics thus read
    # seconds at the reference host's speed; raw times are printed too.
    probes = [probe()]
    reps = []
    started = perf_counter()
    while not reps or perf_counter() - started < seconds:
        reps.append(timed_rep(workload, f"rep-{len(reps)}")[0])
        probes.append(probe())
    rss = peak_rss_mb()

    factors = [(before + after) / (2 * REFERENCE_PROBE_S)
               for before, after in zip(probes, probes[1:])]
    host = statistics.median(factors)
    raw_walls = [rep.wall_s for rep in reps]
    walls = [wall / factor for wall, factor in zip(raw_walls, factors)]
    rates = [rep.accesses / wall for rep, wall in zip(reps, walls)]
    metrics: Metrics = {}
    _put(metrics, "accesses_per_s", statistics.median(rates), "1/s")
    _put(metrics, "wall_s", statistics.median(walls), "s")
    _put(metrics, "setup_s", setup_s / host, "s")
    _put(metrics, "peak_rss_mb", rss, "MB")
    rate_q1, rate_q3 = quartiles(rates)
    wall_q1, wall_q3 = quartiles(walls)
    info = [["reps", len(reps), "count"],
            ["accesses_per_s.q1", rate_q1, "1/s"],
            ["accesses_per_s.q3", rate_q3, "1/s"],
            ["wall_s.q1", wall_q1, "s"],
            ["wall_s.q3", wall_q3, "s"],
            ["host_factor", host, "ratio"],
            ["probe_s", statistics.median(probes), "s"],
            ["raw_wall_s", statistics.median(raw_walls), "s"],
            ["raw_setup_s", setup_s, "s"],
            ["import_s", IMPORT_S, "s"],
            ["prepare_s", statistics.median(prepare_s), "s"],
            ["populate_s", populate_s, "s"],
            ["warmup_s", warmup_s, "s"]]
    info += [[f"raw_wall_s.rep{i}", wall, "s"]
             for i, wall in enumerate(raw_walls)]
    info += [[f"probe_s.{i}", probe_s, "s"]
             for i, probe_s in enumerate(probes)]
    return metrics, info, [warmup] + reps


# ----------------------------------------------------------------------
# Traced run (per-layer metrics)
# ----------------------------------------------------------------------

def layer_metrics(recorder, traced, baseline, overhead) -> Metrics:
    totals: Dict[str, float] = {}
    for root in ("setup", "rep"):
        for name, seconds in recorder.totals(root).items():
            totals[name] = totals.get(name, 0.0) + seconds
    counters = recorder.counters
    metrics: Metrics = {}

    def seconds(name: str, span: str) -> None:
        _put(metrics, name, totals.get(span, 0.0), "s")

    seconds("workloads.synth_s", "workloads.synth")
    seconds("workloads.geometry_split_s", "workloads.geometry_split")
    seconds("workloads.digest_s", "workloads.digest")
    for scheme, layer in SCHEME_LAYERS.items():
        done, busy = traced.busy.get(scheme, (0, 0.0))
        _put(metrics, f"{layer}.accesses_per_s",
             done / busy if busy > 0 else 0.0, "1/s")
    seconds("sim.columnar.plan_s", "sim.columnar.plan")
    _put(metrics, "sim.simulator.outside_loop_s",
         counters.get("sim.simulator.outside_loop_s", 0.0), "s")
    seconds("analysis.evaluate_s", "analysis.evaluate")
    seconds("obs.manifest.build_s", "obs.manifest.build")
    _put(metrics, "sim.parallel.payload_bytes",
         counters.get("sim.parallel.payload_bytes", 0), "bytes")
    seconds("sim.parallel.runner_s", "sim.parallel.runner")
    runner_s = totals.get("sim.parallel.runner", 0.0)
    jobs = counters.get("runner_jobs", 1)
    _put(metrics, "sim.parallel.efficiency",
         traced.simulated_s / (jobs * runner_s) if runner_s > 0 else 0.0,
         "ratio")
    seconds("sim.cache.key_s", "sim.cache.key")
    seconds("sim.cache.put_s", "sim.cache.put")
    seconds("sim.cache.get_s", "sim.cache.get")
    hits = counters.get("cache_hits", 0)
    lookups = hits + counters.get("cache_misses", 0)
    _put(metrics, "sim.cache.hit_ratio",
         hits / lookups if lookups else 0.0, "ratio")
    seconds("sim.campaign.build_cells_s", "sim.campaign.build_cells")
    seconds("sim.campaign.journal_append_s", "sim.campaign.journal_append")
    _put(metrics, "sim.campaign.journal_appends",
         recorder.span_count("sim.campaign.journal_append"), "count")
    seconds("sim.campaign.replay_s", "sim.campaign.replay")
    seconds("sim.campaign.result_digest_s", "sim.campaign.result_digest")
    seconds("obs.htmlreport.campaign_s", "obs.htmlreport.campaign")
    seconds("obs.index.ingest_s", "obs.index.ingest")
    _put(metrics, "obs.index.rows_changed",
         counters.get("obs.index.rows_changed", 0), "count")
    plain = overhead.get("plain")
    for feature in ("metrics", "ledger", "telemetry"):
        rep = overhead.get(feature)
        _put(metrics, f"obs.{feature}.overhead_ratio",
             rep.wall_s / plain.wall_s if rep is not None else 0.0, "ratio")
    _put(metrics, "bench.tracing_overhead_ratio",
         traced.wall_s / baseline.wall_s, "ratio")
    return metrics


def traced_run(workload, out: Path, config):
    recorder = spans.SpanRecorder()
    with spans.patched(recorder), recorder.span("setup"):
        workload.prepare()
    workload.populate()
    warmup, _ = timed_rep(workload, "warmup")
    gc.collect()
    with spans.patched(recorder), recorder.span("rep") as root:
        traced = workload.rep("traced")
    baseline, _ = timed_rep(workload, "baseline")
    overhead = (
        workload.overhead_reps() if config["workload"] == "observed" else {}
    )
    metrics = layer_metrics(recorder, traced, baseline, overhead)

    self_s = {root_name: recorder.self_by_name(root_name)
              for root_name in ("setup", "rep")}
    coverage = 1.0 - self_s["rep"]["rep"] / root.seconds
    layers = {
        "workload": config["workload"],
        "seed": config["seed"],
        "length": config["length"],
        "traced_wall_s": traced.wall_s,
        "baseline_wall_s": baseline.wall_s,
        "rep_coverage": coverage,
        "self_s": self_s,
        "counters": recorder.counters,
        "metrics": {name: entry["value"] for name, entry in metrics.items()},
    }
    out.mkdir(parents=True, exist_ok=True)
    (out / "spans.json").write_text(
        json.dumps(recorder.as_json(), indent=1) + "\n", encoding="utf-8"
    )
    (out / "layers.json").write_text(
        json.dumps(layers, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    info = [["rep_coverage", coverage, "ratio"]]
    return metrics, info, [warmup, traced, baseline, *overhead.values()]


def run(config) -> dict:
    out = Path(config["out"]) / config["workload"]
    work = out / "work"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload = wl.make_workload(
        config["workload"], config["seed"], config["length"], work
    )
    try:
        if config["trace"]:
            metrics, info, checked = traced_run(workload, out, config)
        else:
            metrics, info, checked = measured(workload, config["seconds"])
        if workload.populated is not None:
            checked.insert(0, workload.populated)
        attempted, failed, problems = verify(
            workload, checked, load_golden(config)
        )
        if config["write_golden"]:
            unrecorded = write_golden(config, checked[0])
            problems += unrecorded
            failed += len(unrecorded)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    if not config["trace"]:
        _put(metrics, "cell_ok_ratio", 1.0 - failed / attempted, "ratio")
    info.append(["cell_fail_ratio", failed / attempted, "ratio"])
    info.extend(model_error(checked[-1]))
    return {
        "metrics": metrics,
        "attempted": attempted,
        "failed": failed,
        "info": info,
        "problems": problems,
    }


def main(argv: List[str]) -> int:
    result = run(json.loads(argv[1]))
    print(json.dumps(result))
    return 0 if result["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv))
