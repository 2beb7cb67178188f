"""Tests for the experiment modules (scaled down for speed)."""

from dataclasses import replace

import pytest

from repro.experiments import (
    ablations,
    evaluation,
    figure1,
    figure2,
    figure3,
    figure7,
    figure10,
    headline,
    table2,
    table3,
)
from repro.sim.config import ExperimentScale, MachineConfig
from repro.timing.latency import LatencyModel

SMOKE = ExperimentScale(num_sets=64, associativity=16, trace_length=40_000)


@pytest.fixture(autouse=True)
def _fresh_evaluation_cache():
    evaluation.clear_cache()
    yield
    evaluation.clear_cache()


class TestFigure1:
    def test_omnetpp_demand_is_spread(self):
        result = figure1.run(
            "omnetpp", scale=SMOKE, num_intervals=4, interval_length=8000
        )
        # Paper: about half the sets need no more than 16 lines.
        assert 0.25 <= result.fraction_le_16 <= 0.85
        # And a substantial share needs more than 16.
        assert result.fraction_le_16 < 0.95

    def test_ammp_has_small_demand_and_streaming_band(self):
        result = figure1.run(
            "ammp", scale=SMOKE, num_intervals=4, interval_length=8000
        )
        # Paper: about half the sets need no more than 4 lines.
        assert result.fraction_le_4 > 0.3
        zero_band = result.mean_bands[(0, 0)]
        assert zero_band > 0.05  # the streaming "blue band"

    def test_main_renders(self, capsys):
        figure1.main(scale=ExperimentScale(num_sets=32, trace_length=8000))
        output = capsys.readouterr().out
        assert "Figure 1" in output


class TestFigure2:
    def test_example1_matches_paper(self):
        result = figure2.run(1, rounds=2048)
        assert result.measured["LRU"] == pytest.approx(0.5, abs=0.02)
        assert result.measured["DIP"] == pytest.approx(0.25, abs=0.03)
        assert result.measured["SBC"] == pytest.approx(0.0, abs=0.02)
        assert result.measured["STEM"] == pytest.approx(0.0, abs=0.02)

    def test_example2_matches_paper(self):
        result = figure2.run(2, rounds=2048)
        assert result.measured["LRU"] == pytest.approx(0.5, abs=0.02)
        assert result.measured["DIP"] == pytest.approx(0.25, abs=0.03)
        assert result.measured["SBC"] == pytest.approx(1 / 3, abs=0.08)
        # The extensional claim: STEM beats both DIP and SBC here.
        assert result.measured["STEM"] < result.measured["SBC"]
        assert result.measured["STEM"] < result.measured["DIP"]

    def test_example3_matches_paper(self):
        result = figure2.run(3, rounds=2048)
        assert result.measured["LRU"] == pytest.approx(1.0, abs=0.01)
        assert result.measured["SBC"] == pytest.approx(1.0, abs=0.02)
        assert result.measured["DIP"] == pytest.approx(0.45, abs=0.05)
        # STEM's per-set duel matches oracle DIP without oracle help.
        assert result.measured["STEM"] < 0.6

    def test_main_renders(self, capsys):
        figure2.main(rounds=512)
        assert "Figure 2" in capsys.readouterr().out


class TestSweeps:
    def test_figure3_curves_have_paper_shape(self):
        result = figure3.run(
            "omnetpp",
            associativities=(2, 16, 32),
            scale=ExperimentScale(num_sets=64, trace_length=30_000),
        )
        lru = result.mpki["LRU"]
        dip = result.mpki["DIP"]
        sbc = result.mpki["SBC"]
        # Low associativity: DIP (temporal) beats SBC (no givers).
        assert dip[0] < sbc[0]
        # All schemes converge once capacity suffices.
        assert lru[2] == pytest.approx(dip[2], rel=0.25, abs=0.5)

    def test_figure10_adds_stem_and_stem_tracks_best(self):
        result = figure10.run(
            "omnetpp",
            associativities=(2, 16),
            scale=ExperimentScale(num_sets=64, trace_length=30_000),
        )
        assert "STEM" in result.mpki
        others_best = min(
            result.mpki[s][1] for s in result.mpki if s != "STEM"
        )
        assert result.mpki["STEM"][1] <= others_best * 1.25


class TestEvaluationFigures:
    def test_matrix_cached_between_figures(self):
        small = ExperimentScale(num_sets=32, trace_length=6000)
        first = evaluation.run_evaluation(
            scale=small, schemes=("LRU", "STEM"), benchmarks=("vpr",)
        )
        second = evaluation.run_evaluation(
            scale=small, schemes=("LRU", "STEM"), benchmarks=("vpr",)
        )
        assert first is second

    def test_memo_keys_on_whole_scale(self):
        small = ExperimentScale(num_sets=32, trace_length=6000)
        kwargs = dict(schemes=("LRU",), benchmarks=("vpr",))
        quarter = evaluation.run_evaluation(scale=small, **kwargs)
        half = evaluation.run_evaluation(
            scale=replace(small, warmup_fraction=0.5), **kwargs
        )
        assert quarter.get("vpr", "LRU").measured_accesses == 4500
        assert half.get("vpr", "LRU").measured_accesses == 3000
        slow_memory = MachineConfig(latency=LatencyModel(memory_cycles=600))
        slow = evaluation.run_evaluation(
            scale=replace(small, machine=slow_memory), **kwargs
        )
        assert slow is not quarter
        assert slow.get("vpr", "LRU").amat > quarter.get("vpr", "LRU").amat

    def test_figure7_normalized_and_geomean(self):
        small = ExperimentScale(num_sets=32, trace_length=6000)
        table = figure7.run(
            scale=small, schemes=("LRU", "STEM"), benchmarks=("vpr", "mcf")
        )
        assert table["vpr"]["LRU"] == pytest.approx(1.0)
        assert "Geomean" in table

    def test_headline_runs_on_small_scale(self):
        small = ExperimentScale(num_sets=32, trace_length=6000)
        evaluation.clear_cache()
        matrix = evaluation.run_evaluation(
            scale=small,
            schemes=("LRU", "DIP", "PeLIFO", "V-Way", "SBC", "STEM"),
            benchmarks=("vpr", "mcf", "omnetpp"),
        )
        assert len(matrix.workloads) == 3


class TestTables:
    def test_table2_rows_cover_all_benchmarks(self):
        rows = table2.run(
            scale=ExperimentScale(num_sets=32, trace_length=5000),
            classify=False,
        )
        assert len(rows) == 15
        assert all(row.measured_mpki >= 0 for row in rows)

    def test_table3_reproduces_3_1_percent(self):
        reports = table3.run()
        assert reports["STEM"].overhead_percent == pytest.approx(
            table3.PAPER_STEM_OVERHEAD_PERCENT, abs=0.1
        )

    def test_table3_main_renders(self, capsys):
        table3.main()
        output = capsys.readouterr().out
        assert "3.1" in output or "3.16" in output


class TestAblations:
    def test_variants_run_and_differ(self):
        result = ablations.run(
            benchmarks=("omnetpp",),
            scale=ExperimentScale(num_sets=32, trace_length=8000),
        )
        row = result.mpki["omnetpp"]
        assert set(result.variants) == set(row)
        assert len({round(v, 6) for v in row.values()}) > 1
