"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "STEM", "firefox"])

    def test_figure_names_validated(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "figure99"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        output = capsys.readouterr().out
        assert "STEM" in output
        assert "omnetpp" in output
        assert "figure7" in output

    def test_run(self, capsys):
        code = main([
            "run", "STEM", "vpr", "--sets", "32", "--length", "8000"
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "MPKI=" in output
        assert "STEM on vpr" in output

    def test_compare(self, capsys):
        code = main([
            "compare", "vpr", "--schemes", "LRU,STEM",
            "--sets", "32", "--length", "8000",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "LRU" in output
        assert "STEM" in output

    def test_compare_names_its_baseline(self, capsys):
        code = main([
            "compare", "vpr", "--schemes", "STEM,LRU",
            "--sets", "16", "--assoc", "4", "--length", "4000",
        ])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith(" vs STEM")
        assert "vs LRU" not in lines[0]
        assert lines[1].split()[0] == "STEM"
        assert lines[1].endswith(" 1.000")

    def test_sweep(self, capsys):
        code = main([
            "sweep", "vpr", "--schemes", "LRU",
            "--associativities", "2,4",
            "--sets", "32", "--length", "6000",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "MPKI vs associativity" in output

    def test_profile(self, capsys):
        code = main([
            "profile", "ammp", "--sets", "32", "--length", "12000"
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "classification" in output

    def test_bench(self, capsys, tmp_path):
        cache_dir = tmp_path / "runs"
        argv = [
            "bench", "--schemes", "lru,stem", "--benchmarks", "vpr",
            "--jobs", "2", "--sets", "32", "--length", "8000",
            "--run-cache", str(cache_dir),
        ]
        assert main(argv) == 0
        first = capsys.readouterr().out
        assert "MPKI" in first
        assert "0 hit(s), 2 miss(es)" in first
        # Second invocation serves both cells from the run cache.
        assert main(argv) == 0
        assert "2 hit(s), 0 miss(es)" in capsys.readouterr().out

    def test_bench_no_run_cache(self, capsys):
        code = main([
            "bench", "--schemes", "lru", "--benchmarks", "vpr",
            "--sets", "32", "--length", "6000", "--no-run-cache",
        ])
        assert code == 0
        assert "run cache" not in capsys.readouterr().out

    def test_overhead(self, capsys):
        assert main(["overhead"]) == 0
        assert "3.1" in capsys.readouterr().out.replace("3.16", "3.1")

    def test_trace(self, capsys, tmp_path):
        events_path = tmp_path / "events.jsonl"
        code = main([
            "trace", "STEM", "omnetpp", "--sets", "64",
            "--length", "20000", "--events", str(events_path),
            "--manifest",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "events emitted" in output
        assert "content_hash" in output
        # The JSONL log is parseable and carries several event kinds.
        from repro.obs.sinks import load_events

        events = load_events(events_path)
        assert events
        assert len({event.kind for event in events}) >= 3

    def test_trace_buffer_bound(self, capsys):
        code = main([
            "trace", "STEM", "vpr", "--sets", "32",
            "--length", "8000", "--buffer", "100",
        ])
        assert code == 0
        assert "events emitted" in capsys.readouterr().out

    def test_run_profile(self, capsys, tmp_path):
        report = tmp_path / "bench.json"
        code = main([
            "run", "STEM", "vpr", "--sets", "32", "--length", "8000",
            "--profile", "--profile-json", str(report),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "acc/sec" in output
        assert "wall-clock" in output
        import json

        document = json.loads(report.read_text())
        assert document["benchmarks"][0]["group"] == "STEM"

    def test_compare_profile(self, capsys):
        code = main([
            "compare", "vpr", "--schemes", "LRU,STEM",
            "--sets", "32", "--length", "8000", "--profile",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "acc/sec" in output

    def test_run_window_and_save(self, capsys, tmp_path):
        run_path = tmp_path / "run.json"
        series_path = tmp_path / "series.jsonl"
        prom_path = tmp_path / "metrics.prom"
        code = main([
            "run", "stem", "vpr", "--sets", "32", "--length", "8000",
            "--window", "2000", "--save-run", str(run_path),
            "--series-jsonl", str(series_path),
            "--series-prom", str(prom_path),
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "windows of 2000 accesses" in output
        from repro.sim.cache import load_run

        loaded = load_run(run_path)
        assert loaded.series is not None
        assert loaded.series.window_length == 2000
        assert series_path.read_text().startswith('{"kind": "header"')
        assert "# TYPE repro_misses counter" in prom_path.read_text()

    def test_diff_in_process_schemes(self, capsys):
        code = main([
            "diff", "lru", "stem", "--benchmark", "vpr",
            "--sets", "32", "--length", "8000", "--window", "2000",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "run diff: A = LRU on vpr" in output
        assert "windowed series" in output
        assert "diverging sets" in output

    def test_diff_saved_run_files(self, capsys, tmp_path):
        a_path, b_path = tmp_path / "a.json", tmp_path / "b.json"
        for scheme, path in (("lru", a_path), ("stem", b_path)):
            assert main([
                "run", scheme, "vpr", "--sets", "32",
                "--length", "8000", "--window", "2000",
                "--save-run", str(path),
            ]) == 0
        capsys.readouterr()
        json_path = tmp_path / "diff.json"
        out_path = tmp_path / "diff.txt"
        code = main([
            "diff", str(a_path), str(b_path),
            "--json", str(json_path), "--out", str(out_path),
        ])
        assert code == 0
        report = out_path.read_text()
        assert "run diff: A = LRU on vpr" in report
        import json

        payload = json.loads(json_path.read_text())
        assert payload["label_b"] == "STEM on vpr"
        # Byte stability across invocations is part of the contract.
        assert main([
            "diff", str(a_path), str(b_path), "--out", str(out_path),
        ]) == 0
        assert out_path.read_text() == report

    def test_report_legacy_text_unchanged(self, capsys):
        code = main(["report", "vpr", "--sets", "32",
                     "--length", "8000"])
        assert code == 0
        assert capsys.readouterr().out.strip()

    def test_report_html_out(self, capsys, tmp_path):
        page = tmp_path / "report.html"
        argv = [
            "report", "vpr", "--scheme", "stem", "--vs", "lru",
            "--sets", "32", "--length", "8000", "--window", "2000",
            "--out", str(page),
        ]
        assert main(argv) == 0
        capsys.readouterr()
        html = page.read_text()
        assert html.startswith("<!DOCTYPE html>")
        assert "http" not in html.lower()
        assert "<svg" in html
        # Second invocation writes identical bytes.
        assert main(argv) == 0
        assert page.read_text() == html

    def test_figure_table3(self, capsys):
        assert main(["figure", "table3"]) == 0
        assert "Table 3" in capsys.readouterr().out

    def test_figure_figure2(self, capsys):
        assert main(["figure", "figure2"]) == 0
        assert "Figure 2" in capsys.readouterr().out

    def test_figure_profile(self, capsys):
        assert main(["figure", "table3", "--profile"]) == 0
        assert "wall-clock" in capsys.readouterr().out


class TestExitCodes:
    """The CLI contract: --version, and errors as codes, not tracebacks."""

    def test_version_flag(self, capsys):
        from repro._version import __version__

        with pytest.raises(SystemExit) as excinfo:
            main(["--version"])
        assert excinfo.value.code == 0
        assert f"repro {__version__}" in capsys.readouterr().out

    def test_library_error_exits_2_without_traceback(self, tmp_path, capsys):
        # A corrupt saved-run file raises ConfigError inside the handler;
        # main() must convert it to one stderr line and exit code 2.
        bad = tmp_path / "bad.json"
        bad.write_text("{not json", encoding="utf-8")
        code = main(["diff", str(bad), str(bad)])
        captured = capsys.readouterr()
        assert code == 2
        assert "repro: error:" in captured.err
        assert "Traceback" not in captured.err

    def test_bench_telemetry_hint(self, tmp_path, capsys):
        run_dir = tmp_path / "fleet"
        code = main([
            "bench", "--schemes", "LRU", "--benchmarks", "vpr",
            "--sets", "32", "--length", "6000", "--no-run-cache",
            "--telemetry", str(run_dir),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert f"repro top {run_dir}" in out
        assert (run_dir / "grid.jsonl").is_file()
        # status.json is written by its readers (repro top), not here.
        assert not (run_dir / "status.json").exists()
