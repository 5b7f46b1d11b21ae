"""Tests for the command line interface."""

import json

import pytest

from repro.cli import (FIGURE_IDS, build_parser, main, run_arsp,
                       run_effectiveness, run_figure)


class TestParser:
    def test_help_exits_cleanly(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(["--help"])
        assert excinfo.value.code == 0

    def test_no_command_prints_help(self, capsys):
        assert main([]) == 1
        assert "usage" in capsys.readouterr().out.lower()

    def test_arsp_defaults(self):
        args = build_parser().parse_args(["arsp"])
        assert args.command == "arsp"
        assert args.algorithm == "auto"
        assert args.objects == 200

    def test_figure_requires_known_id(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["figure", "--id", "99x"])


class TestCommands:
    def test_algorithms_command(self, capsys):
        assert main(["algorithms"]) == 0
        out = capsys.readouterr().out
        assert "bnb" in out and "kdtt+" in out

    def test_arsp_command_small(self, capsys):
        code = main(["arsp", "--objects", "20", "--instances", "2",
                     "--dimension", "3", "--algorithm", "kdtt+",
                     "--top-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "ARSP size" in out
        assert "top-3 objects" in out

    def test_arsp_text_contains_workload_summary(self):
        args = build_parser().parse_args(
            ["arsp", "--objects", "15", "--instances", "2",
             "--dimension", "2", "--algorithm", "loop"])
        text = run_arsp(args)
        assert "m=15" in text
        assert "loop" in text

    def test_figure_5a(self):
        text = run_figure("5a")
        assert "Figure 5(a)" in text
        assert "kdtt+" in text

    def test_figure_8b(self):
        text = run_figure("8b")
        assert "DUAL-S" in text and "QUAD" in text

    def test_unknown_figure_raises(self):
        with pytest.raises(ValueError):
            run_figure("nope")

    def test_all_figure_ids_resolvable(self):
        # Smoke-only for the cheap ones; the expensive sweeps are covered by
        # the benchmarks.  Here we just assert the id table is consistent.
        assert set(FIGURE_IDS) == {"5a", "5d", "5g", "5j", "5m", "5p", "6a",
                                   "8a", "8b"}

    def test_effectiveness_output(self):
        text = run_effectiveness()
        assert "Table I" in text and "Table II" in text

    def test_bench_quick_subset(self, capsys, tmp_path):
        output = tmp_path / "BENCH_arsp.json"
        code = main(["bench", "--quick", "--algorithms", "kdtt+,dual",
                     "--repeats", "1", "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "bench profile 'quick'" in out
        assert "kdtt+" in out and "dual" in out
        assert output.exists()

    def test_bench_defaults(self):
        args = build_parser().parse_args(["bench"])
        assert args.command == "bench"
        assert args.profile == "default"
        assert not args.quick
        assert args.output == "BENCH_arsp.json"
        assert args.workloads is None

    def test_bench_workload_axis_selection(self, capsys, tmp_path):
        output = tmp_path / "BENCH_arsp.json"
        code = main(["bench", "--quick", "--workloads", "anti, corr",
                     "--algorithms", "kdtt+,loop", "--repeats", "1",
                     "--output", str(output)])
        assert code == 0
        out = capsys.readouterr().out
        assert "[anti]" in out and "[corr]" in out and "[ind]" not in out
        payload = json.loads(output.read_text(encoding="utf-8"))
        assert payload["workload_axis"] == ["anti", "corr"]

    def test_bench_unknown_workload_fails(self, capsys, tmp_path):
        with pytest.raises(KeyError, match="unknown workload"):
            main(["bench", "--quick", "--workloads", "tpch",
                  "--repeats", "1", "--output", "-"])

    def test_bench_stdout_only(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["bench", "--quick", "--algorithms", "kdtt+",
                     "--repeats", "1", "--output", "-", "--no-check"])
        assert code == 0
        assert not (tmp_path / "BENCH_arsp.json").exists()

    @pytest.mark.parametrize("content, cause", [
        (json.dumps({"schema": "repro-bench/7", "matrix": {}}),
         "repro-bench/8"),
        ("not json {", "not a JSON"),
        (None, "cannot read"),
        ("", "cannot read"),
    ], ids=["old-schema", "not-json", "missing", "directory"])
    def test_bench_bad_baseline_fails_before_timing(self, capsys, tmp_path,
                                                    monkeypatch, content,
                                                    cause):
        import repro.cli

        def no_timing(**kwargs):
            raise AssertionError("run_bench called despite a bad baseline")

        monkeypatch.setattr(repro.cli, "run_bench", no_timing)
        baseline = tmp_path / "old.json"
        # ``None`` leaves no file at all; ``""`` puts a directory there.
        if content == "":
            baseline.mkdir()
        elif content is not None:
            baseline.write_text(content, encoding="utf-8")
        code = main(["bench", "--quick", "--output", "-",
                     "--compare", str(baseline)])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("error: %s: " % baseline)
        assert cause in lines[0]


@pytest.mark.stream
class TestStreamCommand:
    def test_stream_defaults(self):
        args = build_parser().parse_args(["stream"])
        assert args.command == "stream"
        assert args.seed == 0 and args.steps == 4
        assert args.modes == "oneshot,incremental,daemon"

    def test_stream_smoke_all_modes_agree(self, capsys):
        code = main(["stream", "--seed", "9", "--steps", "2",
                     "--objects", "18", "--instances", "3",
                     "--dimension", "3", "--queries", "6", "--pool", "3",
                     "--modes", "oneshot,incremental,service,daemon"])
        assert code == 0
        out = capsys.readouterr().out
        assert "scenario seed=9" in out
        assert "script fingerprint" in out
        for mode in ("oneshot", "incremental", "service", "daemon"):
            assert mode in out
        assert "sigma cache" in out and "query cache" in out
        assert "byte-identical" in out
        assert "EQUIVALENCE FAILURE" not in out

    def test_stream_mode_subset(self, capsys):
        code = main(["stream", "--steps", "2", "--objects", "16",
                     "--queries", "4", "--pool", "2",
                     "--modes", "incremental"])
        assert code == 0
        out = capsys.readouterr().out
        assert "all 1 replay mode(s) byte-identical" in out

    def test_stream_rejects_unknown_mode(self, capsys):
        assert main(["stream", "--modes", "warp"]) == 2
        assert "unknown replay mode" in capsys.readouterr().err

    def test_stream_rejects_bad_spec(self, capsys):
        assert main(["stream", "--steps", "0"]) == 2
        assert "at least one step" in capsys.readouterr().err


class TestWorkers:
    @pytest.mark.parametrize("argv", [
        ["arsp", "--workers", "0"],
        ["arsp", "--workers", "-3"],
        ["arsp", "--workers", "two"],
        ["bench", "--workers", "0"],
    ])
    def test_invalid_worker_counts_fail_with_a_clear_error(self, argv,
                                                          capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert "workers must be a positive integer" in \
            capsys.readouterr().err

    def test_arsp_workers_with_serial_only_algorithm_errors(self, capsys):
        code = main(["arsp", "--objects", "8", "--instances", "2",
                     "--dimension", "2", "--algorithm", "enum",
                     "--workers", "2"])
        assert code == 2
        assert "does not support sharded execution" in \
            capsys.readouterr().err

    @pytest.mark.parallel
    def test_arsp_workers_sharded_run(self, capsys):
        code = main(["arsp", "--objects", "24", "--instances", "2",
                     "--dimension", "3", "--algorithm", "kdtt+",
                     "--workers", "2", "--top-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(workers=2)" in out
        assert "ARSP size" in out

    @pytest.mark.parallel
    def test_bench_workers_cell(self, capsys):
        code = main(["bench", "--quick", "--algorithms", "kdtt+",
                     "--workloads", "ind", "--repeats", "1",
                     "--workers", "2", "--output", "-"])
        assert code == 0
        assert "workers=2" in capsys.readouterr().out


class TestExecutionFlags:
    @pytest.mark.parametrize("argv,message", [
        (["arsp", "--shard-timeout", "0"],
         "shard timeout must be a positive number"),
        (["arsp", "--shard-timeout", "soon"],
         "shard timeout must be a positive number"),
        (["bench", "--max-retries", "-1"],
         "max retries must be a non-negative integer"),
        (["arsp", "--on-failure", "shrug"], "invalid choice"),
        (["arsp", "--backend", "threads"], "invalid choice"),
    ])
    def test_invalid_flags_fail_with_a_clear_error(self, argv, message,
                                                   capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(argv)
        assert excinfo.value.code == 2
        assert message in capsys.readouterr().err

    def test_serial_backend_with_many_workers_runs_without_pools(self,
                                                                 capsys):
        # workers > 1 + an explicit serial backend must keep the sharded
        # layout (so results match process runs bit-for-bit) while never
        # spawning a process — the supported degraded mode for machines
        # where pools are unavailable.
        code = main(["arsp", "--objects", "16", "--instances", "2",
                     "--dimension", "3", "--algorithm", "kdtt+",
                     "--workers", "3", "--backend", "serial",
                     "--top-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "(workers=3)" in out
        assert "ARSP size" in out

    @pytest.mark.parallel
    @pytest.mark.faults
    def test_arsp_reports_recovery_in_the_summary_line(self, capsys,
                                                       monkeypatch):
        monkeypatch.setenv("REPRO_FAULTS", "crash:shard=1,attempt=1,after=0")
        code = main(["arsp", "--objects", "16", "--instances", "2",
                     "--dimension", "3", "--algorithm", "kdtt+",
                     "--workers", "2", "--backend", "process",
                     "--shard-timeout", "30", "--max-retries", "2",
                     "--on-failure", "serial", "--top-k", "3"])
        assert code == 0
        out = capsys.readouterr().out
        assert "pool rebuild(s)" in out
        assert "recovered shards [1]" in out
