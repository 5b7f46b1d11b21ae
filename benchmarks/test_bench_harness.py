"""Tier-1 smoke test for the ``repro bench`` regression harness.

Unlike the ``bench_*`` figure reproductions (which need
``pytest --benchmark-only`` and minutes of runtime), this file is collected
by the plain tier-1 ``pytest`` run: it executes the ``quick`` profile of
the harness end to end — every registered algorithm on the quick workload
matrix (IND, ANTI and the IIP real-data stand-in), parity checks, JSON
output — in a couple of seconds.  The *full* six-workload matrix rides
behind the ``bench`` marker (``pytest -m bench``).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.algorithms.registry import (PARALLEL_ALGORITHMS, list_algorithms,
                                       supports_workers)
from repro.experiments.perf import (EXTRA_PATHS, HIT_RATE_TOLERANCE,
                                    PROFILES, SCHEMA, compare_payloads,
                                    format_bench, format_compare, load_bench,
                                    run_bench)
from repro.experiments.workloads import (VARIANTS, available_workloads,
                                         variant_for_algorithm)


def test_quick_profile_covers_the_smoke_matrix(quick_bench_payload):
    """The tier-1 smoke matrix includes a non-IND and a real-data cell."""
    payload, _ = quick_bench_payload
    assert payload["schema"] == SCHEMA
    assert payload["profile"] == "quick"
    assert payload["workload_axis"] == ["ind", "anti", "iip"]
    assert sorted(payload["matrix"]) == sorted(payload["workload_axis"])
    kinds = {section["kind"] for section in payload["matrix"].values()}
    assert kinds == {"synthetic", "real"}


def test_every_section_times_every_algorithm(quick_bench_payload):
    payload, _ = quick_bench_payload
    assert payload["workers"] == 1
    for workload_name, section in payload["matrix"].items():
        assert sorted(section["algorithms"]) == list_algorithms()
        assert sorted(section["datasets"]) == sorted(VARIANTS)
        for name, entry in section["algorithms"].items():
            cell = (workload_name, name)
            assert entry["variant"] == variant_for_algorithm(name), cell
            assert entry["variant"] in section["datasets"], cell
            assert entry["repeats"] == PROFILES["quick"].repeats, cell
            assert len(entry["runs_s"]) == entry["repeats"], cell
            assert entry["min_s"] <= entry["median_s"], cell
            assert entry["arsp_size"] >= 0, cell
            assert isinstance(entry["phases_s"], dict), cell
            assert entry["workers"] == 1, cell


def test_phase_split_is_recorded_for_the_annotated_algorithms(
        quick_bench_payload):
    """B&B and DUAL report their index/query split in every cell, and
    every algorithm that resolves a preference region reports its
    constraint ``setup`` (vertex enumeration) beside it."""
    payload, _ = quick_bench_payload
    expected = {"bnb": {"setup", "index", "query"},
                "dual": {"index", "query"},
                "kdtt+": {"setup"}, "loop": {"setup"}}
    for workload_name, section in payload["matrix"].items():
        for name, names in expected.items():
            phases = section["algorithms"][name]["phases_s"]
            cell = (workload_name, name)
            assert set(phases) == names, cell
            total = section["algorithms"][name]["median_s"]
            assert sum(phases.values()) <= total * 1.5, cell


def test_every_cell_is_parity_checked(quick_bench_payload):
    payload, _ = quick_bench_payload
    assert payload["reference_algorithm"] == "kdtt+"
    mismatches = {(workload_name, name): entry.get("parity")
                  for workload_name, section in payload["matrix"].items()
                  for name, entry in section["algorithms"].items()
                  if entry.get("parity") != "ok"}
    assert not mismatches


def test_quick_profile_covers_extra_paths(quick_bench_payload):
    """The eclipse and continuous hot paths ride along in ``extras``."""
    payload, _ = quick_bench_payload
    assert sorted(payload["extras"]) == sorted(EXTRA_PATHS)
    for name, entry in payload["extras"].items():
        assert entry["repeats"] == PROFILES["quick"].repeats
        assert len(entry["runs_s"]) == entry["repeats"]
        assert entry["min_s"] <= entry["median_s"], name
        assert entry["workload"] in payload["extra_workloads"], name
        assert entry["result_size"] >= 0, name
    for name in ("eclipse-quad", "eclipse-dual-s"):
        assert payload["extras"][name]["parity"] == "ok", name


def test_json_output_round_trips(quick_bench_payload):
    """The current schema survives the write → load_bench → compare loop."""
    payload, output = quick_bench_payload
    on_disk = json.loads(output.read_text(encoding="utf-8"))
    assert on_disk == json.loads(json.dumps(payload))
    assert load_bench(str(output)) == on_disk


@pytest.mark.parametrize("schema", ["repro-bench/%d" % version
                                    for version in (1, 2, 3, 4, 5, 6, 7, 99)])
def test_load_bench_rejects_other_schemas(schema, tmp_path):
    """Payloads of any other schema are refused by name, not translated."""
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": schema, "matrix": {}}),
                    encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_bench(str(path))
    message = str(excinfo.value)
    assert message.startswith(str(path))
    assert repr(schema) in message and repr(SCHEMA) in message


@pytest.mark.parametrize("kind", ["missing", "directory"])
def test_load_bench_names_the_path_when_unreadable(kind, tmp_path):
    """An unreadable baseline is a ``ValueError`` naming the file, like a
    wrong schema, so ``repro bench --compare`` reports it in one line."""
    path = tmp_path / "absent.json"
    if kind == "directory":
        path.mkdir()
    with pytest.raises(ValueError) as excinfo:
        load_bench(str(path))
    message = str(excinfo.value)
    assert message.startswith("%s: cannot read bench payload" % path)


@pytest.mark.parametrize("document", ["[]", '"repro-bench/8"', "null",
                                      "{}"],
                         ids=["list", "string", "null", "no-schema"])
def test_load_bench_rejects_json_that_is_not_a_payload(document, tmp_path):
    """Valid JSON without a schema-carrying object is refused as having
    no schema, never indexed into."""
    path = tmp_path / "odd.json"
    path.write_text(document, encoding="utf-8")
    with pytest.raises(ValueError) as excinfo:
        load_bench(str(path))
    message = str(excinfo.value)
    assert message.startswith(str(path))
    assert "schema None" in message and repr(SCHEMA) in message


def test_load_bench_reads_the_committed_baseline():
    path = Path(__file__).resolve().parents[1] / "BENCH_arsp.json"
    payload = load_bench(str(path))
    assert payload["schema"] == SCHEMA == "repro-bench/8"
    assert set(payload["workload_axis"]) <= set(available_workloads())
    assert "[stream]" in format_bench(payload)
    _, regressions = compare_payloads(payload, payload)
    assert not regressions


@pytest.mark.parallel
def test_workers_run_shards_the_ported_cells():
    """``repro bench --workers N``: ported algorithms record N, serial-only
    algorithms record 1, and every cell stays parity-checked against the
    serial reference."""
    payload = run_bench(profile="quick", workloads=["ind"],
                        algorithms=["loop", "kdtt+", "dual", "bnb", "enum"],
                        repeats=1, workers=2)
    assert payload["workers"] == 2
    section = payload["matrix"]["ind"]
    for name, entry in section["algorithms"].items():
        expected = 2 if supports_workers(name) else 1
        assert entry["workers"] == expected, name
        assert entry["parity"] == "ok", name
    assert not supports_workers("enum")
    assert PARALLEL_ALGORITHMS >= {"loop", "kdtt+", "dual", "bnb"}
    assert ", workers=2" in format_bench(payload)


def test_compare_annotates_worker_count_mismatches(quick_bench_payload):
    """Deltas between runs at different worker counts are not code
    regressions; the compare calls the mismatch out instead of hiding it."""
    payload, _ = quick_bench_payload
    sharded = json.loads(json.dumps(payload))
    sharded["workers"] = 4
    sharded["matrix"]["ind"]["algorithms"]["kdtt+"]["workers"] = 4
    lines, _ = compare_payloads(sharded, payload, threshold=1000.0)
    assert any("WARNING" in line and "workers=4" in line for line in lines)
    assert any("[workers 4 -> 1]" in line for line in lines
               if "ind/kdtt+" in line)
    # Same-workers comparisons stay unannotated.
    lines, _ = compare_payloads(payload, payload)
    assert not any("WARNING" in line or "[workers" in line
                   for line in lines)


def test_compare_min_of_runs_statistic(quick_bench_payload):
    """``--compare-stat min`` gates on the min over runs, not the median."""
    payload, _ = quick_bench_payload
    shrunk = json.loads(json.dumps(payload))
    entry = shrunk["matrix"]["ind"]["algorithms"]["kdtt+"]
    # Baseline whose *min* is 1000x faster while its median is unchanged:
    # only the min statistic may flag this.
    entry["min_s"] /= 1000.0
    _, median_regressions = compare_payloads(shrunk, payload, threshold=2.0,
                                             statistic="median")
    assert "ind/kdtt+" not in median_regressions
    _, min_regressions = compare_payloads(shrunk, payload, threshold=2.0,
                                          statistic="min")
    assert "ind/kdtt+" in min_regressions
    with pytest.raises(ValueError, match="unknown statistic"):
        compare_payloads(payload, payload, statistic="p99")


def test_compare_per_phase_thresholds(quick_bench_payload):
    """A phase regression inside a stable headline median trips the gate
    only when the per-phase mode is enabled."""
    payload, _ = quick_bench_payload
    shrunk = json.loads(json.dumps(payload))
    phases = shrunk["matrix"]["ind"]["algorithms"]["bnb"]["phases_s"]
    assert "index" in phases
    phases["index"] /= 1000.0  # the current index phase now looks 1000x slower
    _, headline_only = compare_payloads(shrunk, payload, threshold=2.0)
    assert not any(":" in cell for cell in headline_only)
    lines, regressions = compare_payloads(shrunk, payload, threshold=2.0,
                                          phase_threshold=2.0)
    assert "ind/bnb:index" in regressions
    assert any("phase index" in line for line in lines)
    # Phases missing from the baseline are reported but never flagged.
    del shrunk["matrix"]["ind"]["algorithms"]["bnb"]["phases_s"]["index"]
    lines, regressions = compare_payloads(shrunk, payload, threshold=2.0,
                                          phase_threshold=2.0)
    assert "ind/bnb:index" not in regressions
    assert any("phase index" in line and "no baseline" in line
               for line in lines)
    with pytest.raises(ValueError, match="phase threshold"):
        compare_payloads(payload, payload, phase_threshold=0.0)
    text, ok = format_compare(payload, payload, phase_threshold=1.5)
    assert ok and "per-phase 1.50x" in text


def test_cli_compare_stat_and_phase_threshold(quick_bench_payload, capsys):
    """The CI-friendly compare modes are reachable from the CLI."""
    from repro.cli import main

    payload, output = quick_bench_payload
    # The huge headline threshold keeps this a plumbing test: re-timed
    # wall clock against the session baseline must not flake the gate on
    # a loaded or single-CPU runner.
    argv = ["bench", "--quick", "--repeats", "1", "--algorithms", "kdtt+",
            "--workloads", "ind", "--output", "-", "--compare", str(output),
            "--regression-threshold", "1000000", "--compare-stat", "min",
            "--phase-regression-threshold", "1000000"]
    assert main(argv) == 0
    out = capsys.readouterr().out
    assert "comparison against baseline (min," in out
    # A vanishing per-phase threshold flags the annotated phases.
    argv_tight = argv[:-1] + ["0.000001"]
    argv_tight[argv_tight.index("kdtt+")] = "bnb"
    assert main(argv_tight) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_compare_flags_regressions_and_only_regressions(quick_bench_payload):
    """Self-comparison is clean; a shrunk baseline trips the gate."""
    payload, _ = quick_bench_payload
    lines, regressions = compare_payloads(payload, payload)
    assert not regressions
    cells = sum(len(section["algorithms"])
                for section in payload["matrix"].values())
    serve_modes = sum(1 for mode in ("cold", "warm")
                      if mode in payload["serve"])
    stream_lines = sum(1 for mode in ("cold", "incremental", "warm")
                       if mode in payload["stream"])
    warm_entry = payload["stream"].get("warm") or {}
    for rate_field in ("hit_rate", "post_delta_hit_rate"):
        if rate_field in warm_entry:
            stream_lines += 1  # each rate gate prints its own line
    assert len(lines) == (cells + len(payload["extras"]) + serve_modes +
                          stream_lines)

    shrunk = json.loads(json.dumps(payload))
    shrunk["matrix"]["ind"]["algorithms"]["kdtt+"]["median_s"] /= 1000.0
    _, regressions = compare_payloads(shrunk, payload, threshold=2.0)
    assert regressions == ["ind/kdtt+"]
    text, ok = format_compare(shrunk, payload, threshold=2.0)
    assert not ok and "REGRESSION" in text and "ind/kdtt+" in text
    text, ok = format_compare(payload, payload)
    assert ok and "no regressions" in text


def test_compare_handles_missing_baseline_cells(quick_bench_payload):
    """New algorithms / workloads are reported but never flagged."""
    payload, _ = quick_bench_payload
    baseline = json.loads(json.dumps(payload))
    del baseline["matrix"]["ind"]["algorithms"]["kdtt+"]
    del baseline["matrix"]["anti"]
    lines, regressions = compare_payloads(baseline, payload, threshold=0.0001)
    assert "ind/kdtt+" not in regressions
    assert not any(cell.startswith("anti/") for cell in regressions)
    assert any("no baseline" in line for line in lines)
    with pytest.raises(ValueError, match="threshold"):
        compare_payloads(payload, payload, threshold=0.0)


def test_cli_compare_exit_codes(quick_bench_payload, tmp_path, capsys,
                               monkeypatch):
    """``repro bench --compare`` prints deltas and gates on the threshold.

    The timing run is replaced by the baseline itself, so every ratio is
    exactly 1.0: re-timed wall clock against the session baseline would
    make the default-threshold exit code depend on the runner's load.
    The re-timed CLI path is covered by
    ``test_cli_compare_stat_and_phase_threshold``.
    """
    import repro.cli
    from repro.cli import main

    payload, output = quick_bench_payload
    requests = []

    def rerun(**kwargs):
        requests.append(kwargs)
        return json.loads(output.read_text(encoding="utf-8"))

    monkeypatch.setattr(repro.cli, "run_bench", rerun)
    argv = ["bench", "--quick", "--repeats", "1", "--algorithms", "kdtt+",
            "--workloads", "ind", "--output", "-",
            "--compare", str(output)]
    assert main(argv) == 0
    assert requests[0]["algorithms"] == ["kdtt+"]
    assert requests[0]["workloads"] == ["ind"]
    assert requests[0]["output_path"] is None
    assert "comparison against baseline" in capsys.readouterr().out
    # An absurdly tight threshold turns any nonzero delta into a failure.
    assert main(argv + ["--regression-threshold", "0.000001"]) == 1
    assert "REGRESSION" in capsys.readouterr().out


def test_format_bench_mentions_every_cell(quick_bench_payload):
    payload, _ = quick_bench_payload
    text = format_bench(payload)
    for workload_name, section in payload["matrix"].items():
        assert "[%s]" % workload_name in text
        for name in section["algorithms"]:
            assert name in text
    for name in payload["extras"]:
        assert name in text


def test_algorithm_and_workload_subset_and_no_check():
    payload = run_bench(profile="quick", algorithms=["kdtt+", "dual"],
                        workloads=["anti"], repeats=1, check=False)
    assert payload["workload_axis"] == ["anti"]
    section = payload["matrix"]["anti"]
    assert sorted(section["algorithms"]) == ["dual", "kdtt+"]
    assert payload["reference_algorithm"] is None
    for entry in section["algorithms"].values():
        assert "parity" not in entry
    # An explicit subset is a request to time just that subset.
    assert payload["extras"] == {}


def test_axes_are_canonicalized_and_validated_up_front():
    """Aliases land on their matching variant, typos fail before timing,
    duplicates collapse, and empty selections mean the defaults."""
    payload = run_bench(profile="quick", algorithms=["DUALMS", "kdtt+"],
                        workloads=["ANTI", "anti"], repeats=1)
    assert payload["workload_axis"] == ["anti"]
    section = payload["matrix"]["anti"]
    assert sorted(section["algorithms"]) == ["dual-ms", "kdtt+"]
    assert section["algorithms"]["dual-ms"]["variant"] == "ratio-2d"
    assert section["algorithms"]["dual-ms"]["parity"] == "ok"
    with pytest.raises(KeyError, match="unknown ARSP algorithm"):
        run_bench(profile="quick", algorithms=["kdtt+", "kdt"], repeats=1)
    with pytest.raises(KeyError, match="unknown workload"):
        run_bench(profile="quick", workloads=["ind", "tpch"], repeats=1)
    empty = run_bench(profile="quick", algorithms=["kdtt+"], workloads=[],
                      repeats=1, check=False)
    assert empty["workload_axis"] == list(PROFILES["quick"].workload_names)


@pytest.mark.bench
def test_full_matrix_parity_sweep():
    """Opt-in (``pytest -m bench``): every algorithm on all six workloads
    at the quick scale, every cell parity-checked against KDTT+."""
    payload = run_bench(profile="quick", workloads=available_workloads(),
                        repeats=1)
    assert payload["workload_axis"] == available_workloads()
    for workload_name, section in payload["matrix"].items():
        assert sorted(section["algorithms"]) == list_algorithms()
        for name, entry in section["algorithms"].items():
            assert entry["parity"] == "ok", (workload_name, name)


@pytest.mark.serve
def test_serve_section_measures_warm_vs_cold(quick_bench_payload):
    """The quick profile's serve section: parity-checked, cache-hitting
    warm rounds with a recorded speedup over cold-start rounds."""
    payload, _ = quick_bench_payload
    serve = payload["serve"]
    assert serve, "default bench runs must measure the serve workload"
    assert serve["parity"] == "ok"
    assert serve["queries_per_round"] > 1
    for mode in ("cold", "warm"):
        entry = serve[mode]
        assert len(entry["runs_s"]) == entry["repeats"], mode
        assert entry["min_s"] <= entry["median_s"], mode
    cache = serve["warm"]["cache"]
    assert cache["hits"] > 0, "warm rounds must hit the cross-query cache"
    assert cache["hit_rate"] > 0
    assert serve["speedup"] is not None
    text = format_bench(payload)
    assert "[serve]" in text and "serve-warm" in text
    assert "cache:" in text
    # Serve rounds compare like any other cell between payloads.
    slower = json.loads(json.dumps(payload))
    slower["serve"]["warm"]["median_s"] *= 1000.0
    baseline = json.loads(json.dumps(payload))
    lines, regressions = compare_payloads(baseline, slower, threshold=2.0)
    assert "serve/warm" in regressions
    assert any("serve/warm" in line for line in lines)


@pytest.mark.serve
def test_serve_daemon_smoke():
    """Daemon lifecycle smoke: start ``repro serve``, query it over TCP,
    shut it down over the protocol, and get a clean exit."""
    import asyncio
    import os
    import subprocess
    import sys
    from pathlib import Path

    from repro.core.arsp import compute_arsp
    from repro.core.preference import WeightRatioConstraints
    from repro.data.synthetic import (SyntheticConfig,
                                      generate_uncertain_dataset)
    from repro.serve import ServeClient

    src = str(Path(__file__).resolve().parents[1] / "src")
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--objects", "20",
         "--instances", "3", "--dimension", "3", "--seed", "11",
         "--port", "0"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        env=dict(os.environ, PYTHONPATH=src))
    try:
        address = None
        for _ in range(10):
            line = process.stdout.readline()
            assert line, "daemon exited before announcing its port: %s" % (
                process.stderr.read(),)
            if "listening on" in line:
                address = line.rsplit("listening on", 1)[1].strip()
                break
        assert address is not None
        host, port = address.rsplit(":", 1)
        constraints = WeightRatioConstraints([(0.5, 2.0), (0.5, 2.0)])

        async def round_trip():
            client = await ServeClient.connect(host, int(port))
            first = await client.query(constraints=constraints)
            second = await client.query(constraints=constraints)
            await client.shutdown()
            await client.close()
            return first, second

        first, second = asyncio.run(round_trip())
        dataset = generate_uncertain_dataset(SyntheticConfig(
            num_objects=20, max_instances=3, dimension=3, seed=11))
        assert first["result"] == dict(compute_arsp(dataset, constraints))
        assert second["cached"] is True
        assert process.wait(timeout=30) == 0
        remaining = process.stdout.read()
        assert "answered 2 queries" in remaining
    finally:
        if process.poll() is None:
            process.kill()
        process.stdout.close()
        process.stderr.close()


@pytest.mark.stream
def test_stream_section_measures_incremental_and_warm_replays(
        quick_bench_payload):
    """The quick profile's stream section: one deterministic scenario
    replayed cold / incremental / warm, byte-identical fingerprints, σ
    maintenance and cache counters recorded."""
    payload, _ = quick_bench_payload
    stream = payload["stream"]
    assert stream, "default bench runs must measure the stream workload"
    assert stream["parity"] == "ok"
    workload = stream["workload"]
    quick = PROFILES["quick"]
    assert workload["steps"] == quick.stream_steps
    assert workload["queries"] == quick.stream_steps * quick.stream_queries
    assert workload["script_fingerprint"]
    for mode in ("cold", "incremental", "warm"):
        entry = stream[mode]
        assert len(entry["runs_s"]) == entry["repeats"], mode
        assert entry["min_s"] <= entry["median_s"], mode
        # Per-step seconds stand in for runs: one entry per scenario step.
        assert entry["repeats"] == quick.stream_steps, mode
    maintenance = stream["incremental"]["maintenance"]
    assert maintenance["sigma_hits"] > 0
    assert 0.0 < maintenance["copied_fraction"] <= 1.0
    warm = stream["warm"]
    assert warm["cache"]["hits"] > 0
    assert warm["hit_rate"] > 0
    # The PR 10 acceptance criterion: cache entries retained across the
    # per-step deltas serve real post-delta hits (this was structurally
    # zero when apply_delta cleared the cache).
    assert warm["post_delta_hit_rate"] > 0
    assert warm["cache"]["retained"] > 0
    assert warm["cache"]["retained_hits"] > 0
    assert warm["coalesced"] >= 0
    assert stream["speedup"] is not None
    text = format_bench(payload)
    assert "[stream]" in text and "stream-incremental" in text
    assert "sigma:" in text and "hit rate" in text and "post-delta" in text


@pytest.mark.stream
def test_compare_gates_on_stream_hit_rate(quick_bench_payload):
    """A warm hit-rate drop beyond the tolerance flags even when every
    timing cell is clean; per-step slowdowns gate like any other cell."""
    payload, _ = quick_bench_payload
    degraded = json.loads(json.dumps(payload))
    degraded["stream"]["warm"]["hit_rate"] = max(
        0.0, payload["stream"]["warm"]["hit_rate"] - 2 * HIT_RATE_TOLERANCE)
    lines, regressions = compare_payloads(payload, degraded,
                                          threshold=1000.0)
    assert regressions == ["stream/warm:hit_rate"]
    assert any("stream/warm:hit_rate" in line and "REGRESSION" in line
               for line in lines)
    # A drop inside the tolerance band stays green.
    wobble = json.loads(json.dumps(payload))
    wobble["stream"]["warm"]["hit_rate"] = max(
        0.0, payload["stream"]["warm"]["hit_rate"] -
        HIT_RATE_TOLERANCE / 2.0)
    _, regressions = compare_payloads(payload, wobble, threshold=1000.0)
    assert not regressions
    # Retention has its own gate: a run whose repair path broke back to
    # clear-on-delta zeroes the post-delta rate and flags, even with
    # every timing cell and the overall hit rate clean.
    dropped = json.loads(json.dumps(payload))
    dropped["stream"]["warm"]["post_delta_hit_rate"] = 0.0
    _, regressions = compare_payloads(payload, dropped, threshold=1000.0)
    assert regressions == ["stream/warm:post_delta_hit_rate"]
    # Against a zero-rate baseline a tie stays green and an improvement
    # never flags.
    _, regressions = compare_payloads(dropped, dropped, threshold=1000.0)
    assert not regressions
    _, regressions = compare_payloads(dropped, payload, threshold=1000.0)
    assert not regressions
    # A baseline without serve or stream sections (an ``--algorithms``
    # subset run) reports those cells and rates as missing, never flags
    # them, and comparing two such payloads skips the absent modes.
    bare = json.loads(json.dumps(payload))
    bare["serve"] = {}
    bare["stream"] = {}
    lines, regressions = compare_payloads(bare, payload, threshold=1000.0)
    assert not regressions
    for label in ("serve/warm", "stream/warm ",
                  "stream/warm:post_delta_hit_rate"):
        assert any(label in line and "no baseline" in line
                   for line in lines), label
    _, regressions = compare_payloads(bare, bare)
    assert not regressions
    # Stream timing cells ride the ordinary regression gate.
    slower = json.loads(json.dumps(payload))
    slower["stream"]["incremental"]["median_s"] *= 1000.0
    _, regressions = compare_payloads(payload, slower, threshold=2.0)
    assert "stream/incremental" in regressions


@pytest.mark.parallel
@pytest.mark.faults
def test_bench_cell_records_crash_recovery(monkeypatch):
    """Crash-recovery smoke: with ``REPRO_FAULTS`` injecting a worker
    crash, the bench cell still times the run, stays parity-checked, and
    records the recovery in its execution summary."""
    monkeypatch.setenv("REPRO_FAULTS", "crash:shard=1,attempt=1,after=0")
    payload = run_bench(profile="quick", workloads=["ind"],
                        algorithms=["kdtt+"], repeats=1, workers=2,
                        backend="process")
    assert payload["backend"] == "process"
    entry = payload["matrix"]["ind"]["algorithms"]["kdtt+"]
    assert entry["parity"] == "ok"
    execution = entry["execution"]
    assert execution is not None and not execution["clean"]
    assert execution["recovered_shards"] == [1]
    assert execution["pool_rebuilds"] >= 1
    assert execution["serial_fallback_shards"] == []
    assert "[exec:" in format_bench(payload)
