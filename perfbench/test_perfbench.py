"""The benchmark's own checks, run at the tiny scale (seconds each)."""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

import pytest

from perfbench import run as bench
from perfbench.tracing import self_times

RUN_PY = os.path.join(bench.HERE, "run.py")
SECONDS = 0.3


def _run(workload, trace=False, seed=7, tamper=None):
    return bench.run_one(workload, seed, SECONDS, trace, scale="tiny",
                         tamper=tamper)


def test_every_metric_is_printed_with_its_unit():
    completed = subprocess.run(
        [sys.executable, RUN_PY, "--workload", "all", "--seed", "3",
         "--seconds", str(SECONDS), "--scale", "tiny"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=300)
    lines = completed.stdout.splitlines()
    final = json.loads(lines[-1])
    assert final["correct"] and final["failed"] == 0
    for workload in bench.WORKLOAD_NAMES:
        for table in (bench.END_TO_END, bench.PER_LAYER):
            for name, unit in table.items():
                metric = final["metrics"]["%s/%s" % (workload, name)]
                assert metric["unit"] == unit
        assert any(line.startswith("%s tracing overhead" % workload)
                   for line in lines)
    printed = [line.split() for line in lines if line.startswith("  ")]
    for name, unit in {**bench.END_TO_END, **bench.PER_LAYER}.items():
        assert [name, unit] in [[row[0], row[2]] for row in printed
                                if len(row) >= 3], name


def test_benchmark_json_declares_what_the_runs_report():
    with open(os.path.join(bench.ROOT, "BENCHMARK.json")) as handle:
        declared = json.load(handle)
    assert [w["name"] for w in declared["workloads"]] == list(
        bench.WORKLOAD_NAMES)
    for key, table in (("end_to_end", bench.END_TO_END),
                       ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in declared[key]} == table


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_one_seed_gives_equal_input_and_result_fingerprints(workload):
    first, second = _run(workload), _run(workload, trace=True)
    assert first["correct"] and second["correct"]
    assert first["input_fingerprint"] == second["input_fingerprint"]
    assert first["result_fingerprint"] == second["result_fingerprint"]
    assert first["fingerprint_queries"] > 0
    other = _run(workload, seed=8)
    assert other["input_fingerprint"] != first["input_fingerprint"]


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_a_corrupted_answer_counts_as_a_failure(workload):
    def corrupt(result):
        return {key: value + 1e-6 for key, value in result.items()}

    record = _run(workload, tamper=corrupt)
    assert record["verified"] > 0
    assert record["failed"] == record["mismatches"] == record["verified"]
    assert record["error_rate"] > 0
    assert not bench.result_line(record)["correct"]


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_layer_self_times_account_for_each_request(workload):
    record = _run(workload, trace=True)
    with open(record["spans_file"]) as handle:
        spans = [json.loads(line) for line in handle]
    roots = {span["id"]: span for span in spans if span["parent"] is None}
    assert roots
    by_parent = {}
    for span in spans:
        if span["parent"] is not None:
            parent = roots[span["parent"]]
            assert span["request"] == parent["id"]
            assert parent["start"] <= span["start"] <= span["end"] \
                <= parent["end"]
            by_parent.setdefault(span["parent"], []).append(span)
    selfs = self_times(spans)
    for root in roots.values():
        children = sorted(by_parent.get(root["id"], []),
                          key=lambda span: span["start"])
        assert children, root["name"]
        for before, after in zip(children, children[1:]):
            assert before["end"] <= after["start"]
        latency = root["end"] - root["start"]
        assert sum(selfs[root["id"]].values()) == pytest.approx(
            latency, rel=1e-9, abs=1e-12)
        assert selfs[root["id"]][root["name"]] < latency
    if workload == "oneshot-lin8":
        assert record["per_layer"]["core.preference.setup_ms"] > 0
    else:
        assert record["per_layer"]["serve.protocol.codec_ms"] > 0


def test_without_the_program_the_benchmark_fails_without_a_result(tmp_path):
    shutil.copytree(bench.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(bench.ROOT, "BENCHMARK.json"), tmp_path)
    completed = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "serve-hot",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, timeout=60)
    assert completed.returncode != 0
    assert "correct" not in completed.stdout
