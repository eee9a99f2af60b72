"""Tests of the benchmark itself (not collected by the repository suite).

Run from the root of a checkout::

    python3 -m pytest perfbench/selftest.py -q

They pin what the benchmark's figures rest on: the traced re-drive equals
``execute_run``, the per-layer counts repeat exactly for one seed, every
metric name is well formed, and a corrupted output is counted as a failure.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run

sys.path.insert(0, str(run.SRC))

import bench_workloads as bw  # noqa: E402
from bench_layers import Spans, redrive  # noqa: E402
from bench_serve import ClientState, ServeProcess, closed_loop, expected_responses, request_mix  # noqa: E402
from repro.campaign.worker import execute_run  # noqa: E402
from repro.store import RunStore  # noqa: E402

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def sample(workload: str, seed: int = 0):
    """A small slice of a workload's grid: a few runs of every kind it has."""
    specs = bw.build_spec(workload, seed).expand()
    if workload == "fault-matrix":
        baseline = [spec for spec in specs if spec.faults is None and spec.mutant is None][:2]
        faulted = [spec for spec in specs if spec.faults is not None][:2]
        mutated = [spec for spec in specs if spec.mutant is not None][:2]
        return [*baseline, *faulted, *mutated]
    # One run of each scheme for each system pack.
    picked = {}
    for spec in specs:
        picked.setdefault((spec.system, spec.scheme), spec)
    return list(picked.values())


def bench_command(*arguments: str):
    return [sys.executable, "perfbench/run.py", *arguments]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_redrive_equals_execute_run(workload):
    specs = sample(workload)
    redriven = redrive(specs, Spans())
    expected = [execute_run(spec) for spec in specs]
    assert [bw.canonical(record) for record in redriven.records] == [bw.canonical(r) for r in expected]


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_layer_counts_repeat_for_one_seed(workload):
    specs = sample(workload, seed=3)
    first = redrive(specs, Spans()).counts
    second = redrive(specs, Spans()).counts
    assert first == second
    assert first["platform.kernel.events"] > 0 and first["core.trace_events"] > 0
    assert first["codegen.artifacts"] > 0


def test_traced_run_counts_repeat_and_names_are_well_formed():
    def traced():
        out = subprocess.run(
            bench_command("--workload", "mtest-grid", "--seed", "5", "--seconds", "1", "--trace", "1"),
            cwd=run.ROOT, capture_output=True, text=True, timeout=180,
        )
        assert out.returncode == 0, out.stderr
        return json.loads(out.stdout.strip().splitlines()[-1])

    first, second = traced(), traced()
    assert first["correct"] and first["failed"] == 0
    assert set(first["metrics"]) == set(bw.PER_LAYER)
    counts = [name for name, unit in bw.PER_LAYER.items() if unit == "count"]
    assert {"platform.kernel.events", "platform.rtos.dispatch_rounds", "core.trace_events"} <= set(counts)
    for name in first["metrics"]:
        assert NAME.match(name), name
    for name in counts:
        assert first["metrics"][name] == second["metrics"][name], name


def test_metric_names_match_the_benchmark_file():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    end_to_end = {metric["name"]: metric["unit"] for metric in spec["end_to_end"]}
    per_layer = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    assert end_to_end == bw.END_TO_END
    assert per_layer == bw.PER_LAYER
    assert [workload["name"] for workload in spec["workloads"]] == list(run.WORKLOADS)
    for name in [*end_to_end, *per_layer, *run.WORKLOADS]:
        assert NAME.match(name), name


def test_mtest_grid_two_workers_equal_serial(tmp_path):
    spec = bw.build_spec("mtest-grid", 7)
    parallel, _, _ = bw.execute(spec, tmp_path / "parallel.db", workers=2)
    serial, _, _ = bw.execute(spec, tmp_path / "serial.db", workers=1)
    assert parallel.to_json() == serial.to_json()


def test_corrupted_record_is_counted_as_failed():
    specs = sample("mtest-grid")[:3]
    records = [execute_run(spec) for spec in specs]
    tally = bw.Tally()
    tally.records(records, records, "identical")
    assert (tally.attempted, tally.failed) == (3, 0)
    corrupted = list(records)
    payload = dict(corrupted[1].r_payload, violations=corrupted[1].violation_count + 1)
    corrupted[1] = type(records[1])(spec=records[1].spec, r_payload=payload, m_payload=records[1].m_payload)
    tally.records(corrupted, records, "corrupted")
    assert (tally.attempted, tally.failed) == (6, 1)


def test_failed_operation_makes_the_run_fail(capsys):
    bench = bw.Bench("mtest-grid", 0, run.ROOT)
    bench.tally.add(10, 1, "corrupted on purpose")
    metrics = {name: 1.0 for name in bw.END_TO_END}
    args = type("Args", (), {"workload": "mtest-grid", "seed": 0, "seconds": 1, "trace": 0})()
    assert bw.emit(bench, metrics, bw.END_TO_END, args) == 1
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert result["correct"] is False and result["failed"] == 1 and result["attempted"] == 10


def test_corrupted_store_and_serve_outputs_are_counted(tmp_path):
    bench = bw.Bench("mtest-grid", 0, tmp_path)
    bench.spec = bw.build_spec("mtest-grid", 0)
    path = tmp_path / "served.db"
    result, campaign_id, _ = bw.execute(bench.spec, path, workers=1)
    reference = result.to_json()

    bench.resume(path, reference)
    assert bench.tally.failed == 0
    bench.resume(path, reference.replace('"passed": true', '"passed": false', 1))
    assert bench.tally.failed == 1

    with RunStore(path) as store:
        urls = request_mix(store, campaign_id)
    expected = expected_responses(path, urls)
    corrupted = dict(expected)
    body, etag = corrupted["/healthz"]
    corrupted["/healthz"] = (body.replace(b"ok", b"no"), etag)
    server = ServeProcess(path, run.ROOT, tmp_path / "serve.log")
    try:
        clean = closed_loop(server.host, server.port, urls, expected, 0.5, [ClientState()])
        broken = closed_loop(server.host, server.port, urls, corrupted, 0.5, [ClientState()])
    finally:
        server.stop()
    assert clean.failed == 0 and clean.responses > 0
    assert broken.failed > 0


def test_directory_without_sources_exits_nonzero(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        bench_command("--workload", "fault-matrix", "--seed", "0", "--seconds", "1", "--trace", "0"),
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
    assert not (Path(tmp_path) / ".perfbench").exists()
