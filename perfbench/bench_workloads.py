"""Workloads, measurement and checks of the repository benchmark.

Imported by ``run.py`` once the program's sources are on ``sys.path``; see
NOTES.md for what each workload runs and what each metric means.
"""

from __future__ import annotations

import json
import math
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence

from bench_layers import LAYERS, Spans, layer_metrics, redrive
from bench_reference import BURST, ReferencedStore, flanking_reference, reference_s, time_reference
from bench_serve import (
    ClientState,
    ServeProcess,
    closed_loop,
    endpoint_of,
    expected_responses,
    request_mix,
    respond_in_process,
    warm_up,
)
from repro.campaign.cache import process_cache
from repro.campaign.results import CampaignResult
from repro.campaign.runner import CampaignRunner, default_worker_count
from repro.campaign.spec import M_TEST_ALL, CampaignSpec, CasePoint, SchemePoint, derive_seed
from repro.campaign.worker import execute_run, execution_count
from repro.faults.matrix import KillMatrix, default_matrix_spec
from repro.faults.mutants import generate_mutants
from repro.obs import Telemetry
from repro.store import RunStore
from repro.store.server import StoreHTTPServer
from repro.systems import DEFAULT_SYSTEM, get_pack, iter_packs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: End-to-end metric -> unit, printed with ``--trace 0``.
END_TO_END = {
    "runs_per_kref": "1/kref",
    "run_p50_ref": "ref",
    "run_p90_ref": "ref",
    "resume_runs_per_kref": "1/kref",
    "serve_rps": "1/s",
    "serve_p50_ms": "ms",
    "serve_p90_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

#: Per-layer metric -> unit, printed with ``--trace 1``.
PER_LAYER = {
    "campaign.expand_s": "s",
    "campaign.overhead_s": "s",
    "codegen.artifacts": "count",
    "codegen.busy_s": "s",
    "faults.mutants_s": "s",
    "faults.instrument_s": "s",
    "systems.build_s": "s",
    "systems.test_case_s": "s",
    "integration.run_s": "s",
    "integration.stimulus_s": "s",
    "integration.sim_s_per_host_s": "s/s",
    "platform.kernel.events": "count",
    "platform.kernel.cancellations": "count",
    "platform.kernel.compactions": "count",
    "platform.kernel.host_us_per_event": "us",
    "platform.rtos.dispatch_rounds": "count",
    "platform.rtos.activations": "count",
    "platform.rtos.preemptions": "count",
    "platform.rtos.completions": "count",
    "platform.rtos.deadline_misses": "count",
    "core.trace_events": "count",
    "core.evaluate_s": "s",
    "core.mtest_s": "s",
    "core.serialize_s": "s",
    "store.save_s": "s",
    "store.lookup_s": "s",
    "store.lookup_hit_ratio": "ratio",
    "store.load_campaign_s": "s",
    "serve.respond_s.runs": "s",
    "serve.respond_s.campaigns": "s",
    "serve.respond_s.table1": "s",
    "serve.respond_s.healthz": "s",
    "serve.not_modified_ratio": "ratio",
    "serve.not_modified_p50_ms": "ms",
    "campaign.self_s": "s",
    "codegen.self_s": "s",
    "faults.self_s": "s",
    "systems.self_s": "s",
    "integration.self_s": "s",
    "core.self_s": "s",
    "store.self_s": "s",
    "serve.self_s": "s",
    "trace.runs": "count",
    "trace.spans": "count",
    "trace.wall_s": "s",
    "trace.untraced_s": "s",
    "trace.overhead_ratio": "ratio",
    "trace.accounted_ratio": "ratio",
}

#: The CPU-bound end-to-end figures: each is taken per pass in units of the
#: reference loop timed beside it (see bench_reference), and the run reports
#: the median over its passes.
PASS_FIGURES = (
    "runs_per_kref",
    "run_p50_ref",
    "run_p90_ref",
    "resume_runs_per_kref",
)
#: Fresh-process set-ups timed per run; ``setup_s`` is their median.
SETUP_PROBES = 5
#: Campaign passes made however slow the host is; past these, passes go on
#: while the next one is expected to end within ``--seconds``.
MIN_PASSES = 3
#: Warm resumes made after each campaign pass.
RESUMES = 12
#: Closed-loop serving window after each pass.
SERVE_WINDOW_S = 0.5
#: Serving window of the traced run (it only measures the 304 share).
TRACE_SERVE_WINDOW_S = 2.0
#: SUT seeds per (scheme, scenario) of the mtest-grid: 3 schemes x
#: 10 scenarios x 4 seeds = 120 runs, so p90 has 12 samples beyond it.
GRID_SUT_SEEDS = 4

#: The default GPCA kill matrix at seed 0 (BENCH_faults.json records the same).
PINNED_SEED0_MATRIX = {
    "mutants": 12,
    "killed": 10,
    "survivors": ["retarget:t_clear_alarm:BolusRequested", "timing:t_bolus_done:2000"],
    "fault_plans": 7,
    "detected": 7,
}


def percentile(values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile (``fraction`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(fraction * len(ordered)) - 1)]


def canonical(record) -> str:
    return json.dumps(record.to_dict(), sort_keys=True)


class Tally:
    """Operations attempted and failed; every failure is reported on stderr."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int = 0, what: str = "") -> None:
        self.attempted += attempted
        self.failed += failed
        if failed:
            print(f"perfbench: {failed}/{attempted} failed: {what}", file=sys.stderr)

    def records(self, records: Sequence, reference: Sequence, what: str) -> None:
        """Count ``records`` as operations; each that deviates from ``reference`` fails."""
        deviating = sum(1 for a, b in zip(records, reference) if canonical(a) != canonical(b))
        deviating += abs(len(records) - len(reference))
        self.add(len(records), deviating, what)


def build_spec(workload: str, seed: int):
    """The workload's campaign grid, generated from ``seed`` alone."""
    if workload == "fault-matrix":
        return default_matrix_spec(base_seed=seed)
    # mtest-grid: Table I's policy, M-testing on every run.
    name = "mtest-grid"
    cases = tuple(
        CasePoint(case, samples=5, system=pack.system_id)
        for pack in iter_packs()
        for case in sorted(pack.case_builders)
    )
    schemes = tuple(
        SchemePoint(scheme, sut_seed=derive_seed(seed, name, "sut", draw, scheme))
        for draw in range(GRID_SUT_SEEDS)
        for scheme in (1, 2, 3)
    )
    return CampaignSpec(name=name, schemes=schemes, cases=cases, base_seed=seed, m_test=M_TEST_ALL)


def execute(spec, store_path: Path, workers: int = 1, reference: Optional[List[float]] = None):
    """Run the grid the way ``repro campaign/faults --store`` does; returns
    ``(result, campaign id, wall seconds)``.

    With ``reference``, the reference loop is timed into it at each progress
    snapshot, and the wall seconds exclude those timings.
    """
    store = RunStore(store_path) if reference is None else ReferencedStore(store_path, reference)
    sampled = 0 if reference is None else len(reference)
    with store:
        runner = CampaignRunner(spec, workers=workers, store=store, telemetry=Telemetry())
        started = time.perf_counter()
        result = runner.run()
        wall = time.perf_counter() - started
    if reference is not None:
        wall -= sum(reference[sampled:])
    return result, runner.campaign_id, wall


class Bench:
    """One invocation: set-up, the timed or traced phase, and the checks."""

    def __init__(self, workload: str, seed: int, workdir: Path) -> None:
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.nproc = default_worker_count()
        # Timed passes run serially: on a shared 2-vCPU host the 2-worker
        # pool's throughput spread 1.5x-2x wider than a serial run's.  The
        # pool runs in the traced run, which times its overhead and checks
        # its records against the serial re-drive.
        self.pool_workers = min(2, self.nproc) if workload == "mtest-grid" else 1
        self.clients = min(2, self.nproc)
        self.tally = Tally()
        self.server = None
        self.urls: List[str] = []
        self.expected: Dict = {}
        #: Serve-client state, kept across serving windows.
        self.client_states: List = []
        self.spec = None
        # Timed-phase samples.
        #: The CPU-bound figures of every campaign pass (see PASS_FIGURES).
        self.pass_figures: List[Dict[str, float]] = []
        #: Reference seconds of every pass (beside its grid execution).
        self.references: List[float] = []
        #: Reference-loop samples timed beside the current pass's grid execution.
        self.run_reference: List[float] = []
        #: Resume times of the current pass, each over the reference time
        #: flanking it.
        self.resume_ref: List[float] = []
        self.serve_full: List[float] = []
        self.serve_not_modified: List[float] = []
        self.serve_wall = 0.0

    # ------------------------------------------------------------------
    # Set-up: imports (already done by the caller), registry, codegen, grid
    # ------------------------------------------------------------------
    def prepare(self) -> None:
        packs = [get_pack(DEFAULT_SYSTEM)] if self.workload == "fault-matrix" else list(iter_packs())
        for pack in packs:
            process_cache().artifacts_for_model(pack.default_model)
        self.spec = build_spec(self.workload, self.seed)

    def start_server(self, store_path: Path, campaign_id: str) -> None:
        with RunStore(store_path) as store:
            self.urls = request_mix(store, campaign_id)
        self.expected = expected_responses(store_path, self.urls)
        self.client_states = [ClientState() for _ in range(self.clients)]
        self.server = ServeProcess(store_path, ROOT, self.workdir / "serve.log")
        warm_up(self.server.host, self.server.port, self.urls)

    def stop_server(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    def note_pass(self, wall_s: float, elapsed_s: Sequence[float]) -> None:
        """Record the figures of one pass: its grid execution (wall time and
        per-run latencies) and the resumes made after it, each over the
        reference time timed beside it."""
        runs = len(elapsed_s)
        run_ref = reference_s(self.run_reference)
        self.pass_figures.append(
            {
                "runs_per_kref": 1000.0 * runs * run_ref / wall_s,
                "run_p50_ref": percentile(elapsed_s, 0.5) / run_ref,
                "run_p90_ref": percentile(elapsed_s, 0.9) / run_ref,
                "resume_runs_per_kref": 1000.0 * runs / statistics.median(self.resume_ref),
            }
        )
        self.references.append(run_ref)
        for samples in (self.run_reference, self.resume_ref):
            samples.clear()

    # ------------------------------------------------------------------
    # The resume and serve legs of every pass
    # ------------------------------------------------------------------
    def resume(self, store_path: Path, expected_json: str) -> None:
        """Warm-resume the stored campaign: zero executions, identical aggregate."""
        executions = execution_count()
        with RunStore(store_path) as store:
            runner = CampaignRunner(self.spec, store=store, resume=True, telemetry=Telemetry())
            before = flanking_reference()
            started = time.perf_counter()
            resumed = runner.run()
            elapsed = time.perf_counter() - started
            after = flanking_reference()
        exact = (
            runner.executed_count == 0
            and execution_count() == executions
            and resumed.to_json() == expected_json
        )
        self.resume_ref.append(2.0 * elapsed / (before + after))
        self.tally.add(1, 0 if exact else 1, "warm resume executed runs or changed the aggregate")

    def serve(self, seconds: float) -> None:
        loop = closed_loop(self.server.host, self.server.port, self.urls, self.expected, seconds, self.client_states)
        self.serve_full.extend(loop.full_s)
        self.serve_not_modified.extend(loop.not_modified_s)
        self.serve_wall += loop.wall_s
        self.tally.add(loop.attempted, loop.failed, "serve responses not 200/304 or differing from respond")

    # ------------------------------------------------------------------
    # Timed phase (tracing off)
    # ------------------------------------------------------------------
    def timed(self, seconds: float) -> None:
        """Campaign passes, each followed by its store and serve legs, until
        the next pass would end past ``seconds`` (at least :data:`MIN_PASSES`)."""
        started = time.perf_counter()
        first = None
        passes = 0
        while True:
            pass_started = time.perf_counter()
            path = self.workdir / f"pass{passes}.db"
            time_reference(self.run_reference, BURST)
            result, campaign_id, wall = execute(self.spec, path, reference=self.run_reference)
            time_reference(self.run_reference, BURST)
            passes += 1
            if first is None:
                first = result
                self.check_first_pass(result)
            else:
                self.tally.records(result.records, first.records, "pass differs from the first pass")
            result_json = result.to_json()
            for _ in range(RESUMES):
                self.resume(path, result_json)
            self.note_pass(wall, [record.elapsed_s for record in result.records])
            if self.server is None:
                self.start_server(path, campaign_id)
            self.serve(SERVE_WINDOW_S)
            now = time.perf_counter()
            if passes >= MIN_PASSES and now + (now - pass_started) - started > seconds:
                break

    def check_first_pass(self, first) -> None:
        """Count the first pass's runs; every later pass must reproduce them
        exactly, and at seed 0 the kill matrix must match the pin.

        The serial-versus-2-worker comparison of ``mtest-grid`` is made by the
        traced run, whose re-drive and ``execute_run`` loop are serial.
        """
        self.tally.add(len(first.records))
        if self.workload == "fault-matrix" and self.seed == 0:
            self.tally.add(1, 0 if self.matrix_matches_pin(first) else 1, "seed-0 kill matrix differs from the pin")

    def matrix_matches_pin(self, result) -> bool:
        matrix = KillMatrix.from_campaign(self.spec, result)
        observed = {
            "mutants": len(matrix.mutant_cells),
            "killed": len(matrix.killed_mutants()),
            "survivors": sorted(matrix.surviving_mutants()),
            "fault_plans": len(matrix.fault_cells),
            "detected": len(matrix.detected_faults()),
        }
        return observed == PINNED_SEED0_MATRIX

    def setup_times(self) -> List[float]:
        """Time :data:`SETUP_PROBES` fresh processes from start to workload ready."""
        times = []
        for index in range(SETUP_PROBES):
            probe_dir = self.workdir / f"probe{index}"
            probe_dir.mkdir()
            command = [
                sys.executable, str(HERE / "run.py"), "--setup-probe", "--workload", self.workload,
                "--seed", str(self.seed), "--workdir", str(probe_dir),
            ]
            started = time.perf_counter()
            probe = subprocess.Popen(command, cwd=str(ROOT), stdout=subprocess.PIPE, text=True)
            try:
                line = probe.stdout.readline()
                elapsed = time.perf_counter() - started
                probe.stdout.read()
            finally:
                probe.stdout.close()
                code = probe.wait(timeout=120)
            if code != 0 or not json.loads(line or "{}").get("ready"):
                raise RuntimeError(f"set-up probe {index} failed with exit code {code}")
            times.append(elapsed)
        return times

    def end_to_end(self, setup_times: Sequence[float], peak_rss_mb: float) -> Dict[str, float]:
        def ms(values: Sequence[float], fraction: float) -> float:
            return percentile(values, fraction) * 1000.0

        figures = {name: statistics.median(f[name] for f in self.pass_figures) for name in PASS_FIGURES}
        return {
            **figures,
            "serve_rps": (len(self.serve_full) + len(self.serve_not_modified)) / self.serve_wall,
            "serve_p50_ms": ms(self.serve_full, 0.5),
            "serve_p90_ms": ms(self.serve_full, 0.9),
            "peak_rss_mb": peak_rss_mb,
            "setup_s": statistics.median(setup_times),
        }

    # ------------------------------------------------------------------
    # Traced phase
    # ------------------------------------------------------------------
    def traced(self) -> Dict[str, float]:
        spans = Spans()
        if self.workload == "fault-matrix":
            chart = get_pack(self.spec.system).model_builders[self.spec.model]()
            with spans.span("generate_mutants", "faults"):
                mutants = generate_mutants(chart)
            self.tally.add(1, 0 if mutants == self.spec.mutants else 1, "mutant generation is not deterministic")
        with spans.span("CampaignSpec.expand", "campaign"):
            specs = self.spec.expand()

        # The untraced reference: the same grid through the campaign runner.
        untraced, _, _ = execute(self.spec, self.workdir / "untraced.db", self.pool_workers)
        in_runs_s = sum(record.elapsed_s for record in untraced.records)
        overhead_s = untraced.wall_seconds - in_runs_s / untraced.workers

        started = time.perf_counter()
        redriven = redrive(specs, spans)
        traced_wall = time.perf_counter() - started
        self.tally.records(redriven.records, untraced.records, "traced re-drive differs from execute_run")
        # Tracing overhead: the same serial loop through execute_run itself,
        # warmed up like the re-drive by the runner pass above.
        started = time.perf_counter()
        serial = [execute_run(spec) for spec in specs]
        untraced_wall = time.perf_counter() - started
        self.tally.records(serial, untraced.records, "serial execute_run differs from the runner")

        traced_result = CampaignResult(spec=self.spec, records=redriven.records)
        path = self.workdir / "traced.db"
        with RunStore(path) as store:
            with spans.span("RunStore.save_campaign", "store"):
                campaign_id = store.save_campaign(traced_result)
            hits = 0
            for spec in specs:
                with spans.span("RunStore.lookup", "store"):
                    hits += store.lookup(spec) is not None
            with spans.span("RunStore.load_campaign", "store"):
                loaded = store.load_campaign(campaign_id)
            self.tally.add(1, 0 if loaded.to_json() == traced_result.to_json() else 1, "store round trip differs")

            urls = request_mix(store, campaign_id)
            server = StoreHTTPServer(store, ("127.0.0.1", 0))
            try:
                for url in urls:
                    with spans.span("respond:" + endpoint_of(url), "serve"):
                        status, _, _ = respond_in_process(server, url)
                    self.tally.add(1, 0 if status == 200 else 1, f"in-process respond failed for {url}")
            finally:
                server.server_close()
        self.stop_server()
        self.start_server(path, campaign_id)
        self.serve(TRACE_SERVE_WINDOW_S)
        self.stop_server()

        metrics: Dict[str, float] = layer_metrics(spans, redriven)
        metrics.update(
            {
                "campaign.expand_s": spans.busy("CampaignSpec.expand"),
                "campaign.overhead_s": overhead_s,
                "faults.mutants_s": spans.busy("generate_mutants"),
                "store.save_s": spans.busy("RunStore.save_campaign"),
                "store.lookup_s": spans.busy("RunStore.lookup"),
                "store.lookup_hit_ratio": hits / len(specs),
                "store.load_campaign_s": spans.busy("RunStore.load_campaign"),
                "serve.not_modified_ratio": len(self.serve_not_modified)
                / max(len(self.serve_full) + len(self.serve_not_modified), 1),
                "serve.not_modified_p50_ms": percentile(self.serve_not_modified, 0.5) * 1000.0,
                "trace.runs": len(specs),
                "trace.spans": len(spans.records),
                "trace.wall_s": traced_wall,
                "trace.untraced_s": untraced_wall,
                "trace.overhead_ratio": traced_wall / untraced_wall,
                "trace.accounted_ratio": spans.busy("execute_run") / traced_wall,
            }
        )
        for endpoint in ("runs", "campaigns", "table1", "healthz"):
            metrics[f"serve.respond_s.{endpoint}"] = spans.busy("respond:" + endpoint)
        for layer, seconds in spans.self_times().items():
            if layer in LAYERS:
                metrics[f"{layer}.self_s"] = seconds
        spans.write(self.workdir.parent / f"spans-{self.workload}-seed{self.seed}.json")
        return metrics


def peak_rss_mb() -> float:
    """Peak resident set of this process or of the largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


def emit(bench: Bench, metrics: Dict[str, float], units: Dict[str, str], args) -> int:
    missing = sorted(set(units) - set(metrics))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    tally = bench.tally
    host = {"nproc": bench.nproc, "python": platform.python_version(), "pool_workers": bench.pool_workers,
            "serve_clients": bench.clients}
    if bench.references:
        host["reference_ms"] = round(statistics.median(bench.references) * 1000.0, 4)
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
                      "trace": args.trace, "host": host}, sort_keys=True))
    for name, unit in units.items():
        print(f"  {name:<34} {metrics[name]:>16.6f} {unit}")
    error_rate = tally.failed / max(tally.attempted, 1)
    print(f"  {'error_rate':<34} {error_rate:>16.6f} ratio ({tally.failed}/{tally.attempted} operations failed)")
    correct = tally.failed == 0 and tally.attempted > 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": max(tally.attempted, 1),
                "failed": tally.failed,
                "metrics": {name: {"value": float(metrics[name]), "unit": unit} for name, unit in units.items()},
            }
        )
    )
    return 0 if correct else 1


def setup_probe(args) -> int:
    Bench(args.workload, args.seed, Path(args.workdir)).prepare()
    print(json.dumps({"ready": True}), flush=True)
    return 0
