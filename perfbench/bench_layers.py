"""Per-layer attribution: spans around the public calls ``execute_run`` makes.

The traced run re-drives every run of a workload through the same public
calls :func:`repro.campaign.worker.execute_run` makes, in the same order, with
a span around each call.  Spans live in memory (name, layer, start, end,
parent span, run id) and are written out once at the end.  A layer's self
time is the summed duration of its spans minus the time their child spans
cover; every span nests strictly inside its parent because the re-drive is
single-threaded.

The re-drive must not drift from the program: :func:`redrive` returns the
records it built so the caller can compare them with the untraced
``execute_run`` records byte for byte.

The kernel and scheduler counts come from the public
``telemetry_snapshot()`` pull surface, read once per run after it finished.
Device time has no counter inside the program yet, so it stays inside
``integration.run_s``.
"""

from __future__ import annotations

import json
import time
from collections import Counter
from contextlib import contextmanager
from typing import Dict, Iterator, List, Optional, Sequence

from repro.campaign.cache import ArtifactCache
from repro.campaign.results import RunRecord
from repro.campaign.spec import BACKEND_PYTHON, M_TEST_NONE, M_TEST_VIOLATIONS, RunSpec, derive_seed
from repro.codegen.c_backend import resolve_backend
from repro.core.instrumentation import ProbeConfiguration
from repro.core.m_testing import MTestAnalyzer
from repro.core.r_testing import evaluate_r_trace
from repro.core.serialization import m_report_to_dict, r_report_to_dict
from repro.systems import get_pack

#: Layers in the order the notes and the printed table list them.
LAYERS = ("campaign", "codegen", "faults", "systems", "integration", "core", "store", "serve")

#: ``telemetry_snapshot()`` key -> per-layer metric name.
ENGINE_COUNTERS = {
    "kernel_events_processed": "platform.kernel.events",
    "kernel_cancellations": "platform.kernel.cancellations",
    "kernel_compactions": "platform.kernel.compactions",
    "scheduler_dispatch_rounds": "platform.rtos.dispatch_rounds",
    "scheduler_activations": "platform.rtos.activations",
    "scheduler_preemptions": "platform.rtos.preemptions",
    "scheduler_completions": "platform.rtos.completions",
    "scheduler_deadline_misses": "platform.rtos.deadline_misses",
}


class Spans:
    """An in-memory span recorder for one single-threaded traced run."""

    def __init__(self) -> None:
        #: [name, layer, start, end, parent index, run id] per span.
        self.records: List[list] = []
        self._stack: List[int] = []
        #: Run id stamped on spans opened from now on (``None`` outside runs).
        self.run_id: Optional[int] = None

    @contextmanager
    def span(self, name: str, layer: str) -> Iterator[None]:
        index = len(self.records)
        parent = self._stack[-1] if self._stack else None
        entry = [name, layer, 0.0, 0.0, parent, self.run_id]
        self.records.append(entry)
        self._stack.append(index)
        entry[2] = time.perf_counter()
        try:
            yield
        finally:
            entry[3] = time.perf_counter()
            self._stack.pop()

    def busy(self, name: str) -> float:
        """Summed duration of every span called ``name``."""
        return sum(end - start for span_name, _, start, end, _, _ in self.records if span_name == name)

    def self_times(self) -> Dict[str, float]:
        """Per-layer self time: span durations minus their children's."""
        child_time = [0.0] * len(self.records)
        for _, _, start, end, parent, _ in self.records:
            if parent is not None:
                child_time[parent] += end - start
        totals = {layer: 0.0 for layer in LAYERS}
        for index, (_, layer, start, end, _, _) in enumerate(self.records):
            totals[layer] = totals.get(layer, 0.0) + (end - start) - child_time[index]
        return totals

    def write(self, path) -> None:
        """Write every span as JSON (one object per span, in open order)."""
        keys = ("name", "layer", "start_s", "end_s", "parent", "run_id")
        payload = [dict(zip(keys, span)) for span in self.records]
        path.write_text(json.dumps({"spans": payload}) + "\n", encoding="utf-8")


class RedriveResult:
    """Records and deterministic counts of one traced re-drive."""

    def __init__(self) -> None:
        self.records: List[RunRecord] = []
        #: Per-layer counts that repeat exactly for one seed.
        self.counts: Counter = Counter()
        #: Simulated seconds the re-driven runs covered.
        self.simulated_s = 0.0


def redrive(specs: Sequence[RunSpec], spans: Spans) -> RedriveResult:
    """Re-execute ``specs`` serially with a span around each public call.

    Mirrors ``execute_run`` call for call, with a fresh artifact cache so the
    code generations the runs need are counted here.
    """
    cache = ArtifactCache()
    result = RedriveResult()
    for spec in specs:
        spans.run_id = spec.index
        with spans.span("execute_run", "campaign"):
            pack = get_pack(spec.system)
            with spans.span("ArtifactCache.artifacts", "codegen"):
                if spec.mutant is not None:
                    artifacts = cache.artifacts_for_mutant(spec.model, spec.mutant)
                else:
                    artifacts = cache.artifacts_for_model(spec.model)
                resolution = resolve_backend(spec.backend, artifacts)
            with spans.span("RunSpec.test_case", "systems"):
                test_case = spec.test_case()
            probes = ProbeConfiguration.r_level() if spec.m_test == M_TEST_NONE else None
            with spans.span("pack.build_system", "systems"):
                system = pack.build_system(
                    spec.scheme,
                    model=spec.model,
                    seed=spec.sut_seed,
                    period_us=spec.period_us,
                    interference_scale=spec.interference_scale,
                    artifacts=artifacts,
                    probes=probes,
                    code_factory=resolution.code_factory,
                )
            if spec.faults is not None and not spec.faults.empty:
                with spans.span("FaultPlan.instrument", "faults"):
                    spec.faults.instrument(
                        system, seed=derive_seed(spec.sut_seed, "faults", spec.faults.name, spec.case)
                    )
            for stimulus in test_case.stimuli:
                with spans.span("apply_stimulus", "integration"):
                    system.apply_stimulus(stimulus)
            with spans.span("run", "integration"):
                system.run(test_case.run_horizon_us)
            with spans.span("evaluate_r_trace", "core"):
                r_report = evaluate_r_trace(system.name, test_case, system.trace)
            m_payload = None
            if spec.m_test != M_TEST_NONE:
                with spans.span("MTestAnalyzer", "core"):
                    analyzer = MTestAnalyzer(pack.build_interface(), test_case.requirement)
                    if spec.m_test == M_TEST_VIOLATIONS:
                        m_report = analyzer.analyze_violations(r_report)
                    else:
                        m_report = analyzer.analyze(r_report.trace, sut_name=r_report.sut_name)
                with spans.span("m_report_to_dict", "core"):
                    m_payload = m_report_to_dict(m_report)
            with spans.span("r_report_to_dict", "core"):
                r_payload = r_report_to_dict(r_report)
        spans.run_id = None
        result.records.append(
            RunRecord(
                spec=spec,
                r_payload=r_payload,
                m_payload=m_payload,
                backend_payload=None if spec.backend == BACKEND_PYTHON else resolution.to_payload(),
            )
        )
        for name, value in system.telemetry_snapshot().items():
            metric = ENGINE_COUNTERS.get(name)
            if metric is not None:
                result.counts[metric] += int(value)
        result.counts["core.trace_events"] += len(system.trace)
        result.simulated_s += test_case.run_horizon_us / 1e6
    result.counts["codegen.artifacts"] += cache.generation_count
    return result


def layer_metrics(spans: Spans, redriven: RedriveResult) -> Dict[str, float]:
    """The per-layer call timings and counts of one traced run."""
    metrics: Dict[str, float] = {name: 0 for name in ENGINE_COUNTERS.values()}
    metrics.update(redriven.counts)
    run_s = spans.busy("run")
    metrics.update(
        {
            "codegen.busy_s": spans.busy("ArtifactCache.artifacts"),
            "faults.instrument_s": spans.busy("FaultPlan.instrument"),
            "systems.build_s": spans.busy("pack.build_system"),
            "systems.test_case_s": spans.busy("RunSpec.test_case"),
            "integration.run_s": run_s,
            "integration.stimulus_s": spans.busy("apply_stimulus"),
            "integration.sim_s_per_host_s": redriven.simulated_s / run_s if run_s else 0.0,
            "core.evaluate_s": spans.busy("evaluate_r_trace"),
            "core.mtest_s": spans.busy("MTestAnalyzer"),
            "core.serialize_s": spans.busy("r_report_to_dict") + spans.busy("m_report_to_dict"),
        }
    )
    events = metrics["platform.kernel.events"]
    metrics["platform.kernel.host_us_per_event"] = run_s * 1e6 / events if events else 0.0
    return metrics
