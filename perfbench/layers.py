"""Outside-in layer timing: wrappers around the layers' public functions.

:class:`Tracer` patches each layer's public entry points (class methods
on their class, module functions in every loaded ``repro`` module that
holds them) with a wrapper that records a span — name, start, end,
parent id — in memory while a timed pass is open.  Nothing under
``src/`` changes; :meth:`Tracer.uninstall` restores the originals.

A layer's self time is its spans' durations minus the part their child
spans cover.  :func:`pass_metrics` reduces one pass's spans to the
per-layer metrics named in ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import sys
import weakref
from time import perf_counter
from typing import Callable, Dict, List

from repro.api import Session
from repro.attacks.batched import CampaignBatchEngine
from repro.attacks.campaign import AttackCampaign
from repro.core.assessment import assess
from repro.core.indicators import compute_indicators
from repro.core.measurement import MeasurementPlan, outcome_table
from repro.core.study import DiversityStudy
from repro.exec.runner import ExperimentRunner
from repro.results import (
    ResultCache,
    StreamingSummary,
    StreamingTableBuilder,
    content_key,
    provenance_for,
    summarize_records,
)
from repro.scenarios.suite import ScenarioSuite

#: Span fields, in the order they are stored and written out.
SPAN_FIELDS = ("id", "name", "start", "end", "parent", "info")

#: ``(owner, attribute, span name)`` for every wrapped entry point.
#: ``AttackCampaign.run`` and the batch engine get dedicated wrappers.
PLAIN_WRAPS = [
    (Session, "run", "api"),
    (Session, "campaign", "api"),
    (ScenarioSuite, "run", "scenarios.suite"),
    (ExperimentRunner, "map", "exec"),
    (ExperimentRunner, "run_replications", "exec"),
    (ExperimentRunner, "run_batched_replications", "exec"),
    (StreamingTableBuilder, "append_rows", "streaming.append"),
    (StreamingTableBuilder, "build", "streaming.append"),
    (StreamingSummary, "observe_columns", "streaming.summary"),
    (ResultCache, "store", "cache.store"),
    (DiversityStudy, "build_factors", "doe.design"),
    (MeasurementPlan, "campaign_for_run", "measurement.campaign_build"),
    (compute_indicators, None, "indicators"),
    (assess, None, "assessment.assess"),
    (outcome_table, None, "results.table"),
    (summarize_records, None, "results.summarize"),
    (provenance_for, None, "results.provenance"),
    (content_key, None, "cache.key"),
]


class Tracer:
    """In-memory span recorder plus the patches that feed it."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.recording = False
        self._stack: List[int] = []
        self._patches: List[tuple] = []
        self._seen_campaigns: "weakref.WeakSet" = weakref.WeakSet()

    # ---- recording -------------------------------------------------------

    def _call(self, name: str, fn: Callable, args, kwargs, info=None):
        if not self.recording:
            return fn(*args, **kwargs)
        span = [len(self.spans), name, 0.0, 0.0,
                self._stack[-1] if self._stack else None, None]
        self.spans.append(span)
        self._stack.append(span[0])
        span[2] = perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            span[3] = perf_counter()
            self._stack.pop()
        if info is not None:
            span[5] = info(args, result)
        return result

    def begin_pass(self) -> None:
        self.spans = []
        self._stack = []
        self.recording = True

    def end_pass(self) -> List[list]:
        self.recording = False
        return self.spans

    # ---- patching --------------------------------------------------------

    def _set(self, owner, attribute: str, value) -> None:
        self._patches.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, value)

    def _wrap_method(self, cls, attribute: str, name: str, info=None):
        original = cls.__dict__[attribute]
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            return tracer._call(name, original, args, kwargs, info)

        self._set(cls, attribute, wrapper)

    def _wrap_function(self, function, name: str) -> None:
        tracer = self

        @functools.wraps(function)
        def wrapper(*args, **kwargs):
            return tracer._call(name, function, args, kwargs)

        for module_name, module in list(sys.modules.items()):
            if not module_name.startswith("repro") or module is None:
                continue
            for attribute, value in list(vars(module).items()):
                if value is function:
                    self._set(module, attribute, wrapper)

    def _wrap_campaign_run(self) -> None:
        original = AttackCampaign.__dict__["run"]
        tracer = self

        @functools.wraps(original)
        def run(campaign, *args, **kwargs):
            if campaign in tracer._seen_campaigns:
                name = "campaign.run"
            else:
                tracer._seen_campaigns.add(campaign)
                name = "campaign.first_run"
            return tracer._call(name, original, (campaign, *args), kwargs)

        self._set(AttackCampaign, "run", run)

    def install(self) -> "Tracer":
        for owner, attribute, name in PLAIN_WRAPS:
            if attribute is None:
                self._wrap_function(owner, name)
            else:
                self._wrap_method(owner, attribute, name)
        self._wrap_method(
            DiversityStudy, "build_design", "doe.design",
            info=lambda args, design: design.n_runs,
        )
        self._wrap_method(
            ResultCache, "load", "cache.load",
            info=lambda args, hit: hit is not None,
        )
        self._wrap_method(CampaignBatchEngine, "__init__", "batched.lower")
        for attribute in ("run_rows", "run_outcomes"):
            self._wrap_method(
                CampaignBatchEngine, attribute, "batched.step",
                info=lambda args, rows: (args[1], args[0].vectorized),
            )
        self._wrap_campaign_run()
        return self

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)


#: ``{metric: span name}`` for the per-pass self-time metrics.
SELF_TIME_METRICS = {
    "campaign.first_run_s": "campaign.first_run",
    "campaign.run_s": "campaign.run",
    "batched.lower_s": "batched.lower",
    "batched.step_s": "batched.step",
    "exec.self_s": "exec",
    "streaming.append_s": "streaming.append",
    "streaming.summary_s": "streaming.summary",
    "cache.load_s": "cache.load",
    "cache.store_s": "cache.store",
    "cache.key_s": "cache.key",
    "doe.design_s": "doe.design",
    "measurement.campaign_build_s": "measurement.campaign_build",
    "indicators.s": "indicators",
    "assessment.assess_s": "assessment.assess",
    "results.table_s": "results.table",
    "results.summarize_s": "results.summarize",
    "results.provenance_s": "results.provenance",
    "api.self_s": "api",
    "scenarios.suite_self_s": "scenarios.suite",
}

#: ``{metric: span name}`` for the per-pass call counts.
COUNT_METRICS = {
    "campaign.first_runs": "campaign.first_run",
    "campaign.runs": "campaign.run",
    "cache.loads": "cache.load",
    "cache.stores": "cache.store",
    "measurement.campaign_builds": "measurement.campaign_build",
}

#: Pass observations the workloads report (0 where they do not apply).
OBSERVED_METRICS = (
    "cache.bytes_written",
    "streaming.in_ram_rows",
    "streaming.shards",
)


def self_times(spans: List[list]) -> List[float]:
    """Each span's duration minus the part its child spans cover."""
    covered = [0.0] * len(spans)
    for _, _, start, end, parent, _ in spans:
        if parent is not None:
            covered[parent] += end - start
    return [end - start - covered[i] for i, _, start, end, _, _ in spans]


def pass_metrics(
    spans: List[list], wall: float, observed: Dict[str, float]
) -> Dict[str, float]:
    """Reduce one traced pass to its per-layer metrics."""
    self_s: Dict[str, float] = {}
    calls: Dict[str, int] = {}
    for span, own in zip(spans, self_times(spans)):
        self_s[span[1]] = self_s.get(span[1], 0.0) + own
        calls[span[1]] = calls.get(span[1], 0) + 1
    metrics = {m: self_s.get(n, 0.0) for m, n in SELF_TIME_METRICS.items()}
    metrics.update({m: calls.get(n, 0) for m, n in COUNT_METRICS.items()})
    metrics.update({m: observed.get(m, 0) for m in OBSERVED_METRICS})

    def infos(name: str) -> list:
        # A call that raised has no info.
        return [s[5] for s in spans if s[1] == name and s[5] is not None]

    hits = infos("cache.load")
    metrics["cache.hit_ratio"] = sum(hits) / len(hits) if hits else 0.0
    metrics["doe.design_runs"] = sum(infos("doe.design"))
    steps = infos("batched.step")
    lanes = sum(size for size, _ in steps)
    metrics["batched.lanes"] = lanes
    metrics["batched.fallback_lane_ratio"] = (
        sum(size for size, vectorized in steps if not vectorized) / lanes
        if lanes
        else 0.0
    )
    roots = sum(s[3] - s[2] for s in spans if s[4] is None)
    metrics["unattributed_fraction"] = (wall - roots) / wall
    metrics["trace.pass_s"] = wall
    return metrics


def run_call_seconds(spans: List[list]) -> List[float]:
    """Per-call durations of the later (non-first) campaign runs."""
    return [s[3] - s[2] for s in spans if s[1] == "campaign.run"]
