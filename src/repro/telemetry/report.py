"""Rendering saved telemetry: span tree, metrics, throughput, hot spots.

The module is deliberately dumb about semantics — it renders whatever
the snapshot carries — but it knows the well-known series emitted by
the instrumented seams (``cache.hit``, ``streaming.spills``,
``campaign.ticks_elided``, ``exec.units``) well enough to compute the
headline cache/throughput lines.
"""

from __future__ import annotations

import json
from typing import Any, List, Mapping, Optional

from repro.telemetry.core import TelemetrySnapshot

__all__ = ["load_telemetry", "render_snapshot"]


def load_telemetry(path: str) -> TelemetrySnapshot:
    """Load a snapshot saved as JSON (``save``) or JSONL (``export_jsonl``).

    Raises:
        ValueError: If the file is neither format.
    """
    with open(path) as handle:
        text = handle.read()
    try:
        data = json.loads(text)
    except json.JSONDecodeError:
        data = None
    if isinstance(data, Mapping) and "spans" in data:
        return TelemetrySnapshot.from_dict(data)
    if data is None:
        return _load_jsonl(text, path)
    raise ValueError(f"{path!r} is not a repro.telemetry snapshot")


def _load_jsonl(text: str, path: str) -> TelemetrySnapshot:
    """Rebuild a snapshot from its JSON-lines export."""
    spans: dict = {"count": 0, "total_s": 0.0, "min_s": 0.0, "max_s": 0.0,
                   "children": {}}
    metrics: dict = {
        "counters": {}, "gauges": {}, "gauge_maxima": {}, "histograms": {},
    }
    hotspots: dict = {"rows": {}}
    events: List[dict] = []
    meta: dict = {}
    saw_any = False
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ValueError(
                f"{path!r} is not a repro.telemetry snapshot "
                f"(bad JSONL line: {exc})"
            ) from exc
        saw_any = True
        kind = record.pop("kind", None)
        if kind == "meta":
            record.pop("format", None)
            meta.update(record)
        elif kind == "span":
            node = spans
            for segment in record.pop("path", "").split("/"):
                node = node["children"].setdefault(
                    segment,
                    {"count": 0, "total_s": 0.0, "min_s": 0.0,
                     "max_s": 0.0, "children": {}},
                )
            node.update(record)
        elif kind == "counter":
            metrics["counters"][record["name"]] = record["value"]
        elif kind == "gauge":
            metrics["gauges"][record["name"]] = record["value"]
            metrics["gauge_maxima"][record["name"]] = record.get(
                "max", record["value"]
            )
        elif kind == "histogram":
            name = record.pop("name")
            metrics["histograms"][name] = record
        elif kind == "hotspot":
            site = record.pop("site")
            hotspots["rows"][site] = record
        elif kind == "event":
            events.append(record.get("event", record))
    if not saw_any:
        raise ValueError(f"{path!r} is empty — not a telemetry snapshot")
    return TelemetrySnapshot(
        spans=spans, metrics=metrics, hotspots=hotspots, events=events,
        meta=meta,
    )


def _format_seconds(seconds: float) -> str:
    if seconds >= 1.0:
        return f"{seconds:8.3f}s "
    return f"{seconds * 1000.0:8.2f}ms"


def _render_span_tree(snapshot: TelemetrySnapshot, lines: List[str]) -> None:
    root_total = sum(
        child.get("total_s", 0.0)
        for child in snapshot.spans.get("children", {}).values()
    )

    def visit(node: Mapping[str, Any], name: str, depth: int,
              parent_total: float) -> None:
        total = float(node.get("total_s", 0.0))
        count = int(node.get("count", 0))
        share = (100.0 * total / parent_total) if parent_total > 0 else 100.0
        label = f"{'  ' * depth}{name}"
        lines.append(
            f"  {label:<44s}{count:>9d}x {_format_seconds(total)} "
            f"{share:5.1f}%"
        )
        for child_name, child in node.get("children", {}).items():
            visit(child, child_name, depth + 1, total)

    children = snapshot.spans.get("children", {})
    if not children:
        lines.append("  (no spans recorded)")
        return
    lines.append(
        f"  {'span':<44s}{'count':>10s} {'total':>10s} {'% parent':>7s}"
    )
    for name, child in children.items():
        visit(child, name, 0, root_total)


def _render_metrics(snapshot: TelemetrySnapshot, lines: List[str]) -> None:
    counters = snapshot.metrics.get("counters", {})
    gauges = snapshot.metrics.get("gauges", {})
    maxima = snapshot.metrics.get("gauge_maxima", {})
    histograms = snapshot.metrics.get("histograms", {})
    if not (counters or gauges or histograms):
        lines.append("  (no metrics recorded)")
        return
    for name in sorted(counters):
        value = counters[name]
        shown = int(value) if float(value).is_integer() else value
        lines.append(f"  {name:<40s} {shown:>14}")
    for name in sorted(gauges):
        lines.append(
            f"  {name:<40s} {gauges[name]:>14g}  (max {maxima.get(name, gauges[name]):g})"
        )
    for name in sorted(histograms):
        hist = histograms[name]
        count = int(hist.get("count", 0))
        mean = hist.get("total", 0.0) / count if count else 0.0
        lines.append(
            f"  {name:<40s} {count:>8d}x  mean {mean:.3f}  "
            f"min {hist.get('min', 0.0):.3f}  max {hist.get('max', 0.0):.3f}"
        )


def _render_headlines(snapshot: TelemetrySnapshot, lines: List[str]) -> None:
    hits = snapshot.counter("cache.hit")
    misses = snapshot.counter("cache.miss")
    if hits or misses:
        total = hits + misses
        rate = 100.0 * hits / total if total else 0.0
        lines.append(
            f"  cache: {int(hits)} hits / {int(misses)} misses "
            f"({rate:.0f}% hit rate)"
        )
    spills = snapshot.counter("streaming.spills")
    if spills:
        mib = snapshot.counter("streaming.bytes_spilled") / (1024.0 * 1024.0)
        lines.append(f"  streaming: {int(spills)} spills, {mib:.1f} MiB spilled")
    elided = snapshot.counter("campaign.ticks_elided")
    executed = snapshot.counter("campaign.ticks_executed")
    if elided or executed:
        lines.append(
            f"  campaign: {int(elided)} ticks elided / "
            f"{int(executed)} executed "
            f"({int(snapshot.counter('campaign.sabotage_resumes'))} sabotage "
            "resumes)"
        )
    built = snapshot.counter("trajectory.builds")
    shared = snapshot.counter("trajectory.hits")
    if built or shared:
        lines.append(
            f"  trajectories: {int(built)} built / {int(shared)} shared "
            f"({int(snapshot.counter('trajectory.ticks_scanned'))} ticks "
            "scanned)"
        )
    lanes = snapshot.counter("batch.lanes")
    if lanes:
        batches = snapshot.counter("batch.batches")
        mean_lanes = lanes / batches if batches else 0.0
        steps = snapshot.counter("batch.steps")
        lane_steps = snapshot.counter("batch.lane_steps")
        line = (
            f"  batch: {int(lanes)} lanes in {int(batches)} batches "
            f"(mean {mean_lanes:.1f} lanes/batch"
        )
        if steps and mean_lanes:
            # Mean live lanes per vectorized step, relative to the
            # batch width: 100% = every step advanced a full batch.
            utilization = 100.0 * (lane_steps / steps) / mean_lanes
            line += f", {min(utilization, 100.0):.0f}% lane utilization"
        lines.append(line + ")")
    retries = snapshot.counter("retry.attempts")
    timeouts = snapshot.counter("retry.chunk_timeouts")
    respawns = snapshot.counter("retry.pool_respawns")
    degraded = snapshot.counter("retry.degraded")
    if retries or timeouts or respawns or degraded:
        line = (
            f"  resilience: {int(retries)} retries, "
            f"{int(timeouts)} watchdog timeouts, "
            f"{int(respawns)} pool respawns"
        )
        if degraded:
            line += " — DEGRADED to inline execution"
        lines.append(line)
    injected = sum(
        snapshot.counter(f"fault.injected.{kind}")
        for kind in ("crash", "hang", "kill", "corrupt")
    )
    if injected:
        detail = ", ".join(
            f"{int(snapshot.counter(f'fault.injected.{kind}'))} {kind}"
            for kind in ("crash", "hang", "kill", "corrupt")
            if snapshot.counter(f"fault.injected.{kind}")
        )
        lines.append(f"  faults injected: {int(injected)} ({detail})")
    failures = snapshot.counter("suite.scenario_failures")
    if failures:
        lines.append(
            f"  scenario failures: {int(failures)} isolated "
            "(on_error=skip)"
        )
    units = snapshot.counter("exec.units")
    wall = snapshot.total_seconds("exec.map")
    if units and wall > 0:
        lines.append(
            f"  throughput: {int(units)} work units in {wall:.2f}s "
            f"({units / wall:.1f} units/s)"
        )
    busy = snapshot.total_seconds("exec.chunk")
    workers = snapshot.metrics.get("gauges", {}).get("exec.n_workers")
    if busy and wall > 0 and workers:
        utilization = 100.0 * busy / (wall * workers)
        lines.append(
            f"  workers: {busy:.2f}s busy across {int(workers)} workers "
            f"({min(utilization, 100.0):.0f}% utilization)"
        )


def render_snapshot(snapshot: TelemetrySnapshot, top: int = 10) -> str:
    """Render a snapshot as a human-readable multi-section report."""
    lines: List[str] = []
    title = "TELEMETRY REPORT"
    source = snapshot.meta.get("source")
    if source:
        title += f" — {source}"
    lines.append(title)
    lines.append("=" * max(40, len(title)))
    annotations = {
        key: value for key, value in sorted(snapshot.meta.items())
        if key != "source"
    }
    if annotations:
        lines.append(
            "  " + "  ".join(f"{k}={v}" for k, v in annotations.items())
        )
    lines.append("")
    lines.append("Phase timings")
    _render_span_tree(snapshot, lines)
    lines.append("")
    lines.append("Headlines")
    before = len(lines)
    _render_headlines(snapshot, lines)
    if len(lines) == before:
        lines.append("  (none)")
    lines.append("")
    lines.append("Metrics")
    _render_metrics(snapshot, lines)
    rows = snapshot.hotspots.get("rows", {})
    if rows:
        lines.append("")
        lines.append(f"Hot spots (top {top} by total time)")
        table = sorted(rows.items(), key=lambda item: -item[1]["tottime"])
        for site, row in table[:top]:
            lines.append(
                f"  {row['tottime']:8.3f}s  {int(row['ncalls']):>9d} calls  "
                f"{site}"
            )
    if snapshot.events:
        lines.append("")
        lines.append(f"Events ({len(snapshot.events)})")
        kinds: dict = {}
        for event in snapshot.events:
            kinds[event.get("kind", "event")] = kinds.get(
                event.get("kind", "event"), 0
            ) + 1
        for kind in sorted(kinds):
            lines.append(f"  {kind:<40s} {kinds[kind]:>8d}")
    return "\n".join(lines)
