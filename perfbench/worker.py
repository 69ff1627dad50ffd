"""One benchmark process: set a workload up, then time its passes.

Started by ``run.py``; prints one JSON object as its last stdout line.

* ``--mode setup``: import, ``Session`` construction and workload
  set-up only; reports ``setup_s``.
* ``--mode measure``: set-up, then untraced passes for ``--seconds``;
  reports set-up time, peak RSS, per-pass rates and output-check
  failures.
* ``--mode trace``: set-up, then alternating untraced and traced passes;
  reports the per-layer metrics (medians over traced passes), the
  tracing overhead, and writes every span to ``--spans-out``.
"""

import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402

# One BLAS/OpenMP thread: the benchmark measures one process, one thread.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

#: Fewest timed passes a measure run makes, whatever ``--seconds`` says.
MIN_PASSES = 3
#: Time the calibration loop takes on the nominal box (see box_speed).
NOMINAL_CALIBRATION_S = 0.040


def _calibration_loop(rng) -> float:
    """Interpreter arithmetic plus NumPy scalar calls, the two kinds of
    work the workloads' hot loops are made of."""
    total = 0.0
    for i in range(300_000):
        total += i * i
    for _ in range(10_000):
        total += rng.exponential(1.0)
    return total


def box_speed() -> float:
    """How fast this box runs the calibration loop right now, relative
    to the nominal box (1.0 = the loop takes ``NOMINAL_CALIBRATION_S``).

    Shared machines drift between speed regimes (about 1.3x apart on a
    2-core VM) within tens of seconds.  The workloads slow down with
    this loop, so rates divided by the speed measured around each pass
    compare across runs; the raw wall figures are printed beside them.
    """
    import numpy as np

    rng = np.random.default_rng(0)
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _calibration_loop(rng)
        best = min(best, time.perf_counter() - start)
    return NOMINAL_CALIBRATION_S / best


class Stopwatch:
    """Times the ``with`` block of one pass and measures the box speed
    just before and after it; with a tracer, records the pass's spans
    while the block runs."""

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.seconds = 0.0
        self.speed = 1.0
        self.spans = []

    def __enter__(self) -> "Stopwatch":
        self._speed_before = box_speed()
        if self.tracer is not None:
            self.tracer.begin_pass()
        self._start = time.perf_counter()
        return self

    def __exit__(self, *exc_info) -> None:
        self.seconds = time.perf_counter() - self._start
        if self.tracer is not None:
            self.spans = self.tracer.end_pass()
        self.speed = (self._speed_before + box_speed()) / 2


def _timed_pass(workload, tracer=None):
    """Run one pass; return it with its box speed and spans."""
    watch = Stopwatch(tracer)
    result = workload.run_pass(watch)
    return result, watch


def _summary(passes) -> dict:
    """Operation counts; a pass that failed its check fails them all."""
    return {
        "attempted": sum(p.operations for p in passes),
        "failed": sum(p.operations for p in passes if p.failures),
        "failures": sorted({f for p in passes for f in p.failures}),
    }


def measure(workload, seconds: float) -> dict:
    passes, speeds = [], []
    start = time.perf_counter()
    while True:
        result, watch = _timed_pass(workload)
        passes.append(result)
        speeds.append(watch.speed)
        typical = statistics.median(p.seconds for p in passes)
        elapsed = time.perf_counter() - start
        if len(passes) >= MIN_PASSES and elapsed + typical > seconds:
            break
    return {
        "wall_rates": [p.replications / p.seconds for p in passes],
        "speeds": speeds,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
        **_summary(passes),
    }


def trace(workload, seconds: float, spans_out: str) -> dict:
    import layers

    tracer = layers.Tracer()
    plain, traced, per_pass, run_calls, spans = [], [], [], [], []
    start = time.perf_counter()
    while True:
        plain.append(_timed_pass(workload))
        tracer.install()
        try:
            result, watch = _timed_pass(workload, tracer)
        finally:
            tracer.uninstall()
        traced.append((result, watch))
        per_pass.append(
            layers.pass_metrics(watch.spans, result.seconds, result.observed)
        )
        per_pass[-1]["trace.box_speed"] = watch.speed
        run_calls.extend(layers.run_call_seconds(watch.spans))
        spans.append(watch.spans)
        elapsed = time.perf_counter() - start
        if len(traced) >= 2 and elapsed * (1 + 1 / len(traced)) > seconds:
            break

    metrics = {
        name: statistics.median(p[name] for p in per_pass)
        for name in per_pass[0]
    }
    if len(run_calls) >= 2:
        quantiles = statistics.quantiles(run_calls, n=100)
        metrics["campaign.run_s.p50"] = statistics.median(run_calls)
        metrics["campaign.run_s.p99"] = quantiles[98]
    else:
        metrics["campaign.run_s.p50"] = metrics["campaign.run_s.p99"] = 0.0
    rate = lambda pairs: statistics.median(  # noqa: E731
        r.replications / r.seconds / w.speed for r, w in pairs
    )
    plain_rate = rate(plain)  # 0 only when most passes failed
    metrics["trace_overhead_fraction"] = (
        1.0 - rate(traced) / plain_rate if plain_rate else 0.0
    )
    with open(spans_out, "w", encoding="utf-8") as handle:
        json.dump({"fields": layers.SPAN_FIELDS, "passes": spans}, handle)
    wall = metrics["trace.pass_s"]
    return {
        "metrics": metrics,
        "shares": {m: metrics[m] / wall for m in layers.SELF_TIME_METRICS},
        "run_calls": len(run_calls),
        "traced_passes": len(traced),
        **_summary([r for r, _ in plain + traced]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--mode", choices=("setup", "measure", "trace"))
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--spans-out")
    args = parser.parse_args(argv)

    # Shard spills and cache directories stay inside the work directory.
    tempfile.tempdir = args.workdir
    import workloads

    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as f:
        reference = json.load(f)
    workload = workloads.WORKLOADS[args.workload](
        args.seed, args.workdir, reference
    )
    report = {"setup_s": time.perf_counter() - _START}
    report["setup_speed"] = box_speed()
    if args.mode == "measure":
        report.update(measure(workload, args.seconds))
    elif args.mode == "trace":
        report.update(trace(workload, args.seconds, args.spans_out))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
