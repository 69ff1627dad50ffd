"""Study-throughput benchmark of the diversity-study library.

Runs a workload through ``repro.api.Session`` (serial backend, one
process, one thread), checks its outputs, prints every metric by name
with its unit, and ends with one JSON line::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics of ``BENCHMARK.json``;
``--trace 1`` is a separate run that times each layer from outside and
reports the per-layer metrics.  Without ``--workload`` (or with
``--workload all``) every workload runs in turn.  Exits 1 when an output
check fails, 2 when the benchmark cannot run at all.

Run from the repository root::

    python3 perfbench/run.py --workload suite_cold --seed 1 --seconds 15
    python3 perfbench/run.py --seed 1 --trace 1
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
from typing import List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
#: Scratch space of one run (caches, shard spills); removed on exit.
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
#: Where traced runs leave their spans.
SPANS_DIR = os.path.join(ROOT, ".perfbench_spans")
#: Set-ups per end-to-end run; ``setup_s`` is their median.
SETUP_SAMPLES = 3
#: Starts the line that carries a run's wall-clock (not normalized)
#: figures; the last line stays the result JSON.
WALL_PREFIX = "  wall figures: "
#: Longest a single worker process may take.
WORKER_TIMEOUT_S = 150


class BenchmarkError(RuntimeError):
    """The benchmark cannot produce a result (as opposed to a failed
    output check, which still produces one)."""


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "api", "__init__.py")):
        raise BenchmarkError(f"no repro package under {ROOT}/src")
    if not os.path.isfile(path):
        raise BenchmarkError(f"missing {path}")
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def run_worker(mode: str, workload: str, seed: int, seconds: float,
               workdir: str, spans_out: Optional[str] = None) -> dict:
    command = [
        sys.executable, WORKER, "--mode", mode, "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds),
        "--workdir", workdir,
    ]
    if spans_out:
        command += ["--spans-out", spans_out]
    try:
        done = subprocess.run(
            command, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=WORKER_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchmarkError(f"{mode} worker for {workload} timed out") from exc
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise BenchmarkError(
            f"{mode} worker for {workload} exited {done.returncode}"
        )
    return json.loads(lines[-1])


def quartiles(values: List[float]) -> tuple:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, q3


def end_to_end(workload: str, seed: int, seconds: float,
               workdir: str) -> tuple:
    """One measure run plus extra set-up samples → end-to-end metrics."""
    report = run_worker("measure", workload, seed, seconds, workdir)
    setups = [report] + [
        run_worker("setup", workload, seed, seconds, workdir)
        for _ in range(SETUP_SAMPLES - 1)
    ]
    rates = [
        rate / speed for rate, speed in zip(report["wall_rates"], report["speeds"])
    ]
    q1, q3 = quartiles(rates)
    # The same figures without the box-speed normalization, so that
    # steadiness.py can compare the spreads of both.
    wall = {
        "replications_per_s": statistics.median(report["wall_rates"]),
        "setup_s": statistics.median(s["setup_s"] for s in setups),
    }
    metrics = {
        "replications_per_s": statistics.median(rates),
        "setup_s": statistics.median(
            s["setup_s"] * s["setup_speed"] for s in setups
        ),
        "peak_rss_mb": report["peak_rss_mb"],
    }
    notes = {
        "replications_per_s": f"median of {len(rates)} passes "
        f"(q1 {q1:.6g}, q3 {q3:.6g}); wall "
        f"{statistics.median(report['wall_rates']):.6g}/s at box speed "
        f"{statistics.median(report['speeds']):.3f}",
        "setup_s": f"median of {len(setups)} set-ups; wall "
        + ", ".join(f"{s['setup_s']:.3f}" for s in setups)
        + " s at box speed "
        + ", ".join(f"{s['setup_speed']:.3f}" for s in setups),
        "peak_rss_mb": "measuring process ru_maxrss",
    }
    return metrics, notes, report, wall


def per_layer(workload: str, seed: int, seconds: float,
              workdir: str) -> tuple:
    """One traced run → per-layer metrics."""
    os.makedirs(SPANS_DIR, exist_ok=True)
    spans_out = os.path.join(SPANS_DIR, f"{workload}-seed{seed}.json")
    report = run_worker("trace", workload, seed, seconds, workdir, spans_out)
    metrics = report["metrics"]
    notes = {
        name: f"{100 * share:5.1f}% of pass"
        for name, share in report["shares"].items()
    }
    notes["trace.pass_s"] = (
        f"median of {report['traced_passes']} traced passes; "
        f"spans in {os.path.relpath(spans_out, ROOT)}"
    )
    notes["campaign.run_s.p99"] = f"over {report['run_calls']} calls"
    return metrics, notes, report, None


def run_one(spec: dict, workload: str, seed: int, seconds: float,
            traced: bool) -> dict:
    declared = spec["per_layer"] if traced else spec["end_to_end"]
    workdir = os.path.join(WORK_ROOT, f"{os.getpid()}-{workload}")
    os.makedirs(workdir, exist_ok=True)
    try:
        measure = per_layer if traced else end_to_end
        metrics, notes, report, wall = measure(workload, seed, seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    names = [m["name"] for m in declared]
    if sorted(metrics) != sorted(names):
        raise BenchmarkError(
            f"metrics {sorted(metrics)} do not match BENCHMARK.json {names}"
        )
    attempted, failed = report["attempted"], report["failed"]
    print(f"== {workload}  seed {seed}  "
          f"{'traced' if traced else 'untraced'}  serial backend")
    for m in declared:
        value = metrics[m["name"]]
        print(f"  {m['name']:<30} {value:>14.6g} {m['unit']:<6} "
              f"{notes.get(m['name'], '')}")
    print(f"  {'failed_fraction':<30} {failed / attempted:>14.6g} {'1':<6} "
          f"{failed} of {attempted} operations")
    for failure in report["failures"]:
        print(f"  FAILED CHECK: {failure}")
    if wall is not None:
        print(f"{WALL_PREFIX}{json.dumps(wall)}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
            for m in declared
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=__doc__.split("\n\n", 1)[1],
    )
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="timed seconds per run "
                        "(default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        spec = load_spec()
        names = [w["name"] for w in spec["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if not set(chosen) <= set(names):
            raise BenchmarkError(
                f"unknown workload {args.workload!r}; expected one of {names}"
            )
        seconds = args.seconds or spec["run_seconds"]
        results = {
            w: run_one(spec, w, args.seed, seconds, bool(args.trace))
            for w in chosen
        }
    except BenchmarkError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    finally:
        if os.path.isdir(WORK_ROOT) and not os.listdir(WORK_ROOT):
            os.rmdir(WORK_ROOT)
    if len(results) == 1:
        final = next(iter(results.values()))
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{w}.{name}": value
                for w, r in results.items()
                for name, value in r["metrics"].items()
            },
        }
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
