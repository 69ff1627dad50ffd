"""Steadiness mode: two sets of benchmark runs of the same code.

Runs ``run.py`` once per seed and workload, in ``--sets`` sets, and
reports for each end-to-end metric and set its median, quartiles and
spread (q3 - q1) / median.  For ``replications_per_s`` and ``setup_s``
it also gives the spread of the wall-clock figures, before the
box-speed normalization, so the two can be compared.

Against ``BENCHMARK.json`` it checks the rule the bounds rest on: each
spread but ``setup_s``'s stays within the metric's bound, and no set's
median is worse than the first set's by more than the bound.  A spread
above a third of the bound, the margin aimed for, is printed as a
warning but passes.  Exits 1 when a check fails.

Run from the repository root::

    python3 perfbench/steadiness.py --sets 2
    python3 perfbench/steadiness.py --workloads suite_cold --seeds 1 2 3 --sets 1
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

from run import WALL_PREFIX  # noqa: E402


def run(workload: str, seed: int) -> tuple:
    """One benchmark run: its result JSON and its wall-clock figures."""
    done = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload",
         workload, "--seed", str(seed), "--trace", "0"],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
    )
    lines = done.stdout.strip().splitlines()
    wall = next(
        json.loads(line[len(WALL_PREFIX):])
        for line in lines if line.startswith(WALL_PREFIX)
    )
    return json.loads(lines[-1]), wall


def describe(values: list) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser.add_argument("--workloads", nargs="*",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, nargs="+",
                        default=list(range(1, 11)))
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("-o", "--output", help="write the figures as JSON")
    args = parser.parse_args(argv)

    figures, walls = {}, {}
    for index in range(args.sets):
        for workload in args.workloads:
            started = time.perf_counter()
            runs = [run(workload, seed) for seed in args.seeds]
            if not all(r["correct"] for r, _ in runs):
                print(f"{workload}: an output check failed", file=sys.stderr)
                return 1
            for metric in spec["end_to_end"]:
                values = [r["metrics"][metric["name"]]["value"]
                          for r, _ in runs]
                figures.setdefault(workload, {}).setdefault(
                    metric["name"], []
                ).append(describe(values))
            for name in runs[0][1]:
                walls.setdefault(workload, {}).setdefault(name, []).append(
                    describe([wall[name] for _, wall in runs])
                )
            print(f"set {index + 1} {workload}: {len(runs)} runs in "
                  f"{time.perf_counter() - started:.0f} s", file=sys.stderr)

    steady = True
    print(f"{'workload':<16} {'metric':<20} {'set':>3} {'median':>11} "
          f"{'q1':>11} {'q3':>11} {'spread':>7} {'wall':>7} {'bound':>6}"
          "  verdict")
    for workload, metrics in figures.items():
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            sign = -1 if metric["better"] == "higher" else 1
            first = metrics[name][0]["median"]
            for index, d in enumerate(metrics[name]):
                failed, warnings = [], []
                if name != "setup_s" and d["spread"] > bound:
                    failed.append("spread > bound")
                elif name != "setup_s" and d["spread"] > bound / 3:
                    warnings.append("warning: spread > bound/3")
                drift = sign * (d["median"] - first) / first
                if drift > bound:
                    failed.append(f"median {drift:+.1%} vs set 1")
                steady &= not failed
                wall = walls[workload].get(name)
                wall_spread = (f"{wall[index]['spread']:>7.3f}" if wall
                               else f"{'-':>7}")
                print(f"{workload:<16} {name:<20} {index + 1:>3} "
                      f"{d['median']:>11.5g} {d['q1']:>11.5g} "
                      f"{d['q3']:>11.5g} {d['spread']:>7.3f} {wall_spread} "
                      f"{bound:>6}  {'; '.join(failed + warnings) or 'ok'}")
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump({"normalized": figures, "wall": walls}, handle,
                      indent=1)
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
