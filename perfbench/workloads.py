"""The benchmark's four workloads, driven through ``repro.api.Session`` only.

Every workload runs on the serial backend in one process.  A workload is
built once (its set-up), then runs timed *passes*; each pass checks its
own outputs against the stored references in ``reference.json`` outside
the timed region.  Operations are scenarios for the suites and
replications for the campaigns; a pass whose check fails counts all of
its operations as failed.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Dict, List, Optional

import numpy as np

from repro.api import Session

RESPONSE_COLUMNS = ("success", "tta", "ttsf", "final_ratio")

#: z-score of the Monte-Carlo bound on batched-vs-scalar means.
MC_Z = 5.0
#: Agreement required between streamed running means and table means.
STREAM_MEAN_TOL = 1e-9
#: ``Session.run`` repetitions inside one ``suite_warm`` pass.
WARM_REPEATS = 40

IMPAIR = dict(
    scenario="cooling_stuxnet", replications=2048, batch_size=512
)
STREAM = dict(
    scenario="cooling_duqu",
    replications=200_000,
    batch_size=4096,
    max_records_in_ram=16384,
)


def table_digest(table) -> str:
    """First 16 hex digits of a SHA-256 over a table's columns in order
    (name, dtype and values), so any changed record changes it."""
    digest = hashlib.sha256()
    for name in table.columns:
        column = np.asarray(table.column(name))
        digest.update(name.encode("utf-8"))
        digest.update(column.dtype.str.encode("ascii"))
        if column.dtype == object:
            digest.update(json.dumps([str(v) for v in column]).encode())
        else:
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()[:16]


def suite_digests(result) -> Dict[str, str]:
    """``{scenario: table digest}`` of a suite result."""
    return {r.scenario.name: table_digest(r.table) for r in result.results}


def directory_bytes(path: str) -> int:
    total = 0
    for entry in os.scandir(path):
        if entry.is_file(follow_symlinks=False):
            total += entry.stat(follow_symlinks=False).st_size
    return total


@dataclass
class PassResult:
    """One timed pass: its wall time, the work it delivered and the
    failures its output check found."""

    seconds: float
    replications: int
    operations: int
    failures: List[str] = field(default_factory=list)
    #: Per-pass observations the traced run reports (e.g. shard count).
    observed: Dict[str, float] = field(default_factory=dict)


def timed_call(watch, call):
    """Run ``call`` inside ``watch``.  Returns ``(result, failures)``;
    an exception from the library is a failed pass, not a crash of the
    benchmark, so it shows in ``failed_fraction``."""
    try:
        with watch:
            return call(), []
    except Exception as exc:
        return None, [f"raised {type(exc).__name__}: {exc}"]


def failed_pass(watch, operations: int, failures: List[str]) -> PassResult:
    return PassResult(
        seconds=watch.seconds,
        replications=0,
        operations=operations,
        failures=failures,
    )


class _Suite:
    """Shared set-up and checks of the two suite workloads."""

    def __init__(self, seed: int, workdir: str, reference: dict) -> None:
        self.seed = seed
        self.workdir = workdir
        self.names = [s.name for s in Session().scenarios()]
        self.expected: Optional[Dict[str, str]] = reference[
            "suite_digests"
        ].get(str(seed))

    def run_suite(self, cache_dir: str):
        """One ``Session.run`` of the whole suite; a failing scenario
        lands in ``result.errors`` instead of raising."""
        return Session(cache_dir=cache_dir).run(
            self.names, seed=self.seed, on_error="skip"
        )

    def check(self, result) -> List[str]:
        failures = [str(e) for e in result.errors]
        digests = suite_digests(result)
        if self.expected is None:
            # No stored digest for this seed: every pass must agree
            # with the first one (records are bit-exact per seed).
            self.expected = digests
        if digests != self.expected:
            wrong = sorted(
                n for n in self.expected if digests.get(n) != self.expected[n]
            )
            failures.append(f"record digests differ for {wrong}")
        return failures


class SuiteCold(_Suite):
    """All built-ins on a fresh, empty cache: every access is a write."""

    name = "suite_cold"

    def run_pass(self, watch) -> PassResult:
        cache_dir = tempfile.mkdtemp(prefix="cold-", dir=self.workdir)
        try:
            result, failures = timed_call(
                watch, lambda: self.run_suite(cache_dir)
            )
            if result is None:
                return failed_pass(watch, len(self.names), failures)
            return PassResult(
                seconds=watch.seconds,
                replications=sum(len(r.table) for r in result.results),
                operations=len(self.names),
                failures=self.check(result),
                observed={"cache.bytes_written": directory_bytes(cache_dir)},
            )
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


class SuiteWarm(_Suite):
    """The same suite re-run on fresh sessions against a filled cache."""

    name = "suite_warm"

    def __init__(self, seed: int, workdir: str, reference: dict) -> None:
        super().__init__(seed, workdir, reference)
        self.cache_dir = tempfile.mkdtemp(prefix="warm-", dir=workdir)
        # Checked like a pass; with no stored digest it fixes the
        # digests every warm pass must reproduce.  A failed fill fails
        # every pass.
        fill, self.fill_failures = timed_call(
            nullcontext(), lambda: self.run_suite(self.cache_dir)
        )
        if fill is not None:
            self.fill_failures = self.check(fill)

    def run_pass(self, watch) -> PassResult:
        size_before = directory_bytes(self.cache_dir)
        operations = len(self.names) * WARM_REPEATS
        results, failures = timed_call(
            watch,
            lambda: [
                self.run_suite(self.cache_dir) for _ in range(WARM_REPEATS)
            ],
        )
        if results is None:
            return failed_pass(watch, operations, failures)
        failures = self.fill_failures + [
            f for result in results for f in self.check(result)
        ]
        return PassResult(
            seconds=watch.seconds,
            replications=sum(
                len(r.table) for result in results for r in result.results
            ),
            operations=operations,
            failures=failures,
            observed={
                "cache.bytes_written": directory_bytes(self.cache_dir)
                - size_before
            },
        )


def column_moments(table) -> Dict[str, tuple]:
    """``{column: (n, mean, variance)}`` streamed chunk by chunk, so a
    sharded table is never materialized by the check."""
    chunks = (
        table.iter_chunks() if hasattr(table, "iter_chunks") else [table]
    )
    sums = {c: [0, 0.0, 0.0] for c in RESPONSE_COLUMNS}
    for chunk in chunks:
        for c in RESPONSE_COLUMNS:
            values = np.asarray(chunk.column(c), dtype=np.float64)
            sums[c][0] += values.size
            sums[c][1] += float(values.sum())
            sums[c][2] += float(np.square(values).sum())
    moments = {}
    for c, (n, total, squares) in sums.items():
        mean = total / n if n else math.nan
        variance = max(squares / n - mean * mean, 0.0) if n else math.nan
        moments[c] = (n, mean, variance)
    return moments


def reference_variance(column: str, reference: dict) -> float:
    """Per-replication variance of a response in the scalar reference.
    The success proportion uses the Laplace estimate, so an all-0 or
    all-1 reference still has spread."""
    if column == "success":
        n = reference["replications"]
        p = (reference["mean"][column] * n + 1.0) / (n + 2.0)
        return p * (1.0 - p)
    return reference["sd"][column] ** 2


class _Campaign:
    """Shared set-up and checks of the two campaign workloads."""

    params: dict

    def __init__(self, seed: int, workdir: str, reference: dict) -> None:
        self.seed = seed
        self.session = Session()
        self.reference = reference["campaigns"][self.params["scenario"]]

    def _run(self):
        p = self.params
        extra = (
            {"stream": True, "max_records_in_ram": p["max_records_in_ram"]}
            if "max_records_in_ram" in p
            else {}
        )
        return self.session.campaign(
            p["scenario"],
            p["replications"],
            seed=self.seed,
            batch_size=p["batch_size"],
            **extra,
        )

    def check(self, result) -> List[str]:
        """Row count, and every response mean within ``MC_Z`` standard
        errors of the scalar-path reference.  The standard errors come
        from the reference's spread only, so noisy or outlying output
        cannot widen its own bound."""
        n_expected = self.params["replications"]
        moments = column_moments(result.table)
        failures = []
        if moments["success"][0] != n_expected:
            failures.append(
                f"{moments['success'][0]} rows, expected {n_expected}"
            )
            return failures
        ref_n = self.reference["replications"]
        for c in RESPONSE_COLUMNS:
            n, mean, _ = moments[c]
            ref_mean = self.reference["mean"][c]
            ref_var = reference_variance(c, self.reference)
            bound = MC_Z * math.sqrt(ref_var / n + ref_var / ref_n)
            if not abs(mean - ref_mean) <= bound + 1e-12:
                failures.append(
                    f"{c} mean {mean:.6g} is outside {ref_mean:.6g} "
                    f"+/- {bound:.3g} (scalar reference)"
                )
        return failures


class CampaignImpair(_Campaign):
    """The paper's main scenario: one batched impair-goal campaign."""

    name = "campaign_impair"
    params = IMPAIR

    def run_pass(self, watch) -> PassResult:
        result, failures = timed_call(watch, self._run)
        if result is None:
            return failed_pass(watch, self.params["replications"], failures)
        return PassResult(
            seconds=watch.seconds,
            replications=len(result.table),
            operations=self.params["replications"],
            failures=self.check(result),
        )


class CampaignStream(_Campaign):
    """A vectorized exfiltrate campaign streamed to disk shards."""

    name = "campaign_stream"
    params = STREAM

    def run_pass(self, watch) -> PassResult:
        result, failures = timed_call(watch, self._run)
        if result is None:
            return failed_pass(watch, self.params["replications"], failures)
        table = result.table
        failures = self.check(result)
        bound = self.params["max_records_in_ram"]
        if table.in_ram_rows > bound:
            failures.append(f"{table.in_ram_rows} rows in RAM > {bound}")
        running = result.aggregate.means()
        for c in RESPONSE_COLUMNS:
            if not abs(running[c] - table.mean(c)) <= STREAM_MEAN_TOL:
                failures.append(
                    f"streamed {c} mean {running[c]!r} != table mean "
                    f"{table.mean(c)!r}"
                )
        return PassResult(
            seconds=watch.seconds,
            replications=len(table),
            operations=self.params["replications"],
            failures=failures,
            observed={
                "streaming.in_ram_rows": table.in_ram_rows,
                "streaming.shards": len(table.shards),
            },
        )


WORKLOADS = {
    w.name: w for w in (SuiteCold, SuiteWarm, CampaignImpair, CampaignStream)
}
