"""JobHandle lifecycle: status, progress, cancellation, errors.

Cancellation and error propagation are exercised across all three
execution backends — the cooperative cancel path lives in
``repro.exec.backends`` and behaves the same whether units run
in-process, on a thread pool or on a process pool.
"""

import dataclasses
import time

import pytest

from repro.api import JobCancelled, JobState, Session
from repro.scenarios import SCENARIOS
from repro.telemetry import Telemetry

BACKENDS = ["serial", "thread", "process"]

#: A scenario whose network factory explodes when the work unit runs
#: (the spec itself validates fine — topology_params are opaque).
FAILING = dataclasses.replace(
    SCENARIOS.get("smoke"), name="failing", topology_params={"bogus_kw": 1}
)


def wait_until(predicate, timeout=30.0, interval=0.005):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return True
        time.sleep(interval)
    return False


class TestLifecycle:
    def test_submit_runs_to_done_with_full_progress(self):
        with Session() as session:
            job = session.submit("smoke", seed=7)
            result = job.result()
            assert job.status is JobState.DONE
            assert job.done()
            assert job.progress.completed == job.progress.total == 1
            assert job.progress.fraction == 1.0
            assert result.scenario.name == "smoke"

    def test_job_result_bit_identical_to_sync_run(self):
        with Session() as session:
            sync = session.run("smoke", seed=11)
            job = session.submit("smoke", seed=11)
            assert job.result().records == sync.records

    def test_suite_job_counts_scenarios(self):
        with Session() as session:
            job = session.submit(["smoke", "cooling_stuxnet"], seed=1)
            result = job.result()
            assert job.progress.total == 2
            assert job.progress.completed == 2
            assert result.names() == ["smoke", "cooling_stuxnet"]

    def test_campaign_job_counts_replications(self):
        with Session() as session:
            job = session.submit_campaign("smoke", 5, seed=1)
            result = job.result()
            assert job.progress.total == 5
            assert job.progress.completed == 5
            assert len(result.table) == 5

    @pytest.mark.parametrize(
        "name, replications, batch_size",
        [("smoke", 5, None), ("smoke", 5, 1), ("cooling_duqu", 2049, 512)],
    )
    def test_finished_campaign_job_is_complete(
        self, name, replications, batch_size
    ):
        telemetry = Telemetry()
        with Session(telemetry=telemetry) as session:
            job = session.submit_campaign(
                name, replications, seed=1, batch_size=batch_size
            )
            job.result()
        assert job.progress.completed == job.progress.total
        beats = [
            event for event in telemetry.events
            if event["kind"] == "job.heartbeat"
        ]
        assert beats[-1]["completed"] == beats[-1]["total"]

    def test_jobs_listing_and_wait(self):
        with Session() as session:
            job = session.submit("smoke", seed=1)
            assert job in session.jobs
            assert job.wait(timeout=60) is JobState.DONE

    def test_dropped_handles_are_not_pinned_by_the_session(self):
        import gc

        with Session() as session:
            job = session.submit("smoke", seed=1)
            job.result()
            del job
            gc.collect()
            assert session.jobs == []

    def test_warm_cache_suite_still_honors_cancel(self, tmp_path):
        # A fully cached run must not be uncancellable: pre-warm, then
        # cancel before the queued job starts consuming cache hits.
        with Session(cache_dir=str(tmp_path), max_parallel_jobs=1) as session:
            session.run(["smoke"], seed=5)  # warm the cache
            blocker = session.submit_campaign("cooling_stuxnet", 200, seed=1)
            queued = session.submit(["smoke"], seed=5)
            queued._cancel_event.set()  # cancel signal before it runs
            blocker.cancel()
            with pytest.raises(JobCancelled):
                queued.result(timeout=60)
            session.close(cancel_jobs=True)

    def test_descriptions(self):
        with Session() as session:
            job = session.submit("smoke", seed=1)
            assert "smoke" in job.description
            job.result()


class TestQueueing:
    def test_jobs_queue_and_cancel_before_start(self):
        with Session(max_parallel_jobs=1) as session:
            blocker = session.submit_campaign(
                "cooling_stuxnet", 300, seed=1
            )
            queued = session.submit("smoke", seed=1)
            # The first job occupies the only slot; the queued job can
            # be cancelled before it ever starts.
            assert queued.cancel()
            assert queued.status is JobState.CANCELLED
            with pytest.raises(JobCancelled):
                queued.result(timeout=5)
            blocker.cancel()
            session.close(cancel_jobs=True)

    def test_parallel_jobs_run_concurrently(self):
        with Session(max_parallel_jobs=2) as session:
            jobs = [session.submit("smoke", seed=s) for s in (1, 2)]
            results = [job.result() for job in jobs]
            assert all(job.status is JobState.DONE for job in jobs)
            assert results[0].records != results[1].records


@pytest.mark.parametrize("backend", BACKENDS)
class TestCancellation:
    def test_cancel_mid_campaign(self, backend):
        session = Session(
            backend=backend, n_workers=2, chunk_size=1
        )
        try:
            job = session.submit_campaign("cooling_stuxnet", 400, seed=3)
            assert wait_until(lambda: job.progress.completed >= 2)
            assert job.cancel()
            with pytest.raises(JobCancelled):
                job.result(timeout=60)
            assert job.status is JobState.CANCELLED
            assert job.progress.completed < 400
        finally:
            session.close(cancel_jobs=True)

    def test_cancel_is_idempotent_after_done(self, backend):
        with Session(backend=backend, n_workers=1) as session:
            job = session.submit("smoke", seed=1)
            job.result()
            assert not job.cancel()
            assert job.status is JobState.DONE


@pytest.mark.parametrize("backend", BACKENDS)
class TestErrorPropagation:
    def test_failing_unit_propagates_original_error(self, backend):
        with Session(backend=backend, n_workers=1) as session:
            job = session.submit(FAILING, seed=1)
            with pytest.raises(TypeError, match="bogus_kw"):
                job.result(timeout=120)
            assert job.status is JobState.FAILED
            assert job.done()

    def test_failure_mid_suite_reports_failed(self, backend):
        with Session(backend=backend, n_workers=1) as session:
            job = session.submit(["smoke", FAILING], seed=1)
            with pytest.raises(TypeError, match="bogus_kw"):
                job.result(timeout=120)
            assert job.status is JobState.FAILED


class TestRemoteTraceback:
    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_pool_failure_chains_worker_traceback(self, backend):
        # The worker-side traceback does not survive pickling, so the
        # exec layer re-chains it as a RemoteTracebackError cause; the
        # original exception type is preserved for except/match logic.
        from repro.exec import RemoteTracebackError

        with Session(backend=backend, n_workers=1) as session:
            job = session.submit(FAILING, seed=1)
            with pytest.raises(TypeError, match="bogus_kw") as exc_info:
                job.result(timeout=120)
        cause = exc_info.value.__cause__
        assert isinstance(cause, RemoteTracebackError)
        assert "Traceback (most recent call last)" in cause.formatted
        assert "bogus_kw" in cause.formatted

    def test_failure_traceback_captures_full_chain(self):
        with Session(backend="process", n_workers=1) as session:
            job = session.submit(FAILING, seed=1)
            with pytest.raises(TypeError):
                job.result(timeout=120)
            assert job.status is JobState.FAILED
            assert "bogus_kw" in job.failure_traceback
            # The worker-side frames show up in the coordinator-side
            # post-mortem even though the failure crossed a process
            # boundary.
            assert "Traceback (most recent call last)" in (
                job.failure_traceback
            )

    def test_failure_traceback_is_none_unless_failed(self):
        with Session() as session:
            job = session.submit("smoke", seed=7)
            job.result()
            assert job.status is JobState.DONE
            assert job.failure_traceback is None
