"""Equivalence suite for the campaign tick-elision fast path.

The acceptance guarantee of the elided event loop: for every built-in
scenario and the same seed, ``tick_elision=True`` (the default) and the
retained legacy per-tick loop (``tick_elision=False``) produce
*identical* :class:`~repro.attacks.campaign.AttackOutcome` fields — TTA,
TTSF, the compromised set, stage/alarm times — and identical event
traces.
"""

import hashlib
import math
import os
import threading
import time
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from repro.api import Session
from repro.attacks import campaign as campaign_module
from repro.attacks.campaign import (
    _TRAJECTORIES,
    AttackCampaign,
    CampaignConfig,
    _HealthyTickTrajectory,
    _TrajectoryMemo,
)
from repro.scada.monitoring import SpoofDetector
from repro.scada.plant.cooling import CoolingPlant, CoolingPlantConfig
from repro.scada.plant.damage import DamageModel
from repro.scenarios.registry import SCENARIOS


def outcome_signature(outcome):
    """Every outcome field (NaN-safe) plus the full event trace."""
    return (
        outcome.success,
        repr(outcome.success_time),
        repr(outcome.detection_time),
        sorted(outcome.compromise_times.items()),
        sorted(outcome.root_times.items()),
        repr(outcome.sabotage_start),
        sorted((s.value, t) for s, t in outcome.stage_times.items()),
        outcome.horizon,
        outcome.n_hosts,
        outcome.evicted,
        [
            (r.time, r.kind, r.subject, tuple(sorted(r.data.items())))
            for r in outcome.trace
        ],
    )


def signatures(scenario, config, seeds):
    campaign = AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        config,
    )
    return [
        outcome_signature(campaign.run(np.random.default_rng(seed)))
        for seed in seeds
    ]


def assert_modes_equivalent(scenario, seeds, **config_overrides):
    base = scenario.build_campaign_config()
    legacy = signatures(
        scenario,
        replace(base, tick_elision=False, **config_overrides),
        seeds,
    )
    elided = signatures(
        scenario,
        replace(base, tick_elision=True, **config_overrides),
        seeds,
    )
    assert legacy == elided


class TestAllBuiltinScenariosEquivalent:
    """The headline guarantee, across the full scenario catalog."""

    @pytest.mark.parametrize("name", sorted(SCENARIOS.names()))
    def test_identical_outcomes(self, name):
        assert_modes_equivalent(SCENARIOS.get(name), seeds=range(3))


class TestEdgeCaseEquivalence:
    def test_incident_response_immediate_eviction(self):
        # The response knobs ride on the scenario spec itself (no
        # hand-patched CampaignConfig).
        assert_modes_equivalent(
            replace(
                SCENARIOS.get("cooling_stuxnet"), response_enabled=True
            ),
            seeds=range(4),
        )

    def test_incident_response_delayed_eviction(self):
        # The eviction delay is an rng draw made at detection time —
        # it must land at the same point of the stream in both modes.
        # This is the spec behind the cooling_stuxnet_response built-in.
        assert_modes_equivalent(
            replace(
                SCENARIOS.get("cooling_stuxnet"),
                response_enabled=True,
                response_delay_rate=0.5,
            ),
            seeds=range(4),
        )

    def test_exfiltration_accrual_long_horizon(self):
        # Exfiltration success happens at a tick boundary computed
        # arithmetically on the elided path.
        assert_modes_equivalent(
            SCENARIOS.get("cooling_duqu"),
            seeds=range(3),
            horizon=200.0,
            tick_interval=0.25,
        )

    def test_feeder_plant_healthy_stream(self):
        # The feeder's diurnal demand keeps the healthy signal moving;
        # no frozen-signal finding, different trajectory shape.
        assert_modes_equivalent(
            SCENARIOS.get("smart_grid_duqu"), seeds=range(3)
        )

    def test_tick_interval_longer_than_horizon(self):
        # Zero ticks ever fire; both modes must agree trivially.
        assert_modes_equivalent(
            SCENARIOS.get("smoke"), seeds=range(2), tick_interval=50.0
        )


class _RampPlant:
    """A plant whose healthy reading ramps deterministically.

    Tuned so the master's threshold alarm and damage impairment land on
    the *same* tick: the legacy tick body then runs detect → evict →
    succeed inside one tick, which the elided dispatcher must replay in
    that exact sub-order (an eviction does not stop the rest of the
    tick).
    """

    MONITORED = 7

    def default_registers(self):
        return {self.MONITORED: 0}

    def __init__(self):
        self._level = 0.0

    def step(self, registers, dt):
        self._level += 10.0
        registers[self.MONITORED] = int(self._level)

    def stress_level(self):
        return self._level

    def sabotage(self, registers):
        registers[self.MONITORED] = 999

    @property
    def monitored_register(self):
        return self.MONITORED

    @property
    def alarm_scale(self):
        return 1.0

    @property
    def alarm_threshold(self):
        return 25.0  # trips at the tick where the ramp reaches 30

    def make_damage_model(self):
        from repro.scada.plant.damage import DamageModel

        # Damage explodes the instant stress exceeds 25 → impairment on
        # the same tick the alarm first trips.
        return DamageModel(
            safe_temperature=25.0,
            critical_temperature=26.0,
            critical_rate=1.0,
        )


class TestSameTickEvictionAndSuccess:
    def test_detect_evict_then_succeed_in_one_tick(self):
        # Immediate incident response: detection evicts (sets done) in
        # the same tick that damage impairment completes the goal; the
        # legacy loop records BOTH eviction and success.
        scenario = SCENARIOS.get("cooling_stuxnet")
        catalog, threat = scenario.build_catalog(), scenario.build_threat()
        results = {}
        for elide in (False, True):
            config = CampaignConfig(
                horizon=10.0,
                tick_interval=1.0,
                response_enabled=True,
                plant_factory=_RampPlant,
                tick_elision=elide,
            )
            campaign = AttackCampaign(
                scenario.build_network(), catalog, threat, config
            )
            results[elide] = [
                outcome_signature(campaign.run(np.random.default_rng(s)))
                for s in range(5)
            ]
        assert results[False] == results[True]
        # The scenario really exercises the same-tick corner.
        some = [
            sig for sig in results[False] if sig[0] and sig[9]
        ]  # success AND evicted
        assert some, "expected at least one evicted-yet-successful run"


def build_campaign(name, config=None):
    """A freshly built campaign of built-in ``name``."""
    scenario = SCENARIOS.get(name)
    return AttackCampaign(
        scenario.build_network(),
        scenario.build_catalog(),
        scenario.build_threat(),
        config or scenario.build_campaign_config(),
    )


def cooling(**fields):
    """A plant factory for a cooling plant with ``fields`` overridden."""
    return partial(
        CoolingPlant, CoolingPlantConfig(**fields), record_history=False
    )


class _TunableDamagePlant(CoolingPlant):
    """A cooling plant whose damage model is set on the class, so two
    instances with identical state can still damage differently."""

    CRITICAL_RATE = 1.0 / 600.0

    def make_damage_model(self):
        return DamageModel(critical_rate=self.CRITICAL_RATE)


def tunable_damage_plant():
    return _TunableDamagePlant(record_history=False)


class TestHealthyTrajectory:
    def test_shared_across_replications(self):
        campaign = build_campaign("cooling_stuxnet")
        campaign.run(np.random.default_rng(0))
        trajectory = campaign._trajectory
        assert trajectory is not None
        campaign.run(np.random.default_rng(1))
        assert campaign._trajectory is trajectory
        # ... and across campaigns: a separately built campaign, and one
        # of another scenario over the same plant content and tick
        # grid, get the same object.
        other = build_campaign("cooling_stuxnet")
        other.run(np.random.default_rng(2))
        assert other._trajectory is trajectory
        assert build_campaign(
            "cooling_stuxnet_response"
        )._healthy_trajectory() is trajectory

    def test_equal_content_from_distinct_factories_shares(self):
        config = SCENARIOS.get("smoke").build_campaign_config()
        a = build_campaign("smoke", config)._healthy_trajectory()
        b = build_campaign(
            "smoke", replace(config, plant_factory=cooling())
        )._healthy_trajectory()
        assert a is b

    @pytest.mark.parametrize(
        "change",
        [
            dict(plant_factory=cooling(it_load_kw=401.0)),
            dict(plant_factory=cooling(initial_room_temp=22.5)),
            dict(horizon=39.75),
            dict(tick_interval=0.5),
        ],
        ids=["plant-load", "plant-initial-state", "horizon", "tick"],
    )
    def test_any_content_change_gives_distinct_trajectory(self, change):
        config = CampaignConfig(
            horizon=40.0, tick_interval=0.25, plant_factory=cooling()
        )
        base = build_campaign("smoke", config)._healthy_trajectory()
        changed = build_campaign(
            "smoke", replace(config, **change)
        )._healthy_trajectory()
        assert changed is not base
        assert build_campaign("smoke", config)._healthy_trajectory() is base

    def test_damage_model_is_part_of_the_key(self, monkeypatch):
        config = CampaignConfig(
            horizon=40.0, plant_factory=tunable_damage_plant
        )
        base = build_campaign("smoke", config)._healthy_trajectory()
        monkeypatch.setattr(_TunableDamagePlant, "CRITICAL_RATE", 1.0 / 60.0)
        changed = build_campaign("smoke", config)._healthy_trajectory()
        assert changed is not base
        assert changed.damage.critical_rate == 1.0 / 60.0

    def test_snapshot_flag_is_part_of_the_key(self):
        config = CampaignConfig(horizon=40.0, plant_factory=cooling())
        with_snapshots = _TRAJECTORIES.get(config, record_snapshots=True)
        without = _TRAJECTORIES.get(config, record_snapshots=False)
        assert with_snapshots is not without
        assert with_snapshots.record_snapshots
        assert not without.record_snapshots
        # Goals decide the flag: impair (smoke) vs exfiltrate (duqu).
        assert (
            build_campaign("smoke", config)._healthy_trajectory()
            is with_snapshots
        )
        assert (
            build_campaign("cooling_duqu", config)._healthy_trajectory()
            is without
        )

    def test_plant_without_content_key_is_never_shared(self):
        config = CampaignConfig(
            horizon=10.0, tick_interval=1.0, plant_factory=_RampPlant
        )
        a = build_campaign("smoke", config)._healthy_trajectory()
        b = build_campaign("smoke", config)._healthy_trajectory()
        assert a is not b

    def test_lru_bound_evicts_oldest(self):
        memo = _TrajectoryMemo(maxsize=2)
        grids = [
            CampaignConfig(horizon=h, plant_factory=cooling())
            for h in (10.0, 20.0, 30.0)
        ]
        first, second, _third = (memo.get(c, True) for c in grids)
        assert len(memo._entries) == 2
        assert memo.get(grids[1], True) is second  # now most recent
        assert memo.get(grids[0], True) is not first  # was evicted
        assert memo.get(grids[1], True) is second  # third went instead
        assert len(memo._entries) == 2

    def test_racing_threads_build_once(self, monkeypatch):
        builds = []

        class Counting(_HealthyTickTrajectory):
            def __init__(self, *args, **kwargs):
                builds.append(1)
                super().__init__(*args, **kwargs)

        monkeypatch.setattr(
            campaign_module, "_HealthyTickTrajectory", Counting
        )
        memo = _TrajectoryMemo(maxsize=4)
        config = CampaignConfig(horizon=50.0, plant_factory=cooling())
        barrier = threading.Barrier(8)
        got = [None] * 8

        def worker(i):
            barrier.wait()
            trajectory = memo.get(config, True)
            trajectory.scan_to(trajectory.n_ticks)
            got[i] = trajectory

        threads = [
            threading.Thread(target=worker, args=(i,)) for i in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        assert len(builds) == 1
        assert all(t is got[0] for t in got)
        assert got[0].scanned == got[0].n_ticks
        assert len(got[0].snapshots) == got[0].n_ticks + 1

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
    def test_forked_child_starts_with_empty_memo(self):
        build_campaign("smoke")._healthy_trajectory()
        assert len(_TRAJECTORIES._entries) > 0
        # A thread scanning at fork time holds the lock; the child must
        # not inherit it held.
        _TRAJECTORIES._lock.acquire()
        try:
            pid = os.fork()
            if pid == 0:  # child: report through the exit status only
                status = 1
                try:
                    if len(_TRAJECTORIES._entries) == 0:
                        campaign = build_campaign("smoke")
                        campaign.run(np.random.default_rng(0))
                        if len(_TRAJECTORIES._entries) == 1:
                            status = 0
                finally:
                    os._exit(status)
        finally:
            _TRAJECTORIES._lock.release()
        deadline = time.monotonic() + 60.0
        while True:
            done, status = os.waitpid(pid, os.WNOHANG)
            if done:
                break
            if time.monotonic() > deadline:
                os.kill(pid, 9)
                os.waitpid(pid, 0)
                pytest.fail("forked child hung on the trajectory memo")
            time.sleep(0.01)
        assert os.waitstatus_to_exitcode(status) == 0

    def test_mutated_plant_factory_after_invalidate(self):
        config = CampaignConfig(horizon=40.0, plant_factory=cooling())
        campaign = build_campaign("smoke", config)
        campaign.run(np.random.default_rng(0))
        old = campaign._trajectory
        campaign.config.plant_factory = cooling(it_load_kw=450.0)
        campaign.run(np.random.default_rng(0))
        assert campaign._trajectory is old  # handle kept until invalidated
        campaign.invalidate_tables()
        campaign.run(np.random.default_rng(0))
        assert campaign._trajectory is not old
        assert campaign._trajectory.plant.config.it_load_kw == 450.0

    def test_invalidate_tables_resets_trajectory(self):
        scenario = SCENARIOS.get("smoke")
        campaign = AttackCampaign(
            scenario.build_network(),
            scenario.build_catalog(),
            scenario.build_threat(),
            scenario.build_campaign_config(),
        )
        campaign.run(np.random.default_rng(0))
        assert campaign._trajectory is not None
        campaign.invalidate_tables()
        assert campaign._trajectory is None
        assert campaign._tables is None

    def test_pickling_drops_trajectory(self):
        import pickle

        scenario = SCENARIOS.get("smoke")
        campaign = AttackCampaign(
            scenario.build_network(),
            scenario.build_catalog(),
            scenario.build_threat(),
            scenario.build_campaign_config(),
        )
        campaign.run(np.random.default_rng(0))
        clone = pickle.loads(pickle.dumps(campaign))
        assert clone._trajectory is None
        # The clone still reproduces outcomes bit-exactly.
        a = outcome_signature(campaign.run(np.random.default_rng(5)))
        b = outcome_signature(clone.run(np.random.default_rng(5)))
        assert a == b

    def test_tick_times_match_float_accumulation(self):
        config = CampaignConfig(horizon=1.0, tick_interval=0.1)
        trajectory = _HealthyTickTrajectory(
            config.plant_factory(), config.horizon, config.tick_interval
        )
        expected = []
        t = 0.0
        while True:
            t = t + 0.1
            if t > 1.0:
                break
            expected.append(t)
        assert trajectory.times[1:] == expected
        assert trajectory.n_ticks == len(expected)
        assert trajectory.ticks_at_or_before(0.0) == 0
        assert trajectory.ticks_at_or_before(expected[2]) == 3
        assert trajectory.ticks_at_or_before(1e9) == trajectory.n_ticks

    def test_lazy_scan_extends_on_demand(self):
        config = SCENARIOS.get("cooling_stuxnet").build_campaign_config()
        trajectory = _HealthyTickTrajectory(
            config.plant_factory(), config.horizon, config.tick_interval
        )
        assert trajectory.scanned == 0
        trajectory.scan_to(10)
        assert trajectory.scanned == 10
        trajectory.scan_to(5)  # never shrinks
        assert trajectory.scanned == 10
        trajectory.scan_to(10 ** 9)  # clamped to the horizon
        assert trajectory.scanned == trajectory.n_ticks
        assert trajectory.scan_exhausted
        # The cooling plant's steady healthy signal trips the master's
        # frozen-signal check once the detector window fills.
        k, label = trajectory.first_finding
        assert label.startswith("spoof:frozen_signal")
        assert k == 20  # detector window
        assert trajectory.first_impairment is None


def table_digest(table):
    """SHA-256 over a table's columns (NaN-safe, unlike ``==``)."""
    digest = hashlib.sha256()
    for name in table.columns:
        column = np.asarray(table.column(name))
        digest.update(name.encode() + column.dtype.str.encode())
        if column.dtype == object:
            digest.update(repr(column.tolist()).encode())
        else:
            digest.update(np.ascontiguousarray(column).tobytes())
    return digest.hexdigest()


def suite_digests(result):
    return {r.scenario.name: table_digest(r.table) for r in result.results}


def builtin_specs(tick_elision):
    return [
        replace(SCENARIOS.get(name), tick_elision=tick_elision)
        for name in sorted(SCENARIOS.names())
    ]


class TestTrajectoryTelemetry:
    def test_builtin_suite_builds_one_trajectory_per_content(self):
        _TRAJECTORIES.reset()
        result = Session(telemetry=True).run(builtin_specs(True), seed=1)
        snapshot = result.telemetry
        # 100 DoE campaigns over 5 distinct (plant, grid, snapshot flag)
        # contents.
        assert snapshot.counter("trajectory.builds") == 5
        assert snapshot.counter("trajectory.hits") == 95
        scanned = int(snapshot.counter("trajectory.ticks_scanned"))
        assert scanned > 0
        assert "campaign.trajectory_scan" in {
            path.rsplit("/", 1)[-1] for path in snapshot.span_paths()
        }
        assert (
            f"trajectories: 5 built / 95 shared ({scanned} ticks scanned)"
            in snapshot.render()
        )


@pytest.mark.scenario
class TestSharedTrajectoriesAcrossBackends:
    """Tables of all built-ins are identical with shared trajectories
    (``tick_elision=True``) and the per-tick loop (``False``) on every
    backend."""

    @pytest.mark.parametrize("backend", ["serial", "thread", "process"])
    def test_builtin_tables_identical(self, backend):
        session = Session(backend=backend, n_workers=2)
        elided = session.run(builtin_specs(True), seed=5)
        legacy = session.run(builtin_specs(False), seed=5)
        assert len(elided.results) == len(SCENARIOS.names())
        assert suite_digests(elided) == suite_digests(legacy)


class TestRunBatchTable:
    @pytest.fixture(scope="class", name="campaign")
    def campaign_fixture(self):
        scenario = SCENARIOS.get("cooling_stuxnet")
        return AttackCampaign(
            scenario.build_network(),
            scenario.build_catalog(),
            scenario.build_threat(),
            scenario.build_campaign_config(),
        )

    def test_matches_run_batch_rows(self, campaign):
        table = campaign.run_batch_table(8, rng=7)
        outcomes = campaign.run_batch(8, rng=7)
        horizon = campaign.config.horizon
        assert table.columns == ["success", "tta", "ttsf", "final_ratio"]
        rows = [
            tuple(table.row(i)[c] for c in table.columns)
            for i in range(len(table))
        ]
        assert rows == [o.response_row(horizon) for o in outcomes]

    @pytest.mark.parametrize("backend", ["thread", "process"])
    def test_identical_across_backends(self, campaign, backend):
        from repro.exec import ExperimentRunner

        serial = campaign.run_batch_table(6, rng=11)
        parallel = campaign.run_batch_table(
            6, rng=11, runner=ExperimentRunner(backend, n_workers=2)
        )
        assert serial == parallel

    def test_shared_generator_mode(self, campaign):
        rng_a = np.random.default_rng(3)
        rng_b = np.random.default_rng(3)
        table = campaign.run_batch_table(4, rng=rng_a)
        outcomes = campaign.run_batch(4, rng=rng_b)
        assert table.values("tta") == [
            o.response_row(campaign.config.horizon)[1] for o in outcomes
        ]

    def test_rejects_bad_replications(self, campaign):
        with pytest.raises(ValueError, match="replications"):
            campaign.run_batch_table(0)


class TestSpoofDetectorPreload:
    def test_preload_matches_observed_stream(self):
        stream = [float(v) for v in range(40)]
        observed = SpoofDetector(window=5)
        for value in stream:
            observed.observe(value)
        preloaded = SpoofDetector(window=5)
        preloaded.preload(stream)
        assert list(observed._samples) == list(preloaded._samples)

    def test_preload_short_stream(self):
        detector = SpoofDetector(window=5)
        detector.preload([1.0, 2.0])
        assert list(detector._samples) == [1.0, 2.0]
