"""The attack-campaign simulator.

Couples a :class:`~repro.attacks.profiles.ThreatProfile`, a
:class:`~repro.scada.network.SCADANetwork` (with installed variants), the
:class:`~repro.diversity.catalog.VariantCatalog`, the cooling plant and
the SCADA master into one discrete-event simulation.  Each replication
produces an :class:`AttackOutcome`, from which the paper's security
indicators — Time-To-Attack, Time-To-Security-Failure, compromised ratio
— are computed (:mod:`repro.core.indicators`).

Modeling notes
--------------

* Attempt processes are *thinned Poisson processes*: attempts occur at a
  vector's base rate and each succeeds with the per-variant probability
  from the catalog, so the time to first success is exponential with
  rate ``base_rate × p_success`` — zero-probability targets are simply
  never compromised.  This is exactly the paper's mechanism of *"varying
  the success probabilities involved at each attack stage"* as a function
  of the installed component variants.
* Failed attempts are noisy: they feed a detection process whose rate
  grows when behavioural antivirus variants are deployed.
* Sabotage couples to the physical plant through the PLC register image;
  the payload spoofs the monitoring signal (replay or constant-hold),
  and the master's alarm/spoof-detection logic defines the perceived
  manifestation time (TTSF).
* Time unit: hours.
"""

from __future__ import annotations

import bisect
import copy
import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Dict, List, Optional, Set, Tuple

import numpy as np

from repro.telemetry.core import current as _current_telemetry
from repro.telemetry.core import metric_inc as _metric_inc
from repro.telemetry.core import trace as _span

if TYPE_CHECKING:  # avoid import cost on the hot serial path
    from repro.exec.runner import ExperimentRunner
    from repro.exec.seeding import SeedLike

from repro.attacks.profiles import ThreatProfile
from repro.attacks.stages import AttackStage, StageTracker
from repro.attacks.vectors import PropagationVector
from repro.diversity.catalog import VariantCatalog
from repro.scada.components import ComponentKind, HostRole
from repro.scada.monitoring import Alarm, SCADAMaster
from repro.scada.network import SCADANetwork, Zone
from repro.scada.plant.cooling import CoolingPlant, CoolingPlantConfig
from repro.scada.plant.process import PhysicalProcess
from repro.sim.engine import SimulationEngine
from repro.sim.trace import TraceRecorder


def _default_plant() -> PhysicalProcess:
    """The SCoPE-like cooling plant, history off for Monte-Carlo speed."""
    return CoolingPlant(CoolingPlantConfig(), record_history=False)


@dataclass
class CampaignConfig:
    """Campaign simulation parameters.

    Attributes:
        horizon: Simulation horizon (hours); finite and > 0.
        tick_interval: Plant/master polling period (hours); finite
            and > 0.
        failed_attempt_noise: Baseline probability that one failed
            exploit attempt is noticed by host defenses.
        response_enabled: If True, incident response reacts to the first
            detection; if False (default) the attack continues and
            detection is recorded as TTSF only.
        response_delay_rate: With response enabled, the eviction happens
            an Exp(rate)-distributed delay after detection (triage +
            containment time).  ``None`` means instantaneous eviction
            (the pre-existing stop-at-detection behaviour).
        plant_factory: Builds the physical process under control — the
            cooling plant by default; pass e.g.
            ``lambda: PowerFeeder()`` for the smart-grid scenario.
        tick_elision: Run the campaign event loop on the tick-elision
            fast path (default).  Pre-sabotage plant/master ticks are
            rng-free and independent of the attack state, so they are
            served from one lazily-extended healthy trajectory shared
            by every replication of every campaign with the same
            plant content and tick grid; the per-tick loop resumes
            bit-exactly when a controller is reprogrammed.
            ``False`` keeps the legacy per-tick loop — outcomes are
            identical either way for the same seed (see
            ``tests/test_campaign_tick_elision.py``).
    """

    horizon: float = 400.0
    tick_interval: float = 0.25
    failed_attempt_noise: float = 0.03
    response_enabled: bool = False
    response_delay_rate: Optional[float] = None
    plant_factory: Callable[[], PhysicalProcess] = field(
        default=_default_plant
    )
    tick_elision: bool = True

    def __post_init__(self) -> None:
        # A non-positive or non-finite grid never reaches the horizon:
        # the tick chain would loop forever (or silently do nothing).
        for name in ("horizon", "tick_interval"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be finite and > 0, got {value!r}"
                )


@dataclass
class AttackOutcome:
    """Result of one campaign replication.

    Attributes:
        success: Whether the threat achieved its goal before the horizon.
        success_time: Goal-achievement time (nan when unsuccessful) —
            the Time-To-Attack sample.
        detection_time: First perceived manifestation (nan if never) —
            the Time-To-Security-Failure sample.
        compromise_times: ``{host: first_compromise_time}``.
        root_times: ``{host: root_access_time}``.
        sabotage_start: When the controller was reprogrammed (nan if
            never).
        stage_times: First-entry time per canonical attack stage.
        horizon: Horizon used.
        n_hosts: Total computer hosts in the system (denominator of the
            compromised ratio).
        trace: Full event trace.
        evicted: Whether incident response evicted the attacker before
            the goal (always False when response is disabled).
    """

    success: bool
    success_time: float
    detection_time: float
    compromise_times: Dict[str, float]
    root_times: Dict[str, float]
    sabotage_start: float
    stage_times: Dict[AttackStage, float]
    horizon: float
    n_hosts: int
    trace: TraceRecorder
    evicted: bool = False

    def compromised_ratio_at(self, time: float) -> float:
        """Fraction of hosts compromised by ``time``."""
        if self.n_hosts == 0:
            return 0.0
        count = sum(1 for t in self.compromise_times.values() if t <= time)
        return count / self.n_hosts

    def compromised_ratio_curve(
        self, times: List[float]
    ) -> List[Tuple[float, float]]:
        """The compromised-ratio step function sampled at ``times``."""
        return [(t, self.compromised_ratio_at(t)) for t in times]

    def response_row(
        self, horizon: float
    ) -> Tuple[float, float, float, float]:
        """The long-format response tuple
        ``(success, tta, ttsf, final_ratio)`` with the library's
        horizon-censoring conventions (censored times count ``horizon``).
        """
        return (
            1.0 if self.success else 0.0,
            self.success_time if self.success else horizon,
            (
                self.detection_time
                if not math.isnan(self.detection_time)
                else horizon
            ),
            self.compromised_ratio_at(horizon),
        )


def _response_row_unit(
    campaign: "AttackCampaign", rng: np.random.Generator
) -> np.ndarray:
    """Run one replication, return only its ``(1, 4)`` response row.

    Module-level so the ``process`` backend can pickle it; shipping four
    floats back instead of a full :class:`AttackOutcome` (with its
    trace) is what makes :meth:`AttackCampaign.run_batch_table` cheap
    across process boundaries.
    """
    row = campaign.run(rng).response_row(campaign.config.horizon)
    return np.asarray(row, dtype=np.float64).reshape(1, 4)


@dataclass
class _CampaignTables:
    """Static probability tables shared by every replication.

    Attributes:
        entry: ``(host, p_entry)`` per entry candidate, candidate order.
        escalation: ``host → p_escalation`` for computer hosts.
        detection_noise: ``host → p_detect`` for every host.
        propagation: ``source host → [(vector, target, rate, p), ...]``
            in the vector × target order the inline loop used.
        reprogram: ``host → [(plc, p), ...]`` over flow-allowed PLCs,
            with the host's engineering-tool factor folded in.
        spoof: Probability the payload can tamper the monitored signal.
    """

    entry: List[Tuple[str, float]]
    escalation: Dict[str, float]
    detection_noise: Dict[str, float]
    propagation: Dict[str, List[Tuple[str, str, float, float]]]
    reprogram: Dict[str, List[Tuple[str, float]]]
    spoof: float


def _build_master(plant: PhysicalProcess) -> SCADAMaster:
    """The master configuration every replication (and the healthy
    trajectory probe) uses: one stress alarm plus spoof detection on the
    plant's monitored register."""
    monitored = plant.monitored_register
    master = SCADAMaster(
        alarms=[
            Alarm(
                "process_stress",
                monitored,
                high=plant.alarm_threshold,
                scale=plant.alarm_scale,
            )
        ]
    )
    master.watch(monitored)
    return master


#: Ticks scanned per milestone-pump step on the elided path.  Small
#: enough that replications ending early never pay for the full horizon,
#: large enough that pump events are negligible next to real ticks.
_MILESTONE_SCAN_CHUNK = 64


class _HealthyTickTrajectory:
    """The deterministic pre-sabotage tick trajectory of one plant.

    Until a controller is reprogrammed, the campaign's ``on_tick``
    handler is a pure function of the plant and the tick grid
    (``horizon``, ``tick_interval``): it draws no randomness, reads no
    attack state, and the control registers never change.  Every
    replication of every campaign over equal plant content and grid
    therefore ticks through the *same* healthy trajectory — so one probe
    simulation, extended lazily and shared through
    :data:`_TRAJECTORIES`, replaces the per-tick loop.  The probe
    records, per tick ``k`` (1-based, times built by the same float
    accumulation the event loop uses):

    * the master's first finding (alarm or spoof-detector label) and
      the first tick at which accumulated damage crosses impairment —
      the only two tick-loop effects visible to a replication that
      never reaches sabotage;
    * the monitored reading stream (for spoofer/detector state
      restoration) and full ``(plant, registers, damage)`` snapshots,
      so a replication whose sabotage starts after tick ``j`` can
      resume the exact legacy per-tick loop from tick ``j + 1``.

    Thread-safe: extension is serialized by a lock (the ``thread``
    backend runs replications of shared campaigns concurrently);
    already scanned ticks are immutable and read lock-free.
    """

    def __init__(
        self,
        plant: PhysicalProcess,
        horizon: float,
        tick_interval: float,
        record_snapshots: bool = True,
    ) -> None:
        self.tick_interval = tick_interval
        self.record_snapshots = record_snapshots
        self.plant = plant
        self.registers = self.plant.default_registers()
        self.damage = self.plant.make_damage_model()
        self.monitored = self.plant.monitored_register
        self.master = _build_master(self.plant)
        # times[k] is tick k's firing time; built by repeated addition
        # (t += interval) exactly like the legacy tick chain, so the
        # elided path reproduces the same float values.
        times = [0.0]
        while True:
            nxt = times[-1] + tick_interval
            if nxt > horizon:
                break
            times.append(nxt)
        self.times = times
        self.n_ticks = len(times) - 1
        self.scanned = 0
        # Index k holds post-tick-k state; index 0 is the initial state.
        self.snapshots: List[Tuple[PhysicalProcess, Dict[int, int], float]] = [
            (copy.deepcopy(self.plant), dict(self.registers), 0.0)
        ]
        self.readings: List[float] = [float("nan")]  # index 0 unused
        self.first_finding: Optional[Tuple[int, str]] = None
        self.first_impairment: Optional[int] = None
        self._lock = threading.Lock()

    @property
    def scan_exhausted(self) -> bool:
        """Whether every tick up to the horizon has been scanned."""
        return self.scanned >= self.n_ticks

    def tick_time(self, k: int) -> Optional[float]:
        """Tick ``k``'s firing time, or None past the horizon."""
        if 1 <= k <= self.n_ticks:
            return self.times[k]
        return None

    def ticks_at_or_before(self, time: float) -> int:
        """How many ticks fire at or before ``time``."""
        return min(bisect.bisect_right(self.times, time) - 1, self.n_ticks)

    def scan_to(self, k: int) -> None:
        """Extend the probe simulation through tick ``min(k, n_ticks)``."""
        target = min(k, self.n_ticks)
        if self.scanned >= target:
            return
        with _span("campaign.trajectory_scan"), self._lock:
            start = self.scanned
            while self.scanned < target:
                self._step_once()
            scanned = self.scanned - start
        _metric_inc("trajectory.ticks_scanned", scanned)

    def _step_once(self) -> None:
        """One healthy tick, mirroring ``on_tick``'s pre-sabotage body."""
        k = self.scanned + 1
        now = self.times[k]
        dt_seconds = self.tick_interval * 3600.0
        self.plant.step(self.registers, dt=dt_seconds)
        self.damage.update(self.plant.stress_level(), dt_seconds, now)
        reported = dict(self.registers)
        actual = float(self.registers.get(self.monitored, 0))
        findings = self.master.poll(now, reported)
        self.readings.append(actual)
        if self.record_snapshots:
            self.snapshots.append(
                (
                    copy.deepcopy(self.plant),
                    dict(self.registers),
                    self.damage.damage,
                )
            )
        if findings and self.first_finding is None:
            self.first_finding = (k, findings[0])
        if self.damage.impaired and self.first_impairment is None:
            self.first_impairment = k
        self.scanned = k

    # -------------------- replication restore helpers --------------------

    def _require_snapshots(self) -> None:
        if not self.record_snapshots:
            raise RuntimeError(
                "trajectory was built without state snapshots "
                "(record_snapshots=False); restore is only needed — and "
                "snapshots only recorded — for sabotage-capable "
                "(impair-goal) campaigns"
            )

    def plant_at(self, k: int) -> PhysicalProcess:
        """A private copy of the plant state after tick ``k``."""
        self._require_snapshots()
        self.scan_to(k)
        return copy.deepcopy(self.snapshots[k][0])

    def registers_at(self, k: int) -> Dict[int, int]:
        """The register image after tick ``k``."""
        self._require_snapshots()
        self.scan_to(k)
        return dict(self.snapshots[k][1])

    def damage_at(self, k: int) -> float:
        """Accumulated damage after tick ``k``."""
        self._require_snapshots()
        self.scan_to(k)
        return self.snapshots[k][2]

    def readings_through(self, k: int) -> List[float]:
        """Monitored readings of ticks ``1..k`` (the healthy record
        stream seen by spoofers and the master's spoof detector)."""
        self.scan_to(k)
        return self.readings[1 : k + 1]


class _TrajectoryMemo:
    """A bounded, lock-guarded LRU of healthy trajectories keyed by content.

    The key is the plant's class and
    :meth:`~repro.scada.plant.process.PhysicalProcess.content_key`, the
    tick grid and the snapshot flag — everything a trajectory depends
    on — so campaigns of different DoE runs, scenarios and sessions
    over the same plant share one lazily scanned trajectory.  A plant
    without a content key gets a private trajectory.
    """

    def __init__(self, maxsize: int) -> None:
        self.maxsize = maxsize
        self.reset()

    def reset(self) -> None:
        """Forget every entry, with a fresh lock (also run in forked
        children, which may inherit the lock held by a scanning
        thread)."""
        self._lock = threading.Lock()
        self._entries: "OrderedDict[tuple, _HealthyTickTrajectory]" = (
            OrderedDict()
        )

    def get(
        self, config: CampaignConfig, record_snapshots: bool
    ) -> _HealthyTickTrajectory:
        """The trajectory of ``config``'s plant and tick grid."""
        plant = config.plant_factory()
        content_key = getattr(plant, "content_key", None)
        content = content_key() if content_key is not None else None
        key = (
            type(plant),
            content,
            config.horizon,
            config.tick_interval,
            record_snapshots,
        )
        with self._lock:
            trajectory = None if content is None else self._entries.get(key)
            built = trajectory is None
            if trajectory is None:
                # Cheap under the lock: the constructor only lays out
                # the grid (the scan is lazy).  It uses the very plant
                # the key was computed from.
                trajectory = _HealthyTickTrajectory(
                    plant,
                    config.horizon,
                    config.tick_interval,
                    record_snapshots,
                )
                if content is not None:
                    self._entries[key] = trajectory
                    if len(self._entries) > self.maxsize:
                        self._entries.popitem(last=False)
            else:
                self._entries.move_to_end(key)
        _metric_inc("trajectory.builds" if built else "trajectory.hits")
        return trajectory


#: The process-wide trajectory memo.  A study touches a handful of
#: contents (one per plant x tick grid x snapshot flag); the bound caps
#: memory for long sessions that sweep many plants or grids.
_TRAJECTORIES = _TrajectoryMemo(maxsize=32)
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_TRAJECTORIES.reset)


class AttackCampaign:
    """Runs attack campaigns against a configured SCADA system.

    The per-host success/detection probabilities are pure functions of
    the (network, catalog, threat, config) quadruple, which is fixed for
    the campaign's lifetime — they are compiled into lookup tables on
    the first replication (:meth:`_compile_tables`) instead of being
    recomputed from catalog lookups on every event.  Values and
    iteration orders replicate the inline computations exactly, so
    outcomes are bit-identical to the uncached path.

    Mutating the network/catalog/threat *after* a replication has run
    therefore requires :meth:`invalidate_tables` (in-repo callers build
    a fresh campaign per configuration, which is the recommended
    pattern).
    """

    def __init__(
        self,
        network: SCADANetwork,
        catalog: VariantCatalog,
        threat: ThreatProfile,
        config: Optional[CampaignConfig] = None,
    ) -> None:
        self.network = network
        self.catalog = catalog
        self.threat = threat
        self.config = config or CampaignConfig()
        self._tables: Optional[_CampaignTables] = None
        self._trajectory: Optional[_HealthyTickTrajectory] = None

    def __getstate__(self) -> Dict[str, object]:
        """Pickle without the healthy trajectory handle (it holds a
        lock); worker-side the campaign looks it up again in that
        process's trajectory memo, so each worker builds one per
        content key."""
        state = self.__dict__.copy()
        state["_trajectory"] = None
        return state

    # ------------------------------------------------------------------
    # probability helpers
    # ------------------------------------------------------------------

    def _entry_candidates(self) -> List[str]:
        """Hosts the initial infection can land on.

        Removable media crosses air gaps: any computer with USB ports is
        a candidate; enterprise-zone computers are candidates regardless
        (mail/web entry).
        """
        names: List[str] = []
        for host in self.network.hosts:
            if not host.is_computer:
                continue
            if host.usb_ports or self.network.zone_of(host.name) == Zone.ENTERPRISE:
                names.append(host.name)
        return names

    def _entry_probability(self, host_name: str) -> float:
        host = self.network.host(host_name)
        os_variant = host.variant_of(ComponentKind.OPERATING_SYSTEM)
        action = "usb_autorun" if host.usb_ports else "net_exploit"
        p = self.catalog.success_probability(
            ComponentKind.OPERATING_SYSTEM, os_variant, action
        )
        av = host.variant_of(ComponentKind.ANTIVIRUS)
        if av is not None:
            p *= self.catalog.success_probability(
                ComponentKind.ANTIVIRUS, av, "av_evasion"
            )
        if host.resilient:
            p *= 0.05
        return p

    def _escalation_probability(self, host_name: str) -> float:
        host = self.network.host(host_name)
        os_variant = host.variant_of(ComponentKind.OPERATING_SYSTEM)
        p = self.catalog.success_probability(
            ComponentKind.OPERATING_SYSTEM, os_variant, "priv_escalation"
        )
        if host.resilient:
            p *= 0.05
        return p

    def _propagation_probability(
        self, vector: PropagationVector, target_name: str
    ) -> float:
        target = self.network.host(target_name)
        p = vector.success_probability(target, self.catalog)
        if target.resilient:
            p *= 0.05
        return p

    def _reprogram_probability(self, plc_name: str) -> float:
        plc = self.network.host(plc_name)
        p_fw = self.catalog.success_probability(
            ComponentKind.PLC_FIRMWARE,
            plc.variant_of(ComponentKind.PLC_FIRMWARE),
            "reprogram",
        )
        p_stack = self.catalog.success_probability(
            ComponentKind.PROTOCOL_STACK,
            plc.variant_of(ComponentKind.PROTOCOL_STACK),
            "reprogram",
        )
        p = p_fw * p_stack
        if plc.resilient:
            p *= 0.05
        return p

    def _spoof_probability(self) -> float:
        """Probability the payload can tamper with the monitored signal."""
        sensors = self.network.hosts_with_role(HostRole.SENSOR)
        if not sensors:
            return 1.0
        # The attacker must tamper with the sensor path feeding the
        # master; authenticated sensors make that unlikely.
        probs = [
            self.catalog.success_probability(
                ComponentKind.SENSOR_MODEL,
                s.variant_of(ComponentKind.SENSOR_MODEL),
                "signal_tamper",
            )
            for s in sensors
        ]
        return max(probs)

    def _detection_noise(self, host_name: str) -> float:
        """Per-failed-attempt detection probability at ``host_name``."""
        host = self.network.host(host_name)
        base = self.config.failed_attempt_noise
        av = host.variant_of(ComponentKind.ANTIVIRUS)
        if av is not None:
            evasion = self.catalog.success_probability(
                ComponentKind.ANTIVIRUS, av, "av_evasion"
            )
            base += 0.25 * (1.0 - evasion)
        return min(1.0, base)

    def _propagation_plans(
        self, host: str
    ) -> List[Tuple[str, str, float, float]]:
        """``(vector, target, rate, p)`` lateral-movement plans from ``host``."""
        return [
            (
                vector.name,
                target,
                vector.rate,
                self._propagation_probability(vector, target),
            )
            for vector in self.threat.vectors
            for target in vector.targets(host, self.network)
        ]

    def _reprogram_plans(
        self, host: str, plcs: List[str]
    ) -> List[Tuple[str, float]]:
        """``(plc, p)`` over flow-allowed PLCs, engineering tool folded in.

        Stuxnet drove the PLC through the engineering suite: a tool
        variant on ``host`` scales the reprogram probability.
        """
        tool = self.network.host(host).variant_of(
            ComponentKind.ENGINEERING_TOOL
        )
        tool_factor = (
            self.catalog.success_probability(
                ComponentKind.ENGINEERING_TOOL, tool, "reprogram"
            )
            if tool is not None
            else None
        )
        plans: List[Tuple[str, float]] = []
        for plc_name in plcs:
            if not self.network.flow_allowed(host, plc_name, "modbus"):
                continue
            p = self._reprogram_probability(plc_name)
            if tool_factor is not None:
                p *= tool_factor
            plans.append((plc_name, p))
        return plans

    def invalidate_tables(self) -> None:
        """Drop the compiled probability tables and trajectory handle.

        Call after mutating the campaign's network, catalog, threat or
        config in place; the next replication recompiles the tables and
        looks the trajectory up again by the new plant content and tick
        grid.
        """
        self._tables = None
        self._trajectory = None

    def _healthy_trajectory(self) -> _HealthyTickTrajectory:
        """The shared healthy tick trajectory (looked up on first use).

        Per-tick state snapshots exist to resume the per-tick loop at
        sabotage, which only ``"impair"``-goal threats can trigger —
        other goals skip the deepcopy-per-tick cost entirely.
        """
        trajectory = self._trajectory
        if trajectory is None:
            trajectory = _TRAJECTORIES.get(
                self.config, record_snapshots=(self.threat.goal == "impair")
            )
            self._trajectory = trajectory
        return trajectory

    def _compile_tables(self) -> _CampaignTables:
        """Build (once) the static probability tables ``run`` reads."""
        if self._tables is not None:
            return self._tables
        computers = [h.name for h in self.network.hosts if h.is_computer]
        plcs = [h.name for h in self.network.hosts_with_role(HostRole.PLC)]
        self._tables = _CampaignTables(
            entry=[
                (h, self._entry_probability(h))
                for h in self._entry_candidates()
            ],
            escalation={h: self._escalation_probability(h) for h in computers},
            detection_noise={
                h: self._detection_noise(h) for h in self.network.host_names
            },
            propagation={h: self._propagation_plans(h) for h in computers},
            reprogram={h: self._reprogram_plans(h, plcs) for h in computers},
            spoof=self._spoof_probability(),
        )
        return self._tables

    # ------------------------------------------------------------------
    # simulation
    # ------------------------------------------------------------------

    def run(self, rng: np.random.Generator) -> AttackOutcome:
        """One campaign replication.

        Runs the tick-elision fast path when
        :attr:`CampaignConfig.tick_elision` is set (the default): the
        rng-free healthy tick stream is served from the shared
        :class:`_HealthyTickTrajectory` of the campaign's plant and tick
        grid, and the legacy per-tick loop is resumed — from a bit-exact
        state restore — only once a controller is reprogrammed.
        Outcomes are identical to the legacy loop for the same generator
        state.
        """
        tables = self._compile_tables()
        cfg = self.config
        elide = cfg.tick_elision
        traj = self._healthy_trajectory() if elide else None
        engine = SimulationEngine()
        trace = TraceRecorder()
        stages = StageTracker()

        computers = [h.name for h in self.network.hosts if h.is_computer]
        plcs = [h.name for h in self.network.hosts_with_role(HostRole.PLC)]
        n_hosts = len(computers)

        compromised: Set[str] = set()
        activated: Set[str] = set()
        rooted: Set[str] = set()
        compromise_times: Dict[str, float] = {}
        root_times: Dict[str, float] = {}
        scheduled_pairs: Set[Tuple[str, str, str]] = set()
        reprogram_scheduled: Set[str] = set()

        state = {
            "detection_time": float("nan"),
            "success_time": float("nan"),
            "sabotage_start": float("nan"),
            "exfiltrated": 0.0,
            "spoof_effective": False,
            "c2_started": False,
            "done": False,
            "evicted": False,
        }

        plant = cfg.plant_factory()
        registers = plant.default_registers()
        damage = plant.make_damage_model()
        monitored = plant.monitored_register
        master = _build_master(plant)
        spoofer = self.threat.make_spoofer()

        # Tick-elision bookkeeping (one dict to keep the closures below
        # free of nonlocal declarations).  ``suspended`` flips when the
        # legacy per-tick loop takes over at sabotage; stale milestone
        # events then no-op instead of being cancelled.
        elided: Dict[str, object] = {
            "suspended": False,
            "detect_scheduled": False,
            "impair_scheduled": False,
            "effects_tick": 0,
            "frontier": 0,
            "exfil_idx": 0,
            "exfil_amount": 0.0,
            "exfil_n": 0,
            "exfil_event": None,
        }

        def evict(time: float) -> None:
            if state["done"]:
                return
            state["evicted"] = True
            state["done"] = True
            trace.record(time, "eviction", "incident_response")
            engine.request_stop()

        def detect(time: float, source: str) -> None:
            if math.isnan(state["detection_time"]):
                state["detection_time"] = time
                trace.record(time, "detection", source)
                if cfg.response_enabled:
                    if cfg.response_delay_rate is None:
                        evict(time)
                    else:
                        delay = rng.exponential(
                            1.0 / cfg.response_delay_rate
                        )
                        if time + delay <= cfg.horizon:
                            engine.schedule(
                                time + delay, lambda ev: evict(ev.time)
                            )

        def succeed(time: float, how: str) -> None:
            if math.isnan(state["success_time"]):
                state["success_time"] = time
                trace.record(time, "goal", how)
                state["done"] = True
                engine.request_stop()

        # -------------------------- handlers ---------------------------

        def schedule_detection_noise(
            now: float, rate: float, p_success: float, host: str
        ) -> None:
            """Failed attempts against ``host`` may be noticed."""
            p_detect = tables.detection_noise.get(host)
            if p_detect is None:
                p_detect = self._detection_noise(host)
            noisy_rate = rate * (1.0 - p_success) * p_detect
            if noisy_rate <= 0:
                return
            t = now + rng.exponential(1.0 / noisy_rate)
            if t <= cfg.horizon:
                engine.schedule(
                    t, lambda ev, h=host: detect(ev.time, f"host_ids:{h}")
                )

        def schedule_compromise(
            now: float,
            source: str,
            target: str,
            vector_name: str,
            rate: float,
            p_success: float,
        ) -> None:
            key = (source, target, vector_name)
            if key in scheduled_pairs or target in compromised:
                return
            scheduled_pairs.add(key)
            schedule_detection_noise(now, rate, p_success, target)
            effective = rate * p_success
            if effective <= 0:
                return
            t = now + rng.exponential(1.0 / effective)
            if t <= cfg.horizon:
                engine.schedule(
                    t,
                    lambda ev, tgt=target, vec=vector_name: on_compromise(
                        ev.time, tgt, vec
                    ),
                )

        def on_compromise(now: float, host: str, how: str) -> None:
            if host in compromised or state["done"]:
                return
            compromised.add(host)
            compromise_times[host] = now
            trace.record(now, "compromise", host, vector=how)
            stages.reach(AttackStage.INITIAL, now, host)
            if how != "entry":
                # Lateral movement, not an independent initial infection.
                stages.reach(AttackStage.PROPAGATION, now, host)
            delay = rng.exponential(1.0 / self.threat.activation_delay_rate)
            if now + delay <= cfg.horizon:
                engine.schedule(
                    now + delay, lambda ev, h=host: on_activation(ev.time, h)
                )
            if self.threat.goal == "recon":
                if len(compromised) >= self.threat.recon_fraction * n_hosts:
                    succeed(now, "recon_complete")

        def on_activation(now: float, host: str) -> None:
            if state["done"] or host in activated:
                return
            activated.add(host)
            trace.record(now, "activation", host)
            stages.reach(AttackStage.ACTIVATED, now, host)
            # C2 channel comes alive with the first activation.
            if self.threat.c2 is not None and not state["c2_started"]:
                state["c2_started"] = True
                t_detect = self.threat.c2.first_detection_time(
                    now, cfg.horizon, self.network, self.catalog, rng
                )
                if t_detect is not None:
                    engine.schedule(
                        t_detect, lambda ev: detect(ev.time, "c2_beacon")
                    )
            # Privilege escalation.
            p_root = tables.escalation.get(host)
            if p_root is None:
                p_root = self._escalation_probability(host)
            schedule_detection_noise(
                now, self.threat.escalation_rate, p_root, host
            )
            rate = self.threat.escalation_rate * p_root
            if rate > 0:
                t = now + rng.exponential(1.0 / rate)
                if t <= cfg.horizon:
                    engine.schedule(
                        t, lambda ev, h=host: on_root(ev.time, h)
                    )
            # Lateral movement.
            plans = tables.propagation.get(host)
            if plans is None:  # non-computer host: not precompiled
                plans = self._propagation_plans(host)
            for vector_name, target, rate, p in plans:
                schedule_compromise(
                    now, host, target, vector_name, rate, p
                )

        def on_root(now: float, host: str) -> None:
            if state["done"] or host in rooted:
                return
            rooted.add(host)
            root_times[host] = now
            trace.record(now, "root", host)
            stages.reach(AttackStage.ROOT_ACCESS, now, host)
            maybe_schedule_reprogram(now, host)
            if elide and self.threat.goal == "exfiltrate":
                _exfil_update(now)

        def maybe_schedule_reprogram(now: float, host: str) -> None:
            if self.threat.goal != "impair":
                return
            role = self.network.host(host).role
            if (
                self.threat.requires_engineering_host
                and role != HostRole.ENGINEERING_WORKSTATION
            ):
                return
            plc_probs = tables.reprogram.get(host)
            if plc_probs is None:  # non-computer host: not precompiled
                plc_probs = self._reprogram_plans(host, plcs)
            for plc_name, p in plc_probs:
                if plc_name in reprogram_scheduled:
                    continue
                schedule_detection_noise(
                    now, self.threat.reprogram_rate, p, plc_name
                )
                rate = self.threat.reprogram_rate * p
                if rate <= 0:
                    continue
                reprogram_scheduled.add(plc_name)
                t = now + rng.exponential(1.0 / rate)
                if t <= cfg.horizon:
                    engine.schedule(
                        t,
                        lambda ev, p_name=plc_name: on_sabotage(
                            ev.time, p_name
                        ),
                    )

        def on_sabotage(now: float, plc_name: str) -> None:
            if state["done"] or not math.isnan(state["sabotage_start"]):
                return
            if elide:
                _resume_ticking(now)
            state["sabotage_start"] = now
            trace.record(now, "sabotage", plc_name)
            plant.sabotage(registers)
            state["spoof_effective"] = (
                spoofer is not None and rng.random() < tables.spoof
            )

        def _reachable_data() -> List[str]:
            """Rooted hosts with process-data access (exfiltration)."""
            return [
                h
                for h in rooted
                if self.network.host(h).role
                in (HostRole.HISTORIAN, HostRole.SCADA_SERVER)
                or any(
                    self.network.flow_allowed(h, other, "historian")
                    for other in self.network.host_names
                    if self.network.host(other).role == HostRole.HISTORIAN
                )
            ]

        def on_tick(now: float) -> None:
            if state["done"]:
                return
            state["ticks"] = state.get("ticks", 0) + 1
            dt_seconds = cfg.tick_interval * 3600.0
            plant.step(registers, dt=dt_seconds)
            damage.update(plant.stress_level(), dt_seconds, now)
            sabotage_active = not math.isnan(state["sabotage_start"])
            # What the master sees.
            reported = dict(registers)
            actual_reading = float(registers.get(monitored, 0))
            if sabotage_active and state["spoof_effective"] and spoofer is not None:
                reported[monitored] = max(0, int(spoofer.emit(rng)))
            elif spoofer is not None and not sabotage_active:
                spoofer.record(actual_reading)
            findings = master.poll(now, reported)
            if findings:
                detect(now, findings[0])
            # Goal progress.
            if self.threat.goal == "impair" and damage.impaired:
                stages.reach(
                    AttackStage.DEVICE_IMPAIRMENT, now, "physical_process"
                )
                succeed(now, "device_impairment")
            if self.threat.goal == "exfiltrate":
                reachable_data = _reachable_data()
                if reachable_data:
                    state["exfiltrated"] += (
                        self.threat.exfiltration_rate
                        * cfg.tick_interval
                        * len(reachable_data)
                    )
                    if state["exfiltrated"] >= self.threat.exfiltration_target:
                        succeed(now, "exfiltration_complete")
            next_tick = now + cfg.tick_interval
            if next_tick <= cfg.horizon:
                engine.schedule(next_tick, lambda ev: on_tick(ev.time))

        # ---------------------- tick-elision fast path ------------------
        #
        # Pre-sabotage, ``on_tick`` draws no randomness and depends only
        # on the (plant, config) pair, so its three observable effects —
        # the master's first finding, healthy impairment, and
        # exfiltration accrual — are reproduced from the shared healthy
        # trajectory (the first two) and tick arithmetic (the third).
        # Once sabotage starts, ``_resume_ticking`` restores the exact
        # legacy state at the last elided tick and hands control back to
        # ``on_tick``.

        def _healthy_tick_effects(ev) -> None:
            """Replay every elided effect of the tick firing at ``ev.time``.

            One idempotent dispatcher backs all scheduled milestone /
            exfiltration-check events, because the legacy ``on_tick``
            body does *not* stop mid-tick when detection evicts the
            attacker: an eviction (which sets ``done``) is still
            followed, within the same tick, by the impairment and
            exfiltration success checks.  Processing the whole tick from
            whichever coinciding event fires first — in the legacy
            sub-order detect → impair → exfiltrate, with ``done``
            guarding only the tick *entry* — reproduces that exactly.
            """
            if elided["suspended"] or state["done"]:
                return
            now = ev.time
            k = traj.ticks_at_or_before(now)
            if elided["effects_tick"] == k:
                return  # a coinciding event already replayed this tick
            elided["effects_tick"] = k
            finding = traj.first_finding
            if finding is not None and finding[0] == k:
                detect(now, finding[1])
            if (
                self.threat.goal == "impair"
                and traj.first_impairment == k
            ):
                stages.reach(
                    AttackStage.DEVICE_IMPAIRMENT, now, "physical_process"
                )
                succeed(now, "device_impairment")
            if self.threat.goal == "exfiltrate":
                _exfil_catch_up(now)
                if (
                    float(elided["exfil_amount"])
                    >= self.threat.exfiltration_target
                ):
                    succeed(now, "exfiltration_complete")

        def _advance_milestones(ev=None) -> None:
            """Scan the next trajectory chunk; schedule found milestones.

            Re-scheduled at the scan frontier while a milestone is still
            unresolved, so replications that end early never pay for a
            full-horizon scan.
            """
            if state["done"] or elided["suspended"]:
                return
            need_impair = self.threat.goal == "impair"
            traj.scan_to(int(elided["frontier"]) + _MILESTONE_SCAN_CHUNK)
            elided["frontier"] = traj.scanned
            if not elided["detect_scheduled"] and traj.first_finding:
                elided["detect_scheduled"] = True
                engine.schedule(
                    traj.tick_time(traj.first_finding[0]),
                    _healthy_tick_effects,
                )
            if (
                need_impair
                and not elided["impair_scheduled"]
                and traj.first_impairment is not None
            ):
                elided["impair_scheduled"] = True
                engine.schedule(
                    traj.tick_time(traj.first_impairment),
                    _healthy_tick_effects,
                )
            unresolved = (
                not elided["detect_scheduled"]
                or (need_impair and not elided["impair_scheduled"])
            ) and not traj.scan_exhausted
            if unresolved:
                engine.schedule(
                    traj.tick_time(int(elided["frontier"])),
                    _advance_milestones,
                )

        def _exfil_catch_up(now: float) -> None:
            """Accrue the elided ticks at or before ``now`` with the
            current reachable-host count (exactly one addition per tick,
            in tick order, matching the legacy loop's float stream)."""
            idx = int(elided["exfil_idx"])
            n = int(elided["exfil_n"])
            while True:
                t_next = traj.tick_time(idx + 1)
                if t_next is None or t_next > now:
                    break
                idx += 1
                if n > 0:
                    elided["exfil_amount"] = float(elided["exfil_amount"]) + (
                        self.threat.exfiltration_rate * cfg.tick_interval * n
                    )
            elided["exfil_idx"] = idx

        def _exfil_update(now: float) -> None:
            """Re-predict the exfiltration-complete tick after ``rooted``
            changed; keeps exactly one pending check event at the tick
            where the legacy loop would declare success."""
            _exfil_catch_up(now)
            elided["exfil_n"] = len(_reachable_data())
            pending = elided["exfil_event"]
            if pending is not None:
                engine.cancel(pending)
                elided["exfil_event"] = None
            n = int(elided["exfil_n"])
            if n <= 0:
                return
            amount = float(elided["exfil_amount"])
            k = int(elided["exfil_idx"])
            while True:
                t_next = traj.tick_time(k + 1)
                if t_next is None:
                    return  # never crosses the target before the horizon
                k += 1
                amount += (
                    self.threat.exfiltration_rate * cfg.tick_interval * n
                )
                if amount >= self.threat.exfiltration_target:
                    elided["exfil_event"] = engine.schedule(
                        t_next, _healthy_tick_effects
                    )
                    return

        def _resume_ticking(now: float) -> None:
            """Hand control back to the legacy per-tick loop at sabotage.

            Restores plant, registers, damage, spoofer and the master's
            spoof-detector window to their exact states after the last
            elided tick ``j <= now``, then schedules tick ``j + 1`` —
            from there on the resumed loop is byte-for-byte the legacy
            one (including its per-tick spoofed-signal rng draws).
            """
            nonlocal plant
            elided["suspended"] = True
            j = traj.ticks_at_or_before(now)
            elided["resume_tick"] = j
            plant = traj.plant_at(j)
            registers.clear()
            registers.update(traj.registers_at(j))
            # repro: allow[RACE002] engine callbacks run single-threaded inside one work unit's event loop
            damage.damage = traj.damage_at(j)
            healthy_readings = traj.readings_through(j)
            if spoofer is not None:
                for value in healthy_readings:
                    spoofer.record(value)
            detector = master.detectors.get(monitored)
            if detector is not None:
                detector.preload(healthy_readings[-detector.window:])
            t_next = traj.tick_time(j + 1)
            if t_next is not None:
                engine.schedule(t_next, lambda ev: on_tick(ev.time))

        # --------------------------- kick-off ---------------------------

        for entry, p in tables.entry:
            schedule_detection_noise(0.0, self.threat.entry_rate, p, entry)
            rate = self.threat.entry_rate * p
            if rate > 0:
                t = rng.exponential(1.0 / rate)
                if t <= cfg.horizon:
                    engine.schedule(
                        t,
                        lambda ev, h=entry: on_compromise(
                            ev.time, h, "entry"
                        ),
                    )
        if elide:
            _advance_milestones()
        else:
            engine.schedule(cfg.tick_interval, lambda ev: on_tick(ev.time))
        with _span("campaign.replication"):
            engine.run(horizon=cfg.horizon)

        # Telemetry accounting happens after the event loop has fully
        # settled and touches no RNG or simulation state, so enabling it
        # can never perturb the outcome.
        telemetry = _current_telemetry()
        if telemetry is not None:
            metrics = telemetry.metrics
            metrics.inc("campaign.replications")
            metrics.inc("campaign.ticks_executed", state.get("ticks", 0))
            if elide:
                if elided["suspended"]:
                    metrics.inc("campaign.sabotage_resumes")
                    metrics.inc(
                        "campaign.ticks_elided", int(elided["resume_tick"])
                    )
                else:
                    metrics.inc(
                        "campaign.ticks_elided",
                        traj.ticks_at_or_before(
                            min(engine.now, cfg.horizon)
                        ),
                    )

        return AttackOutcome(
            success=not math.isnan(state["success_time"]),
            success_time=state["success_time"],
            detection_time=state["detection_time"],
            compromise_times=compromise_times,
            root_times=root_times,
            sabotage_start=state["sabotage_start"],
            stage_times={
                r.stage: r.time for r in stages.records()
            },
            horizon=cfg.horizon,
            n_hosts=n_hosts,
            trace=trace,
            evicted=bool(state["evicted"]),
        )

    def run_batch(
        self,
        replications: int,
        rng: "SeedLike" = None,
        runner: Optional["ExperimentRunner"] = None,
        on_result: Optional[Callable[[int], None]] = None,
        cancel: Optional[object] = None,
    ) -> List[AttackOutcome]:
        """Independent replications.

        Two execution modes:

        * **Shared-generator (legacy)** — when ``rng`` is a
          :class:`numpy.random.Generator` and no ``runner`` is given,
          replications draw sequentially from that one generator,
          preserving the library's historical streams.
        * **Runner** — when a ``runner`` is given (or ``rng`` is a seed
          / ``SeedSequence`` / ``None``), each replication gets its own
          generator spawned centrally from the root seed, so results
          are identical across the ``serial``, ``thread`` and
          ``process`` backends and any worker count.  A ``Generator``
          passed together with a runner contributes one draw to derive
          the root seed.

        Both modes run through :func:`repro.exec.replicate`.
        ``on_result(replication_index)`` (optional) reports partial
        progress; ``cancel`` (optional, ``is_set()`` protocol) aborts
        the batch with
        :class:`~repro.exec.backends.ExecutionCancelled`.  Neither
        affects outcomes.

        Raises:
            TypeError: If ``replications`` is not an integer.
            ValueError: If ``replications < 1``.
        """
        from repro.exec import replicate

        hook = None
        if on_result is not None:
            hook = lambda index, _outcome: on_result(index)
        return replicate(
            self.run, replications, rng, runner, on_result=hook, cancel=cancel
        )

    def run_batch_table(
        self,
        replications: int,
        rng: "SeedLike" = None,
        runner: Optional["ExperimentRunner"] = None,
        on_result: Optional[Callable[[int], None]] = None,
        cancel: Optional[object] = None,
        max_records_in_ram: Optional[int] = None,
        aggregators: Tuple[object, ...] = (),
        batch_size: Optional[int] = None,
    ):
        """Independent replications as a columnar response table.

        Same seeding/execution modes as :meth:`run_batch`, but each
        replication reduces to its ``(success, tta, ttsf, final_ratio)``
        response row worker-side — the ``process`` backend ships four
        floats per replication instead of pickling full
        :class:`AttackOutcome` objects (traces included) — and the batch
        comes back as a :class:`repro.results.RecordTable`.

        ``max_records_in_ram`` switches the batch to **streaming** mode:
        rows flow through a
        :class:`~repro.results.streaming.StreamingTableBuilder` that
        spills fixed-size chunks to ``.npz`` shards, the runner runs
        with ``collect=False`` (no per-unit state at the coordinator),
        and the result is a lazy
        :class:`~repro.results.streaming.ShardedRecordTable`.  Rows are
        identical to the default mode for the same seed — only where
        they live differs.

        ``aggregators`` are objects with an ``observe_columns(columns)``
        method, such as :class:`~repro.results.streaming
        .StreamingSummary`.  They see every response row in submission
        order, as whole column chunks: once over the table in the
        default mode, once per buffered chunk (up to
        ``min(max_records_in_ram, 4096)`` rows) in streaming mode — so
        running summaries/CIs come out of a campaign without touching
        the table at all.

        ``batch_size`` switches replications to the **mega-batch**
        lowering: lanes advance ``batch_size`` at a time through
        :class:`repro.attacks.batched.CampaignBatchEngine`, each batch
        unit seeded exactly like :meth:`ExperimentRunner
        .run_batched_replications` (``batch_size=1`` is therefore
        bit-identical to the runner-mode scalar path; larger batches on
        the vectorized path are distribution-identical).  Batching
        always uses runner-mode seeding — a ``Generator`` passed as
        ``rng`` contributes one draw to derive the root seed — and
        composes with streaming and aggregators; progress hooks observe
        one *unit* (one batch) per call.

        Returns:
            A :class:`repro.results.RecordTable` with the library's
            response columns, one row per replication in order (a
            ``ShardedRecordTable`` in streaming mode).

        Raises:
            TypeError: If ``replications`` or ``batch_size`` is not an
                integer, or an aggregator has no ``observe_columns``
                (raised before any replication runs).
            ValueError: If either count is ``< 1``.
        """
        from repro.exec import replicate
        from repro.results import RESPONSE_COLUMNS, RecordTable
        from repro.results.streaming import StreamingTableBuilder

        for aggregator in aggregators:
            if not callable(getattr(aggregator, "observe_columns", None)):
                raise TypeError(
                    "aggregators must have an observe_columns(columns) "
                    f"method, got {type(aggregator).__name__}"
                )
        if batch_size is None:
            unit, common_args = _response_row_unit, (self,)
        else:
            from repro.attacks.batched import (
                CampaignBatchEngine,
                simulate_batch_rows,
            )

            unit = simulate_batch_rows
            common_args = (CampaignBatchEngine(self),)
        # Every unit yields an (n, 4) row block; streaming folds the
        # buffered blocks into the sink once they reach ``flush_at`` rows.
        builder = None
        flush_at = 0
        if max_records_in_ram is not None:
            builder = StreamingTableBuilder(
                max_records_in_ram=max_records_in_ram
            )
            flush_at = min(max_records_in_ram, 4096)
        blocks: List[np.ndarray] = []
        buffered = 0

        def flush() -> Dict[str, np.ndarray]:
            nonlocal buffered
            data = np.concatenate(blocks, axis=0)
            blocks.clear()
            buffered = 0
            columns = {
                name: data[:, i] for i, name in enumerate(RESPONSE_COLUMNS)
            }
            for aggregator in aggregators:
                aggregator.observe_columns(columns)
            if builder is not None:
                builder.append_rows(columns)
            return columns

        def take(index: int, block: np.ndarray) -> None:
            nonlocal buffered
            blocks.append(block)
            buffered += len(block)
            if on_result is not None:
                on_result(index)
            if builder is not None and buffered >= flush_at:
                flush()

        replicate(
            unit,
            replications,
            rng,
            runner,
            common_args=common_args,
            batch_size=batch_size,
            on_result=take,
            cancel=cancel,
            collect=False,
        )
        if builder is None:
            return RecordTable(flush())
        if blocks:
            flush()
        return builder.build()
