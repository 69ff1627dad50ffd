"""Vectorized mega-batch lowering of the attack campaign.

:class:`CampaignBatchEngine` advances *B* campaign replications per
vectorized step instead of one: the per-host probability tables that
:meth:`~repro.attacks.campaign.AttackCampaign._compile_tables` already
precomputes are applied as array operations across the whole batch —
entry/propagation/escalation become block-drawn exponential races over a
``(B, n_nodes)`` compromise-time matrix, detection candidates reduce to
one column-min, and the exfiltration accrual / predicted-crossing check
runs in closed form against the campaign's single shared healthy tick
trajectory.

Determinism contract (mirrors :mod:`repro.san.batched`):

* ``batch_size=1`` lanes run the scalar :meth:`AttackCampaign.run` on
  the unit's own spawned generator, so single-lane batches are
  **bit-identical** to the scalar path for the same root seed.
* ``batch_size>1`` lanes on the vectorized path are
  **distribution-identical** to the scalar engine: every used random
  variable has the same law and independence structure (exponential
  attempt races, geometric beacon detection, censored response delays),
  but block draws reorder the stream and the closed-form exfiltration
  crossing accumulates floats differently, so individual rows differ.
* Campaigns the lowering cannot vectorize fall back to per-lane scalar
  :meth:`AttackCampaign.run` calls inside the batch unit.  The
  ``"impair"`` goal always takes this fallback: sabotage couples each
  lane to the physical plant, so post-sabotage dynamics stay bit-exact
  by running each lane's scalar resume path unchanged.

Why the vectorized resolution is sound
--------------------------------------

The scalar event loop draws an exponential attempt timer only when its
triggering event fires (entry at ``t=0``, lateral movement at the
source's activation, escalation at activation, ...).  Because
exponential races are memoryless and every timer is independent, the
first-compromise times solve a shortest-path problem over *per-edge*
draws: ``comp[tgt] = min(entry[tgt], min over edges (act[src] +
Exp(1/(rate·p))))``.  Drawing every edge unconditionally and relaxing to
the fixpoint (a Bellman–Ford sweep over the batch) yields the same joint
law — unused draws are independent of used ones, and a draw whose source
never activates is censored to infinity by the horizon cut, exactly like
the scalar path's "never scheduled" case.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.attacks.campaign import AttackCampaign, AttackOutcome
from repro.scada.components import HostRole
from repro.sim.trace import TraceRecorder
from repro.telemetry.core import current as _current_telemetry

__all__ = ["CampaignBatchEngine", "simulate_batch_rows"]

#: Trajectory ticks scanned per chunk while resolving the healthy
#: master's first finding (cheap: exfil/recon trajectories record no
#: snapshots).
_FINDING_SCAN_CHUNK = 256


class _CampaignArrays:
    """The campaign's probability tables lowered to flat arrays.

    One instance is shared by every batch unit of a campaign; all
    members are plain arrays/floats, so the engine pickles to the
    ``process`` backend.
    """

    __slots__ = (
        "nodes", "n_nodes", "n_hosts",
        "entry_idx", "entry_scale",
        "entry_noise_scale",
        "act_scale",
        "root_idx", "root_scale",
        "esc_noise_idx", "esc_noise_scale",
        "edge_src", "edge_tgt", "edge_scale",
        "edge_noise_src", "edge_noise_tgt", "edge_noise_scale",
        "c2_p", "c2_interval",
        "recon_k",
        "eligible_idx", "exfil_cost",
        "response_enabled", "response_delay_rate",
    )


def _lower_campaign(campaign: AttackCampaign) -> _CampaignArrays:
    """Flatten the compiled probability tables into batch arrays.

    Raises:
        ValueError: If the campaign shape cannot be vectorized (no
            entry candidates with positive rate, non-positive activation
            rate, ...) — callers catch and fall back to scalar lanes.
    """
    tables = campaign._compile_tables()
    threat = campaign.threat
    network = campaign.network
    if threat.goal not in ("recon", "exfiltrate"):
        raise ValueError(f"goal {threat.goal!r} is not vectorizable")
    if threat.activation_delay_rate <= 0:
        raise ValueError("activation_delay_rate must be positive")

    # Node universe: the propagation closure from the entry candidates,
    # with the same probability fallbacks the scalar loop applies to
    # hosts outside the precompiled (computer-only) tables.
    plans_cache: Dict[str, List[Tuple[str, str, float, float]]] = {}

    def plans_for(host: str) -> List[Tuple[str, str, float, float]]:
        plans = plans_cache.get(host)
        if plans is None:
            plans = tables.propagation.get(host)
            if plans is None:
                plans = campaign._propagation_plans(host)
            plans_cache[host] = plans
        return plans

    arrays = _CampaignArrays()
    nodes: List[str] = []
    index: Dict[str, int] = {}
    queue = [host for host, _ in tables.entry]
    while queue:
        host = queue.pop(0)
        if host in index:
            continue
        index[host] = len(nodes)
        nodes.append(host)
        queue.extend(target for _, target, _, _ in plans_for(host))
    if not nodes:
        raise ValueError("no entry candidates")
    arrays.nodes = nodes
    arrays.n_nodes = len(nodes)
    arrays.n_hosts = sum(1 for h in network.hosts if h.is_computer)

    def detect_p(host: str) -> float:
        p = tables.detection_noise.get(host)
        return campaign._detection_noise(host) if p is None else p

    def escalation_p(host: str) -> float:
        p = tables.escalation.get(host)
        return campaign._escalation_probability(host) if p is None else p

    # Entry attempts and their failed-attempt noise, both at t=0.
    entry_idx: List[int] = []
    entry_scale: List[float] = []
    entry_noise_scale: List[float] = []
    for host, p in tables.entry:
        eff = threat.entry_rate * p
        if eff > 0:
            entry_idx.append(index[host])
            entry_scale.append(1.0 / eff)
        noisy = threat.entry_rate * (1.0 - p) * detect_p(host)
        if noisy > 0:
            entry_noise_scale.append(1.0 / noisy)
    arrays.entry_idx = np.asarray(entry_idx, dtype=np.intp)
    arrays.entry_scale = np.asarray(entry_scale)
    arrays.entry_noise_scale = np.asarray(entry_noise_scale)
    arrays.act_scale = 1.0 / threat.activation_delay_rate

    # Privilege escalation (root) and its noise, per node, from the
    # node's activation time.
    root_idx: List[int] = []
    root_scale: List[float] = []
    esc_noise_idx: List[int] = []
    esc_noise_scale: List[float] = []
    for i, host in enumerate(nodes):
        p_root = escalation_p(host)
        rate = threat.escalation_rate * p_root
        if rate > 0:
            root_idx.append(i)
            root_scale.append(1.0 / rate)
        noisy = threat.escalation_rate * (1.0 - p_root) * detect_p(host)
        if noisy > 0:
            esc_noise_idx.append(i)
            esc_noise_scale.append(1.0 / noisy)
    arrays.root_idx = np.asarray(root_idx, dtype=np.intp)
    arrays.root_scale = np.asarray(root_scale)
    arrays.esc_noise_idx = np.asarray(esc_noise_idx, dtype=np.intp)
    arrays.esc_noise_scale = np.asarray(esc_noise_scale)

    # Lateral-movement edges (one draw per (source, target, vector) key,
    # like the scalar ``scheduled_pairs`` dedup) and their noise.
    edge_src: List[int] = []
    edge_tgt: List[int] = []
    edge_scale: List[float] = []
    edge_noise_src: List[int] = []
    edge_noise_tgt: List[int] = []
    edge_noise_scale: List[float] = []
    for i, host in enumerate(nodes):
        for _vector, target, rate, p in plans_for(host):
            j = index[target]
            eff = rate * p
            if eff > 0:
                edge_src.append(i)
                edge_tgt.append(j)
                edge_scale.append(1.0 / eff)
            noisy = rate * (1.0 - p) * detect_p(target)
            if noisy > 0:
                edge_noise_src.append(i)
                edge_noise_tgt.append(j)
                edge_noise_scale.append(1.0 / noisy)
    arrays.edge_src = np.asarray(edge_src, dtype=np.intp)
    arrays.edge_tgt = np.asarray(edge_tgt, dtype=np.intp)
    arrays.edge_scale = np.asarray(edge_scale)
    arrays.edge_noise_src = np.asarray(edge_noise_src, dtype=np.intp)
    arrays.edge_noise_tgt = np.asarray(edge_noise_tgt, dtype=np.intp)
    arrays.edge_noise_scale = np.asarray(edge_noise_scale)

    # C2 beaconing: per-beacon Bernoulli(p) from the first activation is
    # a geometric beacon count.
    arrays.c2_p = 0.0
    arrays.c2_interval = 0.0
    if threat.c2 is not None:
        arrays.c2_p = threat.c2.detection_probability(
            network, campaign.catalog
        )
        arrays.c2_interval = threat.c2.beacon_interval

    # Goal thresholds.
    arrays.recon_k = 0
    arrays.eligible_idx = np.asarray([], dtype=np.intp)
    arrays.exfil_cost = math.inf
    if threat.goal == "recon":
        # Smallest compromise count satisfying the scalar check
        # ``len(compromised) >= recon_fraction * n_hosts`` (computed on
        # the same float product).
        arrays.recon_k = max(
            1, int(math.ceil(threat.recon_fraction * arrays.n_hosts))
        )
    else:
        historians = [
            h.name
            for h in network.hosts_with_role(HostRole.HISTORIAN)
        ]
        eligible = []
        for i, host in enumerate(nodes):
            role = network.host(host).role
            if role in (HostRole.HISTORIAN, HostRole.SCADA_SERVER) or any(
                network.flow_allowed(host, other, "historian")
                for other in historians
            ):
                eligible.append(i)
        arrays.eligible_idx = np.asarray(eligible, dtype=np.intp)
        per_tick = (
            threat.exfiltration_rate * campaign.config.tick_interval
        )
        arrays.exfil_cost = (
            threat.exfiltration_target / per_tick
            if per_tick > 0
            else math.inf
        )
    arrays.response_enabled = campaign.config.response_enabled
    arrays.response_delay_rate = campaign.config.response_delay_rate
    return arrays


class CampaignBatchEngine:
    """SoA batch lowering of one :class:`AttackCampaign`.

    Args:
        campaign: The campaign to batch.  Its compiled probability
            tables are flattened once into arrays shared by every batch
            unit; like the campaign itself, the engine must not be
            reused after mutating the network/catalog/threat in place.

    The engine is picklable (it ships to ``process`` backend workers
    alongside its campaign) and exposes two unit bodies:
    :meth:`run_rows` returning compact ``(success, tta, ttsf,
    final_ratio)`` response rows, and :meth:`run_outcomes` returning
    lightweight :class:`AttackOutcome` objects (compromise/root times
    and detection, no trace) for the indicator pipeline.
    """

    def __init__(self, campaign: AttackCampaign) -> None:
        self.campaign = campaign
        self.horizon = campaign.config.horizon
        self._arrays: Optional[_CampaignArrays] = None
        self.fallback_reason: Optional[str] = None
        if campaign.threat.goal == "impair":
            # Sabotage resumes the per-tick plant loop; each lane runs
            # the scalar path so post-sabotage dynamics stay bit-exact.
            self.fallback_reason = "impair goal resumes the scalar tick loop"
            return
        try:
            self._arrays = _lower_campaign(campaign)
        except Exception as exc:
            self.fallback_reason = str(exc)

    @property
    def vectorized(self) -> bool:
        """Whether batches run the vectorized resolution (vs per-lane
        scalar fallback)."""
        return self._arrays is not None

    # ------------------------------------------------------------------
    # batch bodies
    # ------------------------------------------------------------------

    def run_rows(
        self, size: int, rng: np.random.Generator
    ) -> np.ndarray:
        """Advance ``size`` lanes; return ``(size, 4)`` response rows
        ``(success, tta, ttsf, final_ratio)`` with the library's
        horizon-censoring conventions."""
        if size == 1 or self._arrays is None:
            rows = np.asarray(
                [
                    self.campaign.run(rng).response_row(self.horizon)
                    for _ in range(size)
                ],
                dtype=np.float64,
            ).reshape(size, 4)
            self._record_telemetry(size)
            return rows
        comp, act, root, detection, evict_at, goal_at = self._resolve(
            size, rng
        )
        done = np.minimum(np.minimum(goal_at, evict_at), self.horizon)
        success = np.isfinite(goal_at) & (goal_at <= evict_at)
        detected = np.isfinite(detection) & (detection <= goal_at)
        rows = np.empty((size, 4), dtype=np.float64)
        rows[:, 0] = success
        rows[:, 1] = np.where(success, goal_at, self.horizon)
        rows[:, 2] = np.where(detected, detection, self.horizon)
        rows[:, 3] = (
            (comp <= done[:, None]).sum(axis=1) / self._arrays.n_hosts
            if self._arrays.n_hosts
            else 0.0
        )
        self._record_telemetry(size)
        return rows

    def run_outcomes(
        self, size: int, rng: np.random.Generator
    ) -> List[AttackOutcome]:
        """Advance ``size`` lanes; return lightweight outcomes.

        The outcomes carry everything the indicator pipeline consumes —
        success/``success_time``, ``detection_time``,
        ``compromise_times``/``root_times``, horizon, host count — with
        an empty trace and no stage timeline (the vectorized resolution
        does not materialize per-event traces).  Scalar-fallback lanes
        return full scalar outcomes.
        """
        if size == 1 or self._arrays is None:
            outcomes = [self.campaign.run(rng) for _ in range(size)]
            self._record_telemetry(size)
            return outcomes
        comp, act, root, detection, evict_at, goal_at = self._resolve(
            size, rng
        )
        done = np.minimum(np.minimum(goal_at, evict_at), self.horizon)
        success = np.isfinite(goal_at) & (goal_at <= evict_at)
        detected = np.isfinite(detection) & (detection <= goal_at)
        evicted = np.isfinite(evict_at) & (evict_at < goal_at)
        nodes = self._arrays.nodes
        outcomes: List[AttackOutcome] = []
        for lane in range(size):
            cutoff = done[lane]
            compromise_times = {
                nodes[i]: float(t)
                for i, t in enumerate(comp[lane])
                if t <= cutoff
            }
            root_times = {
                nodes[i]: float(t)
                for i, t in enumerate(root[lane])
                if t <= cutoff
            }
            outcomes.append(
                AttackOutcome(
                    success=bool(success[lane]),
                    success_time=(
                        float(goal_at[lane])
                        if success[lane]
                        else float("nan")
                    ),
                    detection_time=(
                        float(detection[lane])
                        if detected[lane]
                        else float("nan")
                    ),
                    compromise_times=compromise_times,
                    root_times=root_times,
                    sabotage_start=float("nan"),
                    stage_times={},
                    horizon=self.horizon,
                    n_hosts=self._arrays.n_hosts,
                    trace=TraceRecorder(),
                    evicted=bool(evicted[lane]),
                )
            )
        self._record_telemetry(size)
        return outcomes

    # ------------------------------------------------------------------
    # vectorized resolution
    # ------------------------------------------------------------------

    def _resolve(
        self, size: int, rng: np.random.Generator
    ) -> Tuple[np.ndarray, ...]:
        """Resolve ``size`` lanes in closed form.

        Returns ``(comp, act, root, detection, evict_at, goal_at)`` —
        per-lane-per-node first-compromise / activation / root matrices
        (``inf`` = never before the horizon) and per-lane first
        detection, eviction and goal-achievement times.
        """
        arrays = self._arrays
        horizon = self.horizon
        n = arrays.n_nodes

        # Fixed block-draw order, so a unit's row stream is a pure
        # function of its spawned seed.
        entry = rng.standard_exponential(
            (size, arrays.entry_idx.size)
        ) * arrays.entry_scale
        entry_noise = rng.standard_exponential(
            (size, arrays.entry_noise_scale.size)
        ) * arrays.entry_noise_scale
        act_delay = rng.standard_exponential((size, n)) * arrays.act_scale
        root_delay = rng.standard_exponential(
            (size, arrays.root_idx.size)
        ) * arrays.root_scale
        esc_noise = rng.standard_exponential(
            (size, arrays.esc_noise_idx.size)
        ) * arrays.esc_noise_scale
        edge_delay = rng.standard_exponential(
            (size, arrays.edge_src.size)
        ) * arrays.edge_scale
        edge_noise = rng.standard_exponential(
            (size, arrays.edge_noise_src.size)
        ) * arrays.edge_noise_scale

        lanes = np.arange(size)[:, None]
        comp = np.full((size, n), np.inf)
        if arrays.entry_idx.size:
            entry = np.where(entry <= horizon, entry, np.inf)
            np.minimum.at(comp, (lanes, arrays.entry_idx[None, :]), entry)

        # Bellman–Ford relaxation of the compromise-time shortest paths:
        # each sweep extends the earliest attack chains by one edge, so
        # n_nodes sweeps reach the fixpoint (chains are simple paths).
        for _ in range(n):
            act = comp + act_delay
            act[act > horizon] = np.inf
            if not arrays.edge_src.size:
                break
            cand = act[:, arrays.edge_src] + edge_delay
            cand[cand > horizon] = np.inf
            before = comp.copy()
            np.minimum.at(comp, (lanes, arrays.edge_tgt[None, :]), cand)
            if not (comp < before).any():
                break
        act = comp + act_delay
        act[act > horizon] = np.inf

        root = np.full((size, n), np.inf)
        if arrays.root_idx.size:
            drawn = act[:, arrays.root_idx] + root_delay
            root[:, arrays.root_idx] = np.where(
                drawn <= horizon, drawn, np.inf
            )

        # First detection: the min over every noise/beacon candidate.
        detection = np.full(size, np.inf)
        if arrays.entry_noise_scale.size:
            noise = np.where(entry_noise <= horizon, entry_noise, np.inf)
            np.minimum(detection, noise.min(axis=1), out=detection)
        if arrays.esc_noise_idx.size:
            cand = act[:, arrays.esc_noise_idx] + esc_noise
            cand[cand > horizon] = np.inf
            np.minimum(detection, cand.min(axis=1), out=detection)
        if arrays.edge_noise_src.size:
            # The scalar loop schedules an edge's noise only when the
            # target is still uncompromised at the source's activation.
            src_act = act[:, arrays.edge_noise_src]
            cand = src_act + edge_noise
            cand[
                (cand > horizon)
                | (comp[:, arrays.edge_noise_tgt] <= src_act)
            ] = np.inf
            np.minimum(detection, cand.min(axis=1), out=detection)
        if arrays.c2_p > 0.0:
            first_act = act.min(axis=1)
            beacons = rng.geometric(arrays.c2_p, size)
            c2 = first_act + beacons * arrays.c2_interval
            c2[c2 > horizon] = np.inf
            np.minimum(detection, c2, out=detection)
        finding_time = self._healthy_finding_time()
        if finding_time is not None:
            np.minimum(detection, finding_time, out=detection)

        # Incident response: eviction delayed past the horizon never
        # fires (the scalar path schedules nothing).
        evict_at = np.full(size, np.inf)
        if arrays.response_enabled:
            if arrays.response_delay_rate is None:
                evict_at = detection.copy()
            else:
                delay = rng.standard_exponential(size) * (
                    1.0 / arrays.response_delay_rate
                )
                evict_at = detection + delay
                evict_at[evict_at > horizon] = np.inf

        if arrays.recon_k:
            goal_at = self._recon_time(comp)
        else:
            goal_at = self._exfiltration_time(root)
        return comp, act, root, detection, evict_at, goal_at

    def _recon_time(self, comp: np.ndarray) -> np.ndarray:
        """Per-lane time of the K-th compromise (``inf`` = never)."""
        k = self._arrays.recon_k
        if k > comp.shape[1]:
            return np.full(comp.shape[0], np.inf)
        return np.partition(comp, k - 1, axis=1)[:, k - 1]

    def _exfiltration_time(self, root: np.ndarray) -> np.ndarray:
        """Per-lane first tick crossing the exfiltration target.

        Mirrors the scalar predicted-crossing check in array form: a
        rooted data-reachable host starts contributing one
        ``rate × tick_interval`` unit per tick at the first tick
        *after* its root time, so within the segment where ``s`` hosts
        contribute, the accrued amount at tick ``j`` is
        ``s·(j+1) − Σ q_i`` units and the crossing tick solves a linear
        inequality per segment.
        """
        arrays = self._arrays
        size = root.shape[0]
        goal_at = np.full(size, np.inf)
        if not arrays.eligible_idx.size or not math.isfinite(
            arrays.exfil_cost
        ):
            return goal_at
        traj = self.campaign._healthy_trajectory()
        times = np.asarray(traj.times)
        n_ticks = traj.n_ticks
        if n_ticks < 1:
            return goal_at
        sentinel = n_ticks + 1
        rooted = root[:, arrays.eligible_idx]
        # First contributing tick per host: the first tick strictly
        # after the root time (the root tick itself still accrues with
        # the pre-root count, as in ``_exfil_catch_up``).
        q = np.searchsorted(times, rooted, side="right")
        q = np.where(
            np.isfinite(rooted) & (q <= n_ticks), q, sentinel
        ).astype(np.float64)
        q.sort(axis=1)
        prefix = np.cumsum(q, axis=1)
        counts = np.arange(1, q.shape[1] + 1, dtype=np.float64)
        bound = np.empty_like(q)
        bound[:, :-1] = q[:, 1:]
        bound[:, -1] = sentinel
        np.minimum(bound, sentinel, out=bound)
        # Smallest j with counts·(j+1) − prefix ≥ cost inside each
        # segment [q_s, bound_s); +1 fixes float-boundary rounding.
        j = np.ceil((arrays.exfil_cost + prefix) / counts) - 1.0
        np.maximum(j, q, out=j)
        j += counts * (j + 1.0) - prefix < arrays.exfil_cost
        valid = (q <= n_ticks) & (j < bound) & (j <= n_ticks)
        j[~valid] = sentinel
        jstar = j.min(axis=1)
        crossing = jstar <= n_ticks
        goal_at[crossing] = times[jstar[crossing].astype(np.intp)]
        return goal_at

    def _healthy_finding_time(self) -> Optional[float]:
        """The shared healthy trajectory's first master finding time.

        Scanned lazily in chunks (the trajectory is shared through the
        process-wide memo); ``None`` when the healthy plant never trips
        the master before the horizon.
        """
        traj = self.campaign._healthy_trajectory()
        while traj.first_finding is None and not traj.scan_exhausted:
            traj.scan_to(traj.scanned + _FINDING_SCAN_CHUNK)
        if traj.first_finding is None:
            return None
        return traj.tick_time(traj.first_finding[0])

    @staticmethod
    def _record_telemetry(size: int) -> None:
        telemetry = _current_telemetry()
        if telemetry is None:
            return
        metrics = telemetry.metrics
        metrics.inc("batch.batches")
        metrics.inc("batch.lanes", size)
        metrics.inc("batch.lane_retirements", size)


def simulate_batch_rows(
    engine: CampaignBatchEngine, size: int, rng: np.random.Generator
) -> np.ndarray:
    """Module-level batch unit body (picklable for ``process``
    backends): one unit advances ``size`` lanes on its own generator."""
    return engine.run_rows(size, rng)


def simulate_batch_outcomes(
    engine: CampaignBatchEngine, size: int, rng: np.random.Generator
) -> List[AttackOutcome]:
    """Module-level outcome-returning batch unit body (picklable)."""
    return engine.run_outcomes(size, rng)
