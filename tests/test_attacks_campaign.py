"""Tests for the attack-campaign simulator."""

import math

import numpy as np
import pytest

from repro.attacks.campaign import AttackCampaign, CampaignConfig
from repro.attacks.profiles import duqu_like, flame_like, stuxnet_like
from repro.attacks.stages import AttackStage
from repro.scada.components import ComponentKind
from repro.scada.topologies import scope_cooling_topology

FAST = CampaignConfig(horizon=150.0, tick_interval=0.5)


@pytest.fixture
def baseline_outcomes(catalog):
    network = scope_cooling_topology()
    campaign = AttackCampaign(network, catalog, stuxnet_like(), FAST)
    return campaign.run_batch(40, np.random.default_rng(1))


class TestOutcomeStructure:
    def test_success_time_nan_iff_unsuccessful(self, baseline_outcomes):
        for outcome in baseline_outcomes:
            assert outcome.success == (outcome.success_time == outcome.success_time)

    def test_stage_times_respect_causal_order(self, baseline_outcomes):
        # INITIAL precedes ACTIVATED precedes ROOT_ACCESS/PROPAGATION;
        # DEVICE_IMPAIRMENT comes last.  (ROOT_ACCESS and PROPAGATION are
        # mutually unordered: a worm may spread before escalating.)
        for outcome in baseline_outcomes:
            st = outcome.stage_times
            if AttackStage.ACTIVATED in st:
                assert st[AttackStage.INITIAL] <= st[AttackStage.ACTIVATED]
            for stage in (AttackStage.ROOT_ACCESS, AttackStage.PROPAGATION):
                if stage in st:
                    assert st[AttackStage.ACTIVATED] <= st[stage]
            if AttackStage.DEVICE_IMPAIRMENT in st:
                assert st[AttackStage.DEVICE_IMPAIRMENT] == max(st.values())

    def test_compromise_before_root(self, baseline_outcomes):
        for outcome in baseline_outcomes:
            for host, t_root in outcome.root_times.items():
                assert outcome.compromise_times[host] <= t_root

    def test_sabotage_requires_root_somewhere(self, baseline_outcomes):
        for outcome in baseline_outcomes:
            if not math.isnan(outcome.sabotage_start):
                assert outcome.root_times
                assert min(outcome.root_times.values()) <= outcome.sabotage_start

    def test_compromised_ratio_monotone(self, baseline_outcomes):
        for outcome in baseline_outcomes[:10]:
            grid = np.linspace(0, outcome.horizon, 20)
            ratios = [outcome.compromised_ratio_at(t) for t in grid]
            assert all(b >= a - 1e-12 for a, b in zip(ratios, ratios[1:]))
            assert all(0.0 <= r <= 1.0 for r in ratios)

    def test_impairment_stage_iff_success(self, baseline_outcomes):
        for outcome in baseline_outcomes:
            has_stage = AttackStage.DEVICE_IMPAIRMENT in outcome.stage_times
            assert has_stage == outcome.success

    def test_trace_contains_compromises(self, baseline_outcomes):
        successful = [o for o in baseline_outcomes if o.success]
        assert successful
        for outcome in successful[:5]:
            assert outcome.trace.of_kind("compromise")


class TestDiversityEffects:
    def test_hardened_system_slows_attack(self, catalog):
        rng = np.random.default_rng(3)
        soft = AttackCampaign(
            scope_cooling_topology(), catalog, stuxnet_like(), FAST
        ).run_batch(40, rng)
        hard = AttackCampaign(
            scope_cooling_topology(
                default_os="linux_hardened",
                default_firmware="firmware_signed",
                default_stack="modbus_variant_b",
            ),
            catalog,
            stuxnet_like(),
            FAST,
        ).run_batch(40, rng)
        soft_times = [o.success_time for o in soft if o.success]
        hard_times = [o.success_time for o in hard if o.success]
        psa_soft = len(soft_times) / len(soft)
        psa_hard = len(hard_times) / len(hard)
        assert psa_hard <= psa_soft
        if soft_times and hard_times:
            assert np.mean(hard_times) > np.mean(soft_times)

    def test_resilient_hosts_reduce_success(self, catalog):
        # Success probability must be compared within an operational
        # window: with unbounded retries any system falls eventually.
        short = CampaignConfig(horizon=30.0, tick_interval=0.5)
        rng = np.random.default_rng(4)
        plain = scope_cooling_topology()
        hardened = scope_cooling_topology()
        hardened.host("eng_ws").resilient = True
        for name in ("plc_0", "plc_1"):
            hardened.host(name).resilient = True
        psa_plain = sum(
            o.success
            for o in AttackCampaign(
                plain, catalog, stuxnet_like(), short
            ).run_batch(40, rng)
        )
        psa_hard = sum(
            o.success
            for o in AttackCampaign(
                hardened, catalog, stuxnet_like(), short
            ).run_batch(40, rng)
        )
        assert psa_hard < psa_plain

    def test_authenticated_sensors_speed_detection(self, catalog):
        rng = np.random.default_rng(5)

        def build(sensor_variant):
            net = scope_cooling_topology()
            for host in net.hosts:
                if host.variant_of(ComponentKind.SENSOR_MODEL) is not None:
                    host.install(ComponentKind.SENSOR_MODEL, sensor_variant)
            return net

        basic = AttackCampaign(
            build("sensor_basic"), catalog, stuxnet_like(), FAST
        ).run_batch(50, rng)
        authed = AttackCampaign(
            build("sensor_authenticated"), catalog, stuxnet_like(), FAST
        ).run_batch(50, rng)

        def detected_fraction(outcomes):
            return np.mean(
                [not math.isnan(o.detection_time) for o in outcomes]
            )

        # Authenticated sensors make spoofing fail, so alarms fire:
        # detection should not get worse.
        assert detected_fraction(authed) >= detected_fraction(basic) - 0.1


class TestGoals:
    def test_duqu_success_without_sabotage(self, catalog):
        rng = np.random.default_rng(6)
        outcomes = AttackCampaign(
            scope_cooling_topology(), catalog, duqu_like(), FAST
        ).run_batch(25, rng)
        successful = [o for o in outcomes if o.success]
        assert successful
        for outcome in successful:
            assert math.isnan(outcome.sabotage_start)

    def test_flame_requires_fractional_compromise(self, catalog):
        rng = np.random.default_rng(7)
        threat = flame_like()
        outcomes = AttackCampaign(
            scope_cooling_topology(), catalog, threat, FAST
        ).run_batch(25, rng)
        for outcome in outcomes:
            if outcome.success:
                ratio = outcome.compromised_ratio_at(outcome.success_time)
                assert ratio >= threat.recon_fraction - 1e-9

    def test_response_enabled_stops_attack_at_detection(self, catalog):
        rng = np.random.default_rng(8)
        config = CampaignConfig(
            horizon=150.0, tick_interval=0.5, response_enabled=True
        )
        outcomes = AttackCampaign(
            scope_cooling_topology(), catalog, stuxnet_like(), config
        ).run_batch(30, rng)
        for outcome in outcomes:
            if not math.isnan(outcome.detection_time) and outcome.success:
                # Success can only precede detection under response.
                assert outcome.success_time <= outcome.detection_time


class TestBatch:
    def test_batch_reproducible_with_same_seed(self, catalog):
        def run(seed):
            return AttackCampaign(
                scope_cooling_topology(), catalog, stuxnet_like(), FAST
            ).run_batch(10, np.random.default_rng(seed))

        a = [(o.success, o.success_time) for o in run(9)]
        b = [(o.success, o.success_time) for o in run(9)]
        assert a == b

    def test_zero_replications_rejected(self, catalog, network, threat):
        campaign = AttackCampaign(network, catalog, threat, FAST)
        with pytest.raises(ValueError):
            campaign.run_batch(0, np.random.default_rng(1))


class TestConfigValidation:
    """An invalid tick grid used to loop forever in ``run`` (a zero,
    negative or NaN interval never reaches the horizon) or to run
    silently (a negative horizon)."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("tick_interval", 0.0),
            ("tick_interval", -0.5),
            ("tick_interval", math.nan),
            ("tick_interval", math.inf),
            ("horizon", 0.0),
            ("horizon", -1.0),
            ("horizon", math.nan),
            ("horizon", math.inf),
        ],
    )
    def test_invalid_grid_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            CampaignConfig(**{field: value})

    def test_replace_revalidates(self):
        from dataclasses import replace

        with pytest.raises(ValueError, match="tick_interval"):
            replace(FAST, tick_interval=float("nan"))
