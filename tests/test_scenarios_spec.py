"""Scenario spec: validation, serialization round-trip, builders."""

import dataclasses

import numpy as np
import pytest

from repro.attacks.campaign import CampaignConfig
from repro.attacks.profiles import ThreatProfile
from repro.core.study import DiversityStudy
from repro.scada.components import ComponentKind
from repro.scada.network import SCADANetwork
from repro.scada.plant.feeder import PowerFeeder
from repro.scenarios import Scenario, get_scenario


def make_scenario(**overrides):
    base = dict(
        name="unit_test",
        kinds=("operating_system", "plc_firmware"),
        replications=2,
        horizon=10.0,
    )
    base.update(overrides)
    return Scenario(**base)


class TestValidation:
    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="name"):
            make_scenario(name="")

    def test_unknown_design_kind(self):
        with pytest.raises(ValueError, match="design_kind"):
            make_scenario(design_kind="taguchi")

    @pytest.mark.parametrize(
        "field,value",
        [
            ("replications", 0),
            ("horizon", 0.0),
            ("horizon", -5.0),
            ("horizon", float("nan")),
            ("horizon", float("inf")),
            ("tick_interval", 0.0),
            ("tick_interval", float("nan")),
            ("tick_interval", float("inf")),
        ],
    )
    def test_non_positive_knobs_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            make_scenario(**{field: value})

    @pytest.mark.parametrize(
        "field,value",
        [
            ("topology", "ring_of_fire"),
            ("threat", "mirai_like"),
            ("catalog", "exotic"),
            ("plant", "reactor"),
        ],
    )
    def test_unknown_registry_names_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"unknown {field}"):
            make_scenario(**{field: value})

    def test_unknown_registry_error_names_choices(self):
        with pytest.raises(ValueError, match="scope_cooling"):
            make_scenario(topology="nope")

    def test_bad_component_kind_rejected(self):
        with pytest.raises(ValueError):
            make_scenario(kinds=("operating_system", "flux_capacitor"))

    def test_enum_kinds_normalized_to_values(self):
        scenario = make_scenario(
            kinds=(ComponentKind.OPERATING_SYSTEM, "plc_firmware")
        )
        assert scenario.kinds == ("operating_system", "plc_firmware")
        # The normalised spec still JSON-round-trips.
        assert Scenario.from_json(scenario.to_json()) == scenario

    def test_bare_string_kinds_rejected(self):
        with pytest.raises(ValueError, match="bare string"):
            make_scenario(kinds="operating_system")

    def test_bare_string_tags_rejected(self):
        with pytest.raises(ValueError, match="bare string"):
            make_scenario(tags="smoke")


class TestSerialization:
    def test_dict_round_trip_is_equal(self):
        scenario = make_scenario(
            topology_params={"n_plcs": 3},
            threat_params={"entry_rate": 0.2},
            tags=("a", "b"),
        )
        assert Scenario.from_dict(scenario.to_dict()) == scenario

    def test_json_round_trip_is_equal(self):
        for scenario in (make_scenario(), get_scenario("smart_grid_duqu")):
            assert Scenario.from_json(scenario.to_json()) == scenario

    def test_from_dict_rejects_unknown_keys(self):
        data = make_scenario().to_dict()
        data["fancyness"] = 11
        with pytest.raises(ValueError, match="fancyness"):
            Scenario.from_dict(data)

    def test_from_dict_validates_values(self):
        data = make_scenario().to_dict()
        data["design_kind"] = "bogus"
        with pytest.raises(ValueError, match="design_kind"):
            Scenario.from_dict(data)

    def test_kinds_none_round_trips(self):
        scenario = make_scenario(kinds=None)
        rebuilt = Scenario.from_dict(scenario.to_dict())
        assert rebuilt.kinds is None
        assert rebuilt == scenario

    def test_round_trip_same_study_artifacts_for_fixed_seed(self):
        original = get_scenario("smoke")
        rebuilt = Scenario.from_json(original.to_json())
        results = []
        for scenario in (original, rebuilt):
            study = DiversityStudy.from_scenario(scenario)
            results.append(study.execute(np.random.default_rng(123)))
        a, b = results
        assert a.measurement.records == b.measurement.records
        assert [f.name for f in a.factors] == [f.name for f in b.factors]
        assert a.design.name == b.design.name


class TestBuilders:
    def test_network_factory_applies_topology_params(self):
        scenario = make_scenario(topology_params={"n_plcs": 4})
        network = scenario.build_network()
        assert isinstance(network, SCADANetwork)
        plcs = [h for h in network.hosts if h.name.startswith("plc_")]
        assert len(plcs) == 4

    def test_threat_params_applied(self):
        scenario = make_scenario(threat_params={"entry_rate": 0.42})
        threat = scenario.build_threat()
        assert isinstance(threat, ThreatProfile)
        assert threat.entry_rate == 0.42

    def test_campaign_config_carries_plant_and_knobs(self):
        scenario = make_scenario(
            topology="smart_grid_feeder", plant="feeder", horizon=33.0
        )
        config = scenario.build_campaign_config()
        assert isinstance(config, CampaignConfig)
        assert config.horizon == 33.0
        assert isinstance(config.plant_factory(), PowerFeeder)

    def test_component_kinds_members(self):
        scenario = make_scenario()
        assert scenario.component_kinds() == [
            ComponentKind.OPERATING_SYSTEM,
            ComponentKind.PLC_FIRMWARE,
        ]
        assert make_scenario(kinds=None).component_kinds() is None

    def test_describe_and_summary_render(self):
        scenario = get_scenario("cooling_stuxnet")
        assert scenario.name in scenario.describe()
        assert "stuxnet_like" in scenario.summary_line()


class TestFromScenario:
    def test_study_mirrors_spec(self):
        scenario = get_scenario("cooling_screening_pb")
        study = DiversityStudy.from_scenario(scenario)
        assert study.design_kind == "pb"
        assert study.replications == scenario.replications
        assert study.campaign_config.horizon == scenario.horizon
        assert study.kinds == scenario.component_kinds()

    def test_execution_overrides_not_in_spec(self):
        scenario = get_scenario("smoke")
        study = DiversityStudy.from_scenario(
            scenario, backend="thread", n_workers=2
        )
        assert study.backend == "thread"
        assert study.n_workers == 2

    def test_scenario_is_immutable(self):
        scenario = get_scenario("smoke")
        with pytest.raises(dataclasses.FrozenInstanceError):
            scenario.replications = 99
