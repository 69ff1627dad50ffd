"""The declarative scenario specification.

A :class:`Scenario` names everything a
:class:`~repro.core.study.DiversityStudy` needs — topology, threat,
variant catalog, physical plant, component kinds, DoE design and
campaign knobs — as plain data.  Scenarios therefore serialize to JSON,
travel across process pools, and live in a registry instead of being
re-wired by hand in every example script.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field, fields
from functools import partial
from typing import Callable, Dict, List, Optional, Tuple

from repro.attacks.campaign import CampaignConfig
from repro.attacks.profiles import ThreatProfile
from repro.diversity.catalog import VariantCatalog
from repro.scada.components import ComponentKind
from repro.scada.network import SCADANetwork
from repro.scenarios.components import (
    resolve_catalog,
    resolve_plant,
    resolve_threat,
    resolve_topology,
)

#: DoE designs a scenario may request (mirrors ``DiversityStudy``).
DESIGN_KINDS = ("full", "fractional", "pb")


@dataclass(frozen=True)
class Scenario:
    """A self-contained, serializable experiment specification.

    Attributes:
        name: Unique scenario name (registry key).
        title: One-line human-readable headline.
        description: Longer free-text description (CLI ``show``).
        topology: Topology registry name (``scope_cooling``,
            ``smart_grid_feeder``, ...).
        threat: Threat registry name (``stuxnet_like``, ...).
        catalog: Variant-catalog registry name.
        plant: Physical-plant registry name (``cooling`` / ``feeder``).
        kinds: Component kinds to diversify
            (:class:`~repro.scada.components.ComponentKind` values);
            ``None`` means every kind with >= 2 catalog variants present
            in the network.
        design_kind: ``"full"``, ``"fractional"`` or ``"pb"``.
        two_level: Restrict factors to their two extreme variants.
        replications: Campaign replications per design run.
        horizon: Campaign horizon (hours).
        tick_interval: Plant/master polling period (hours).
        tick_elision: Campaign event-loop fast path (default on); set
            False to force the legacy per-tick loop (outcomes are
            identical — see
            :attr:`repro.attacks.campaign.CampaignConfig.tick_elision`).
        response_enabled: Incident response reacts to the first
            detection (see
            :attr:`repro.attacks.campaign.CampaignConfig.response_enabled`);
            off by default, matching the paper's open-loop TTSF
            measurement.
        response_delay_rate: With response enabled, eviction happens an
            ``Exp(rate)``-distributed delay after detection; ``None``
            means instantaneous eviction.
        topology_params: Keyword overrides for the topology factory
            (e.g. ``{"n_plcs": 4}``).
        threat_params: Keyword overrides for the threat factory
            (e.g. ``{"entry_rate": 0.3}``).
        tags: Free-form labels; suites and the CLI select by tag.
    """

    name: str
    title: str = ""
    description: str = ""
    topology: str = "scope_cooling"
    threat: str = "stuxnet_like"
    catalog: str = "default"
    plant: str = "cooling"
    kinds: Optional[Tuple[str, ...]] = None
    design_kind: str = "full"
    two_level: bool = True
    replications: int = 10
    horizon: float = 80.0
    tick_interval: float = 0.5
    tick_elision: bool = True
    response_enabled: bool = False
    response_delay_rate: Optional[float] = None
    topology_params: Dict[str, object] = field(default_factory=dict)
    threat_params: Dict[str, object] = field(default_factory=dict)
    tags: Tuple[str, ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("scenario name must be non-empty")
        if self.design_kind not in DESIGN_KINDS:
            raise ValueError(
                f"unknown design_kind {self.design_kind!r}; expected one of "
                f"{', '.join(DESIGN_KINDS)}"
            )
        if self.replications < 1:
            raise ValueError(
                f"replications must be >= 1, got {self.replications}"
            )
        # CampaignConfig owns the tick-grid rule (finite and > 0).
        CampaignConfig(horizon=self.horizon, tick_interval=self.tick_interval)
        if self.response_delay_rate is not None:
            if not self.response_enabled:
                raise ValueError(
                    "response_delay_rate requires response_enabled=True "
                    "(a delay without a response would be silently ignored)"
                )
            if self.response_delay_rate <= 0:
                raise ValueError(
                    "response_delay_rate must be > 0 (or None for "
                    f"instantaneous eviction), got {self.response_delay_rate}"
                )
        # Fail fast on unknown registry names and kind values: a bad
        # spec should not surface mid-suite as an obscure late error.
        resolve_topology(self.topology)
        resolve_threat(self.threat)
        resolve_catalog(self.catalog)
        resolve_plant(self.plant)
        if self.kinds is not None:
            if isinstance(self.kinds, str):
                raise ValueError(
                    "kinds must be a sequence of component-kind values, "
                    f"not a bare string: {self.kinds!r}"
                )
            # Accept ComponentKind members too, normalising to their
            # string values so the spec stays JSON-serializable.
            object.__setattr__(
                self,
                "kinds",
                tuple(ComponentKind(kind).value for kind in self.kinds),
            )
        if isinstance(self.tags, str):
            raise ValueError(
                f"tags must be a sequence of strings, not a bare string: "
                f"{self.tags!r}"
            )
        object.__setattr__(self, "tags", tuple(self.tags))

    # ---- builders --------------------------------------------------------

    def build_network_factory(self) -> Callable[[], SCADANetwork]:
        """The (picklable) zero-arg network factory this spec names."""
        factory = resolve_topology(self.topology)
        if self.topology_params:
            return partial(factory, **self.topology_params)
        return factory

    def build_network(self) -> SCADANetwork:
        """A fresh network instance."""
        return self.build_network_factory()()

    def build_threat(self) -> ThreatProfile:
        """The threat profile this spec names."""
        return resolve_threat(self.threat)(**self.threat_params)

    def build_catalog(self) -> VariantCatalog:
        """The variant catalog this spec names."""
        return resolve_catalog(self.catalog)()

    def build_campaign_config(self) -> CampaignConfig:
        """Campaign parameters, including the named physical plant."""
        return CampaignConfig(
            horizon=self.horizon,
            tick_interval=self.tick_interval,
            plant_factory=resolve_plant(self.plant),
            tick_elision=self.tick_elision,
            response_enabled=self.response_enabled,
            response_delay_rate=self.response_delay_rate,
        )

    def component_kinds(self) -> Optional[List[ComponentKind]]:
        """The ``kinds`` field as :class:`ComponentKind` members."""
        if self.kinds is None:
            return None
        return [ComponentKind(kind) for kind in self.kinds]

    def build_san_model(self, give_up: bool = False):
        """The stage-chain SAN of this scenario's baseline system.

        Bridges the declarative catalog to the SAN substrate: the model
        runs on :class:`repro.san.simulator.SANSimulator`'s compiled
        fast path by default and, being all-exponential, converts to an
        exact CTMC via :func:`repro.san.ctmc.san_to_ctmc`.

        Args:
            give_up: Failed stage attempts abandon the campaign instead
                of retrying (makes attack success probability < 1).

        Returns:
            A :class:`repro.san.model.SANModel`.
        """
        from repro.core.modeling import san_model_for

        return san_model_for(
            self.build_network(),
            self.build_catalog(),
            self.build_threat(),
            give_up=give_up,
        )

    # ---- serialization ---------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """Plain-data form (JSON-ready; tuples become lists)."""
        data = asdict(self)
        data["tags"] = list(self.tags)
        if self.kinds is not None:
            data["kinds"] = list(self.kinds)
        return data

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        """Rebuild a scenario from :meth:`to_dict` output.

        Raises:
            ValueError: On unknown keys or invalid field values.
        """
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(
                f"unknown scenario field(s): {', '.join(unknown)}"
            )
        prepared = dict(data)
        if prepared.get("kinds") is not None:
            prepared["kinds"] = tuple(prepared["kinds"])
        prepared["tags"] = tuple(prepared.get("tags", ()))
        return cls(**prepared)

    def to_json(self, indent: Optional[int] = 2) -> str:
        """JSON form of :meth:`to_dict`."""
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "Scenario":
        """Rebuild a scenario from :meth:`to_json` output."""
        return cls.from_dict(json.loads(text))

    # ---- presentation ----------------------------------------------------

    def summary_line(self) -> str:
        """One line for catalog listings."""
        kinds = "auto" if self.kinds is None else f"{len(self.kinds)} kinds"
        return (
            f"{self.topology} x {self.threat} | {self.design_kind} DoE, "
            f"{kinds}, {self.replications} reps, {self.horizon:g} h"
        )

    def describe(self) -> str:
        """Multi-line description for CLI ``show``."""
        lines = [
            f"scenario: {self.name}",
            f"  title:        {self.title or '--'}",
            f"  topology:     {self.topology}"
            + (f" {self.topology_params}" if self.topology_params else ""),
            f"  threat:       {self.threat}"
            + (f" {self.threat_params}" if self.threat_params else ""),
            f"  catalog:      {self.catalog}",
            f"  plant:        {self.plant}",
            f"  kinds:        "
            + ("auto" if self.kinds is None else ", ".join(self.kinds)),
            f"  design:       {self.design_kind}"
            + (" (two-level)" if self.two_level else ""),
            f"  replications: {self.replications}",
            f"  horizon:      {self.horizon:g} h "
            f"(tick {self.tick_interval:g} h"
            + ("" if self.tick_elision else ", per-tick loop")
            + ")",
            f"  response:     "
            + (
                (
                    "enabled"
                    + (
                        f" (eviction delay rate {self.response_delay_rate:g}/h)"
                        if self.response_delay_rate is not None
                        else " (instant eviction)"
                    )
                )
                if self.response_enabled
                else "disabled"
            ),
            f"  tags:         {', '.join(self.tags) or '--'}",
        ]
        if self.description:
            lines.append("")
            lines.extend(f"  {line}" for line in self.description.splitlines())
        return "\n".join(lines)
