"""The physical-process interface the campaign simulator drives.

The paper's attack end-state is *device impairment* of whatever physical
process the SCADA system controls — a data-center cooling loop in the
SCoPE case study, "a power distribution system" in the introduction's
smart-grid motivation.  :class:`PhysicalProcess` abstracts the contract
the campaign simulator needs so both plants (and user-defined ones) plug
into the same attack machinery.
"""

from __future__ import annotations

import dataclasses
import pickle
from abc import ABC, abstractmethod
from typing import Dict, Optional

from repro.scada.plant.damage import DamageModel


class PhysicalProcess(ABC):
    """A register-driven physical process under SCADA control."""

    @abstractmethod
    def default_registers(self) -> Dict[int, int]:
        """A healthy initial register image (controls + measurements)."""

    @abstractmethod
    def step(self, registers: Dict[int, int], dt: float) -> None:
        """Advance the process ``dt`` seconds under the register controls.

        Implementations read control registers, update internal state and
        write measurement registers back.
        """

    @abstractmethod
    def stress_level(self) -> float:
        """The scalar stress the damage model integrates.

        For the cooling plant this is the room temperature (°C); for the
        power feeder, the worst line loading (percent of rating).
        """

    @abstractmethod
    def sabotage(self, registers: Dict[int, int]) -> None:
        """Apply the malicious control writes of a reprogrammed controller."""

    @property
    @abstractmethod
    def monitored_register(self) -> int:
        """The measurement register the SCADA master watches (and the
        payload spoofs)."""

    @property
    @abstractmethod
    def alarm_scale(self) -> float:
        """Multiplier from raw register value to engineering units."""

    @property
    @abstractmethod
    def alarm_threshold(self) -> float:
        """Master alarm threshold in engineering units."""

    @abstractmethod
    def make_damage_model(self) -> DamageModel:
        """A damage model calibrated to this process's stress scale."""

    def content_key(self) -> Optional[bytes]:
        """A key equal for two fresh plants only if they evolve alike.

        Campaigns share one healthy-tick trajectory between plants whose
        keys (and classes) are equal, so equal keys must mean identical
        healthy dynamics and damage.  The default serves plants whose
        behaviour is fixed by their class plus picklable instance state
        configured through a dataclass ``config`` (the cooling plant and
        the power feeder): it pickles the fresh instance and its
        damage model.  Other plants, and ones that cannot be pickled,
        return None and get a private trajectory per campaign; override
        this to share theirs.

        Call it on a freshly built plant: a stepped plant keys its
        current state, not its configuration.
        """
        if not dataclasses.is_dataclass(getattr(self, "config", None)):
            return None
        try:
            return pickle.dumps(
                (self, self.make_damage_model()),
                protocol=pickle.HIGHEST_PROTOCOL,
            )
        except (pickle.PicklingError, TypeError, AttributeError):
            return None
