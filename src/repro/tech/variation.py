"""Manufacturing process variation.

The paper motivates per-device enrollment (Section III-H) with the fact
that identical ring oscillators on different chips oscillate at different
frequencies under the same conditions.  This module models that chip-to-
chip variation as Gaussian perturbations of threshold voltage and drive
strength, producing a :class:`VariedTechnology` card per simulated chip.

Used by the calibration tests (enrollment must recover accuracy lost to
variation) and by Monte-Carlo sweeps in the experiments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.tech.ptm import TechnologyCard


@dataclass(frozen=True)
class ProcessVariation:
    """Distribution of chip-to-chip parameter shifts.

    Parameters
    ----------
    vth_sigma:
        Standard deviation of the threshold-voltage shift (V).  A few
        tens of millivolts is typical for these nodes.
    drive_sigma:
        Relative standard deviation of drive strength (dimensionless);
        applied as a multiplicative factor on ``k_delay``.
    """

    vth_sigma: float = 0.020
    drive_sigma: float = 0.05

    def __post_init__(self) -> None:
        if self.vth_sigma < 0 or self.drive_sigma < 0:
            raise ConfigurationError("variation sigmas must be non-negative")

    def sample(self, tech: TechnologyCard, seed: int) -> "VariedTechnology":
        """Draw one chip's technology card.

        Deterministic in ``seed`` so experiments are reproducible; use
        distinct seeds for distinct chips.
        """
        rng = random.Random(seed)
        vth_shift = rng.gauss(0.0, self.vth_sigma)
        drive_factor = max(0.5, rng.gauss(1.0, self.drive_sigma))
        card = tech.scaled(
            vth=tech.vth + vth_shift,
            k_delay=tech.k_delay / drive_factor,
        )
        return VariedTechnology(card=card, seed=seed, vth_shift=vth_shift, drive_factor=drive_factor)

    def population(self, tech: TechnologyCard, count: int, base_seed: int = 0) -> list:
        """A reproducible population of ``count`` chip cards."""
        if count < 1:
            raise ConfigurationError("population count must be >= 1")
        return [self.sample(tech, base_seed + i) for i in range(count)]


@dataclass(frozen=True)
class VariedTechnology:
    """One chip's card plus a record of how it deviates from nominal."""

    card: TechnologyCard
    seed: int
    vth_shift: float
    drive_factor: float
