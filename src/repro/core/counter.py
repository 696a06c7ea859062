"""The edge counter that turns RO oscillation into a digital reading.

Hardware semantics (Section III-E): the counter increments on every
positive edge of the level-shifted RO output during the enable window.
Fractional periods truncate; a ring faster than the counter can hold
*overflows*, which the design-space rejection filter must prevent — the
counter itself either saturates or raises, depending on policy, so both
hardware-accurate modelling and bug-catching tests are possible.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.errors import ConfigurationError, CounterOverflowError


@dataclass
class EdgeCounter:
    """An ``n``-bit positive-edge counter.

    Parameters
    ----------
    bits:
        Counter width.
    saturate:
        When True (default, matching real hardware) the count clamps at
        ``2**bits - 1``; when False, exceeding the maximum raises
        :class:`CounterOverflowError` (useful in validation).
    """

    bits: int
    saturate: bool = True
    _value: int = field(default=0, repr=False)

    def __post_init__(self) -> None:
        if not 1 <= self.bits <= 64:
            raise ConfigurationError(f"counter bits {self.bits} out of [1, 64]")

    @property
    def max_value(self) -> int:
        return (1 << self.bits) - 1

    @property
    def value(self) -> int:
        return self._value

    def reset(self) -> None:
        self._value = 0

    def increment(self, edges: int = 1) -> int:
        """Apply ``edges`` positive edges; returns the new value."""
        if edges < 0:
            raise ConfigurationError("cannot count negative edges")
        target = self._value + edges
        if target > self.max_value:
            if not self.saturate:
                raise CounterOverflowError(
                    f"{self.bits}-bit counter overflow: {target} > {self.max_value}"
                )
            target = self.max_value
        self._value = target
        return self._value

    def capture_window(self, frequency: float, t_enable: float) -> int:
        """Count edges of an oscillation over one enable window.

        Resets, then accumulates ``floor(frequency * t_enable)`` edges —
        the truncation the paper's Section III-E describes.
        """
        if frequency < 0 or t_enable <= 0:
            raise ConfigurationError("frequency must be >= 0 and window > 0")
        self.reset()
        return self.increment(int(frequency * t_enable))
