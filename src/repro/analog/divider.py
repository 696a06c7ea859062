"""The transistor voltage divider that sets the RO operating region.

Section III-F: the RO must operate in the steep, monotonic low-voltage
region of the frequency-voltage curve, so Failure Sentinels supplies it
from a stack of ``m`` diode-connected PMOS devices tapped ``n`` devices
above ground (``V_ro = V_supply * n / m``).  Loading by the RO pulls the
tap below nominal; the paper compensates by widening the devices between
the tap and the supply, and the enrollment step absorbs the residual.

The analytic model here exposes the nominal ratio, a first-order droop
estimate, the divider's own current draw, and the sensitivity-gain metric
G (Equation 2) used to choose the ratio.  :func:`build_divider_circuit`
produces the device-level netlist for validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from repro.analog.ring_oscillator import RingOscillator
from repro.errors import ConfigurationError
from repro.spice.netlist import Circuit, GROUND
from repro.spice.devices import DiodeConnectedMOSFET, VoltageSource, Resistor, Switch
from repro.tech.ptm import TechnologyCard
from repro.units import ROOM_TEMP_K

#: Candidate ratios the paper considers implementable in few transistors.
CANDIDATE_RATIOS: Tuple[Tuple[int, int], ...] = ((1, 2), (1, 3), (2, 3), (1, 4), (3, 4))


@dataclass(frozen=True)
class VoltageDivider:
    """Diode-connected PMOS divider with ratio ``tap / total``.

    ``upper_width`` is the sizing multiplier applied to the devices
    between the tap and the supply (Section III-F widens these to feed
    the RO with less droop).
    """

    tech: TechnologyCard
    tap: int = 1
    total: int = 3
    upper_width: float = 4.0

    def __post_init__(self) -> None:
        if not 1 <= self.tap < self.total:
            raise ConfigurationError(f"divider tap {self.tap}/{self.total} invalid")
        if self.upper_width < 1.0:
            raise ConfigurationError("upper_width must be >= 1 (widened, not narrowed)")

    @property
    def ratio(self) -> float:
        return self.tap / self.total

    def nominal_output(self, v_supply: float) -> float:
        """Unloaded tap voltage."""
        return v_supply * self.ratio

    # ------------------------------------------------------------------
    # Electrical behaviour
    # ------------------------------------------------------------------
    def bias_current(self, v_supply: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Static current down the stack while enabled (A).

        Each diode rung drops ``v_supply / total`` of gate-source voltage;
        the stack current is the unit device's drive at that bias, scaled
        by the bottom (unit-width) rung which limits the chain.
        """
        v_rung = v_supply / self.total
        return self.tech.drive_current(v_rung, temp_k)

    def rung_gm(self, v_supply: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Transconductance of one unit rung at ``v_supply`` (S).

        Central difference of the card's drive current at the rung bias
        ``v_supply / total``.  A numpy array of supplies gives an array,
        through :meth:`TechnologyCard.drive_current_array`.
        """
        v_rung = v_supply / self.total
        dv = 1e-3
        drive = self.tech.drive_current_array if isinstance(v_supply, np.ndarray) else self.tech.drive_current
        return (drive(v_rung + dv, temp_k) - drive(v_rung - dv, temp_k)) / (2 * dv)

    def loaded_output(self, v_supply: float, load_current: float, temp_k: float = ROOM_TEMP_K) -> float:
        """Tap voltage with the RO drawing ``load_current`` (A).

        First-order droop through the upper chain's impedance; clamped
        at zero.  The enrollment process absorbs residual error
        (Section III-F), so first order suffices here.
        """
        gm = self.rung_gm(v_supply, temp_k)
        if gm <= 0:
            return 0.0
        r_upper = (self.total - self.tap) / (gm * self.upper_width)
        return max(0.0, self.nominal_output(v_supply) - load_current * r_upper)

    def transistor_count(self) -> int:
        """Stack devices plus the enable NMOS foot (Figure 2)."""
        return self.total + 1

    # ------------------------------------------------------------------
    # Ratio selection (Equation 2)
    # ------------------------------------------------------------------
    def sensitivity_gain(self, ro: RingOscillator, v_supply_range: Sequence[float]) -> float:
        """Sensitivity gain G of dividing versus direct connection.

        ``G = (S_new / S_old) * (tap / total)`` where S is the mean
        absolute frequency sensitivity of ``ro`` over the region it
        actually sees (Equation 2).
        """
        if len(v_supply_range) < 2:
            raise ConfigurationError("need at least two supply points for G")
        s_old = _mean_sensitivity(ro, v_supply_range)
        divided = [self.nominal_output(v) for v in v_supply_range]
        s_new = _mean_sensitivity(ro, divided)
        if s_old == 0:
            return math.inf if s_new > 0 else 0.0
        return (s_new / s_old) * self.ratio


def _mean_sensitivity(ro: RingOscillator, voltages: Sequence[float]) -> float:
    values = [abs(ro.sensitivity(v)) for v in voltages]
    return sum(values) / len(values)


#: Margin above threshold the divided region must keep.  Below this the
#: ring runs in near-subthreshold: sensitivity explodes but the curve
#: turns exponential (poor interpolation) and hyper-sensitive to
#: temperature.  The paper targets the region where sensitivity is "most
#: linear" (Section VI), which this constraint encodes.
LINEAR_REGION_MARGIN = 0.20


def best_divider_ratio(
    tech: TechnologyCard,
    ro: RingOscillator,
    v_supply_range: Sequence[float],
    candidates: Sequence[Tuple[int, int]] = CANDIDATE_RATIOS,
) -> VoltageDivider:
    """Choose the ratio maximizing G within the linear operating region;
    ties break toward the smaller ratio, which lowers RO operating
    voltage and power (Section III-F picks 1/3 over 1/2 this way)."""
    v_min_supply = min(v_supply_range)
    floor = tech.vth + LINEAR_REGION_MARGIN
    best: Optional[VoltageDivider] = None
    best_key: Tuple[float, float] = (-math.inf, 0.0)
    for tap, total in candidates:
        div = VoltageDivider(tech, tap, total)
        if div.nominal_output(v_min_supply) < floor:
            continue
        gain = div.sensitivity_gain(ro, v_supply_range)
        # Rank by gain rounded to ~10% buckets, then by *lower* ratio.
        key = (round(gain / 0.1) * 0.1, -div.ratio)
        if key > best_key:
            best_key = key
            best = div
    if best is None:
        raise ConfigurationError(
            "no divider ratio keeps the ring in its linear region over "
            f"supply range starting at {v_min_supply} V"
        )
    return best


def build_divider_circuit(
    divider: VoltageDivider,
    v_supply: float,
    load_resistance: Optional[float] = None,
    enabled: bool = True,
    temp_k: float = ROOM_TEMP_K,
) -> Circuit:
    """Device-level netlist of the divider (Figure 2, left).

    Nodes: ``vdd`` at the top, ``tapN`` for each intermediate node with
    ``tap`` being the RO supply tap, ``foot`` above the enable switch.
    ``load_resistance`` optionally models the RO as a resistive load at
    the tap.
    """
    circuit = Circuit(f"divider_{divider.tap}_{divider.total}_{divider.tech.name}")
    circuit.add(VoltageSource("VDD", "vdd", GROUND, v_supply))
    # Build from the top: total - tap widened devices, then tap unit ones.
    nodes = ["vdd"]
    for i in range(divider.total - 1):
        nodes.append(f"d{i}")
    nodes.append("foot")
    tap_index = divider.total - divider.tap  # node below the widened chain
    for i in range(divider.total):
        hi, lo = nodes[i], nodes[i + 1]
        width = divider.upper_width if i < divider.total - divider.tap else 1.0
        circuit.add(DiodeConnectedMOSFET(f"MD{i}", hi, lo, divider.tech, width=width, temp_k=temp_k))
    circuit.add(Switch("SEN", "foot", GROUND, closed=enabled, on_resistance=10.0))
    tap_node = nodes[tap_index]
    if load_resistance is not None:
        circuit.add(Resistor("RLOAD", tap_node, GROUND, load_resistance))
    return circuit


def divider_tap_node(divider: VoltageDivider) -> str:
    """Name of the tap node in :func:`build_divider_circuit` netlists."""
    index = divider.total - divider.tap
    nodes = ["vdd"] + [f"d{i}" for i in range(divider.total - 1)] + ["foot"]
    return nodes[index]
