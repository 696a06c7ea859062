"""A small nodal circuit simulator — the library's LTspice stand-in.

The paper explores Failure Sentinels in LTspice with PTM device cards.
This package provides the pieces of that flow the reproduction needs:

* :mod:`repro.spice.netlist` — circuits, nodes, device registration;
* :mod:`repro.spice.devices` — resistors, capacitors, sources, switches,
  and an alpha-power-law MOSFET driven by a :class:`~repro.tech.ptm.TechnologyCard`;
* :mod:`repro.spice.solver` — Newton DC operating point and backward-Euler
  transient analysis;
* :mod:`repro.spice.waveform` — waveform containers with the measurements
  the experiments need (edge counting, frequency, averages);
* :mod:`repro.spice.charlib` — batch characterization sweeps behind a
  persistent on-disk cache (the ``characterize_many`` front door with
  ``engine="exact"|"surrogate"|"auto"`` dispatch);
* :mod:`repro.spice.surrogate` — certified monotone-PCHIP interpolants
  fitted from coarse anchor grids of exact solves (the
  ``engine="surrogate"`` backend).

It is used to simulate the transistor-level parts of Failure Sentinels the
FPGA cannot express: the diode-connected PMOS voltage divider (including
its loading droop), device-level ring oscillators, and the level shifter.
"""

from repro.spice.netlist import Circuit, GROUND
from repro.spice.devices import (
    Resistor,
    Capacitor,
    CurrentSource,
    VoltageSource,
    Switch,
    MOSFET,
    DiodeConnectedMOSFET,
)
from repro.spice.solver import DCSolution, dc_operating_point, transient
from repro.spice.waveform import Waveform, TransientResult

#: Names forwarded lazily from :mod:`repro.spice.charlib` (PEP 562):
#: charlib builds netlists via :mod:`repro.analog`, which imports back
#: into this package's submodules, so an eager import here would be
#: circular.
_CHARLIB_EXPORTS = (
    "CharacterizationCache",
    "CHARLIB_RTOL",
    "CHAR_ENGINES",
    "DividerSweep",
    "PeriodProbe",
    "RingSweep",
    "SweepResult",
    "characterize_many",
    "default_cache",
)

#: Names forwarded lazily from :mod:`repro.spice.surrogate` (same
#: circularity reason — surrogate imports charlib).
_SURROGATE_EXPORTS = (
    "DEFAULT_TOLERANCE",
    "SurrogateModel",
    "fit_surrogate",
)


def __getattr__(name):
    if name == "charlib" or name in _CHARLIB_EXPORTS:
        import repro.spice.charlib as charlib

        return charlib if name == "charlib" else getattr(charlib, name)
    if name == "surrogate" or name in _SURROGATE_EXPORTS:
        import repro.spice.surrogate as surrogate

        return surrogate if name == "surrogate" else getattr(surrogate, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "Circuit",
    "GROUND",
    "Resistor",
    "Capacitor",
    "CurrentSource",
    "VoltageSource",
    "Switch",
    "MOSFET",
    "DiodeConnectedMOSFET",
    "DCSolution",
    "dc_operating_point",
    "transient",
    "Waveform",
    "TransientResult",
    *_CHARLIB_EXPORTS,
    *_SURROGATE_EXPORTS,
]
