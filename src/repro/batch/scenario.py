"""One evaluation scenario: a platform plus a trace, declaratively.

A :class:`Scenario` bundles everything :func:`repro.batch.evaluate_many`
needs to replay one device-night — monitor, panel, capacitor, loads,
checkpoint model, trace — as a frozen, picklable
value.  It is the unit the batch kernel vectorizes over and the payload
the parallel dispatcher ships to worker processes.

The scalar engine is the kernel's semantic reference:
``build_simulator()`` constructs exactly the simulator the fleet runner
has always built (including the policy margin clamp), and
``run_scalar()`` replays the scenario through it.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Optional, Tuple

from repro.errors import ConfigurationError, payload_errors
from repro.harvest.checkpoint import CheckpointModel
from repro.harvest.fast import ENGINE_ID, FastIntermittentSimulator, check_engine_id
from repro.harvest.loads import ADXL362, MCULoad, MSP430FR5969, PeripheralLoad, SYSTEM_LEAKAGE
from repro.harvest.monitors import MonitorModel
from repro.harvest.panel import SolarPanel
from repro.harvest.simulator import DEFAULT_V_ON, SimulationReport
from repro.harvest.traces import IrradianceTrace

#: Keep the deployed checkpoint threshold strictly below turn-on after
#: policy padding; without head-room the device would checkpoint at
#: boot.
MIN_RUN_WINDOW_V = 0.05


def apply_policy_margin(simulator, margin: float) -> None:
    """Pad the simulator's checkpoint threshold by the policy margin.

    The padded threshold is capped at ``v_on - MIN_RUN_WINDOW_V`` so the
    device keeps a usable run window — but the cap must never *lower* a
    calibrated threshold that already sits inside that window.  The
    pre-1.5 ``min()``-only clamp did exactly that on tight run windows
    (``v_on - MIN_RUN_WINDOW_V < v_ckpt``): a "guarded" policy made the
    device checkpoint *later* than its calibration demanded, i.e. the
    safety margin increased risk.  Applied by :meth:`Scenario.
    build_simulator`.
    """
    if margin <= 0.0:
        return
    padded = min(simulator.v_ckpt + margin, simulator.v_on - MIN_RUN_WINDOW_V)
    simulator.v_ckpt = max(simulator.v_ckpt, padded)


@dataclass(frozen=True)
class Scenario:
    """A self-contained harvest/intermittent evaluation request.

    ``v_ckpt_margin`` is the runtime policy's extra voltage padding on
    the monitor-derived checkpoint threshold, applied exactly the way
    the fleet runner applies it.
    """

    monitor: MonitorModel
    trace: Optional[IrradianceTrace] = None
    panel: SolarPanel = SolarPanel()
    capacitance: float = 47e-6
    v_initial: float = 0.0
    v_ckpt_margin: float = 0.0
    mcu: MCULoad = MSP430FR5969
    peripherals: Tuple[PeripheralLoad, ...] = (ADXL362,)
    checkpoint: CheckpointModel = CheckpointModel()
    v_on: float = DEFAULT_V_ON
    leakage: float = SYSTEM_LEAKAGE

    def __post_init__(self) -> None:
        if self.v_ckpt_margin < 0:
            raise ConfigurationError("v_ckpt_margin cannot be negative")

    # ------------------------------------------------------------------
    @classmethod
    def from_device(cls, device, monitor: MonitorModel) -> "Scenario":
        """Build the scenario a fleet :class:`DeviceSpec` describes.

        Duck-typed on the spec's fields so :mod:`repro.batch` stays
        import-independent of :mod:`repro.fleet` (which imports us).
        """
        return cls(
            monitor=monitor,
            trace=device.build_trace(),
            panel=SolarPanel(area_cm2=device.panel_area_cm2),
            capacitance=device.capacitance,
            v_ckpt_margin=device.policy_margin(),
        )

    # ------------------------------------------------------------------
    def to_dict(self) -> Dict[str, object]:
        """JSON-ready payload; inverse of :meth:`from_dict`.

        Every platform component is a flat frozen dataclass, so the
        payload is their field dicts verbatim (the ideal monitor's
        infinite sample rate rides the stdlib ``Infinity`` policy).
        This is the config unit :mod:`repro.trace` headers embed for
        harvest and batch recordings: a scenario rebuilt from it
        replays bit-identically.  ``scalar_engine`` is a constant kept
        from earlier releases' payloads; :meth:`from_dict` ignores their
        ``dt`` key (the engine has no step size).
        """
        return {
            "monitor": asdict(self.monitor),
            "trace": None
            if self.trace is None
            else {"dt": self.trace.dt, "values": list(self.trace.values)},
            "panel": asdict(self.panel),
            "capacitance": self.capacitance,
            "v_initial": self.v_initial,
            "v_ckpt_margin": self.v_ckpt_margin,
            "scalar_engine": ENGINE_ID,
            "mcu": asdict(self.mcu),
            "peripherals": [asdict(p) for p in self.peripherals],
            "checkpoint": asdict(self.checkpoint),
            "v_on": self.v_on,
            "leakage": self.leakage,
        }

    @classmethod
    def from_dict(cls, data: Dict[str, object]) -> "Scenario":
        with payload_errors("scenario"):
            check_engine_id(data.get("scalar_engine", ENGINE_ID), "scalar_engine")
            trace = data.get("trace")
            return cls(
                monitor=MonitorModel(**data["monitor"]),
                trace=None
                if trace is None
                else IrradianceTrace(dt=trace["dt"], values=list(trace["values"])),
                panel=SolarPanel(**data["panel"]) if "panel" in data else SolarPanel(),
                capacitance=data.get("capacitance", 47e-6),
                v_initial=data.get("v_initial", 0.0),
                v_ckpt_margin=data.get("v_ckpt_margin", 0.0),
                mcu=MCULoad(**data["mcu"]) if "mcu" in data else MSP430FR5969,
                peripherals=tuple(PeripheralLoad(**p) for p in data["peripherals"])
                if "peripherals" in data
                else (ADXL362,),
                checkpoint=CheckpointModel(**data["checkpoint"])
                if "checkpoint" in data
                else CheckpointModel(),
                v_on=data.get("v_on", DEFAULT_V_ON),
                leakage=data.get("leakage", SYSTEM_LEAKAGE),
            )

    # ------------------------------------------------------------------
    def build_simulator(self) -> FastIntermittentSimulator:
        """The scalar simulator this scenario describes (margin applied)."""
        simulator = FastIntermittentSimulator(
            self.monitor,
            panel=self.panel,
            capacitance=self.capacitance,
            mcu=self.mcu,
            peripherals=self.peripherals,
            checkpoint=self.checkpoint,
            v_on=self.v_on,
            leakage=self.leakage,
        )
        apply_policy_margin(simulator, self.v_ckpt_margin)
        return simulator

    def run_scalar(self, record=None) -> SimulationReport:
        """Replay the scenario through the scalar engine.

        ``record`` forwards to the simulator's :mod:`repro.trace` seam
        (a :class:`~repro.trace.LaneSink` when the batch dispatcher is
        recording many scenarios into one stream).
        """
        if self.trace is None:
            raise ConfigurationError("scenario has no trace to replay")
        return self.build_simulator().run(
            self.trace, v_initial=self.v_initial, record=record
        )
