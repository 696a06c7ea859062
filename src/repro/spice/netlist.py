"""Circuit netlists: named nodes plus two-or-more-terminal devices.

A :class:`Circuit` is a flat container of devices referencing nodes by
name.  Node ``"0"`` (alias :data:`GROUND`) is the reference and always
exists.  The solver assigns indices to every other node mentioned by a
device.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Mapping, Sequence

from repro.errors import NetlistError

#: Reference node name.  Its voltage is 0 by definition.
GROUND = "0"

#: Perturbation for the generic per-device finite-difference stamp.
STAMP_FD_EPS = 1e-7


class Device:
    """Base class for circuit elements.

    Subclasses define ``terminals`` (node names) and implement
    :meth:`currents`, returning the current flowing *out of each terminal
    node into the device* given the node-voltage map.  Optionally they
    carry state for transient analysis via :meth:`begin_step` /
    :meth:`commit_step`, and an analytic :meth:`stamp` for the solver's
    fast assembly path (the base implementation falls back to per-device
    finite differences over :meth:`currents`, so any device works).
    """

    name: str
    terminals: Sequence[str]

    def currents(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        raise NotImplementedError

    def stamp(self, x, idx, jac, res) -> None:
        """Accumulate KCL residual and Jacobian contributions.

        ``x`` is the extended node-voltage vector (the solver appends a
        ground slot pinned at 0 V) and ``idx`` holds this device's
        terminal positions in it.  Contributions are ``+=``-accumulated
        into ``res`` (length ``n+1``) and, when not ``None``, ``jac``
        (``(n+1, n+1)``); the solver discards the ground row/column.

        This fallback finite-differences :meth:`currents` over the
        device's own terminals only — already far cheaper than a
        whole-circuit difference — while subclasses with closed-form
        derivatives override it entirely.
        """
        cols: Dict[str, int] = {}
        for terminal, i in zip(self.terminals, idx):
            cols[terminal] = i
        volts = {terminal: float(x[i]) for terminal, i in cols.items()}
        base = self.currents(volts)
        for node, current in base.items():
            res[cols[node]] += current
        if jac is None:
            return
        for terminal, col in cols.items():
            bumped = dict(volts)
            bumped[terminal] += STAMP_FD_EPS
            for node, current in self.currents(bumped).items():
                jac[cols[node], col] += (current - base[node]) / STAMP_FD_EPS

    # -- transient hooks ------------------------------------------------
    def begin_step(self, dt: float) -> None:
        """Called before each transient Newton solve with the step size."""

    def commit_step(self, voltages: Mapping[str, float]) -> None:
        """Called after a transient step converges, with final voltages."""

    def reset_state(self, voltages: Mapping[str, float]) -> None:
        """Initialize dynamic state from a DC solution."""

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        nodes = ",".join(self.terminals)
        return f"<{type(self).__name__} {self.name} ({nodes})>"


class Circuit:
    """A named collection of devices over a shared node namespace."""

    def __init__(self, title: str = "circuit"):
        self.title = title
        self._devices: List[Device] = []
        self._names: set = set()

    # ------------------------------------------------------------------
    def add(self, device: Device) -> Device:
        """Register a device; returns it for chaining/holding."""
        if not device.name:
            raise NetlistError("device must have a non-empty name")
        if device.name in self._names:
            raise NetlistError(f"duplicate device name {device.name!r}")
        if len(device.terminals) < 2:
            raise NetlistError(f"device {device.name!r} needs >= 2 terminals")
        self._names.add(device.name)
        self._devices.append(device)
        return device

    def extend(self, devices: Iterable[Device]) -> None:
        for device in devices:
            self.add(device)

    @property
    def devices(self) -> List[Device]:
        return list(self._devices)

    def device(self, name: str) -> Device:
        """Look up a device by name."""
        for dev in self._devices:
            if dev.name == name:
                return dev
        raise NetlistError(f"no device named {name!r}")

    def nodes(self) -> List[str]:
        """All non-ground node names, in first-mention order."""
        seen: List[str] = []
        seen_set = set()
        for dev in self._devices:
            for node in dev.terminals:
                if node != GROUND and node not in seen_set:
                    seen_set.add(node)
                    seen.append(node)
        return seen

    def validate(self) -> None:
        """Sanity checks before solving.

        Every circuit must contain at least one device and reference
        ground somewhere (otherwise voltages are unconstrained).
        """
        if not self._devices:
            raise NetlistError("empty circuit")
        grounded = any(GROUND in dev.terminals for dev in self._devices)
        if not grounded:
            raise NetlistError("no device connects to ground; voltages unconstrained")

    def residual(self, voltages: Mapping[str, float]) -> Dict[str, float]:
        """KCL residual: net current leaving each non-ground node.

        At the solution every entry is ~0.
        """
        res = {node: 0.0 for node in self.nodes()}
        for dev in self._devices:
            for node, current in dev.currents(voltages).items():
                if node != GROUND:
                    res[node] += current
        return res
