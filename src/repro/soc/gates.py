"""Gate primitives and structural netlist accounting.

Transistor costs use standard static-CMOS implementations; they feed the
Table III transistor-count bound and the area model.  A
:class:`GateNetlist` is just a multiset of gates with roll-up queries —
enough structure for area/power accounting without simulating logic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, Mapping

from repro.errors import ConfigurationError


class GateKind(str, Enum):
    INV = "inv"
    NAND2 = "nand2"
    NOR2 = "nor2"
    AND2 = "and2"
    OR2 = "or2"
    XOR2 = "xor2"
    XNOR2 = "xnor2"
    MUX2 = "mux2"
    DFF = "dff"
    LATCH = "latch"


#: Transistor cost of each primitive (static CMOS).
TRANSISTORS: Dict[GateKind, int] = {
    GateKind.INV: 2,
    GateKind.NAND2: 4,
    GateKind.NOR2: 4,
    GateKind.AND2: 6,
    GateKind.OR2: 6,
    GateKind.XOR2: 10,
    GateKind.XNOR2: 10,
    GateKind.MUX2: 8,
    GateKind.DFF: 24,
    GateKind.LATCH: 12,
}

#: Sequential elements (map to FPGA flip-flops, not LUTs).
SEQUENTIAL = {GateKind.DFF, GateKind.LATCH}


@dataclass
class GateNetlist:
    """A named multiset of gates."""

    name: str
    gates: Counter = field(default_factory=Counter)

    def add(self, kind: GateKind, count: int = 1) -> "GateNetlist":
        if count < 0:
            raise ConfigurationError("gate count cannot be negative")
        self.gates[kind] += count
        return self

    def merge(self, other: "GateNetlist") -> "GateNetlist":
        self.gates.update(other.gates)
        return self

    # ------------------------------------------------------------------
    def transistor_count(self) -> int:
        return sum(TRANSISTORS[kind] * n for kind, n in self.gates.items())

    def gate_count(self) -> int:
        return sum(self.gates.values())

    def flip_flop_count(self) -> int:
        return sum(n for kind, n in self.gates.items() if kind in SEQUENTIAL)

    def breakdown(self) -> Mapping[str, int]:
        return {kind.value: n for kind, n in sorted(self.gates.items())}

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<GateNetlist {self.name}: {self.gate_count()} gates, {self.transistor_count()} T>"
