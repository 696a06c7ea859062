"""A gate-level logic simulator: run the FS netlist, not just count it.

The structural netlists in :mod:`repro.soc.rtl` price the hardware for
Table II; this module makes the same digital design *executable*, so
tests can prove the counter actually counts, the comparator actually
compares, and the interrupt actually fires — cycle by cycle, out of
gates.

Model: two-valued (0/1) synchronous logic.  Combinational gates settle
to a fixpoint each cycle (levelized by repeated sweeps; a failure to
settle within a bound means a combinational loop — rejected).  D
flip-flops update together on the clock edge.

>>> sim = LogicSimulator()
>>> a = sim.input("a"); b = sim.input("b")
>>> out = sim.gate("and2", [a, b], "y")
>>> sim.settle({"a": 1, "b": 1}); sim.value("y")
1
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence

from repro.errors import ConfigurationError, SimulationError

#: Combinational gate truth functions.
GATE_FUNCTIONS: Dict[str, Callable[..., int]] = {
    "inv": lambda a: 1 - a,
    "buf": lambda a: a,
    "and2": lambda a, b: a & b,
    "or2": lambda a, b: a | b,
    "nand2": lambda a, b: 1 - (a & b),
    "nor2": lambda a, b: 1 - (a | b),
    "xor2": lambda a, b: a ^ b,
    "xnor2": lambda a, b: 1 - (a ^ b),
    "mux2": lambda sel, a, b: b if sel else a,  # sel=0 -> a
}

_MAX_SETTLE_SWEEPS = 200


@dataclass
class _Gate:
    kind: str
    inputs: List[str]
    output: str


@dataclass
class _DFF:
    d: str
    q: str
    enable: Optional[str] = None  # clock-enable net, None = always
    reset: Optional[str] = None   # synchronous reset net


class LogicSimulator:
    """A flat synchronous netlist with explicit nets."""

    def __init__(self):
        self._nets: Dict[str, int] = {}
        self._inputs: List[str] = []
        self._gates: List[_Gate] = []
        self._dffs: List[_DFF] = []
        #: Total net transitions observed (switching activity, the raw
        #: material of dynamic power: E = toggles * C_net * V^2).
        self.toggle_count = 0

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def input(self, name: str) -> str:
        self._declare(name)
        self._inputs.append(name)
        return name

    def gate(self, kind: str, inputs: Sequence[str], output: str) -> str:
        if kind not in GATE_FUNCTIONS:
            raise ConfigurationError(f"unknown gate kind {kind!r}")
        arity = GATE_FUNCTIONS[kind].__code__.co_argcount
        if len(inputs) != arity:
            raise ConfigurationError(f"{kind} takes {arity} inputs, got {len(inputs)}")
        for net in inputs:
            self._declare(net)
        self._declare(output, driven=True)
        self._gates.append(_Gate(kind, list(inputs), output))
        return output

    def dff(self, d: str, q: str, enable: Optional[str] = None, reset: Optional[str] = None) -> str:
        self._declare(d)
        self._declare(q, driven=True)
        if enable:
            self._declare(enable)
        if reset:
            self._declare(reset)
        self._dffs.append(_DFF(d, q, enable, reset))
        return q

    def constant(self, name: str, value: int) -> str:
        self._declare(name)
        self._nets[name] = 1 if value else 0
        return name

    def _declare(self, name: str, driven: bool = False) -> None:
        if driven:
            for g in self._gates:
                if g.output == name:
                    raise ConfigurationError(f"net {name!r} already driven")
            for f in self._dffs:
                if f.q == name:
                    raise ConfigurationError(f"net {name!r} already driven")
        self._nets.setdefault(name, 0)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def settle(self, inputs: Optional[Dict[str, int]] = None) -> None:
        """Apply inputs and propagate combinational logic to fixpoint."""
        for name, value in (inputs or {}).items():
            if name not in self._nets:
                raise SimulationError(f"unknown input net {name!r}")
            self._nets[name] = 1 if value else 0
        for _ in range(_MAX_SETTLE_SWEEPS):
            changed = False
            for g in self._gates:
                value = GATE_FUNCTIONS[g.kind](*(self._nets[i] for i in g.inputs))
                if self._nets[g.output] != value:
                    self._nets[g.output] = value
                    self.toggle_count += 1
                    changed = True
            if not changed:
                return
        raise SimulationError("combinational logic did not settle (loop?)")

    def clock(self, inputs: Optional[Dict[str, int]] = None) -> None:
        """One clock cycle: settle, then update every DFF simultaneously."""
        self.settle(inputs)
        staged = []
        for f in self._dffs:
            if f.reset is not None and self._nets[f.reset]:
                staged.append((f.q, 0))
            elif f.enable is None or self._nets[f.enable]:
                staged.append((f.q, self._nets[f.d]))
        for q, value in staged:
            if self._nets[q] != value:
                self.toggle_count += 1
            self._nets[q] = value
        self.settle()

    def value(self, net: str) -> int:
        try:
            return self._nets[net]
        except KeyError:
            raise SimulationError(f"unknown net {net!r}") from None

    def bus_value(self, prefix: str, bits: int) -> int:
        """Read ``prefix0..prefix{bits-1}`` as a little-endian integer."""
        return sum(self.value(f"{prefix}{i}") << i for i in range(bits))

    # ------------------------------------------------------------------
    def reset_toggles(self) -> None:
        self.toggle_count = 0

    def gate_count(self) -> int:
        return len(self._gates)

    def dff_count(self) -> int:
        return len(self._dffs)


# ----------------------------------------------------------------------
# The functional Failure Sentinels digital block
# ----------------------------------------------------------------------
class FSDigital:
    """Gate-level FS digital logic: counter + threshold comparator + IRQ.

    Clocked by the (level-shifted) ring-oscillator output: every clock
    is one RO edge.  Interface nets:

    * input ``clear`` — synchronous counter clear (start of an enable
      window);
    * inputs ``thr0..thr{n-1}`` — the armed threshold;
    * outputs ``cnt0..cnt{n-1}`` — the running count;
    * output ``irq`` — high when count <= threshold and ``armed``.

    Structure mirrors :func:`repro.soc.rtl.build_counter` /
    ``build_comparator``: a ripple increment (XOR sum + AND carry) into
    DFFs and a borrow-chain magnitude comparator.
    """

    def __init__(self, bits: int = 8):
        if not 1 <= bits <= 16:
            raise ConfigurationError("FSDigital supports 1..16 bits")
        self.bits = bits
        sim = LogicSimulator()
        self.sim = sim

        sim.input("clear")
        sim.input("armed")
        for i in range(bits):
            sim.input(f"thr{i}")

        # Ripple increment: sum_i = cnt_i XOR carry_i; carry_{i+1} = cnt_i AND carry_i.
        sim.constant("carry0", 1)
        for i in range(bits):
            sim.gate("xor2", [f"cnt{i}", f"carry{i}"], f"sum{i}")
            if i + 1 < bits:
                sim.gate("and2", [f"cnt{i}", f"carry{i}"], f"carry{i + 1}")
            sim.dff(f"sum{i}", f"cnt{i}", reset="clear")

        # Magnitude comparator: gt_i true when cnt > thr considering
        # bits i.. (MSB-first borrow chain).
        #   gt = cnt_i AND NOT thr_i  OR  (cnt_i XNOR thr_i) AND gt_below
        sim.constant("gt_below_msb_seed", 0)
        prev = "gt_below_msb_seed"
        for i in range(bits):  # LSB to MSB so 'prev' is the lower bits' verdict
            sim.gate("inv", [f"thr{i}"], f"nthr{i}")
            sim.gate("and2", [f"cnt{i}", f"nthr{i}"], f"win{i}")
            sim.gate("xnor2", [f"cnt{i}", f"thr{i}"], f"eq{i}")
            sim.gate("and2", [f"eq{i}", prev], f"carrygt{i}")
            sim.gate("or2", [f"win{i}", f"carrygt{i}"], f"gt{i}")
            prev = f"gt{i}"
        # count <= threshold  ==  NOT (count > threshold)
        sim.gate("inv", [prev], "le_thr")
        sim.gate("and2", ["le_thr", "armed"], "irq")
        sim.settle()

    # ------------------------------------------------------------------
    def reset_window(self) -> None:
        """Start an enable window: synchronously clear the counter."""
        self.sim.clock({"clear": 1})
        self.sim.settle({"clear": 0})

    def apply_edges(self, edges: int) -> int:
        """Clock in ``edges`` RO edges; returns the count (wraps at 2^n,
        like real ripple hardware)."""
        if edges < 0:
            raise ConfigurationError("cannot apply negative edges")
        for _ in range(edges):
            self.sim.clock({"clear": 0})
        return self.count

    def arm(self, threshold: int) -> None:
        inputs = {"armed": 1}
        for i in range(self.bits):
            inputs[f"thr{i}"] = (threshold >> i) & 1
        self.sim.settle(inputs)

    def window_energy(self, edges: int, v_core: float, c_net: float) -> float:
        """Gate-level dynamic energy of one enable window (J).

        Clears the counter, applies ``edges`` RO edges, and prices every
        observed net transition at ``C_net * V^2`` — a switching-activity
        power estimate the analytic counter model can be checked against.
        """
        self.reset_window()
        self.sim.reset_toggles()
        self.apply_edges(edges)
        return self.sim.toggle_count * c_net * v_core * v_core

    @property
    def count(self) -> int:
        return self.sim.bus_value("cnt", self.bits)

    @property
    def irq(self) -> bool:
        return bool(self.sim.value("irq"))
