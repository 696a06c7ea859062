"""No library code that only tests reach.

Scans ``src/repro`` for defs and classes whose name appears nowhere in
the package outside their own definition: nothing in the library calls,
exports or mentions them, so only tests keep them alive.  Each such name
must be listed in :data:`KEEP` with the reason it stays; anything else
is dead surface to delete together with the tests that exercise
nothing else.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import repro

SRC = Path(repro.__file__).parent

WORD = re.compile(r"\w+")

#: Test-only surface that stays, by dotted path under ``repro``.
KEEP = {
    # Defs that back a documented claim.
    "soc.logicsim.FSDigital.window_energy":
        "gate-level energy of one enable window, cited in EXPERIMENTS.md",
    "analog.divider.best_divider_ratio":
        "Eq. 2's divider-ratio choice (docs/paper_section_map.md)",
    "analog.ring_oscillator.RingOscillator.relative_sensitivity":
        "the Section V-B node-sensitivity test (65 < 90 < 130 nm)",
    "tech.temperature.design_thermal_error_fraction":
        "the 2% temperature-drift bound",
    "analog.level_shifter.solve_level_shifter":
        "the SPICE check of the level shifter's boost",
    # Seams through which cross-check tests read state.
    "soc.gates.GateNetlist.flip_flop_count": "cross-check seam",
    "soc.logicsim.LogicSimulator.dff_count": "cross-check seam",
    "riscv.csr.CSRFile.cycle_count": "cross-check seam",
    "riscv.cpu.CPU.capture_state": "cross-check seam",
    "obs.metrics.Metrics.gauge_value": "cross-check seam",
    # Names used outside src/repro and tests.
    "experiments.runner.available_experiments": "the benchmark ledger lists experiments with it",
    "serve.client.ServeClient.health": "CI's serve smoke step calls it",
    "units.to_milli": "examples/quickstart.py",
    "fleet.spec.FleetSpec.calibration_keys":
        "docs/api.md's replacement for FleetRunner.work_items(); bench_ext_fleet counts designs with it",
    # Called by the standard library, never by name.
    "trace.recorder.CountingRandom.getrandbits": "random.Random draws its bits through it",
}


def _defs(tree, prefix):
    for node in ast.iter_child_nodes(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield prefix + node.name, node
            yield from _defs(node, prefix + node.name + ".")


def unreferenced_defs():
    """Dotted paths of the defs no line of ``src/repro`` outside their
    own definition names."""
    sources = {path: path.read_text(encoding="utf-8") for path in sorted(SRC.rglob("*.py"))}
    counts = Counter(word for text in sources.values() for word in WORD.findall(text))
    found = []
    for path, text in sources.items():
        module = ".".join(path.relative_to(SRC).with_suffix("").parts)
        lines = text.splitlines()
        for qualname, node in _defs(ast.parse(text), module + "."):
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            own = "\n".join(lines[node.lineno - 1 : node.end_lineno])
            if counts[name] == WORD.findall(own).count(name):
                found.append(qualname.removeprefix("__init__.").replace(".__init__.", "."))
    return found


def test_every_unreferenced_def_is_kept_for_a_reason():
    unlisted = sorted(set(unreferenced_defs()) - set(KEEP))
    assert not unlisted, (
        "library defs nothing in src/repro reaches (delete them with the "
        f"tests that exercise nothing else, or list them in KEEP): {unlisted}"
    )


def test_keep_list_is_current():
    stale = sorted(set(KEEP) - set(unreferenced_defs()))
    assert not stale, f"KEEP entries that are gone or now referenced in src/repro: {stale}"
    assert all(reason.strip() for reason in KEEP.values())
