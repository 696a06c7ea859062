"""Self-tests for the ledger's own machinery (not the program's).

Run from the repository root::

    PYTHONPATH=src python -m pytest benchmarks/ledger -q
"""

from __future__ import annotations

import json
import pathlib
import random
import re
import signal
import sys
import time
import types

import pytest

from benchmarks.ledger import layers, stats
from benchmarks.ledger.__main__ import END_TO_END, ROOT
from benchmarks.ledger.hostspeed import HostSpeed
from benchmarks.ledger.tracer import Span, Tracer, rollup
from benchmarks.ledger.worker import measure

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


@pytest.mark.parametrize(
    "n, pct", [(240, 95), (200, 95), (199, 94), (1000, 99), (5000, 99), (20, 50), (19, None), (0, None)]
)
def test_tail_percentile_keeps_ten_samples_beyond(n, pct):
    assert stats.tail_percentile(n) == pct
    if pct is not None:
        values = list(range(n))
        assert sum(1 for v in values if v > stats.percentile(values, pct)) >= stats.TAIL_SAMPLES


def test_self_time_subtracts_nested_children():
    spans = [
        Span(0, None, "experiments", "fig5", "fig5", 0.0, 10.0),
        Span(1, 0, "dse.pareto", "pareto_front", "fig5", 1.0, 4.0),
        Span(2, 1, "dse.pareto", "non_dominated_sort", "fig5", 1.5, 3.5),
        Span(3, 0, "exec", "run_tasks", "fig5", 5.0, 7.0),
        Span(4, 3, "harvest.fast", "FastIntermittentSimulator.run", "fig5", 5.5, 6.5),
    ]
    roll = rollup(spans)
    assert roll.self_s == pytest.approx(
        {"experiments": 5.0, "dse.pareto": 3.0, "exec": 1.0, "harvest.fast": 1.0}
    )
    # pareto_front's nested sort is not a second entry into the layer.
    assert roll.calls["dse.pareto"] == 1
    assert roll.inclusive_by_request[("dse.pareto", "fig5")] == pytest.approx(3.0)


def _repro_bindings():
    bindings = {}
    for name, module in list(sys.modules.items()):
        if module is not None and (name == "repro" or name.startswith("repro.")):
            for key, value in vars(module).items():
                bindings[(name, key)] = value
                if isinstance(value, type):
                    for attr, member in vars(value).items():
                        bindings[(name, key, attr)] = member
    return bindings


def test_wrappers_restored_after_trace():
    import repro.serve.handlers as handlers
    from repro.dse import pareto
    from repro.experiments.runner import EXPERIMENTS

    for hook in layers.HOOKS:
        __import__(hook.module)
    before = _repro_bindings()
    experiments, serve_handlers = dict(EXPERIMENTS), dict(handlers.HANDLERS)
    original_sort = pareto.non_dominated_sort

    tracer = Tracer()
    tracer.install(layers.HOOKS)
    # A module imported while tracing binds the wrapper; restore must
    # find it there too.
    late = types.ModuleType("repro._late_import")
    sys.modules[late.__name__] = late
    try:
        late.non_dominated_sort = pareto.non_dominated_sort
        # A name imported elsewhere is rebound too.
        assert handlers.non_dominated_sort is not original_sort
        with tracer.request("probe"):
            assert handlers.non_dominated_sort([(1, 2), (2, 1), (3, 3)]) == [[0, 1], [2]]
    finally:
        tracer.restore()
        del sys.modules[late.__name__]

    assert late.non_dominated_sort is original_sort
    (span,) = tracer.spans
    assert (span.layer, span.request) == ("dse.pareto", "probe")
    assert span.counts == {"dse.pareto.points": 3, "dse.pareto.pairs": 3, "dse.pareto.front0": 2}
    after = _repro_bindings()
    changed = [key for key in before if after.get(key) is not before[key]]
    assert changed == []
    assert EXPERIMENTS == experiments and handlers.HANDLERS == serve_handlers


class _Blocks:
    """A fake workload whose later blocks differ, as time-boxed runs do."""

    min_blocks = 2

    def prepare(self, block):
        return block

    def run_block(self, block, inputs, request):
        return {"attempted": 1, "failed": 0, "output": {"block": inputs}}


def test_digest_covers_only_the_guaranteed_blocks():
    short = measure(_Blocks(), seconds=0.0, request=None)
    long = measure(_Blocks(), seconds=0.01, request=None)
    assert len(short["block_s"]) == 2 < len(long["block_s"])
    assert short["digest"] == long["digest"]


def test_host_speed_samples_while_armed_and_restores():
    unsampled = HostSpeed()
    cpu_s, norm_s = unsampled.since(unsampled.mark())
    assert cpu_s == norm_s  # no sample, no scaling

    previous = signal.getsignal(signal.SIGPROF)
    speed = HostSpeed()
    speed.start()
    try:
        mark = speed.mark()
        deadline = time.process_time() + 5.0
        while speed.count - mark[2] < 5 and time.process_time() < deadline:
            sum(range(1000))
        cpu_s, norm_s = speed.since(mark)
    finally:
        speed.stop()
    assert speed.count >= 5 and cpu_s > 0 and norm_s > 0
    assert signal.getitimer(signal.ITIMER_PROF) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGPROF) is previous


def test_digest_stable_for_a_tiny_seeded_fleet():
    from repro.api import stream_fleet

    from benchmarks.ledger.fleet import device_specs

    def run(seed):
        specs = device_specs(random.Random(seed), 0, 6, 5.0)
        return stats.digest(stream_fleet(specs, parallel=1).report.to_dict())

    assert run(3) == run(3) != run(4)
    assert stats.digest({"a": 1, "b": [1.5]}) == stats.digest({"b": [1.5], "a": 1})


def test_metric_names_and_units_are_valid():
    metrics = list(END_TO_END.items()) + list(layers.PER_LAYER)
    names = [name for name, _unit in metrics]
    assert len(names) == len(set(names)) and len(layers.PER_LAYER) <= 128
    assert all(NAME.match(name) for name in names)
    assert all(UNIT.match(unit) for _name, unit in metrics)


def test_benchmark_json_matches_the_code():
    path = pathlib.Path(ROOT) / "BENCHMARK.json"
    if not path.exists():
        pytest.skip("no BENCHMARK.json next to the benchmark")
    spec = json.loads(path.read_text(encoding="utf-8"))
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == END_TO_END
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(layers.PER_LAYER)
    assert [w["name"] for w in spec["workloads"]] == ["paper", "fleet", "riscv", "serve"]
