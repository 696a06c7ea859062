"""``riscv``: the RISC-V prototype running intermittently on harvested power.

A block is 20 runs on the default fast engine: every program in
:data:`~repro.riscv.WORKLOADS` x {4.7 uF, 10 uF} x {full, differential
checkpoints}, all on one of :data:`TRACES` seeded 3600 s
``nyc_pedestrian_night`` traces.  Blocks cycle through the traces, so
the first :data:`TRACES` blocks are the 120-run matrix and every later
block must reproduce its earlier twin exactly.  Almost all time is the
``riscv`` layer; ``dse`` and ``harvest.fast`` do no work here.
"""

from __future__ import annotations

import random
from typing import List

from repro.api import WORKLOADS, IntermittentMachine
from repro.harvest.traces import nyc_pedestrian_night

TRACES = 6
TRACE_SECONDS = 3600.0
CAPACITORS = (4.7e-6, 10e-6)
DIFFERENTIAL = (False, True)


class Workload:
    min_blocks = TRACES

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.traces = [
            nyc_pedestrian_night(duration=TRACE_SECONDS, seed=rng.getrandbits(31))
            for _ in range(TRACES)
        ]
        self.programs = [
            (name, workload.assemble(), workload.expected_exit_code())
            for name, workload in WORKLOADS.items()
        ]
        self.first_outputs: List[list] = []

    def prepare(self, block: int) -> int:
        return block % TRACES

    def run_block(self, block: int, trace_index: int, request) -> dict:
        trace = self.traces[trace_index]
        twin = self.first_outputs[trace_index] if block >= TRACES else None
        outputs, records, failed = [], [], 0
        for name, program, expected in self.programs:
            for capacitance in CAPACITORS:
                for differential in DIFFERENTIAL:
                    with request(f"block{block}.{name}.{capacitance:g}.{int(differential)}"):
                        machine = IntermittentMachine(
                            program,
                            capacitance=capacitance,
                            differential_checkpoints=differential,
                        )
                        result = machine.run(trace=trace, max_wall_time=TRACE_SECONDS)
                    output = dict(result.to_dict(), nvm_bytes_written=machine.memory.nvm_bytes_written)
                    ok = result.completed and result.exit_code == expected
                    if twin is not None:
                        ok = ok and output == twin[len(outputs)]
                    failed += not ok
                    outputs.append(output)
                    records.append({"instructions": result.instructions})
        if twin is None:
            self.first_outputs.append(outputs)
        return {"attempted": len(outputs), "failed": failed, "output": outputs, "records": records}

    def check(self) -> List[str]:
        return []
