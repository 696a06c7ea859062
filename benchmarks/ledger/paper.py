"""``paper``: regenerate every table and figure, in canonical order.

One block is the whole evaluation: each experiment runs as
``repro.api.run_experiments([name], parallel=1)`` with its printout
discarded.  The experiments seed themselves, so ``--seed`` does not
change this workload.  Both hot layers of the evaluation do most of
their work here: ``dse.pareto`` through fig5 and the ext_fleet planner,
``harvest.fast`` through ext_diurnal and ext_policies.
"""

from __future__ import annotations

import contextlib
import io
import math
import traceback
from typing import List

from repro.api import run_experiments
from repro.experiments.runner import available_experiments


def _has_nan(value) -> bool:
    """NaN anywhere in a payload.  Infinity is a legitimate cell: Table 4
    gives the ideal monitor an unbounded sample rate, as the paper does."""
    if isinstance(value, float):
        return math.isnan(value)
    if isinstance(value, dict):
        return any(_has_nan(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return any(_has_nan(v) for v in value)
    return False


class Workload:
    min_blocks = 1

    def __init__(self, seed: int):
        del seed  # the experiments seed themselves
        self.names = available_experiments()

    def prepare(self, block: int) -> List[str]:
        return self.names

    def run_block(self, block: int, names: List[str], request) -> dict:
        outputs, errors, failed = [], [], 0
        for name in names:
            try:
                with request(name), contextlib.redirect_stdout(io.StringIO()):
                    (result,) = run_experiments([name], parallel=1)
                payload = result.to_dict()
            except Exception:  # noqa: BLE001 - one failed experiment must not end the run
                failed += 1
                errors.append(f"{name}: {traceback.format_exc()}")
                outputs.append(None)
                continue
            if _has_nan(payload["rows"]):
                failed += 1
                errors.append(f"{name}: NaN cell")
            outputs.append(payload)
        return {"attempted": len(names), "failed": failed, "output": outputs, "errors": errors}

    def check(self) -> List[str]:
        return []
