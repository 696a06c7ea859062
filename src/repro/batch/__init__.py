"""Vectorized multi-scenario evaluation (``repro.batch``).

The paper's evaluation — and every layer this repo has grown on top of
it (DSE objective sweeps, fleet replays, the Table IV / Figure 8
experiments) — is embarrassingly batchable: thousands of runs that
differ only in parameters.  This package advances N independent
harvest/intermittent scenarios in lockstep through one numpy kernel,
behind a single engine-selecting entry point:

    from repro.api import Scenario, evaluate_many

    reports = evaluate_many(
        [Scenario(monitor=m, trace=trace) for m in monitors],
        engine="auto",        # "scalar" | "batch" | "auto"
        parallel=4,           # optional process fan-out
    )

Numerical contract: batch reports match the scalar
:class:`~repro.harvest.fast.FastIntermittentSimulator` within
:data:`BATCH_RTOL` (bit-identical in practice, ``steps`` included; see
:mod:`repro.batch.engine`).
"""

from repro.batch.dispatch import (
    AUTO_BATCH_MIN,
    ENGINES,
    HAS_NUMPY,
    evaluate_many,
    resolve_engine,
)
from repro.batch.scenario import (
    MIN_RUN_WINDOW_V,
    Scenario,
    apply_policy_margin,
)

#: Documented scalar-vs-batch equivalence tolerance (relative, on every
#: float field of a SimulationReport; integer fields match exactly).
BATCH_RTOL = 1e-9

__all__ = [
    "AUTO_BATCH_MIN",
    "BATCH_RTOL",
    "ENGINES",
    "HAS_NUMPY",
    "MIN_RUN_WINDOW_V",
    "Scenario",
    "apply_policy_margin",
    "evaluate_many",
    "resolve_engine",
]
