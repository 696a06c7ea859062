"""``repro.exec`` — the unified parallel-execution backbone.

The only module in the library allowed to touch
``concurrent.futures`` (CI lints for strays); every subsystem fan-out
— ``FleetRunner.run``, ``stream_fleet``, ``charlib.characterize_many``,
the experiments runner, the serve handlers — routes through
:func:`run_tasks`.  See ``docs/parallelism.md`` for the contract.
"""

from repro.exec.backbone import (
    BACKEND_ENV,
    BACKENDS,
    DEFAULT_BACKOFF_S,
    DEFAULT_RETRIES,
    make_chunks,
    resolve_backend,
    resolve_workers,
    run_tasks,
)

__all__ = [
    "BACKEND_ENV",
    "BACKENDS",
    "DEFAULT_BACKOFF_S",
    "DEFAULT_RETRIES",
    "make_chunks",
    "resolve_backend",
    "resolve_workers",
    "run_tasks",
]
