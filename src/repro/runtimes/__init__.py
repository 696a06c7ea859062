"""Energy-aware runtime systems enabled by practical voltage monitoring.

Section II-C of the paper argues that a cheap, poll-able voltage monitor
unlocks a family of runtimes beyond plain just-in-time checkpointing:
Chinchilla-style adaptive timers can drop their pessimistic guard bands,
and Dewdrop/HarvOS-style schedulers can match task energy costs to the
energy actually in the capacitor.  This package implements those systems
so the claim can be measured:

* :mod:`repro.runtimes.policies` — checkpoint policies for the RISC-V
  intermittent machine: just-in-time (FS interrupt), continuous
  (Mementos-style every-N-instructions), adaptive timer (Chinchilla),
  and the timer augmented with Failure Sentinels energy queries;
* :mod:`repro.runtimes.scheduler` — energy-aware task scheduling over
  the harvesting model, replayed event to event on exact
  constant-current intervals: an oracle-free baseline that starts tasks
  blindly versus a scheduler that polls the monitor first.
"""

from repro.runtimes.policies import (
    CheckpointDecision,
    CheckpointPolicy,
    JustInTimePolicy,
    ContinuousPolicy,
    AdaptiveTimerPolicy,
    MonitoredTimerPolicy,
)
from repro.runtimes.scheduler import (
    Task,
    TaskStats,
    BlindScheduler,
    EnergyAwareScheduler,
    SchedulerRun,
    run_schedule,
)

__all__ = [
    "CheckpointDecision",
    "CheckpointPolicy",
    "JustInTimePolicy",
    "ContinuousPolicy",
    "AdaptiveTimerPolicy",
    "MonitoredTimerPolicy",
    "Task",
    "TaskStats",
    "BlindScheduler",
    "EnergyAwareScheduler",
    "SchedulerRun",
    "run_schedule",
]
