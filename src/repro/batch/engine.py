"""The vectorized lockstep kernel behind :func:`repro.batch.evaluate_many`.

Advances N independent harvest scenarios simultaneously: one numpy
"lane" per scenario, one loop iteration per *per-lane* step.  Each lane
keeps its own clock — there is no global time grid — so every lane
advances exactly one state-machine step per iteration, and the
iteration count is the *maximum* per-lane step count, not the sum.

Numerical contract
------------------
The kernel replicates :class:`~repro.harvest.fast.FastIntermittentSimulator`
operation for operation in IEEE-754 double precision, so its reports
equal the scalar engine's bit for bit, ``steps`` included:

* every lane, in every phase, takes the scalar engine's step through
  :func:`~repro.harvest.segment.advance_np`, the numpy twin of its
  :func:`~repro.harvest.segment.advance`.  A lane carries its phase's
  load current, thresholds and (restore and checkpoint) seconds left,
  set when it enters the phase;
* an interval ends at the next *power change*, looked up in the table
  of :func:`~repro.harvest.segment.next_changes` that the scalar
  engines read, and every step picks its segment through the same
  ``floor(t / trace_dt + 1e-9)`` index;
* the panel's low-light-knee exponential is factored into
  :meth:`SolarPanel.power_curve`, which every engine shares.

:data:`repro.batch.BATCH_RTOL` stays the documented tolerance, but the
equivalence tests assert exact equality.

Cost: lanes finish at very different step counts, so the kernel
retires finished lanes (:func:`_compact`) once a fifth of them are
done.  Loop constants are 0-d arrays.

Events: the kernel extracts one event per lane transition from the
commit masks — ``promote`` is a lane's power_on, ``to_ck`` its
checkpoint, ``died_ck`` its power failure, ``ck_off`` its power_off —
tagged with the caller's lane index, at the post-step time/voltage the
fast scalar engine would report.  They go through
:func:`repro.obs.emitter`, so a ``record=`` sink (the
:mod:`repro.trace` seam) and the obs tracer see the same events.  The
extraction only runs when one of them is on, so the hot loop is
otherwise unchanged.
"""

from __future__ import annotations

from types import SimpleNamespace
from typing import List, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.segment import DOWN as _DOWN, HELD as _HELD, advance_np, next_changes
from repro.harvest.simulator import SimulationReport
from repro.obs import emitter

#: Lane states; ``state >= _RESTORE`` selects restore, checkpoint and
#: finished lanes.
_OFF, _RUNNING, _RESTORE, _CHECKPOINT, _DONE = 0, 1, 2, 3, 4

#: Loop constants as 0-d arrays, which numpy does not convert per call
#: the way it converts a Python float (see repro.harvest.segment).
_ZERO, _EPS, _INF, _NEG_INF = (np.array(x) for x in (0.0, 1e-9, np.inf, -np.inf))


class BatchHarvestEngine:
    """Run many fast-engine scenarios in numpy lockstep."""

    engine_name = "batch"

    #: Lockstep iterations of the most recent run (for telemetry).
    last_iterations = 0

    def run(
        self,
        scenarios: Sequence,
        record=None,
    ) -> List[SimulationReport]:
        """Advance every scenario to its trace end; reports in input order.

        ``record`` is the :mod:`repro.trace` sink receiving per-lane
        transition events, each tagged with its scenario's input
        position.
        """
        self.last_iterations = 0
        scenarios = list(scenarios)
        if not scenarios:
            return []
        emit = emitter("harvest", record)
        for scenario in scenarios:
            if scenario.trace is None:
                raise ConfigurationError("scenario has no trace to replay")

        n = len(scenarios)
        # Constructing the scalar simulator per lane is cheap and
        # guarantees identical derived platform values (v_ckpt,
        # system_current, validation errors) to the scalar path.
        sims = [s.build_simulator() for s in scenarios]
        caps = [
            BufferCapacitor(capacitance=s.capacitance, voltage=s.v_initial)
            for s in scenarios
        ]

        as_f = lambda xs: np.array(xs, dtype=np.float64)  # noqa: E731
        # Every per-lane array lives on `ln`, so retiring finished lanes
        # (see _compact) shrinks all of them together.
        ln = SimpleNamespace()
        ln.pos = np.arange(n)
        ln.C = as_f([s.capacitance for s in scenarios])
        ln.half_c = 0.5 * ln.C
        ln.v_on = as_f([sim.v_on for sim in sims])
        v_max = as_f([cap.v_max for cap in caps])
        # The full capacitor's fixed point, in the scalar engine's
        # operation order.
        ln.v_full = np.sqrt((2.0 * (ln.half_c * (v_max * v_max))) / ln.C)
        ln.v_ckpt = as_f([sim.v_ckpt for sim in sims])
        ln.v_min = as_f([sim.checkpoint.v_min for sim in sims])
        ln.restore_time = as_f([sim.checkpoint.restore_time for sim in sims])
        ln.ckpt_time = as_f([sim.checkpoint.checkpoint_time for sim in sims])
        ln.leak = as_f([sim.leakage for sim in sims])
        ln.i_rc = as_f([sim.checkpoint_current for sim in sims])
        ln.i_run = as_f([sim.system_current for sim in sims])
        ln.trace_dt = as_f([s.trace.dt for s in scenarios])
        end = as_f([s.trace.dt * len(s.trace.values) for s in scenarios])
        ln.end = end
        nseg = np.array([len(s.trace.values) for s in scenarios], dtype=np.int64)
        ln.last_seg = np.maximum(nseg - 1, 0)
        # Flat per-lane-offset tables: `flat[pbase + seg]` is a 1-D
        # gather, much cheaper per iteration than 2-D fancy indexing.
        # `next_flat` holds each segment's next power change (a lane-local
        # segment index) from next_changes, the table the scalar engines
        # read, so both end intervals identically.  Lanes
        # convert one at a time, so only one lane's power curve is ever
        # alive next to the flat tables.
        slots = np.maximum(nseg, 1)
        ln.pbase = np.concatenate(([0], np.cumsum(slots)[:-1]))
        power_flat = np.zeros(int(slots.sum()), dtype=np.float64)
        next_flat = np.ones(int(slots.sum()), dtype=np.int32)
        for i, s in enumerate(scenarios):
            if nseg[i]:
                lo = int(ln.pbase[i])
                power = power_flat[lo : lo + int(nseg[i])]
                power[:] = s.panel.power_curve(s.trace.values)
                next_flat[lo : lo + int(nseg[i])] = next_changes(power)

        # Mutable lane state and the per-lane report accumulators.
        ln.t = np.zeros(n)
        ln.state = np.full(n, _OFF, dtype=np.int64)
        # Each lane's phase parameters: load current, the thresholds
        # that end a step, and the seconds left in restore/checkpoint.
        ln.i = ln.leak.copy()
        ln.v_down = np.full(n, -np.inf)
        ln.v_up = ln.v_on.copy()
        ln.left = np.full(n, np.inf)
        for name in _RESULTS:
            setattr(ln, name, np.zeros(n, dtype=_RESULTS[name]))
        ln.v = as_f([cap.voltage for cap in caps])
        out = {name: np.zeros(n, dtype=dtype) for name, dtype in _RESULTS.items()}

        where = np.where
        minimum = np.minimum
        cnz = np.count_nonzero

        def enter(mask, state, i, v_down, v_up, left):
            if not cnz(mask):
                return
            ln.state[mask] = state
            np.copyto(ln.i, i, where=mask)
            np.copyto(ln.v_down, v_down, where=mask)
            np.copyto(ln.v_up, v_up, where=mask)
            np.copyto(ln.left, left, where=mask)

        def enter_running(mask):
            enter(mask, _RUNNING, ln.i_run, ln.v_ckpt, _INF, _INF)

        ln.state[end <= 0.0] = _DONE
        instant_restore = bool(np.any(ln.restore_time <= 0.0))

        # Safety valve far above any legitimate step count: a lane takes
        # a few steps per power change and per ON cycle, and a cycle
        # lasts at least its restore, or its run from v_on down to
        # v_ckpt, or a restore that falls to v_min.
        cycle = np.minimum(
            np.where(ln.restore_time > 0.0, ln.restore_time, np.inf),
            np.minimum(
                ln.C * (ln.v_on - ln.v_ckpt) / ln.i_run,
                ln.C * (ln.v_on - ln.v_min) / ln.i_rc,
            ),
        )
        max_iters = int(np.max(16.0 * (end / cycle + 1.0) + 4.0 * nseg)) + 64
        iterations = 0

        def lanes_emit(kind, mask, times, volts):
            for i in np.nonzero(mask)[0]:
                emit(kind, t=float(times[i]), lane=int(ln.pos[i]), v=float(volts[i]))

        # The loop works full-width over the live lanes: every expression
        # is evaluated for all of them and committed through boolean
        # masks; accumulators receive np.where-sanitized values (a
        # selected lane sees the scalar engine's exact value, everyone
        # else literal 0.0 — never the inf/nan an unselected lane may
        # compute under errstate).
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while True:
                # Lanes that left an ON phase charged (or started with
                # v_initial >= v_on) skip OFF entirely, exactly like the
                # scalar engine's power-on check.
                promote = (ln.state == _OFF) & (ln.v >= ln.v_on)
                if cnz(promote):
                    if emit is not None:
                        lanes_emit("power_on", promote, ln.t, ln.v)
                    enter(promote, _RESTORE, ln.i_rc, ln.v_min, _INF, ln.restore_time)
                    if instant_restore:
                        enter_running(promote & (ln.left <= _ZERO))
                active = ln.state != _DONE
                n_active = cnz(active)
                if not n_active:
                    break
                if 5 * n_active <= 4 * len(active):
                    _compact(ln, active, out)
                    active = np.ones(n_active, dtype=bool)
                iterations += 1
                if iterations > max_iters:
                    raise SimulationError(
                        f"batch kernel exceeded {max_iters} iterations; "
                        "a lane failed to make progress"
                    )
                t = ln.t
                v = ln.v
                state = ln.state

                # ---- one interval step per lane ----------------------
                # floor() of a non-negative value: astype truncates alike.
                idx = minimum((t / ln.trace_dt + _EPS).astype(np.int64), ln.last_seg)
                at = ln.pbase + idx
                p_in = power_flat[at]
                seg_end = next_flat[at] * ln.trace_dt
                seg_left = seg_end - t
                step, v_new, event = advance_np(
                    v, minimum(seg_left, ln.left), p_in, ln.i, ln.C,
                    ln.v_full, ln.v_down, ln.v_up,
                )
                t_next = where(step == seg_left, seg_end, t + step)
                # load_energy's arithmetic.
                gain = p_in * step
                load = gain + (ln.half_c * (v * v) - ln.half_c * (v_new * v_new))
                held = event == _HELD
                if cnz(held):
                    # Full capacitor with surplus: the charger rejects
                    # what the load does not take.
                    load = where(held, (ln.i * v) * step, load)
                    gain = where(held, load, gain)
                off_m = state == _OFF
                run_m = state == _RUNNING
                rc_m = active & (state >= _RESTORE)
                down = event == _DOWN
                ln.harv += where(active, gain, _ZERO)
                ln.off_t += where(off_m, step, _ZERO)
                ln.leak_off += where(off_m, load, _ZERO)
                vdt = load / ln.i
                ln.app_t += where(run_m, step, _ZERO)
                ln.vdt_run += where(run_m, vdt, _ZERO)

                # ---- commit ------------------------------------------
                to_ck = run_m & down
                if emit is not None:
                    lanes_emit("checkpoint", to_ck, t_next, v_new)
                n_rc = cnz(rc_m)
                if n_rc:
                    is_rest = state == _RESTORE
                    is_ck = rc_m & ~is_rest
                    ln.rest_t += where(is_rest, step, _ZERO)
                    ln.ckpt_t += where(is_ck, step, _ZERO)
                    ln.vdt_rc += where(rc_m, vdt, _ZERO)
                    ln.left = ln.left - step
                    done_ok = ~down & (ln.left <= _ZERO)
                    died_ck = is_ck & down
                    ck_off = is_ck & done_ok
                    if emit is not None:
                        lanes_emit("power_failure", died_ck, t_next, v_new)
                        lanes_emit("power_off", ck_off, t_next, v_new)
                    to_off = (is_rest & down) | died_ck | ck_off
                    enter(to_off, _OFF, ln.leak, _NEG_INF, ln.v_on, _INF)
                    enter_running(is_rest & done_ok)
                    ln.power_failures += died_ck
                if cnz(to_ck):
                    enter(to_ck, _CHECKPOINT, ln.i_rc, ln.v_min, _INF, ln.ckpt_time)
                    ln.checkpoints += to_ck
                if n_active == len(active):
                    ln.steps += 1
                    ln.t = t_next
                    ln.v = v_new
                else:
                    ln.steps += active
                    ln.t = where(active, t_next, t)
                    ln.v = where(active, v_new, v)
                state[active & (ln.t >= ln.end)] = _DONE

        _compact(ln, np.zeros(len(ln.pos), dtype=bool), out)
        self.last_iterations = iterations
        reports = []
        for i, sim in enumerate(sims):
            vdt_run = float(out["vdt_run"][i])
            vdt_on = vdt_run + float(out["vdt_rc"][i])
            reports.append(
                SimulationReport(
                    monitor_name=sim.monitor.name,
                    duration=float(end[i]),
                    app_time=float(out["app_t"][i]),
                    checkpoint_time=float(out["ckpt_t"][i]),
                    restore_time=float(out["rest_t"][i]),
                    off_time=float(out["off_t"][i]),
                    checkpoints=int(out["checkpoints"][i]),
                    power_failures=int(out["power_failures"][i]),
                    steps=int(out["steps"][i]),
                    v_checkpoint=sim.v_ckpt,
                    system_current=sim.system_current,
                    # The scalar engine's sink split, from the same sums.
                    energy_by_sink={
                        "core": sim.mcu.core_current * vdt_on,
                        "peripheral": sim.peripheral_current * vdt_run,
                        "monitor": sim.monitor.current * vdt_on,
                        "leakage": float(out["leak_off"][i]) + sim.leakage * vdt_on,
                    },
                    energy_harvested=float(out["harv"][i]),
                    energy_in_capacitor=float(0.5 * sim.capacitance * (out["v"][i] * out["v"][i])),
                )
            )
        return reports


#: Per-lane report accumulators (and the final voltage), with dtypes.
_RESULTS = {
    "app_t": np.float64,
    "ckpt_t": np.float64,
    "rest_t": np.float64,
    "off_t": np.float64,
    "vdt_run": np.float64,
    "vdt_rc": np.float64,
    "leak_off": np.float64,
    "harv": np.float64,
    "v": np.float64,
    "steps": np.int64,
    "checkpoints": np.int64,
    "power_failures": np.int64,
}


def _compact(ln: SimpleNamespace, keep, out) -> None:
    """Retire every lane not in ``keep``: flush its results into ``out``
    (indexed by original lane position) and shrink all lane arrays.

    Lanes finish at very different step counts, so most of a long run
    has few live lanes; compacting keeps every numpy call sized to
    them."""
    gone = ~keep
    where_gone = ln.pos[gone]
    for name in _RESULTS:
        out[name][where_gone] = getattr(ln, name)[gone]
    for name, arr in list(vars(ln).items()):
        setattr(ln, name, arr[keep])
