"""The vectorized lockstep kernel behind :func:`repro.batch.evaluate_many`.

Advances N independent harvest scenarios simultaneously: one numpy
"lane" per scenario, one loop iteration per *per-lane* adaptive step.
Each lane keeps its own clock — there is no global time grid — so a
lane charging through 100 ms trace segments and a lane integrating a
checkpoint at 1 ms both advance exactly one state-machine step per
iteration, and the iteration count is the *maximum* per-lane step
count, not the sum.

Numerical contract
------------------
The kernel replicates :class:`~repro.harvest.fast.FastIntermittentSimulator`
operation for operation in IEEE-754 double precision, so its reports
equal the scalar engine's bit for bit, ``steps`` included:

* OFF and running lanes take one exact constant-current interval per
  step through the numpy forms of :mod:`repro.harvest.segment`
  (``voltage_after_np``, ``crossing_time_np``, and ``load_energy``'s
  arithmetic), which perform the scalar forms' operations in the same
  order; a handful of crossings use the scalar form itself.  ``+ - * /
  sqrt floor min max`` round identically in numpy and CPython, and the
  solver's logarithms and exponentials are numpy's in both engines
  (``np.log`` on a Python float): libm differs from numpy by an ulp on
  some inputs, numpy's scalar and array calls never do;
* an interval ends at the next *power change*, looked up in the table
  of :func:`~repro.harvest.segment.power_changes` that the scalar
  engine bisects, and every step picks its segment through the same
  ``floor(t / trace_dt + 1e-9)`` index;
* the panel's low-light-knee exponential is factored into
  :meth:`SolarPanel.power_curve`, which every engine shares;
* restore and checkpoint lanes take the scalar engine's ``dt`` steps
  with :meth:`BufferCapacitor.apply_power`'s exact arithmetic.

:data:`repro.batch.BATCH_RTOL` stays the documented tolerance, but the
equivalence tests assert exact equality.

Cost: lanes finish at very different step counts, so the kernel
retires finished lanes (:func:`_compact`) once a fifth of them are
done.  Each iteration solves every interval whole in one numpy call,
and the crossing solve runs only on lanes whose interval ends past a
threshold.  Loop constants are 0-d arrays.

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
from repro.harvest.segment import (
    crossing_time,
    crossing_time_np,
    power_changes,
    voltage_after_np,
)
from repro.harvest.simulator import SimulationReport
from repro.obs import emitter

#: Lane states; ``state <= _RUNNING`` selects the exact-interval phases.
_OFF, _RUNNING, _RESTORE, _CHECKPOINT, _DONE = 0, 1, 2, 3, 4

#: Loop constants as 0-d arrays, which numpy does not convert per call
#: the way it converts a Python float (see repro.harvest.segment).
_ZERO, _TWO, _EPS = np.array(0.0), np.array(2.0), np.array(1e-9)


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
        ln.v_on_land = np.minimum(ln.v_on, v_max)
        ln.e_max = ln.half_c * (v_max * v_max)
        # The voltage apply_power returns when it clamps at v_max: a
        # running lane there whose harvest covers its load is at a fixed
        # point until its interval ends.
        ln.v_full = np.sqrt((2.0 * ln.e_max) / ln.C)
        ln.v_ckpt = as_f([sim.v_ckpt for sim in sims])
        ln.v_min = as_f([sim.checkpoint.v_min for sim in sims])
        ln.restore_time = as_f([sim.checkpoint.restore_time for sim in sims])
        ln.ckpt_time = as_f([sim.checkpoint.checkpoint_time for sim in sims])
        ln.leak = as_f([sim.leakage for sim in sims])
        # Restore/checkpoint draw in the scalar engine's exact order:
        # (core + monitor) + leakage; running draws system_current.
        i_core = as_f([sim.mcu.core_current for sim in sims])
        i_mon = as_f([sim.monitor.current for sim in sims])
        ln.i_rc = (i_core + i_mon) + ln.leak
        ln.i_run = as_f([sim.system_current for sim in sims])
        ln.dt_on = as_f([s.dt for s in scenarios])
        ln.trace_dt = as_f([s.trace.dt for s in scenarios])
        end = as_f([s.trace.dt * len(s.trace.values) for s in scenarios])
        ln.end = end
        nseg = np.array([len(s.trace.values) for s in scenarios], dtype=np.int64)
        ln.last_seg = np.maximum(nseg - 1, 0)
        # Flat per-lane-offset tables: `flat[pbase + seg]` is a 1-D
        # gather, much cheaper per iteration than 2-D fancy indexing.
        # `next_flat` holds each segment's next power change (a lane-local
        # segment index), expanded from the power_changes table the
        # scalar engine bisects, so both end intervals identically.  Lanes
        # convert one at a time, so only one lane's power list is ever
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
                changes = power_changes(power)
                next_flat[lo : lo + int(nseg[i])] = np.repeat(
                    changes, np.diff(changes, prepend=0)
                )

        # Mutable lane state and the per-lane report accumulators.
        ln.t = np.zeros(n)
        ln.phase_left = np.zeros(n)
        ln.state = np.full(n, _OFF, dtype=np.int64)
        ln.state[end <= 0.0] = _DONE
        for name in _RESULTS:
            setattr(ln, name, np.zeros(n, dtype=_RESULTS[name]))
        ln.v = as_f([cap.voltage for cap in caps])
        out = {name: np.zeros(n, dtype=dtype) for name, dtype in _RESULTS.items()}

        # Safety valve far above any legitimate step count (the scalar
        # engine takes ~end/dt active steps plus ~two per interval).
        max_iters = int(4.0 * float(np.max(end / ln.dt_on + 2.0 * nseg))) + 64
        iterations = 0

        where = np.where
        minimum = np.minimum
        cnz = np.count_nonzero

        def lanes_emit(kind, mask, times, volts):
            for i in np.nonzero(mask)[0]:
                emit(kind, t=float(times[i]), lane=int(ln.pos[i]), v=float(volts[i]))

        # The loop works full-width over the live lanes: every expression
        # is evaluated for all of them and committed through boolean
        # masks; accumulators receive np.where-sanitized values (a
        # selected lane sees the scalar engine's exact value, everyone
        # else literal 0.0 — never the inf/nan an unselected lane may
        # compute under errstate).  An iteration with no restore or
        # checkpoint lane skips that block, and one with no OFF or
        # running lane never calls the interval solver.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while True:
                # Lanes that left an ON phase charged (or started with
                # v_initial >= v_on) skip OFF entirely, exactly like the
                # scalar engine's `while ... voltage < v_on` guard.
                off_m = ln.state == _OFF
                promote = off_m & (ln.v >= ln.v_on)
                if cnz(promote):
                    if emit is not None:
                        lanes_emit("power_on", promote, ln.t, ln.v)
                    ln.state[promote] = _RESTORE
                    np.copyto(ln.phase_left, ln.restore_time, where=promote)
                    off_m &= ~promote
                active = ln.state != _DONE
                n_active = cnz(active)
                if not n_active:
                    break
                if 5 * n_active <= 4 * len(active):
                    off_m = off_m[active]
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
                run_m = state == _RUNNING
                int_m = state <= _RUNNING
                n_int = cnz(int_m)

                # floor() of a non-negative value: astype truncates alike.
                idx = minimum((t / ln.trace_dt + _EPS).astype(np.int64), ln.last_seg)
                at = ln.pbase + idx
                p_in = power_flat[at]
                e0 = ln.half_c * (v * v)
                t_next = t
                v_new = v

                # ---- OFF and running: one exact interval step --------
                if n_int:
                    seg_end = next_flat[at] * ln.trace_dt
                    span = seg_end - t
                    # Lanes outside an interval get the OFF current: their
                    # results are discarded, and OFF-like lanes keep the
                    # solver's array all-charging more often (one branch).
                    i_int = where(run_m, ln.i_run, ln.leak)
                    # Solve every interval whole (full width: other lanes'
                    # results are discarded), then find crossing times
                    # only where an interval ends past a threshold, with
                    # the scalar engine's priorities.
                    v_end = minimum(voltage_after_np(v, span, p_in, i_int, ln.C), ln.v_full)
                    hit_on = off_m & (v_end >= ln.v_on)
                    hit_ck = run_m & (v_end <= ln.v_ckpt)
                    hit = hit_on | hit_ck
                    full = run_m & (v == ln.v_full)
                    top = run_m & (v_end >= ln.v_full)
                    n_full = cnz(full)
                    fixed = None
                    if n_full or cnz(top):
                        v_eq = p_in / i_int
                        fixed = full & (v_eq >= ln.v_full)
                        hit |= (top & ~fixed) & (v_eq > ln.v_full)
                    # `step`, `t_next` and `v_new` are fresh arrays: the
                    # few crossing lanes are written into them in place.
                    step = span
                    t_next = seg_end
                    v_new = v_end
                    ix = np.flatnonzero(hit)
                    if len(ix):
                        step_ix, v_ix = _crossings(ix, v, p_in, i_int, span, off_m, hit_ck, ln)
                        step[ix] = step_ix
                        t_next[ix] = t[ix] + step_ix
                        v_new[ix] = v_ix
                    # load_energy's arithmetic, sharing E(v) with the
                    # restore/checkpoint block.
                    gain = p_in * step
                    load = gain + (e0 - ln.half_c * (v_new * v_new))
                    if fixed is not None and cnz(fixed):
                        # Full capacitor with surplus: a fixed point, the
                        # charger rejects what the load does not take.
                        v_new = where(fixed, v, v_new)
                        load = where(fixed, (ln.i_run * v) * step, load)
                        gain = where(fixed, load, gain)
                    ln.harv += where(int_m, gain, _ZERO)
                    ln.off_t += where(off_m, step, _ZERO)
                    ln.leak_off += where(off_m, load, _ZERO)
                    ln.app_t += where(run_m, step, _ZERO)
                    ln.vdt_run += where(run_m, load / ln.i_run, _ZERO)

                # ---- restore/checkpoint: fixed dt steps --------------
                n_rc = n_active - n_int
                if n_rc:
                    rc_m = active & ~int_m
                    is_rest = state == _RESTORE
                    is_ck = state == _CHECKPOINT
                    # phase_left means nothing outside these phases (it is
                    # set on entry), so it ticks down on every lane.
                    step_rc = minimum(ln.dt_on, ln.phase_left)
                    ln.rest_t += where(is_rest, step_rc, _ZERO)
                    ln.ckpt_t += where(is_ck, step_rc, _ZERO)
                    ln.vdt_rc += where(rc_m, v * step_rc, _ZERO)
                    pout = ln.i_rc * v
                    e_rc = minimum(np.maximum(e0 + (p_in - pout) * step_rc, _ZERO), ln.e_max)
                    v_rc = np.sqrt((_TWO * e_rc) / ln.C)
                    # The capacitor stores voltage, so harvest accounting
                    # sees the sqrt round-tripped energy.
                    dh = (ln.half_c * (v_rc * v_rc) - e0) + pout * step_rc
                    ln.harv += where(rc_m, dh, _ZERO)
                    t_next = where(rc_m, t + step_rc, t_next)
                    v_new = where(rc_m, v_rc, v_new)
                    ln.phase_left = ln.phase_left - step_rc
                    low = v_rc < ln.v_min
                    done_ok = ~low & (ln.phase_left <= _ZERO)
                    died_ck = is_ck & low
                    ck_off = is_ck & done_ok
                    to_run = is_rest & done_ok

                # ---- commit ------------------------------------------
                to_ck = run_m & (v_new <= ln.v_ckpt)
                if emit is not None:
                    lanes_emit("checkpoint", to_ck, t_next, v_new)
                    if n_rc:
                        lanes_emit("power_failure", died_ck, t_next, v_new)
                        lanes_emit("power_off", ck_off, t_next, v_new)
                if n_rc:
                    state[(rc_m & low) | ck_off] = _OFF
                    state[to_run] = _RUNNING
                    ln.power_failures += died_ck
                if cnz(to_ck):
                    state[to_ck] = _CHECKPOINT
                    ln.checkpoints += to_ck
                    np.copyto(ln.phase_left, ln.ckpt_time, where=to_ck)
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


#: Below this many lanes the scalar crossing solve (bit-identical to the
#: numpy form) beats the numpy form's fixed per-call cost.
_SCALAR_CROSSINGS = 24


def _crossings(ix, v, p_in, i_int, span, off_m, hit_ck, ln):
    """Step and landing voltage of the lanes ``ix``, whose interval ends
    past a threshold: v_on (OFF), v_ckpt (``hit_ck``) or v_full.  The
    step is the crossing time capped at the span, or 0 for a lane that
    starts at or below v_ckpt, as in the scalar engine."""
    if len(ix) <= _SCALAR_CROSSINGS:
        steps, volts = [], []
        for i in ix.tolist():
            vi = float(v[i])
            if off_m[i]:
                target = float(ln.v_on[i])
                land = float(ln.v_on_land[i])
            elif hit_ck[i]:
                target = float(ln.v_ckpt[i])
                land = min(vi, target)
                if vi <= target:
                    steps.append(0.0)
                    volts.append(land)
                    continue
            else:
                target = land = float(ln.v_full[i])
            t = crossing_time(vi, target, float(p_in[i]), float(i_int[i]), float(ln.C[i]))
            steps.append(t if t < span[i] else float(span[i]))
            volts.append(land)
        return steps, volts
    v_ix, off_ix, ck_ix, span_ix = v[ix], off_m[ix], hit_ck[ix], span[ix]
    target = np.where(off_ix, ln.v_on[ix], np.where(ck_ix, ln.v_ckpt[ix], ln.v_full[ix]))
    t = crossing_time_np(v_ix, target, p_in[ix], i_int[ix], ln.C[ix])
    t = np.where(t < span_ix, t, span_ix)
    steps = np.where(ck_ix & (v_ix <= target), 0.0, t)
    volts = np.where(off_ix, ln.v_on_land[ix], np.where(ck_ix, np.minimum(v_ix, target), target))
    return steps, volts
