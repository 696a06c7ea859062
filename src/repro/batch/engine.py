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
operation for operation in IEEE-754 double precision:

* every per-step expression (capacitor energy update, closed-form
  charge spans, threshold-crossing jumps, sink accounting) is written
  with the scalar engine's exact association order, and ``+ - * /
  sqrt floor min max`` are all correctly rounded identically by numpy
  and CPython;
* the only transcendental on the path — the panel's low-light-knee
  exponential — is factored into :meth:`SolarPanel.power_curve`, which
  every engine shares, so per-segment input powers are bit-identical;
* every step picks its segment like the scalar engine, with one
  ``floor(t / trace_dt + 1e-9)`` index for both the input power and
  the segment end;
* the running phase takes the scalar engine's three step sizes: the
  v_ckpt-crossing jump while the load outdraws the harvest, the rest
  of the segment while harvest covers the load on a full capacitor
  (``v == v_full``, the voltage ``BufferCapacitor.apply_power``
  clamps to), and ``20 * dt`` otherwise.  Step counts match too.

In practice batch reports match the scalar engine bit-for-bit; the
documented tolerance (:data:`repro.batch.BATCH_RTOL`) covers one known
measure-zero divergence: when a lane lands within 1e-12 s of the trace
end while still charging, the scalar engine takes one spurious
sub-nanosecond restore step while the kernel retires the lane.

State-machine differences that do *not* change numbers: per-lane *obs*
events (``harvest.power_on`` etc.) are not emitted — the dispatcher
reports aggregate metrics instead.  Recording is different: with a
``record=`` sink (the :mod:`repro.trace` seam) the kernel extracts one
event per lane transition from the commit masks — ``promote`` is a
lane's power_on, ``to_ck`` its checkpoint, ``died_ck`` its power
failure, ``ck_off`` its power_off — tagged with the caller's lane
index, at the post-step time/voltage the fast scalar engine would
report.  The extraction only runs when recording, so the record-off
hot loop is unchanged.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError, SimulationError
from repro.harvest.capacitor import BufferCapacitor
from repro.harvest.simulator import SimulationReport

_OFF, _RESTORE, _RUNNING, _CHECKPOINT, _DONE = 0, 1, 2, 3, 4


class BatchHarvestEngine:
    """Run many fast-engine scenarios in numpy lockstep."""

    engine_name = "batch"

    #: Lockstep iterations of the most recent run (for telemetry).
    last_iterations = 0

    def run(
        self,
        scenarios: Sequence,
        record=None,
        lanes: Optional[Sequence[int]] = None,
    ) -> List[SimulationReport]:
        """Advance every scenario to its trace end; reports in input order.

        ``record`` is the :mod:`repro.trace` sink receiving per-lane
        transition events; ``lanes`` maps kernel lane positions to the
        caller's lane indices (the dispatcher's input order), so a
        recording of a mixed batch/scalar evaluation tags every event
        with one consistent lane numbering.
        """
        self.last_iterations = 0
        scenarios = list(scenarios)
        if not scenarios:
            return []
        rec = record
        lane_ids = list(lanes) if lanes is not None else list(range(len(scenarios)))
        if len(lane_ids) != len(scenarios):
            raise ConfigurationError("lanes must map every scenario to a lane index")
        for scenario in scenarios:
            if scenario.trace is None:
                raise ConfigurationError("scenario has no trace to replay")
            if scenario.scalar_engine != "fast":
                raise ConfigurationError(
                    "the batch kernel implements the fast engine's semantics; "
                    f"scenario asks for {scenario.scalar_engine!r}"
                )

        n = len(scenarios)
        # Constructing the scalar simulator per lane is cheap and
        # guarantees identical derived platform values (v_ckpt,
        # system_current, validation errors) to the scalar path.
        sims = [s.build_simulator("fast") for s in scenarios]
        caps = [
            BufferCapacitor(capacitance=s.capacitance, voltage=s.v_initial)
            for s in scenarios
        ]

        as_f = lambda xs: np.array(xs, dtype=np.float64)  # noqa: E731
        C = as_f([s.capacitance for s in scenarios])
        half_c = 0.5 * C
        v_on = as_f([sim.v_on for sim in sims])
        von03 = 0.3 * v_on
        v_max = as_f([cap.v_max for cap in caps])
        e_max = half_c * v_max**2
        # The voltage apply_power returns when it clamps at v_max: a
        # running lane there whose harvest covers its load is at a fixed
        # point until its segment ends.
        v_full = np.sqrt((2.0 * e_max) / C)
        e_target = half_c * v_on**2
        v_ckpt = as_f([sim.v_ckpt for sim in sims])
        e_ckpt = half_c * v_ckpt**2
        v_min = as_f([sim.checkpoint.v_min for sim in sims])
        restore_time = as_f([sim.checkpoint.restore_time for sim in sims])
        ckpt_time = as_f([sim.checkpoint.checkpoint_time for sim in sims])
        leak = as_f([sim.leakage for sim in sims])
        i_core = as_f([sim.mcu.core_current for sim in sims])
        i_per = as_f([sim.peripheral_current for sim in sims])
        i_mon = as_f([sim.monitor.current for sim in sims])
        # Draw-dict sums in the scalar engine's exact insertion order:
        # restore/checkpoint = (core + monitor) + leakage,
        # running = ((core + peripheral) + monitor) + leakage.
        i_rc = (i_core + i_mon) + leak
        i_run = ((i_core + i_per) + i_mon) + leak
        dt_on = as_f([s.dt for s in scenarios])
        dt20 = dt_on * 20.0

        trace_dt = as_f([s.trace.dt for s in scenarios])
        end = as_f([s.trace.dt * len(s.trace.values) for s in scenarios])
        powers = [s.panel.power_curve(s.trace.values) for s in scenarios]
        nseg = np.array([len(p) for p in powers], dtype=np.int64)
        last_seg = np.maximum(nseg - 1, 0)
        # One flat per-lane-offset power table: `flat[pbase + seg]` is a
        # 1-D gather, much cheaper per iteration than 2-D fancy indexing.
        slots = np.maximum(nseg, 1)
        pbase = np.concatenate(([0], np.cumsum(slots)[:-1]))
        power_flat = np.zeros(int(slots.sum()), dtype=np.float64)
        for i, p in enumerate(powers):
            if p:
                power_flat[int(pbase[i]) : int(pbase[i]) + len(p)] = p

        # Mutable lane state.  ``state`` is float64, not int8: the hot
        # loop compares it four times per iteration and numpy's float
        # compare loops are measurably faster than the int8 ones.
        t = np.zeros(n, dtype=np.float64)
        v = as_f([cap.voltage for cap in caps])
        phase_left = np.zeros(n, dtype=np.float64)
        state = np.full(n, _OFF, dtype=np.float64)
        state[end <= 0.0] = _DONE

        app_t = np.zeros(n)
        ckpt_t = np.zeros(n)
        rest_t = np.zeros(n)
        off_t = np.zeros(n)
        s_core = np.zeros(n)
        s_per = np.zeros(n)
        s_mon = np.zeros(n)
        s_leak = np.zeros(n)
        harv = np.zeros(n)
        steps = np.zeros(n, dtype=np.int64)
        checkpoints = np.zeros(n, dtype=np.int64)
        power_failures = np.zeros(n, dtype=np.int64)

        # Safety valve far above any legitimate step count (the scalar
        # engine takes ~end/dt active steps plus ~one step per segment).
        max_iters = int(4.0 * float(np.max(end / dt_on + 2.0 * nseg))) + 64
        iterations = 0

        # Hot-loop locals: at a few hundred lanes every numpy call is
        # overhead-bound, so the loop is written to minimize call count,
        # not element work.
        where = np.where
        minimum = np.minimum
        maximum = np.maximum
        floor = np.floor
        sqrt = np.sqrt
        copyto = np.copyto
        cnz = np.count_nonzero

        # The loop works full-width: every expression is evaluated for
        # all N lanes; results are committed through boolean masks, and
        # masked values reach accumulators via np.where sanitization
        # (selected lanes see the scalar engine's exact value, everyone
        # else contributes literal 0.0 — never the inf/nan garbage an
        # unselected lane may compute under the errstate block).
        #
        # Fleet/DSE batches are highly phase-coherent — lanes sharing a
        # trace charge, restore, and run together — so the branches
        # below specialize the all-charging / all-discharging /
        # all-running iterations, which skips most of the per-iteration
        # numpy call overhead on typical workloads.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            while True:
                off_m = state == _OFF
                # Lanes that left an ON phase charged (or started with
                # v_initial >= v_on) skip OFF entirely, exactly like the
                # scalar engine's `while ... voltage < v_on` guard.
                promote = off_m & (v >= v_on)
                if cnz(promote):
                    if rec is not None:
                        for i in np.nonzero(promote)[0]:
                            rec.event(
                                "power_on",
                                t=float(t[i]),
                                lane=lane_ids[i],
                                v=float(v[i]),
                            )
                    state[promote] = _RESTORE
                    copyto(phase_left, restore_time, where=promote)
                    off_m &= ~promote
                on_m = (state != _OFF) & (state != _DONE)
                n_off = cnz(off_m)
                n_on = cnz(on_m)
                if not n_off and not n_on:
                    break
                iterations += 1
                if iterations > max_iters:
                    raise SimulationError(
                        f"batch kernel exceeded {max_iters} iterations; "
                        "a lane failed to make progress"
                    )

                # Quantities both branches derive identically from the
                # current lane clocks/voltages.
                seg = floor(t / trace_dt + 1e-9)
                raw_seg = (seg + 1.0) * trace_dt
                idx = minimum(seg.astype(np.int64), last_seg)
                p_in = power_flat[pbase + idx]
                energy = half_c * (v * v)

                # ---- OFF: closed-form charge, segment by segment -----
                if n_off:
                    seg_end = minimum(end, raw_seg)
                    tiny = off_m & ((seg_end - t) <= 1e-12)
                    if cnz(tiny):
                        seg_end = where(tiny, minimum(end, seg_end + trace_dt), seg_end)
                        dead = tiny & ((seg_end - t) <= 1e-12)
                        if cnz(dead):
                            # Scalar takes one spurious sub-ns restore
                            # step here; the kernel retires the lane
                            # (the documented tolerance case).
                            state[dead] = _DONE
                            off_m &= ~dead
                            n_off = cnz(off_m)
                if n_off:
                    p_leak = leak * maximum(v, von03)
                    p_net = p_in - p_leak
                    span_seg = seg_end - t
                    chg = off_m & (p_net > 0.0)
                    n_chg = cnz(chg)
                    if n_chg:
                        # Charge: jump to min(segment end, v_on).
                        t_reach = (e_target - energy) / p_net
                        span_chg = minimum(span_seg, t_reach)
                        stuck = chg & (span_chg <= 0.0)
                        if cnz(stuck):
                            span_chg = where(
                                stuck, maximum(minimum(span_seg, 1e-6), 1e-9), span_chg
                            )
                        e_chg = energy + (p_in - p_leak) * span_chg
                    if n_chg < n_off:
                        # Discharge (p_net <= 0): leak down.  The scalar
                        # form is E + (0.0 - drained/span) * span; with
                        # both operands nonnegative that is bit-equal to
                        # the one-op-shorter E - (drained/span) * span.
                        drained = minimum(energy, -p_net * span_seg)
                        e_dis = energy - (drained / span_seg) * span_seg
                    if n_chg == n_off:
                        span = span_chg
                        e_off = e_chg
                        off_tn = t + span_chg
                        leak_j = p_leak * span_chg
                    elif n_chg == 0:
                        span = span_seg
                        e_off = e_dis
                        off_tn = seg_end
                        leak_j = p_in * span_seg + drained
                    else:
                        span = where(chg, span_chg, span_seg)
                        e_off = where(chg, e_chg, e_dis)
                        off_tn = where(chg, t + span_chg, seg_end)
                        leak_j = where(chg, p_leak * span_chg, p_in * span_seg + drained)
                    if n_off == n:
                        # Every lane is OFF this iteration: span/leak_j
                        # are the selected (finite) values everywhere, so
                        # the where-sanitization is a no-op — skip it.
                        spanz = span
                        off_t += spanz
                        harv += p_in * spanz
                        s_leak += leak_j
                    else:
                        spanz = where(off_m, span, 0.0)
                        off_t += spanz
                        harv += p_in * spanz
                        s_leak += where(off_m, leak_j, 0.0)

                # ---- ON: restore/run (jumps)/checkpoint -------------
                if n_on:
                    is_run = state == _RUNNING
                    n_run = cnz(is_run)
                    all_run = n_run == n_on
                    if all_run:
                        pout = i_run * v
                    else:
                        is_rest = state == _RESTORE
                        is_ck = state == _CHECKPOINT
                        pout = where(is_run, i_run, i_rc) * v
                    p_net_out = pout - p_in
                    if n_run:
                        # Running: jump toward the v_ckpt crossing, but
                        # never across a trace segment boundary; on a
                        # full capacitor with surplus, to the segment end.
                        t_cross = (energy - e_ckpt) / p_net_out
                        gap = raw_seg - t
                        left = end - t
                        step_run = where(
                            p_net_out > 0.0,
                            minimum(
                                minimum(maximum(t_cross, dt_on), left),
                                maximum(gap, dt_on),
                            ),
                            maximum(minimum(gap, where(v == v_full, left, dt20)), dt_on),
                        )
                    if all_run:
                        # step_run is finite on every lane (the discarded
                        # where-branch absorbs any inf/nan), so at full
                        # occupancy it needs no masking at all.
                        stepz = step_run if n_on == n else where(on_m, step_run, 0.0)
                        step_r = stepz
                        app_t += stepz
                    elif n_run == 0:
                        stepz = where(on_m, minimum(dt_on, phase_left), 0.0)
                        step_r = None
                        rest_t += where(is_rest, stepz, 0.0)
                        ckpt_t += where(is_ck, stepz, 0.0)
                    else:
                        step = where(is_run, step_run, minimum(dt_on, phase_left))
                        stepz = where(on_m, step, 0.0)
                        step_r = where(is_run, stepz, 0.0)
                        rest_t += where(is_rest, stepz, 0.0)
                        app_t += step_r
                        ckpt_t += where(is_ck, stepz, 0.0)

                    s_core += (i_core * v) * stepz
                    if step_r is not None:
                        s_per += (i_per * v) * step_r
                    s_mon += (i_mon * v) * stepz
                    s_leak += (leak * v) * stepz

                    e_on = energy + (p_in - pout) * stepz
                    on_tn = t + stepz

                # ---- shared tail: energy -> voltage, then commit -----
                if n_off and n_on:
                    active = off_m | on_m
                    e_sel = where(off_m, e_off, e_on)
                    t_next = where(off_m, off_tn, on_tn)
                elif n_off:
                    active = off_m
                    e_sel = e_off
                    t_next = off_tn
                else:
                    active = on_m
                    e_sel = e_on
                    t_next = on_tn
                e_sel = minimum(maximum(e_sel, 0.0), e_max)
                v_new = sqrt((2.0 * e_sel) / C)
                if n_off and n_chg:
                    snap = (chg & (span_chg >= t_reach)) & (v_new < v_on)
                    if cnz(snap):
                        v_new = where(snap, minimum(v_on, v_max), v_new)
                if n_on:
                    # The capacitor stores voltage; its energy property
                    # round-trips through the sqrt, so harvest accounting
                    # sees that round-tripped energy, not e_on.
                    dh = (half_c * (v_new * v_new) - energy) + pout * stepz
                    harv += dh if n_on == n else where(on_m, dh, 0.0)
                    to_ck = is_run & (v_new <= v_ckpt)
                    n_ck = cnz(to_ck)
                    if n_ck:
                        if rec is not None:
                            for i in np.nonzero(to_ck)[0]:
                                rec.event(
                                    "checkpoint",
                                    t=float(t_next[i]),
                                    lane=lane_ids[i],
                                    v=float(v_new[i]),
                                )
                        state[to_ck] = _CHECKPOINT
                        checkpoints += to_ck
                    if not all_run:
                        # Restore/checkpoint phases tick down; running
                        # does not (stepz - step_r is exactly `step`
                        # there, 0.0 for running and inactive lanes).
                        if step_r is None:
                            pl_new = phase_left - stepz
                        else:
                            pl_new = phase_left - (stepz - step_r)
                        lowv = v_new < v_min
                        pl_le = pl_new <= 0.0
                        died_rest = is_rest & lowv
                        to_run = (is_rest & ~lowv) & pl_le
                        died_ck = is_ck & lowv
                        ck_off = (is_ck & ~lowv) & pl_le
                        if rec is not None:
                            for i in np.nonzero(died_ck)[0]:
                                rec.event(
                                    "power_failure",
                                    t=float(t_next[i]),
                                    lane=lane_ids[i],
                                    v=float(v_new[i]),
                                )
                            for i in np.nonzero(ck_off)[0]:
                                rec.event(
                                    "power_off",
                                    t=float(t_next[i]),
                                    lane=lane_ids[i],
                                    v=float(v_new[i]),
                                )
                        go_off = (died_rest | died_ck) | ck_off
                        if cnz(go_off):
                            state[go_off] = _OFF
                        if cnz(to_run):
                            state[to_run] = _RUNNING
                        phase_left = pl_new
                        power_failures += died_ck
                    if n_ck:
                        copyto(phase_left, ckpt_time, where=to_ck)

                if n_off + n_on == n:
                    # Full occupancy: the masked commits degenerate to
                    # plain rebinds (t_next/v_new are the selected values
                    # on every lane).
                    steps += 1
                    t = t_next
                    v = v_new
                    done = t_next >= end
                else:
                    steps += active
                    copyto(t, t_next, where=active)
                    copyto(v, v_new, where=active)
                    done = active & (t_next >= end)
                if cnz(done):
                    state[done] = _DONE

        self.last_iterations = iterations
        reports = []
        for i, sim in enumerate(sims):
            reports.append(
                SimulationReport(
                    monitor_name=sim.monitor.name,
                    duration=float(end[i]),
                    app_time=float(app_t[i]),
                    checkpoint_time=float(ckpt_t[i]),
                    restore_time=float(rest_t[i]),
                    off_time=float(off_t[i]),
                    checkpoints=int(checkpoints[i]),
                    power_failures=int(power_failures[i]),
                    steps=int(steps[i]),
                    v_checkpoint=sim.v_ckpt,
                    system_current=sim.system_current,
                    energy_by_sink={
                        "core": float(s_core[i]),
                        "peripheral": float(s_per[i]),
                        "monitor": float(s_mon[i]),
                        "leakage": float(s_leak[i]),
                    },
                    energy_harvested=float(harv[i]),
                    energy_in_capacitor=float(half_c[i] * (v[i] * v[i])),
                )
            )
        return reports
