"""Certified surrogate characterization: interpolated V/f/P curves.

:mod:`repro.spice.charlib` caches *exact* SPICE sweeps, but every new
design point still pays a full solve.  The paper's monitor-design loop
(Section 4) queries frequency/power-vs-voltage curves per (tech node,
RO size, temperature) thousands of times across a DSE grid or a fleet
enrollment pass, and those curves are smooth — smooth enough that a
monotone interpolant fitted from a coarse *anchor grid* of real solves
reproduces them to a certified tolerance at a vanishing fraction of the
cost (the lumos ``InterpolatedUnivariateSpline`` pattern, done
rigorously).

This module provides that layer:

* :func:`fit_surrogate` — fit a pure-numpy **monotone PCHIP**
  (Fritsch–Carlson) interpolant over voltage (optionally × temperature)
  from exact :func:`~repro.spice.charlib.characterize_many` anchor
  solves, then **certify** it against held-out exact solves at every
  anchor-cell midpoint, bisecting the worst cells and refitting until
  the measured max error meets the user's tolerance;
* :class:`SurrogateModel` — the fitted, certified model: JSON
  round-trippable, stored in the two-layer
  :class:`~repro.spice.charlib.CharacterizationCache` under a
  fingerprint that covers the tolerance and anchor schema (tightening
  the tolerance can never resurface a looser model);
* :func:`dispatch` — the engine-selecting back half of
  ``characterize_many(engine="surrogate"|"auto")``: requests covered by
  a certified model evaluate vectorized in-process (microseconds per
  request), everything else falls back to exact solves.

Certification semantics: the certified error is **relative with an
absolute floor** — for each quantity ``q`` with exact values ``y`` the
model guarantees ``|model - y| <= tol * max(|y|, ABS_FLOOR_FRACTION *
max|y|)`` on the held-out grid.  The floor keeps near-zero tails (ring
current at the bottom of the range) from demanding unbounded relative
accuracy; see ``docs/surrogates.md``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass, field, replace
from operator import attrgetter
from typing import Dict, List, Optional, Sequence, Tuple

from repro.errors import ConfigurationError
from repro.obs import OBS
from repro.spice import charlib, solver
from repro.spice.charlib import (
    CharacterizationCache,
    DividerSweep,
    RingSweep,
    SweepRequest,
    SweepResult,
)
from repro.tech.ptm import TechnologyCard

import numpy as np

#: Bump when the stored model layout or the fitting recipe changes;
#: old disk models become unreachable.
SURROGATE_SCHEMA_VERSION = 1

#: Default certified relative tolerance — matches the documented
#: fast-path/baseline curve tolerance, so a surrogate answer is no
#: looser than what the exact fast path already guarantees.
DEFAULT_TOLERANCE = charlib.CHARLIB_RTOL

#: Fraction of each quantity's full-scale magnitude used as the
#: absolute floor in the certified error metric.
ABS_FLOOR_FRACTION = 1e-3

#: Anchor-count start and refinement bound for :func:`fit_surrogate`.
DEFAULT_INITIAL_ANCHORS = 9
DEFAULT_MAX_ROUNDS = 6

#: Quantities each sweep kind characterizes (curve names on
#: :class:`~repro.spice.charlib.SweepResult`).
QUANTITIES = {
    "RingSweep": ("frequency", "current"),
    "DividerSweep": ("tap", "current"),
}

#: Request fields that select *which circuit/recipe* is being swept —
#: everything except the query axes (voltages, temp_k).  Models only
#: cover requests whose structural fields match their template exactly.
#: ``"jacobian"`` always reads :data:`~repro.spice.charlib.JACOBIAN_ID`,
#: kept in place so persisted models keep their fingerprints.
_STRUCTURE_FIELDS = {
    "RingSweep": (
        "n_stages", "periods", "points_per_period", "load_cap",
        "jacobian", "early_exit", "period_rtol",
    ),
    "DividerSweep": (
        "tap", "total", "upper_width", "load_resistance", "jacobian",
    ),
}

_STRUCTURE_GETTERS = {
    kind: attrgetter(*(name for name in names if name != "jacobian"))
    for kind, names in _STRUCTURE_FIELDS.items()
}


# ----------------------------------------------------------------------
# Monotone PCHIP (Fritsch–Carlson), pure numpy
# ----------------------------------------------------------------------
def _edge_slope(h0, h1, d0, d1):
    """Shape-limited one-sided three-point endpoint derivative."""
    d = ((2.0 * h0 + h1) * d0 - h0 * d1) / (h0 + h1)
    d = np.where(d * d0 <= 0.0, 0.0, d)
    d = np.where((d0 * d1 < 0.0) & (np.abs(d) > 3.0 * np.abs(d0)), 3.0 * d0, d)
    return d


def pchip_slopes(x, y):
    """Fritsch–Carlson monotone derivatives at the knots.

    ``x`` is 1-D strictly increasing; ``y`` may carry trailing axes
    (slopes are taken along axis 0).  Where the data are monotone the
    resulting cubic Hermite interpolant is monotone; local extrema in
    the data get zero derivatives, so the interpolant never overshoots.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.ndim != 1 or x.size < 2:
        raise ConfigurationError("pchip needs at least two knots")
    if np.any(np.diff(x) <= 0):
        raise ConfigurationError("pchip knots must be strictly increasing")
    h = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
    delta = np.diff(y, axis=0) / h
    d = np.zeros_like(y)
    if x.size == 2:
        d[0] = delta[0]
        d[1] = delta[0]
        return d
    w1 = 2.0 * h[1:] + h[:-1]
    w2 = h[1:] + 2.0 * h[:-1]
    prod = delta[:-1] * delta[1:]
    with np.errstate(divide="ignore", invalid="ignore"):
        harmonic = (w1 + w2) / (w1 / delta[:-1] + w2 / delta[1:])
    d[1:-1] = np.where(prod > 0.0, harmonic, 0.0)
    d[0] = _edge_slope(h[0], h[1], delta[0], delta[1])
    d[-1] = _edge_slope(h[-1], h[-2], delta[-1], delta[-2])
    return d


def pchip_eval(x, y, d, xq):
    """Evaluate the cubic Hermite interpolant ``(x, y, d)`` at ``xq``.

    Vectorized over ``xq``; queries are clamped to the knot span (the
    coverage checks in :func:`dispatch` guarantee in-range queries, the
    clamp just defuses float round-off at the endpoints).
    """
    xq = np.asarray(xq, dtype=float)
    i = np.clip(np.searchsorted(x, xq, side="right") - 1, 0, x.size - 2)
    h = x[i + 1] - x[i]
    t = np.clip((xq - x[i]) / h, 0.0, 1.0)
    t2 = t * t
    t3 = t2 * t
    return (
        (2.0 * t3 - 3.0 * t2 + 1.0) * y[i]
        + (t3 - 2.0 * t2 + t) * h * d[i]
        + (-2.0 * t3 + 3.0 * t2) * y[i + 1]
        + (t3 - t2) * h * d[i + 1]
    )


# ----------------------------------------------------------------------
# The model
# ----------------------------------------------------------------------
def _structure_pairs(request: SweepRequest) -> Tuple[Tuple[str, object], ...]:
    kind = type(request).__name__
    values = iter(_STRUCTURE_GETTERS[kind](request))
    return tuple(
        (name, charlib.JACOBIAN_ID if name == "jacobian" else next(values))
        for name in _STRUCTURE_FIELDS[kind]
    )


def model_fingerprint(
    kind: str,
    tech: TechnologyCard,
    structure: Tuple[Tuple[str, object], ...],
    v_range: Tuple[float, float],
    temps: Tuple[float, ...],
    tolerance: float,
    initial_anchors: int,
    max_rounds: int,
) -> str:
    """Cache key for a surrogate fit.

    Covers everything that determines the fitted model: the exact-solve
    fingerprint inputs (schema, solver tolerances, full tech card,
    structural request fields) *plus* the surrogate's own contract —
    voltage span, temperature anchors, **tolerance**, and the anchor
    schema.  Tightening the tolerance or reshaping the anchor grid
    therefore changes the key: a stale looser-tolerance model can never
    be served for a stricter request.
    """
    payload = {
        "schema": SURROGATE_SCHEMA_VERSION,
        "charlib_schema": charlib.SCHEMA_VERSION,
        "kind": kind,
        "solver": {
            "residual_tol": solver.RESIDUAL_TOL,
            "update_tol": solver.UPDATE_TOL,
            "max_iterations": solver.MAX_ITERATIONS,
        },
        "tech": {f.name: getattr(tech, f.name) for f in dataclasses.fields(tech)},
        "structure": list(structure),
        "v_range": list(v_range),
        "temps": list(temps),
        "tolerance": tolerance,
        "anchors": {"initial": initial_anchors, "max_rounds": max_rounds},
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class SurrogateModel:
    """A fitted, certified interpolant over (voltage[, temperature]).

    ``values[q][i][j]`` holds quantity ``q``'s exact anchor solve at
    ``temps[i]`` × ``v_anchors[j]``.  Evaluation interpolates PCHIP
    across temperature per anchor voltage (when more than one anchor
    temperature exists), then PCHIP across voltage — and is certified
    *as evaluated*, midpoints of both axes included.

    ``certified_error`` is the measured max mixed relative error on the
    held-out grid (``cert_points`` exact solves); it is guaranteed to be
    at most ``tolerance``.  ``scales`` records each quantity's
    full-scale magnitude for the absolute floor of that metric.
    """

    kind: str
    tech: TechnologyCard
    structure: Tuple[Tuple[str, object], ...]
    temps: Tuple[float, ...]
    v_anchors: Tuple[float, ...]
    values: Dict[str, Tuple[Tuple[float, ...], ...]]
    scales: Dict[str, float]
    tolerance: float
    certified_error: float
    cert_points: int
    rounds: int
    fingerprint: str
    _rows: Dict = field(default_factory=dict, compare=False, repr=False)

    # ------------------------------------------------------------------
    def structure_key(self) -> Tuple:
        """Index key shared with requests this model can answer."""
        return (self.kind, self.tech, self.structure)

    def covers(self, v_lo: float, v_hi: float, temp_k: float, tolerance: float) -> bool:
        """Whether this model certifies ``[v_lo, v_hi]`` at ``temp_k``
        to at least ``tolerance``."""
        if self.tolerance > tolerance * (1.0 + 1e-12):
            return False
        eps = 1e-9 * max(1.0, abs(self.v_anchors[-1]))
        if v_lo < self.v_anchors[0] - eps or v_hi > self.v_anchors[-1] + eps:
            return False
        if len(self.temps) == 1:
            return abs(temp_k - self.temps[0]) <= 1e-6
        return self.temps[0] - 1e-6 <= temp_k <= self.temps[-1] + 1e-6

    # ------------------------------------------------------------------
    def _row(self, temp_k: float):
        """``(y, d)`` voltage-curve arrays per quantity at ``temp_k``
        (memoized per queried temperature)."""
        key = float(temp_k)
        row = self._rows.get(key)
        if row is not None:
            return row
        x = np.asarray(self.v_anchors)
        row = {}
        temps = np.asarray(self.temps)
        for qty, grid in self.values.items():
            g = np.asarray(grid, dtype=float)
            if temps.size == 1:
                y = g[0]
            else:
                i = np.searchsorted(temps, key)
                if i < temps.size and abs(temps[i] - key) <= 1e-9:
                    y = g[i]  # exact anchor temperature: no cross-temp pass
                else:
                    # Scalar query against the 2D grid evaluates every
                    # anchor-voltage column in one shot.
                    y = pchip_eval(temps, g, pchip_slopes(temps, g), key)
            row[qty] = (y, pchip_slopes(x, y))
        self._rows[key] = row
        return row

    def evaluate(self, voltages: Sequence[float], temp_k: float) -> Dict[str, List[float]]:
        """Interpolated quantities at ``voltages`` (plain-float lists)."""
        row = self._row(temp_k)
        x = np.asarray(self.v_anchors)
        xq = np.asarray(voltages, dtype=float)
        return {
            qty: pchip_eval(x, y, d, xq).tolist() for qty, (y, d) in row.items()
        }

    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        return {
            "schema": SURROGATE_SCHEMA_VERSION,
            "kind": self.kind,
            "tech": {
                f.name: getattr(self.tech, f.name)
                for f in dataclasses.fields(self.tech)
            },
            "structure": [[name, value] for name, value in self.structure],
            "temps": list(self.temps),
            "v_anchors": list(self.v_anchors),
            "values": {q: [list(row) for row in grid] for q, grid in self.values.items()},
            "scales": dict(self.scales),
            "tolerance": self.tolerance,
            "certified_error": self.certified_error,
            "cert_points": self.cert_points,
            "rounds": self.rounds,
            "fingerprint": self.fingerprint,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SurrogateModel":
        if data.get("schema") != SURROGATE_SCHEMA_VERSION:
            raise ConfigurationError(
                f"surrogate schema {data.get('schema')!r} != {SURROGATE_SCHEMA_VERSION}"
            )
        return cls(
            kind=data["kind"],
            tech=TechnologyCard(**data["tech"]),
            structure=tuple((name, value) for name, value in data["structure"]),
            temps=tuple(data["temps"]),
            v_anchors=tuple(data["v_anchors"]),
            values={
                q: tuple(tuple(row) for row in grid)
                for q, grid in data["values"].items()
            },
            scales=dict(data["scales"]),
            tolerance=data["tolerance"],
            certified_error=data["certified_error"],
            cert_points=data["cert_points"],
            rounds=data["rounds"],
            fingerprint=data["fingerprint"],
        )


# ----------------------------------------------------------------------
# Fitting + certification
# ----------------------------------------------------------------------
def _point_request(template: SweepRequest, temp_k: float, v: float) -> SweepRequest:
    return replace(template, voltages=(v,), temp_k=temp_k)


def _exact_points(
    template: SweepRequest,
    points: List[Tuple[float, float]],
    quantities: Tuple[str, ...],
    parallel: Optional[int],
    cache: CharacterizationCache,
) -> Dict[Tuple[float, float], Dict[str, float]]:
    """Exact solves at ``(temp, voltage)`` points, one cache entry each.

    Single-voltage requests make every point its own cache key, so
    anchor solves are shared across refinement rounds, refits at other
    tolerances, and plain exact characterization of the same points.
    """
    requests = [_point_request(template, t, v) for t, v in points]
    results = charlib.characterize_many(
        requests, engine="exact", parallel=parallel, cache=cache
    )
    out = {}
    for point, result in zip(points, results):
        out[point] = {qty: getattr(result, qty)[0] for qty in quantities}
    return out


def _midpoints(knots: Sequence[float]) -> List[float]:
    return [0.5 * (a + b) for a, b in zip(knots[:-1], knots[1:])]


def _certify(
    model: SurrogateModel,
    exact: Dict[Tuple[float, float], Dict[str, float]],
    cert_points: List[Tuple[float, float]],
    quantities: Tuple[str, ...],
) -> Tuple[float, Tuple[float, float]]:
    """Max mixed relative error over ``cert_points`` and its argmax."""
    worst = 0.0
    worst_point = cert_points[0]
    by_temp: Dict[float, List[float]] = {}
    for t, v in cert_points:
        by_temp.setdefault(t, []).append(v)
    for t, volts in by_temp.items():
        predicted = model.evaluate(volts, t)
        for j, v in enumerate(volts):
            truth = exact[(t, v)]
            for qty in quantities:
                y = truth[qty]
                denom = max(abs(y), ABS_FLOOR_FRACTION * model.scales[qty])
                err = abs(predicted[qty][j] - y) / denom
                if err > worst:
                    worst, worst_point = err, (t, v)
    return worst, worst_point


def fit_surrogate(
    template: SweepRequest,
    *,
    tolerance: float = DEFAULT_TOLERANCE,
    temps: Optional[Sequence[float]] = None,
    initial_anchors: int = DEFAULT_INITIAL_ANCHORS,
    max_rounds: int = DEFAULT_MAX_ROUNDS,
    parallel: Optional[int] = None,
    cache: Optional[CharacterizationCache] = None,
) -> SurrogateModel:
    """Fit and certify a surrogate over ``template``'s voltage span.

    ``template``'s ``voltages`` define the covered span ``[min, max]``
    (a single voltage is padded ±10% so on-demand fits for point
    queries still interpolate); its other fields fix the circuit and
    solve recipe.  ``temps`` adds anchor temperatures (default: the
    template's ``temp_k`` only — the model then covers that exact
    temperature; two or more temps cover the whole span between them).

    The fit loop: solve the anchor grid exactly, fit the PCHIP model,
    solve the held-out midpoints (both axes) exactly, measure the worst
    mixed relative error — and if it exceeds ``tolerance``, bisect
    every voltage cell (and anchor temperature gap) containing a
    failing held-out point and refit, reusing every prior solve through
    the characterization cache.  Raises
    :class:`~repro.errors.ConfigurationError` when ``max_rounds``
    refinements cannot reach the tolerance.

    The certified model is stored in (and, when already present,
    returned straight from) ``cache`` under
    :func:`model_fingerprint` — which includes the tolerance and anchor
    schema, so distinct contracts never collide.
    """
    if tolerance <= 0:
        raise ConfigurationError("surrogate tolerance must be positive")
    if initial_anchors < 3:
        raise ConfigurationError("surrogate needs at least 3 initial anchors")
    kind = type(template).__name__
    if kind not in QUANTITIES:
        raise ConfigurationError(f"unknown sweep request {kind}")
    cache = cache if cache is not None else charlib.default_cache()
    quantities = QUANTITIES[kind]
    structure = _structure_pairs(template)

    v_lo, v_hi = min(template.voltages), max(template.voltages)
    if v_hi <= v_lo:
        v_lo, v_hi = 0.9 * v_lo, 1.1 * v_hi
    temp_list = sorted(set(float(t) for t in (temps or ())) | {float(template.temp_k)})

    fp = model_fingerprint(
        kind, template.tech, structure, (v_lo, v_hi), tuple(temp_list),
        tolerance, initial_anchors, max_rounds,
    )
    existing = cache.get_model(fp)
    if existing is not None:
        return existing

    anchors = np.linspace(v_lo, v_hi, initial_anchors).tolist()
    with OBS.tracer.span(
        "spice.surrogate_fit", kind=kind, tech=template.tech.name,
        tolerance=tolerance,
    ) as span:
        for round_no in range(max_rounds + 1):
            v_mids = _midpoints(anchors)
            t_mids = _midpoints(temp_list)
            anchor_points = [(t, v) for t in temp_list for v in anchors]
            cert_points = [(t, v) for t in temp_list for v in v_mids]
            cert_points += [(t, v) for t in t_mids for v in anchors + v_mids]
            exact = _exact_points(
                template, anchor_points + cert_points, quantities, parallel, cache
            )
            _check_alive(exact, quantities, kind)
            values = {
                qty: tuple(
                    tuple(exact[(t, v)][qty] for v in anchors) for t in temp_list
                )
                for qty in quantities
            }
            scales = {
                qty: max(abs(y[qty]) for y in exact.values()) or 1.0
                for qty in quantities
            }
            model = SurrogateModel(
                kind=kind,
                tech=template.tech,
                structure=structure,
                temps=tuple(temp_list),
                v_anchors=tuple(anchors),
                values=values,
                scales=scales,
                tolerance=tolerance,
                certified_error=0.0,
                cert_points=len(cert_points),
                rounds=round_no,
                fingerprint=fp,
            )
            worst, worst_point = _certify(model, exact, cert_points, quantities)
            if worst <= tolerance:
                model.certified_error = worst
                cache.put_model(model)
                span.set(rounds=round_no, anchors=len(anchors), error=worst)
                OBS.metrics.incr("spice.surrogate_fits")
                return model
            # Refine: bisect every failing voltage cell (its midpoint is
            # already solved — this round's held-out point becomes next
            # round's anchor) and any failing anchor-temperature gap.
            failing_v, failing_t = set(), set()
            mid_v = set(v_mids)
            mid_t = set(t_mids)
            for t, v in cert_points:
                predicted = model.evaluate([v], t)
                truth = exact[(t, v)]
                for qty in quantities:
                    denom = max(abs(truth[qty]), ABS_FLOOR_FRACTION * scales[qty])
                    if abs(predicted[qty][0] - truth[qty]) / denom > tolerance:
                        # Bisect voltage first; only charge the
                        # temperature axis when the voltage there is
                        # already an anchor (so it cannot be at fault).
                        if v in mid_v:
                            failing_v.add(v)
                        elif t in mid_t:
                            failing_t.add(t)
            if not failing_v and not failing_t:
                # Worst point sits on an anchor voltage at a midpoint
                # temperature (or vice versa) — bisect around the argmax.
                t_bad, v_bad = worst_point
                if v_bad in mid_v:
                    failing_v.add(v_bad)
                if t_bad in mid_t:
                    failing_t.add(t_bad)
            anchors = sorted(set(anchors) | failing_v)
            temp_list = sorted(set(temp_list) | failing_t)
    raise ConfigurationError(
        f"surrogate for {kind} ({template.tech.name}) did not certify: "
        f"error {worst:.3e} > tolerance {tolerance:.3e} after {max_rounds} "
        f"refinement rounds ({len(anchors)} anchors); loosen the tolerance "
        f"or narrow the voltage span"
    )


def _check_alive(exact, quantities, kind: str) -> None:
    """The primary quantity must be live at every solved point —
    surrogates only certify over the oscillating/converged region."""
    primary = quantities[0]
    for (t, v), values in exact.items():
        if values[primary] <= 0.0:
            raise ConfigurationError(
                f"{kind} surrogate anchor at {v:.3f} V / {t:.1f} K is dead "
                f"({primary} <= 0); raise the voltage span above the "
                f"oscillation/convergence cutoff"
            )


# ----------------------------------------------------------------------
# Engine dispatch (the back half of charlib.characterize_many)
# ----------------------------------------------------------------------
def _fast_result(kind, fingerprint, voltages, quantities, curves, offset):
    """Build a surrogate :class:`SweepResult` without dataclass-init
    overhead — this runs once per request on the 10^5-request hot path."""
    result = object.__new__(SweepResult)
    d = {
        "kind": kind,
        "fingerprint": fingerprint,
        "voltages": voltages,
        "frequency": (),
        "current": (),
        "tap": (),
        "source": "surrogate",
    }
    n = len(voltages)
    for qty in quantities:
        d[qty] = tuple(curves[qty][offset:offset + n])
    result.__dict__.update(d)
    return result


def dispatch(
    requests: List[SweepRequest],
    *,
    engine: str,
    parallel: Optional[int],
    cache: CharacterizationCache,
    tolerance: Optional[float],
) -> List[SweepResult]:
    """Surrogate-aware request routing for ``engine="surrogate"|"auto"``.

    Requests covered by a certified cached model are answered by one
    vectorized interpolant evaluation per (model, temperature) group;
    the rest fall back to exact characterization (``engine="auto"``) or
    trigger an on-demand :func:`fit_surrogate` per uncovered circuit
    group (``engine="surrogate"``).  Results come back in request
    order, duplicate requests share one result object (matching the
    exact cache's semantics), and the exact fallback fans out through
    :func:`repro.exec.run_tasks` exactly as ``engine="exact"`` does —
    so serial and parallel runs are identical.
    """
    tol = DEFAULT_TOLERANCE if tolerance is None else float(tolerance)
    n = len(requests)
    results: List[Optional[SweepResult]] = [None] * n
    seen: Dict[tuple, int] = {}       # dispatch key -> first index
    aliases: List[Tuple[int, int]] = []
    exact_idx: List[int] = []
    # (id(model), temp) -> [voltage list, [(index, v_count), ...]]
    groups: Dict[tuple, list] = {}
    model_by_gid: Dict[int, SurrogateModel] = {}
    # cheap per-call circuit key -> list of candidate models (or None)
    candidates_memo: Dict[tuple, list] = {}
    uncovered: Dict[tuple, list] = {}  # circuit key -> request indices (surrogate engine)

    for i, req in enumerate(requests):
        kind = type(req).__name__
        circuit_key = (kind, id(req.tech)) + _STRUCTURE_GETTERS[kind](req)
        key = (circuit_key, req.voltages, req.temp_k)
        first = seen.get(key)
        if first is not None:
            aliases.append((i, first))
            continue
        seen[key] = i
        candidates = candidates_memo.get(circuit_key)
        if candidates is None:
            candidates = cache.find_models((kind, req.tech, _structure_pairs(req)))
            candidates_memo[circuit_key] = candidates
        v_lo, v_hi = min(req.voltages), max(req.voltages)
        model = None
        for candidate in candidates:
            if candidate.covers(v_lo, v_hi, req.temp_k, tol):
                model = candidate
                break
        if model is None:
            if engine == "auto":
                exact_idx.append(i)
            else:
                uncovered.setdefault(circuit_key, []).append(i)
            continue
        _enqueue(groups, model_by_gid, model, req, i)

    # engine="surrogate": fit one model per uncovered circuit group over
    # the union of its requests' spans, then route the group through it.
    for circuit_key, idxs in uncovered.items():
        reqs = [requests[i] for i in idxs]
        span = [v for r in reqs for v in (min(r.voltages), max(r.voltages))]
        temp_set = sorted({r.temp_k for r in reqs})
        template = replace(reqs[0], voltages=(min(span), max(span)))
        model = fit_surrogate(
            template, tolerance=tol, temps=temp_set, parallel=parallel, cache=cache
        )
        for i in idxs:
            _enqueue(groups, model_by_gid, model, requests[i], i)

    if exact_idx:
        OBS.metrics.incr("spice.surrogate_fallbacks", len(exact_idx))
        for i, result in zip(
            exact_idx,
            charlib._characterize_exact(
                [requests[i] for i in exact_idx], parallel=parallel, cache=cache
            ),
        ):
            results[i] = result

    hits = 0
    for (gid, temp_k), (volts, members) in groups.items():
        model = model_by_gid[gid]
        curves = model.evaluate(volts, temp_k)
        mfp = model.fingerprint
        kind = model.kind
        quantities = QUANTITIES[kind]
        offset = 0
        for i, count in members:
            results[i] = _fast_result(
                kind, mfp, requests[i].voltages, quantities, curves, offset
            )
            offset += count
        hits += len(members)
    if hits:
        OBS.metrics.incr("spice.surrogate_hits", hits)
        cache.stats.surrogate_hits += hits

    for i, first in aliases:
        results[i] = results[first]
    return results  # type: ignore[return-value]


def _enqueue(groups, model_by_gid, model, req, i) -> None:
    gid = id(model)
    model_by_gid[gid] = model
    group = groups.get((gid, req.temp_k))
    if group is None:
        group = groups[(gid, req.temp_k)] = [[], []]
    group[0].extend(req.voltages)
    group[1].append((i, len(req.voltages)))


__all__ = [
    "ABS_FLOOR_FRACTION",
    "DEFAULT_INITIAL_ANCHORS",
    "DEFAULT_MAX_ROUNDS",
    "DEFAULT_TOLERANCE",
    "QUANTITIES",
    "SURROGATE_SCHEMA_VERSION",
    "SurrogateModel",
    "fit_surrogate",
    "model_fingerprint",
    "pchip_eval",
    "pchip_slopes",
]
