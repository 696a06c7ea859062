"""Characterization library: batch circuit sweeps behind a persistent cache.

Every circuit-level workload in this repository — the fig1 frequency
curves, divider droop checks, fleet enrollment cross-checks, DSE
validation — reduces to the same access pattern the paper's LTspice flow
has: *characterize a circuit once, query the curve many times*.  This
module is the front door for that pattern, mirroring
:func:`repro.batch.evaluate_many`:

>>> from repro.spice.charlib import RingSweep, characterize_many
>>> sweep = RingSweep(tech=TECH_90NM, n_stages=5, voltages=(0.8, 1.0, 1.2))
>>> [result] = characterize_many([sweep], parallel=4)
>>> result.frequency      # Hz per sweep voltage

``engine=`` selects how curves are produced, mirroring
``evaluate_many(engine=)``:

* ``"exact"`` — every point is a real SPICE solve (cached);
* ``"surrogate"`` — answer from a certified
  :mod:`repro.spice.surrogate` interpolant, fitting one on demand when
  no cached model covers the request;
* ``"auto"`` (default) — use a certified surrogate when one already
  covers the request *and* its tolerance, fall back to exact
  otherwise.  With no fitted models this is byte-identical to
  ``"exact"``, so the default is fully backward compatible.

Curves and certified surrogate models share one store,
:class:`CharacterizationCache`: memory in front of one JSON file per
key, on disk by default.  A curve's key is a fingerprint of
*everything that determines the answer*: a schema version, every field
of the technology card, every field of the sweep request, and the
solver tolerances.  Editing a tech card therefore busts the cache
automatically — the key changes, the old entry is simply never looked
up again.  Set ``REPRO_CHARLIB_CACHE`` to move the disk cache, or pass
a fresh ``cache=CharacterizationCache()`` (memory only) for cold runs.

Parallelism follows the fleet/batch idiom: the parent process resolves
every request against the cache first, fans only the misses out through
the :mod:`repro.exec` backbone, and is the sole cache writer — workers
never touch the cache, so parallel runs cannot race it.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import math
import numbers
import os
import tempfile
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.analog.divider import (
    VoltageDivider,
    build_divider_circuit,
    divider_tap_node,
)
from repro.analog.ring_oscillator import (
    MAX_STAGES,
    MIN_STAGES,
    RingOscillator,
    build_ro_circuit,
    is_valid_ro_length,
    staggered_initial_condition,
)
from repro.errors import ConfigurationError, ConvergenceError
from repro.exec import run_tasks
from repro.obs import OBS
from repro.spice import solver
from repro.spice.devices import VoltageSource
from repro.spice.waveform import Waveform
from repro.tech.ptm import TechnologyCard
from repro.units import ROOM_TEMP_K

#: Bump when the stored result layout or the simulation recipe changes;
#: old disk entries become unreachable (never deleted, never trusted).
SCHEMA_VERSION = 1

#: Documented tolerance between the fast path (stamped Jacobian +
#: early exit) and the finite-difference/full-horizon baseline for the
#: quantities charlib reports (frequency, current, tap voltage).  The
#: benchmark and the equivalence tests assert against this.
CHARLIB_RTOL = 0.02

#: Environment variable overriding the default on-disk cache location.
CACHE_ENV = "REPRO_CHARLIB_CACHE"

#: The solver's one Jacobian assembly (device stamps).  Fingerprints,
#: sweep payloads and surrogate structures still carry it as
#: ``"jacobian"``, so caches and payloads written before stay valid.
JACOBIAN_ID = "stamp"

#: Valid values for ``characterize_many(engine=)``.
CHAR_ENGINES = ("auto", "exact", "surrogate")

#: Bound on ``RingSweep.periods * points_per_period``: the backward-Euler
#: steps one voltage point may take.  The default request takes
#: 12 x 64 = 768.
MAX_RING_STEPS = 100_000

#: Bound on the voltage points of one sweep, and of one serve
#: ``characterize`` job over all its sweeps.  At ``MAX_RING_STEPS`` one
#: ring point costs ~15.3 s, so a full job is at most ~16 min of SPICE.
MAX_SWEEP_POINTS = 64

#: Rising edges discarded before measuring frequency/current — the
#: staggered start needs a couple of periods to settle into the limit
#: cycle.
SETTLE_EDGES = 2


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class RingSweep:
    """Frequency/current-vs-voltage characterization of a device-level ring.

    ``periods`` bounds the simulated horizon per voltage point;
    ``early_exit`` (default) stops each run as soon as the extracted
    period has converged to ``period_rtol``, so the bound is rarely
    reached.  ``points_per_period`` sets the backward-Euler step from
    the analytic period estimate.
    """

    tech: TechnologyCard
    n_stages: int
    voltages: Tuple[float, ...]
    periods: int = 12
    points_per_period: int = 64
    temp_k: float = ROOM_TEMP_K
    load_cap: Optional[float] = None
    early_exit: bool = True
    period_rtol: float = 5e-3

    def __post_init__(self) -> None:
        _check_voltages(self)
        n = self.n_stages
        if isinstance(n, bool) or not isinstance(n, int) or not is_valid_ro_length(n):
            raise ConfigurationError(
                f"RingSweep: n_stages must be an odd int in [{MIN_STAGES}, {MAX_STAGES}], got {n!r}"
            )
        _check_number(self, "periods", int_min=3)
        _check_number(self, "points_per_period", int_min=8)
        if self.periods * self.points_per_period > MAX_RING_STEPS:
            raise ConfigurationError(
                f"RingSweep: periods x points_per_period must be <= {MAX_RING_STEPS} steps, "
                f"got {self.periods} x {self.points_per_period}"
            )
        _check_number(self, "temp_k")
        _check_number(self, "load_cap", optional=True)
        _check_number(self, "period_rtol")


@dataclass(frozen=True)
class DividerSweep:
    """Tap-voltage/current-vs-supply characterization of the PMOS divider."""

    tech: TechnologyCard
    voltages: Tuple[float, ...]
    tap: int = 1
    total: int = 3
    upper_width: float = 4.0
    load_resistance: Optional[float] = None
    temp_k: float = ROOM_TEMP_K

    def __post_init__(self) -> None:
        _check_voltages(self)
        _check_number(self, "temp_k")
        _check_number(self, "load_resistance", optional=True)
        _check_number(self, "tap", int_min=1)
        _check_number(self, "total", int_min=2)
        _check_number(self, "upper_width")
        # Validates the tap ratio and upper_width eagerly, at request-build time.
        VoltageDivider(self.tech, self.tap, self.total, self.upper_width)


SweepRequest = Union[RingSweep, DividerSweep]


def _check_voltages(request) -> None:
    """Store ``voltages`` as a tuple of floats, each finite and > 0.

    Points below the oscillation cutoff stay legitimate (a ring reports
    them dead); a NaN, infinite or non-positive supply has no meaning.
    """
    name = type(request).__name__
    try:
        count = len(request.voltages)
    except TypeError:
        count = 0
    if count > MAX_SWEEP_POINTS:
        raise ConfigurationError(
            f"{name}: at most {MAX_SWEEP_POINTS} voltage points, got {count}"
        )
    try:
        voltages = tuple(float(v) for v in request.voltages)
    except (TypeError, ValueError):
        raise ConfigurationError(
            f"{name}: voltages must be a sequence of numbers, got {request.voltages!r}"
        ) from None
    if not voltages:
        raise ConfigurationError(f"{name} needs at least one voltage")
    bad = [v for v in voltages if not (math.isfinite(v) and v > 0.0)]
    if bad:
        raise ConfigurationError(f"{name}: voltages must be finite and > 0, got {bad[0]!r}")
    object.__setattr__(request, "voltages", voltages)


def _check_number(request, field_name: str, *, int_min=None, optional: bool = False) -> None:
    """Refuse a field that is not a finite number > 0 or, given
    ``int_min``, an int >= it; bools are not numbers here, and ``None``
    passes only when ``optional``."""
    value = getattr(request, field_name)
    if optional and value is None:
        return
    if int_min is None:
        ok = isinstance(value, numbers.Real) and math.isfinite(value) and value > 0
        what = "finite and > 0"
    else:
        ok = isinstance(value, int) and value >= int_min
        what = f"an int >= {int_min}"
    if isinstance(value, bool) or not ok:
        raise ConfigurationError(
            f"{type(request).__name__}: {field_name} must be {what}, got {value!r}"
        )


@dataclass(frozen=True)
class SweepResult:
    """One characterized curve, aligned with the request's ``voltages``.

    ``frequency``/``current`` are populated for ring sweeps (a dead
    point — below the oscillation cutoff or non-converged — reports
    0.0); ``tap``/``current`` for divider sweeps.  ``fingerprint`` ties
    the result to the exact request (or, for ``source="surrogate"``,
    the certified model) that produced it.
    """

    kind: str
    fingerprint: str
    voltages: Tuple[float, ...]
    frequency: Tuple[float, ...] = ()
    current: Tuple[float, ...] = ()
    tap: Tuple[float, ...] = ()
    source: str = "exact"

    def to_dict(self) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "kind": self.kind,
            "fingerprint": self.fingerprint,
            "voltages": list(self.voltages),
            "frequency": list(self.frequency),
            "current": list(self.current),
            "tap": list(self.tap),
            "source": self.source,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SweepResult":
        """Rebuild a stored result; curves that are not numbers aligned
        with ``voltages`` (or empty) raise instead."""
        voltages = tuple(map(float, data["voltages"]))
        curves = {
            name: tuple(map(float, data.get(name, ())))
            for name in ("frequency", "current", "tap")
        }
        if any(curve and len(curve) != len(voltages) for curve in curves.values()):
            raise ValueError("SweepResult curves must align with its voltages")
        return cls(
            kind=data["kind"],
            fingerprint=data["fingerprint"],
            voltages=voltages,
            source=data.get("source", "exact"),
            **curves,
        )


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------
def fingerprint(request: SweepRequest) -> str:
    """Stable cache key for a sweep request.

    Canonical JSON over the schema version, the solver tolerances,
    *every* field of the technology card, and every field of the
    request.  Anything that can change the curve changes the key; a new
    tech-card field or solver tolerance bump invalidates transparently.
    """
    payload = {
        "schema": SCHEMA_VERSION,
        "kind": type(request).__name__,
        "solver": {
            "residual_tol": solver.RESIDUAL_TOL,
            "update_tol": solver.UPDATE_TOL,
            "max_iterations": solver.MAX_ITERATIONS,
        },
        "tech": {
            f.name: getattr(request.tech, f.name)
            for f in dataclasses.fields(request.tech)
        },
        "request": {
            "jacobian": JACOBIAN_ID,
            **{
                f.name: getattr(request, f.name)
                for f in dataclasses.fields(request)
                if f.name != "tech"
            },
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Early exit: online period convergence
# ----------------------------------------------------------------------
class PeriodProbe:
    """Early-exit predicate for oscillator transients.

    Tracks rising crossings of ``threshold`` on ``node`` (linearly
    interpolated between accepted steps, matching
    :meth:`Waveform.rising_edges`) and reports convergence once the last
    ``window`` periods, after discarding ``settle`` start-up edges,
    agree within relative spread ``rtol``.  Pass an instance as
    ``transient(..., until=probe)``.
    """

    def __init__(self, node: str, threshold: float, rtol: float = 5e-3, settle: int = SETTLE_EDGES, window: int = 4):
        if rtol <= 0 or window < 2:
            raise ConfigurationError("PeriodProbe needs rtol > 0 and window >= 2")
        self.node = node
        self.threshold = threshold
        self.rtol = rtol
        self.settle = settle
        self.window = window
        self._t_prev: Optional[float] = None
        self._v_prev = 0.0
        self._edges: List[float] = []
        self.converged = False

    def __call__(self, t: float, volts) -> bool:
        v = volts[self.node]
        if self._t_prev is not None and self._v_prev < self.threshold <= v:
            frac = (self.threshold - self._v_prev) / (v - self._v_prev)
            self._edges.append(self._t_prev + frac * (t - self._t_prev))
        self._t_prev, self._v_prev = t, v
        usable = self._edges[self.settle :]
        if len(usable) < self.window + 1:
            return False
        recent = [
            usable[i + 1] - usable[i]
            for i in range(len(usable) - self.window - 1, len(usable) - 1)
        ]
        mean = sum(recent) / len(recent)
        if mean > 0 and (max(recent) - min(recent)) <= self.rtol * mean:
            self.converged = True
        return self.converged


# ----------------------------------------------------------------------
# Cold characterization
# ----------------------------------------------------------------------
def _measure_frequency(wave: Waveform, threshold: float) -> float:
    """Mean frequency, discarding start-up edges when there are enough."""
    edges = wave.rising_edges(threshold)
    if len(edges) >= SETTLE_EDGES + 2:
        edges = edges[SETTLE_EDGES:]
    if len(edges) < 2:
        return 0.0
    return (len(edges) - 1) / (edges[-1] - edges[0])


def _characterize_ring(request: RingSweep, fp: str) -> SweepResult:
    ro = RingOscillator(request.tech, request.n_stages)
    freqs: List[float] = []
    currents: List[float] = []
    for vdd in request.voltages:
        guess = ro.period(vdd, request.temp_k)
        if not (0.0 < guess < float("inf")):
            freqs.append(0.0)
            currents.append(0.0)
            continue
        circuit = build_ro_circuit(
            request.tech, request.n_stages, vdd,
            load_cap=request.load_cap, temp_k=request.temp_k,
        )
        supply = circuit.device("VDD")
        assert isinstance(supply, VoltageSource)
        until = (
            PeriodProbe("s0", vdd / 2, rtol=request.period_rtol)
            if request.early_exit
            else None
        )
        try:
            res = solver.transient(
                circuit,
                t_stop=request.periods * guess,
                dt=guess / request.points_per_period,
                probes={"i_vdd": supply.through},
                initial=staggered_initial_condition(request.n_stages, vdd),
                until=until,
            )
        except ConvergenceError:
            OBS.metrics.incr("spice.charlib_dead_points")
            freqs.append(0.0)
            currents.append(0.0)
            continue
        wave = res.node("s0")
        f = _measure_frequency(wave, vdd / 2)
        freqs.append(f)
        edges = wave.rising_edges(vdd / 2)
        t_start = edges[SETTLE_EDGES] if len(edges) > SETTLE_EDGES + 1 else 0.0
        currents.append(res.probe("i_vdd").average(t_start=t_start))
    return SweepResult(
        kind="RingSweep",
        fingerprint=fp,
        voltages=request.voltages,
        frequency=tuple(freqs),
        current=tuple(currents),
    )


def _characterize_divider(request: DividerSweep, fp: str) -> SweepResult:
    divider = VoltageDivider(request.tech, request.tap, request.total, request.upper_width)
    tap_node = divider_tap_node(divider)
    taps: List[float] = []
    currents: List[float] = []
    previous: Optional[Dict[str, float]] = None
    for v_supply in request.voltages:
        circuit = build_divider_circuit(
            divider, v_supply,
            load_resistance=request.load_resistance, temp_k=request.temp_k,
        )
        supply = circuit.device("VDD")
        assert isinstance(supply, VoltageSource)
        try:
            # Warm-start from the previous point: adjacent sweep
            # voltages have nearby operating points.
            op = solver.dc_operating_point(circuit, initial=previous)
        except ConvergenceError:
            OBS.metrics.incr("spice.charlib_dead_points")
            taps.append(0.0)
            currents.append(0.0)
            previous = None
            continue
        previous = op.voltages
        taps.append(op[tap_node])
        currents.append(supply.through(op.voltages))
    return SweepResult(
        kind="DividerSweep",
        fingerprint=fp,
        voltages=request.voltages,
        tap=tuple(taps),
        current=tuple(currents),
    )


def _characterize_one(request: SweepRequest, fp: Optional[str] = None) -> SweepResult:
    """Cold-run one sweep (no cache involvement; safe in workers)."""
    fp = fp or fingerprint(request)
    with OBS.tracer.span(
        "spice.characterize", kind=type(request).__name__, points=len(request.voltages)
    ):
        if isinstance(request, RingSweep):
            return _characterize_ring(request, fp)
        if isinstance(request, DividerSweep):
            return _characterize_divider(request, fp)
        raise ConfigurationError(f"unknown sweep request {type(request).__name__}")


def _characterize_pair(pair) -> SweepResult:
    """``(request, fingerprint)`` worker for the :mod:`repro.exec`
    fan-out (top-level so it pickles)."""
    request, fp = pair
    return _characterize_one(request, fp)


# ----------------------------------------------------------------------
# The cache
# ----------------------------------------------------------------------
@dataclass
class CharlibStats:
    hits: int = 0
    misses: int = 0
    disk_hits: int = 0
    surrogate_hits: int = 0

    def summary(self) -> str:
        return (
            f"{self.hits} hits, {self.misses} misses, "
            f"{self.disk_hits} from disk, {self.surrogate_hits} surrogate"
        )


class CharacterizationCache:
    """One keyed JSON store for sweep results and certified surrogate models.

    Both live in memory and, given ``cache_dir``, as one JSON file per
    key: ``charlib-<fp>.json`` holds a :class:`SweepResult`,
    ``surrogate-<fp>.json`` a :class:`repro.spice.surrogate.SurrogateModel`
    under its :func:`~repro.spice.surrogate.model_fingerprint` (which
    includes the tolerance, so a tightened tolerance is always a miss).
    Files pass through one reader, :meth:`_read`, and one atomic writer,
    :meth:`_write`; a missing, unreadable or non-object file reads as
    absent, so a corrupt entry is recomputed and a corrupt model skipped.
    ``cache_dir=None``, or a directory that cannot be created, keeps the
    cache memory-only.  Models are indexed by circuit structure for the
    ``engine="auto"|"surrogate"`` dispatch.
    """

    def __init__(self, cache_dir: Optional[str] = None):
        self.cache_dir = cache_dir
        self._memory: Dict[str, SweepResult] = {}
        self._models: Dict[str, object] = {}
        self._model_index: Dict[tuple, List[object]] = {}
        self._models_scanned = False
        self.stats = CharlibStats()
        if cache_dir:
            try:
                os.makedirs(cache_dir, exist_ok=True)
            except OSError:
                # Unwritable location (read-only home, sandbox): degrade
                # to memory-only rather than failing characterization.
                self.cache_dir = None

    def __len__(self) -> int:
        return len(self._memory)

    # ------------------------------------------------------------------
    def get(self, fp: str) -> Optional[SweepResult]:
        result = self._memory.get(fp)
        if result is not None:
            self.stats.hits += 1
        else:
            result = self._load(fp)
            if result is None:
                self.stats.misses += 1
                return None
            self._memory[fp] = result
            self.stats.disk_hits += 1
        OBS.metrics.incr("spice.charlib_hits")
        return result

    def put(self, fp: str, result: SweepResult) -> None:
        self._memory[fp] = result
        self._write(f"charlib-{fp[:32]}.json", result.to_dict())

    def _load(self, fp: str) -> Optional[SweepResult]:
        data = self._read(f"charlib-{fp[:32]}.json")
        if data is None or data.get("schema") != SCHEMA_VERSION or data.get("fingerprint") != fp:
            return None
        try:
            return SweepResult.from_dict(data)
        except (KeyError, TypeError, ValueError):
            return None

    # ------------------------------------------------------------------
    # Surrogate-model layer
    # ------------------------------------------------------------------
    def has_models(self) -> bool:
        """Whether any certified surrogate model is available — the
        ``engine="auto"`` gate (False means auto is exactly exact)."""
        self._scan_models()
        return bool(self._models)

    def get_model(self, fp: str):
        """Certified model under ``fp`` (memory, then disk), or None."""
        self._scan_models()
        return self._models.get(fp)

    def put_model(self, model) -> None:
        self._index_model(model)
        self._write(f"surrogate-{model.fingerprint[:32]}.json", model.to_dict())

    def find_models(self, structure_key: tuple) -> List:
        """Models able to answer requests with this circuit structure,
        tightest tolerance first (deterministic order)."""
        self._scan_models()
        return self._model_index.get(structure_key, [])

    def _index_model(self, model) -> None:
        if model.fingerprint in self._models:
            return
        self._models[model.fingerprint] = model
        bucket = self._model_index.setdefault(model.structure_key(), [])
        bucket.append(model)
        bucket.sort(key=lambda m: (m.tolerance, m.v_anchors[0], -m.v_anchors[-1], m.fingerprint))

    def _scan_models(self) -> None:
        """One-time lazy load of every ``surrogate-*.json`` disk model."""
        if self._models_scanned:
            return
        self._models_scanned = True
        if not self.cache_dir:
            return
        from repro.spice.surrogate import SurrogateModel
        try:
            names = os.listdir(self.cache_dir)
        except OSError:
            return
        for name in sorted(names):
            if not (name.startswith("surrogate-") and name.endswith(".json")):
                continue
            data = self._read(name)
            if data is None:
                continue
            try:
                model = SurrogateModel.from_dict(data)
            except Exception:
                continue  # a malformed or stale-schema model is skipped
            self._index_model(model)

    # ------------------------------------------------------------------
    # The disk layer: one reader, one writer
    # ------------------------------------------------------------------
    def _read(self, name: str) -> Optional[dict]:
        """The JSON object stored as ``name``, or None when there is no
        disk layer or the file is missing, unreadable or not an object."""
        if not self.cache_dir:
            return None
        try:
            with open(os.path.join(self.cache_dir, name), "r", encoding="utf-8") as handle:
                data = json.load(handle)
        except (OSError, ValueError, RecursionError):
            return None
        return data if isinstance(data, dict) else None

    def _write(self, name: str, payload: dict) -> None:
        """Publish ``payload`` as ``name`` with an atomic ``os.replace``
        (writers of one key write identical bytes, so whichever rename
        lands last is harmless); a failed write leaves no temporary file
        behind."""
        if not self.cache_dir:
            return
        tmp = None
        try:
            fd, tmp = tempfile.mkstemp(dir=self.cache_dir, suffix=".tmp")
            with os.fdopen(fd, "w", encoding="utf-8") as handle:
                json.dump(payload, handle)
            os.replace(tmp, os.path.join(self.cache_dir, name))
        except OSError:
            if tmp is not None:
                with contextlib.suppress(OSError):
                    os.unlink(tmp)


def default_cache_dir() -> str:
    """``$REPRO_CHARLIB_CACHE`` if set, else ``~/.cache/repro/charlib``."""
    override = os.environ.get(CACHE_ENV)
    if override:
        return override
    return os.path.join(os.path.expanduser("~"), ".cache", "repro", "charlib")


_DEFAULT_CACHE: Optional[CharacterizationCache] = None


def default_cache() -> CharacterizationCache:
    """The process-wide shared cache (experiments, fleet, DSE all hit it)."""
    global _DEFAULT_CACHE
    if _DEFAULT_CACHE is None:
        _DEFAULT_CACHE = CharacterizationCache(cache_dir=default_cache_dir())
    return _DEFAULT_CACHE


# ----------------------------------------------------------------------
# The front door
# ----------------------------------------------------------------------
def characterize_many(
    requests: Sequence[SweepRequest],
    *,
    engine: str = "auto",
    parallel: Optional[int] = None,
    cache: Optional[CharacterizationCache] = None,
    tolerance: Optional[float] = None,
) -> List[SweepResult]:
    """Characterize a batch of sweeps, cached and optionally parallel.

    Mirrors :func:`repro.api.evaluate_many`: results come back in
    request order, duplicate requests share one result object, and
    ``engine`` picks the compute path (see the module docstring):
    ``"exact"`` solves, ``"surrogate"`` answers from certified
    interpolants (fitting on demand), ``"auto"`` uses a covering
    certified model when one exists and exact solves otherwise.
    ``tolerance`` is the certified relative tolerance surrogates must
    meet (default :data:`repro.spice.surrogate.DEFAULT_TOLERANCE`).

    ``cache`` defaults to the process-wide :func:`default_cache`; pass
    ``CharacterizationCache(cache_dir)`` to use a specific directory, or
    a fresh ``CharacterizationCache()`` for cold runs.  ``parallel=k``
    fans exact cache misses out over ``k`` worker processes through
    :func:`repro.exec.run_tasks`
    (worker-recorded metrics merge back into the parent); the parent
    alone writes the cache.  Serial and parallel runs return identical
    results under every engine.
    """
    if engine not in CHAR_ENGINES:
        raise ConfigurationError(
            f"unknown characterization engine {engine!r}; pick one of {CHAR_ENGINES}"
        )
    requests = list(requests)
    if cache is None:
        cache = default_cache()
    if engine == "exact" or not requests:
        return _characterize_exact(requests, parallel=parallel, cache=cache)
    if engine == "auto" and not cache.has_models():
        # No certified models anywhere: auto is byte-identical to exact,
        # without paying any surrogate dispatch overhead.
        return _characterize_exact(requests, parallel=parallel, cache=cache)
    from repro.spice import surrogate

    return surrogate.dispatch(
        requests, engine=engine, parallel=parallel, cache=cache, tolerance=tolerance
    )


def _characterize_exact(
    requests: List[SweepRequest],
    *,
    parallel: Optional[int],
    cache: CharacterizationCache,
) -> List[SweepResult]:
    """The exact-solve path: the cache in front of the
    :mod:`repro.exec` fan-out (the pre-1.6 ``characterize_many``)."""
    fps = [fingerprint(r) for r in requests]
    with OBS.tracer.span("spice.characterize_many", requests=len(requests)) as sp:
        results: List[Optional[SweepResult]] = [cache.get(fp) for fp in fps]
        miss_idx = [i for i, r in enumerate(results) if r is None]
        # Distinct misses only: duplicated requests in one batch solve once.
        pending: Dict[str, List[int]] = {}
        for i in miss_idx:
            pending.setdefault(fps[i], []).append(i)
        OBS.metrics.incr("spice.charlib_misses", len(pending))
        if pending:
            first = [idx[0] for idx in pending.values()]
            fresh = run_tasks(
                _characterize_pair,
                [(requests[i], fps[i]) for i in first],
                parallel=parallel,
                label="charlib.characterize",
            )
            for result in fresh:
                cache.put(result.fingerprint, result)
                for i in pending[result.fingerprint]:
                    results[i] = result
        sp.set(hits=len(requests) - len(miss_idx), misses=len(pending))
    return results  # type: ignore[return-value]
