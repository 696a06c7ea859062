"""The recording half of the ``record=``/``replay=`` seam.

Every engine run loop accepts ``record=`` — any object implementing the
three-method :class:`TraceSink` protocol.  Engines never import this
module: they call ``record.begin(...)`` / ``record.finish(...)`` behind
an ``is not None`` guard and emit every decision through
:func:`repro.obs.emitter`, the one emission path, which forwards it to
``record.event(...)`` and to the obs tracer.  With both off, an event
site costs one pointer test.

:class:`TraceRecorder` is the standard sink: it accumulates a
:class:`~repro.trace.format.Recording` in memory and/or streams JSONL
lines straight to disk (``path=``), which is how a 10^7-device fleet
records without ever holding its event stream.  :class:`LaneSink`
forwards events (tagged with a lane index unless ``lane=None``) and
swallows ``begin``/``finish``, for simulators running inside a
recording someone else owns: batch lanes, one isolated fleet device.
:class:`CountingRandom` counts draws at RNG consumption sites so
recordings can carry ``rng`` events with real draw counts.
"""

from __future__ import annotations

import random
from typing import Any, Dict, List, Optional

from repro.errors import ConfigurationError
from repro.trace.format import (
    Recording,
    TraceEvent,
    TraceHeader,
    canonical_json,
    payload_digest,
    _open_text,
)


class TraceSink:
    """The seam protocol: ``begin`` once, ``event`` many, ``finish`` once.

    The base class is a no-op sink, usable directly to measure seam
    overhead or subclassed by verifying sinks (see
    :mod:`repro.trace.replayer`).
    """

    def begin(
        self,
        kind: str,
        engine: str,
        config: Dict[str, Any],
        seeds: Optional[Dict[str, int]] = None,
    ) -> None:
        pass

    def event(self, kind: str, t: Optional[float] = None, **payload: Any) -> None:
        pass

    def finish(self, result: Optional[Dict[str, Any]] = None) -> None:
        pass


class TraceRecorder(TraceSink):
    """Accumulate (and optionally stream) one run's recording.

    ``path=None`` keeps everything in memory (``.recording``).  With a
    path, lines are written as they happen — header on ``begin``, one
    line per event, result on ``finish`` — and ``keep_events=False``
    drops the in-memory copy so memory stays flat in event count.
    """

    def __init__(self, path: Optional[str] = None, keep_events: bool = True) -> None:
        if path is None and not keep_events:
            raise ConfigurationError("keep_events=False needs a path to stream to")
        self._path = path
        self._fh = None
        self._keep = keep_events
        self.header: Optional[TraceHeader] = None
        self.events: List[TraceEvent] = []
        self.result: Optional[Dict[str, Any]] = None
        self.result_digest = ""
        self._seq = 0
        self._finished = False

    # ------------------------------------------------------------------
    def begin(
        self,
        kind: str,
        engine: str,
        config: Dict[str, Any],
        seeds: Optional[Dict[str, int]] = None,
    ) -> None:
        if self.header is not None:
            raise ConfigurationError("recorder already began a recording")
        self.header = TraceHeader.create(kind, engine, config, seeds)
        if self._path is not None:
            self._fh = _open_text(self._path, "w")
            self._fh.write(canonical_json({"header": self.header.to_dict()}) + "\n")

    def event(self, kind: str, t: Optional[float] = None, **payload: Any) -> None:
        if self.header is None:
            raise ConfigurationError("recorder.event() before begin()")
        if self._finished:
            # The result digest already covers the events so far.
            raise ConfigurationError("recorder.event() after finish()")
        ev = TraceEvent(seq=self._seq, kind=kind, t=t, payload=payload)
        self._seq += 1
        if self._keep:
            self.events.append(ev)
        if self._fh is not None:
            self._fh.write(canonical_json({"event": ev.to_dict()}) + "\n")

    def finish(self, result: Optional[Dict[str, Any]] = None) -> None:
        if self.header is None:
            raise ConfigurationError("recorder.finish() before begin()")
        if self._finished:
            raise ConfigurationError("recorder already finished")
        self._finished = True
        self.result = result
        self.result_digest = payload_digest(result) if result is not None else ""
        if self._fh is not None:
            self._fh.write(
                canonical_json(
                    {"result": self.result, "result_digest": self.result_digest}
                )
                + "\n"
            )
            self._fh.close()
            self._fh = None

    # ------------------------------------------------------------------
    @property
    def recording(self) -> Recording:
        if self.header is None:
            raise ConfigurationError("nothing recorded yet")
        if not self._keep:
            raise ConfigurationError(
                "recording streamed to disk with keep_events=False; "
                f"load it back with Recording.load({self._path!r})"
            )
        return Recording(
            header=self.header,
            events=list(self.events),
            result=self.result,
            result_digest=self.result_digest,
        )

    def rng(self, seed: int, site: str) -> "CountingRandom":
        """A seeded RNG whose consumption lands in the event stream.

        Call :meth:`note_rng` (or let the caller emit) after the draws;
        the returned stream is bit-identical to ``random.Random(seed)``.
        """
        return CountingRandom(seed, site=site, sink=self)

    def note_rng(self, site: str, seed: int, draws: int) -> None:
        self.event("rng", site=site, seed=seed, draws=draws)


class LaneSink(TraceSink):
    """Forward events to a recording someone else opened.

    ``begin``/``finish`` are swallowed: the owner (the batch dispatcher,
    the device-isolation runner) writes the header and the result.
    Events are tagged with ``lane`` unless it is ``None``.
    """

    def __init__(self, recorder: TraceSink, lane: Optional[int] = None) -> None:
        self._recorder = recorder
        self._lane = lane

    def event(self, kind: str, t: Optional[float] = None, **payload: Any) -> None:
        if self._lane is None:
            self._recorder.event(kind, t=t, **payload)
        else:
            self._recorder.event(kind, t=t, lane=self._lane, **payload)


class CountingRandom(random.Random):
    """``random.Random`` that counts draws at the consumption site.

    Only the two primitive entry points are instrumented (everything
    else — ``uniform``, ``choice``, ``gauss`` — funnels through them),
    so the stream is bit-identical to an unwrapped ``Random(seed)``.
    """

    def __init__(self, seed: int, site: str = "", sink: Optional[TraceSink] = None) -> None:
        super().__init__(seed)
        self.seed_value = seed
        self.site = site
        self._sink = sink
        self.draws = 0

    def random(self) -> float:
        self.draws += 1
        return super().random()

    def getrandbits(self, k: int) -> int:
        self.draws += 1
        return super().getrandbits(k)

    def note(self) -> None:
        """Emit the consumption summary as an ``rng`` event."""
        if self._sink is not None:
            self._sink.event(
                "rng", site=self.site, seed=self.seed_value, draws=self.draws
            )
