"""The Failure Sentinels design space (Table III).

A design point is six parameters: RO length, sampling frequency, counter
width, enable time, NVM entry count and entry size.  NSGA-II works on a
normalized real-valued genome in [0, 1]^6; :class:`DesignSpace` owns the
mapping from genome to the discrete/log-scaled engineering values and on
to a validated :class:`~repro.core.config.FSConfig`.  Batches of points
travel as :class:`DesignColumns`, one numpy column per parameter, which
is the form the performance model evaluates.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from operator import attrgetter
from typing import Iterator, Sequence, Tuple

import numpy as np

from repro.core.config import (
    FSConfig,
    DEFAULT_SUPPLY_RANGE,
    RO_LENGTH_MIN,
    RO_LENGTH_MAX,
    F_SAMPLE_MIN,
    F_SAMPLE_MAX,
    COUNTER_BITS_MIN,
    COUNTER_BITS_MAX,
    T_ENABLE_MIN,
    T_ENABLE_MAX,
    NVM_ENTRIES_MIN,
    NVM_ENTRIES_MAX,
    ENTRY_BITS_MIN,
    ENTRY_BITS_MAX,
)
from repro.errors import ConfigurationError
from repro.tech.ptm import TechnologyCard

#: Genome dimensionality: the six Table III design parameters.
GENOME_SIZE = 6


@dataclass(frozen=True)
class DesignPoint:
    """Decoded engineering values for one genome."""

    ro_length: int
    f_sample: float
    counter_bits: int
    t_enable: float
    nvm_entries: int
    entry_bits: int

    def as_tuple(self) -> Tuple:
        return (
            self.ro_length,
            self.f_sample,
            self.counter_bits,
            self.t_enable,
            self.nvm_entries,
            self.entry_bits,
        )

    def to_dict(self) -> dict:
        """JSON-ready payload; inverse of :meth:`from_dict`."""
        return {
            "ro_length": self.ro_length,
            "f_sample": self.f_sample,
            "counter_bits": self.counter_bits,
            "t_enable": self.t_enable,
            "nvm_entries": self.nvm_entries,
            "entry_bits": self.entry_bits,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DesignPoint":
        return cls(**data)


#: The six design parameters, in :class:`DesignPoint` field order.
FIELDS = ("ro_length", "f_sample", "counter_bits", "t_enable", "nvm_entries", "entry_bits")

#: The parameters that count something: whole numbers, at least 1.  The
#: other two (a frequency and a time) must be finite and positive.
COUNT_FIELDS = frozenset(("ro_length", "counter_bits", "nvm_entries", "entry_bits"))
_COUNTS = np.array([name in COUNT_FIELDS for name in FIELDS])


def _in_domain(name: str, value) -> bool:
    """Is ``value`` a valid ``name``?"""
    try:
        x = float(value)
    except (TypeError, ValueError):
        return False
    if name in COUNT_FIELDS:
        return 1 <= x < math.inf and x == math.floor(x)
    return 0 < x < math.inf


def _table_in_domain(table: np.ndarray) -> bool:
    """:func:`_in_domain` for every cell of a (points, FIELDS) table; NaN
    fails, because ``min`` and ``max`` propagate it."""
    lo, hi = table.min(axis=0), table.max(axis=0)
    counts = table[:, _COUNTS]
    return bool(
        (hi < math.inf).all()
        and (lo[_COUNTS] >= 1).all()
        and (lo[~_COUNTS] > 0).all()
        and (counts == np.floor(counts)).all()
    )


class DesignColumns:
    """A batch of design points as six equal-length numpy columns.

    The four count parameters are int64 columns, the frequency and time
    float64.  Building one refuses a NaN, infinite or non-positive
    frequency or time and a count below 1 (or not whole) with a
    :class:`ConfigurationError` naming the parameter and the first bad
    row.  Indexing yields :class:`DesignPoint` rows of Python ints and
    floats, so the columns stand wherever a sequence of points does.
    """

    __slots__ = FIELDS

    def __init__(self, ro_length, f_sample, counter_bits, t_enable, nvm_entries, entry_bits):
        values = (ro_length, f_sample, counter_bits, t_enable, nvm_entries, entry_bits)
        if len({len(column) for column in values}) > 1:
            raise ConfigurationError("design parameter columns differ in length")
        try:
            table = np.column_stack([np.asarray(column, dtype=np.float64) for column in values])
        except (TypeError, ValueError):
            table = None
        # Only a table failing the few whole-table reductions is searched
        # row by row, for the first bad row to name.
        if table is None or len(table) and not _table_in_domain(table):
            for row, point in enumerate(zip(*values)):
                for name, value in zip(FIELDS, point):
                    if not _in_domain(name, value):
                        need = "a whole number >= 1" if name in COUNT_FIELDS else "finite and positive"
                        raise ConfigurationError(
                            f"design point {row}: {name} must be {need} (got {value})"
                        )
            raise ConfigurationError("design parameters must be columns of numbers")
        for name, column in zip(FIELDS, table.T):
            setattr(self, name, column.astype(np.int64 if name in COUNT_FIELDS else np.float64))

    @classmethod
    def of(cls, points) -> "DesignColumns":
        """``points`` (any iterable of :class:`DesignPoint`) as columns."""
        if isinstance(points, DesignColumns):
            return points
        rows = list(map(attrgetter(*FIELDS), points))
        if not rows:
            return cls(*([],) * len(FIELDS))
        return cls(*zip(*rows))

    @classmethod
    def _unchecked(cls, columns) -> "DesignColumns":
        """Columns already checked, as they are."""
        out = cls.__new__(cls)
        for name, column in zip(FIELDS, columns):
            setattr(out, name, column)
        return out

    @classmethod
    def concatenate(cls, batches: Sequence["DesignColumns"]) -> "DesignColumns":
        """One batch holding the rows of ``batches`` in order."""
        return cls._unchecked(
            np.concatenate([getattr(batch, name) for batch in batches]) for name in FIELDS
        )

    def take(self, rows: np.ndarray) -> "DesignColumns":
        """The batch of ``rows`` (an index array), in that order."""
        return self._unchecked(getattr(self, name)[rows] for name in FIELDS)

    def __len__(self) -> int:
        return len(self.ro_length)

    def __getitem__(self, row: int) -> DesignPoint:
        return DesignPoint(*(getattr(self, name)[row].item() for name in FIELDS))

    def __iter__(self) -> Iterator[DesignPoint]:
        return map(DesignPoint, *(getattr(self, name).tolist() for name in FIELDS))


class DesignSpace:
    """Genome encode/decode for one technology and supply range."""

    def __init__(
        self,
        tech: TechnologyCard,
        v_supply_range: Tuple[float, float] = DEFAULT_SUPPLY_RANGE,
    ):
        self.tech = tech
        self.v_supply_range = v_supply_range
        # Odd ring lengths only.
        self._lengths = list(range(RO_LENGTH_MIN, RO_LENGTH_MAX + 1, 2))

    # ------------------------------------------------------------------
    def decode(self, genome: Sequence[float]) -> DesignPoint:
        """Map a [0,1]^6 genome onto engineering values: the one-row case
        of :meth:`decode_many`."""
        return self.decode_many([genome])[0]

    def decode_many(self, genomes: Sequence[Sequence[float]]) -> DesignColumns:
        """Map a batch of [0,1]^6 genomes onto engineering values, one
        row per genome.

        Genes clamp into [0, 1] (NaN to 0).  Enable time decodes on a
        log scale (it spans three decades); sampling frequency decodes
        linearly over 1-10 kHz; the discrete parameters round to their
        grids.
        """
        try:
            g = np.asarray(genomes, dtype=np.float64)
        except (TypeError, ValueError):
            raise ConfigurationError("genomes must be sequences of numbers") from None
        if g.ndim != 2 or g.shape[1] != GENOME_SIZE:
            raise ConfigurationError(f"genome must have {GENOME_SIZE} entries")
        # min(1.0, max(0.0, x)) per gene, NaN included.
        g = np.where(g > 0.0, g, 0.0)
        g = np.where(g < 1.0, g, 1.0).T

        def level(gene: np.ndarray, lo: int, hi: int) -> np.ndarray:
            return lo + np.minimum((gene * (hi - lo + 1)).astype(np.int64), hi - lo)

        lengths = np.array(self._lengths)[level(g[0], 0, len(self._lengths) - 1)]
        f_sample = F_SAMPLE_MIN + g[1] * (F_SAMPLE_MAX - F_SAMPLE_MIN)
        log_lo, log_hi = math.log10(T_ENABLE_MIN), math.log10(T_ENABLE_MAX)
        # Python's pow, not numpy's: its last bit may differ between CPUs.
        t_enable = [10 ** x for x in (log_lo + g[3] * (log_hi - log_lo)).tolist()]
        return DesignColumns(
            lengths,
            f_sample,
            level(g[2], COUNTER_BITS_MIN, COUNTER_BITS_MAX),
            t_enable,
            level(g[4], NVM_ENTRIES_MIN, NVM_ENTRIES_MAX),
            level(g[5], ENTRY_BITS_MIN, ENTRY_BITS_MAX),
        )

    def to_config(self, point: DesignPoint) -> FSConfig:
        """Build the validated configuration for a decoded point."""
        return FSConfig(
            tech=self.tech,
            ro_length=point.ro_length,
            counter_bits=point.counter_bits,
            t_enable=point.t_enable,
            f_sample=point.f_sample,
            nvm_entries=point.nvm_entries,
            entry_bits=point.entry_bits,
            v_supply_range=self.v_supply_range,
        )

    # ------------------------------------------------------------------
    def grid(
        self,
        lengths: Sequence[int] = (3, 7, 13, 23, 37, 53, 73),
        f_samples: Sequence[float] = (1e3, 2e3, 5e3, 1e4),
        counter_bits: Sequence[int] = (4, 6, 8, 10, 12, 16),
        t_enables: Sequence[float] = (1e-6, 2e-6, 5e-6, 1e-5, 2e-5, 5e-5, 1e-4),
        nvm_entries: Sequence[int] = (8, 16, 32, 64, 128),
        entry_bits: Sequence[int] = (8, 10, 12, 16),
    ) -> DesignColumns:
        """A deterministic factorial grid for exhaustive exploration, as
        columns.  Rows run in nested-loop order over the axes as listed:
        ``lengths`` slowest, ``entry_bits`` fastest."""
        axes = (lengths, f_samples, counter_bits, t_enables, nvm_entries, entry_bits)
        return DesignColumns(*(axis.ravel() for axis in np.meshgrid(*axes, indexing="ij")))
