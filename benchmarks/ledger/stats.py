"""Small numeric helpers shared by the ledger's parent and worker."""

from __future__ import annotations

import hashlib
import json
import math
from typing import Optional, Sequence

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10


def tail_percentile(n: int) -> Optional[int]:
    """The highest whole percentile (50..99) with at least
    :data:`TAIL_SAMPLES` of ``n`` samples beyond it; ``None`` when even
    the median has fewer (n=240 gives 95)."""
    for pct in range(99, 49, -1):
        if n * (100 - pct) >= TAIL_SAMPLES * 100:
            return pct
    return None


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile of a non-empty sample."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values: Sequence[float]) -> float:
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def digest(payload) -> str:
    """sha256 over canonical JSON (sorted keys, no whitespace)."""
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
