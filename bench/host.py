"""The host-speed probe: a fixed numpy kernel timed next to every operation.

The benchmark's host shares its cores.  For stretches of a fraction of a
second to tens of seconds it runs the same code about 1.65 times slower,
and it spends about half its time in that state, so wall times of the
same work differ by a quarter between runs.  The probe runs small numpy
operations of the kind the engine runs (4x4 SVDs, interpolation and
element-wise arithmetic over 52 subcarriers) and uses no ``repro`` code,
so a change to the program never changes it.  Dividing an operation's
wall time by the probe time measured next to it removes most of the
host's state; multiplying by :data:`REFERENCE_S` turns the ratio back
into seconds on a host as fast as this one in its fast state.
"""

from __future__ import annotations

import time
from typing import List, Sequence, Tuple

import numpy as np

#: The probe's time on the host the benchmark was calibrated on (2 vCPUs,
#: x86_64, python 3.11, numpy 2.4) in its fast state: scaled times are
#: seconds on that host when it runs at full speed.
REFERENCE_S = 0.0205

_CHANNELS = np.linspace(-1.0, 1.0, 8 * 4 * 4).reshape(8, 4, 4) + np.eye(4)
_GRID = np.linspace(0.0, 1.0, 64)
_TABLE = np.sqrt(_GRID)
_SUBCARRIERS = np.linspace(0.01, 0.99, 52)


def probe(count: int = 1) -> float:
    """Mean seconds per run of the probe kernel over ``count`` runs in a row."""
    start = time.perf_counter()
    total = 0.0
    for index in range(1200 * count):
        singular = np.linalg.svd(_CHANNELS[index % 8], compute_uv=False)
        powers = np.interp(_SUBCARRIERS * singular[0] / 4.0, _GRID, _TABLE)
        total += float(np.sum(np.where(powers > 0.5, powers, 0.0) * _SUBCARRIERS))
    return (time.perf_counter() - start) / count


def host_s(start: float, seconds: float, probes: Sequence[Tuple[float, float, float]]) -> float:
    """The probe time around the interval ``[start, start + seconds]``.

    ``probes`` holds ``(start, end, mean probe seconds)`` of each group of
    probes, in order; the result is the mean of the last group ending
    before the interval and the first starting after it (whichever exist).
    """
    before: List[float] = [took for _, end, took in probes if end <= start]
    after: List[float] = [took for begin, _, took in probes if begin >= start + seconds]
    near = before[-1:] + after[:1]
    return sum(near) / len(near)


def scaled(seconds: float, host: float) -> float:
    """``seconds`` measured while the probe took ``host``, at reference speed."""
    return seconds * REFERENCE_S / host
