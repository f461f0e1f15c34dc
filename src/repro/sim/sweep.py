"""Parameter sweeps: how COPA's advantage moves with the environment.

The paper evaluates fixed operating points (30 ms coherence, its one
building's interference levels, three antenna configurations).  These
sweeps generalize the evaluation along the axes the paper discusses:

* **coherence time** — COPA's ITS/CSI overhead amortizes over the
  coherence window (Table 1), so its net win over CSMA grows as the
  environment gets more static;
* **interference strength** — §4.4's −10 dB emulation, generalized to a
  curve: where does concurrency stop paying?
* **antenna configuration** — the 1×1 → 3×2 → 4×2 progression of §4.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..core.options import EngineOptions
from ..obs.collector import Collector, active
from .config import DEFAULT_CONFIG, SimConfig
from .experiment import ScenarioSpec, run_experiment

__all__ = [
    "SweepPoint",
    "SweepResult",
    "sweep_coherence_time",
    "sweep_interference",
    "sweep_antenna_configurations",
]


@dataclass(frozen=True)
class SweepPoint:
    """One operating point of a sweep."""

    parameter: float
    #: Scheme name → mean aggregate throughput in Mbit/s.
    means_mbps: Dict[str, float]

    def gain_over_csma(self, key: str = "copa") -> float:
        return self.means_mbps[key] / self.means_mbps["csma"] - 1.0


@dataclass
class SweepResult:
    """An ordered collection of sweep points."""

    parameter_name: str
    points: List[SweepPoint]

    def series(self, key: str) -> Tuple[np.ndarray, np.ndarray]:
        """(parameter values, mean Mbps) arrays for one scheme."""
        xs = np.array([p.parameter for p in self.points])
        ys = np.array([p.means_mbps[key] for p in self.points])
        return xs, ys

    def gains(self, key: str = "copa") -> np.ndarray:
        return np.array([p.gain_over_csma(key) for p in self.points])


def _sweep(
    parameter_name: str,
    points: Iterable[Tuple[float, ScenarioSpec, SimConfig]],
    workers: Optional[int],
    options: Optional[EngineOptions],
    collector: Optional[Collector],
) -> SweepResult:
    """One :func:`run_experiment` per ``(value, spec, config)`` point."""
    # Resolve here so a bad options value fails in the caller's frame.
    options = EngineOptions.resolve(options)
    points = list(points)
    col = active(collector)
    swept = []
    with col.span("sweep", parameter=parameter_name, points=len(points)):
        for value, spec, config in points:
            with col.span("sweep.point", value=float(value)):
                result = run_experiment(
                    spec, config, workers=workers, options=options, collector=collector
                )
            swept.append(SweepPoint(parameter=value, means_mbps=result.mean_table_mbps()))
            col.inc("sweep.points")
    return SweepResult(parameter_name=parameter_name, points=swept)


def sweep_coherence_time(
    coherence_values_s: Sequence[float] = (0.004, 0.030, 0.120, 1.0),
    spec: ScenarioSpec = ScenarioSpec("4x2", 4, 2, include_copa_plus=False),
    config: SimConfig = DEFAULT_CONFIG,
    workers: Optional[int] = None,
    options: Optional[EngineOptions] = None,
    collector: Optional[Collector] = None,
) -> SweepResult:
    """COPA vs CSMA as the channel gets more static.

    ``coherence_s`` does not enter the channel draw, so every point sees
    the same realizations and only the MAC-overhead amortization varies —
    isolating Table 1's effect on end-to-end throughput.  ``workers``,
    ``options`` and ``collector`` are forwarded to every point's
    :func:`~repro.sim.experiment.run_experiment`.
    """
    return _sweep(
        "coherence_s",
        ((c, spec, config.with_(coherence_s=c)) for c in coherence_values_s),
        workers,
        options,
        collector,
    )


def sweep_interference(
    offsets_db: Sequence[float] = (0.0, -5.0, -10.0, -20.0),
    spec: ScenarioSpec = ScenarioSpec("4x2", 4, 2, include_copa_plus=False),
    config: SimConfig = DEFAULT_CONFIG,
    workers: Optional[int] = None,
    options: Optional[EngineOptions] = None,
    collector: Optional[Collector] = None,
) -> SweepResult:
    """§4.4 generalized: scale the cross links through a range of offsets.

    Each offset is absolute: the point runs ``spec`` with
    ``interference_offset_db`` replaced by it, so the channels are the
    base realization with every cross link scaled by
    :meth:`ChannelSet.scaled_interference`.
    """
    return _sweep(
        "interference_offset_db",
        ((o, replace(spec, interference_offset_db=float(o)), config) for o in offsets_db),
        workers,
        options,
        collector,
    )


def sweep_antenna_configurations(
    configurations: Sequence[Tuple[int, int]] = ((1, 1), (2, 2), (3, 2), (4, 2)),
    config: SimConfig = DEFAULT_CONFIG,
    workers: Optional[int] = None,
    options: Optional[EngineOptions] = None,
    collector: Optional[Collector] = None,
) -> SweepResult:
    """The §4 progression: spatial degrees of freedom vs COPA's win.

    The parameter value encodes the configuration as ``ap + client / 10``
    (e.g. 4.2 for 4×2); use :meth:`SweepResult.series` labels accordingly.
    """
    return _sweep(
        "antennas",
        (
            (
                ap + client / 10.0,
                ScenarioSpec(f"{ap}x{client}", ap, client, include_copa_plus=False),
                config,
            )
            for ap, client in configurations
        ),
        workers,
        options,
        collector,
    )
