"""Differential correctness harness: iterative allocators vs. the oracle.

Randomized cross-validation of the production power allocators against the
optimization oracle in :mod:`repro.core.oracle`.  Seeded scenarios are
drawn through the same pipeline the simulator uses — office topologies
from :mod:`repro.phy.topology`, tapped-delay-line channels, SVD
beamforming — so the oracle is exercised on the gain distributions the
allocators actually face, not synthetic toys.  Every disagreement beyond
the documented per-scheme tolerance is dumped as a minimal, replayable
reproducer (seed + the exact per-stream problem) so a failure in CI can be
re-run locally from the JSON alone.

:func:`equilibrium_sweep` does the same for the Figure-6 iteration with N
players: :func:`draw_graph` draws the one-row
:class:`~repro.core.equi_sinr.BatchConcurrentContext` the engine would
solve, :func:`~repro.core.equi_sinr.allocate_concurrent` solves it, and
:func:`~repro.core.oracle.equilibrium_gaps` measures each player's regret.

Schema note: reproducer files carry ``"schema": "repro.oracle-repro/v1"``;
consumers must ignore unknown keys so fields can be added compatibly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.collector import Collector, active
from ..phy.channel import ChannelModel
from ..phy.constants import NOISE_FLOOR_DBM, TX_POWER_DBM
from ..phy.topology import TopologyGenerator
from ..sim.config import SimConfig
from ..util import dbm_to_mw
from . import equi_snr
from .equi_sinr import BatchConcurrentContext, allocate_concurrent, effective_gains
from .mercury import mercury_allocate
from .oracle import (
    ORACLE_RTOL,
    equilibrium_gaps,
    oracle_equi_snr,
    oracle_for,
    oracle_mercury,
)
from .precoding import beamforming_design, cross_coupling, stream_gains

__all__ = [
    "REPRODUCER_SCHEMA",
    "SCHEMES",
    "StreamCase",
    "Scenario",
    "Comparison",
    "SweepReport",
    "draw_scenario",
    "differential_sweep",
    "write_reproducer",
    "load_reproducer",
    "replay_reproducer",
    "draw_graph",
    "equilibrium_sweep",
    "EquilibriumReport",
]

REPRODUCER_SCHEMA = "repro.oracle-repro/v1"

#: Antenna configurations the scenario generator cycles through (by seed),
#: covering SISO, square MIMO and the paper's testbed 4x2 shape.
_ANTENNA_CYCLE: Tuple[Tuple[int, int], ...] = ((1, 1), (2, 2), (4, 2))

#: The iterative allocator behind each scheme key.  "equi_snr" and
#: "equi_sinr" share an implementation (the latter just runs on effective
#: gains that include interference); they are swept separately because the
#: gain distributions — and hence the numerical regimes — differ.
SCHEMES: Dict[str, Callable] = {
    "equi_snr": equi_snr.allocate,
    "equi_sinr": equi_snr.allocate,
    "mercury": mercury_allocate,
}


@dataclass(frozen=True)
class StreamCase:
    """One per-stream allocation problem extracted from a scenario."""

    #: Effective gains (S(I)NR per mW) the allocator and oracle both see.
    gains: np.ndarray
    #: Power budget for the stream in mW.
    budget: float
    #: Provenance label, e.g. "AP1/s0".
    label: str


@dataclass
class Scenario:
    """A seeded random scenario: per-stream cases plus replay provenance."""

    seed: int
    scheme: str
    antennas: Tuple[int, int]
    cases: List[StreamCase]
    noise_mw: float


def draw_scenario(
    seed: int,
    scheme: str,
    config: Optional[SimConfig] = None,
    tx_power_dbm: float = TX_POWER_DBM,
) -> Scenario:
    """Draw one seeded scenario for a scheme through the simulator pipeline.

    The topology, fading, and beamforming pipeline is the production one;
    what varies per scheme is the problem handed to the allocator:

    * ``equi_snr`` / ``mercury`` — interference-free effective gains (the
      Algorithm-1 and COPA+ sequential settings),
    * ``equi_sinr`` — effective gains under equal-spread interference from
      the other AP (Figure 6's iteration step).
    """
    if scheme not in SCHEMES:
        raise KeyError(f"unknown scheme {scheme!r}; known: {sorted(SCHEMES)}")
    rng = np.random.default_rng(seed)
    ap_antennas, client_antennas = _ANTENNA_CYCLE[seed % len(_ANTENNA_CYCLE)]
    generator = config.topology_generator() if config is not None else TopologyGenerator()
    model = config.channel_model() if config is not None else ChannelModel()
    topology = generator.sample(rng, ap_antennas=ap_antennas, client_antennas=client_antennas)
    channels = model.realize(topology, rng)
    noise_mw = channels.noise_floor_mw
    tx_power_mw = float(dbm_to_mw(tx_power_dbm))

    designs = []
    for i in range(2):
        ap, client = topology.aps[i].name, topology.clients[i].name
        designs.append(beamforming_design(channels.channel(ap, client), ap=ap, client=client))

    cases: List[StreamCase] = []
    for i in range(2):
        design = designs[i]
        gains = stream_gains(channels.channel(design.ap, design.client), design)
        n_sc, n_streams = gains.shape
        if scheme == "equi_sinr":
            other = designs[1 - i]
            coupled = cross_coupling(
                channels.channel(other.ap, design.client), other, victim_active_rx=design.active_rx
            )
            # Figure 6's opening assumption: the other sender spreads its
            # budget equally over every (subcarrier, stream) cell.
            spread = tx_power_mw / (other.n_streams * n_sc)
            interference = np.sum(coupled * spread, axis=1)
        else:
            interference = None
        effective = effective_gains(gains, interference, noise_mw)
        budget = tx_power_mw / n_streams
        for s in range(n_streams):
            cases.append(
                StreamCase(
                    gains=np.ascontiguousarray(effective[:, s]),
                    budget=budget,
                    label=f"{design.ap}/s{s}",
                )
            )
    return Scenario(
        seed=seed,
        scheme=scheme,
        antennas=(ap_antennas, client_antennas),
        cases=cases,
        noise_mw=noise_mw,
    )


@dataclass(frozen=True)
class Comparison:
    """One (stream case, allocator, oracle) comparison."""

    seed: int
    scheme: str
    label: str
    implementation_bps: float
    oracle_bps: float
    tolerance: float

    @property
    def rel_gap(self) -> float:
        reference = max(self.implementation_bps, self.oracle_bps)
        if reference <= 0:
            return 0.0
        return abs(self.implementation_bps - self.oracle_bps) / reference

    @property
    def agree(self) -> bool:
        return self.rel_gap <= self.tolerance


@dataclass
class SweepReport:
    """Outcome of a differential sweep over many seeds."""

    scheme: str
    tolerance: float
    comparisons: List[Comparison] = field(default_factory=list)
    reproducers: List[Path] = field(default_factory=list)

    @property
    def n_total(self) -> int:
        return len(self.comparisons)

    @property
    def mismatches(self) -> List[Comparison]:
        return [c for c in self.comparisons if not c.agree]

    @property
    def n_agree(self) -> int:
        return self.n_total - len(self.mismatches)

    @property
    def worst_gap(self) -> float:
        return max((c.rel_gap for c in self.comparisons), default=0.0)

    def summary(self) -> str:
        return (
            f"{self.scheme}: {self.n_agree}/{self.n_total} agree "
            f"(tolerance {self.tolerance:g}, worst gap {self.worst_gap:.3g})"
        )


def _compare_case(
    scheme: str,
    seed: int,
    case: StreamCase,
    tolerance: float,
    collector: Optional[Collector] = None,
) -> Comparison:
    allocator = SCHEMES[scheme]
    oracle = oracle_for(scheme)
    implementation = allocator(case.gains, case.budget)
    solution = oracle(case.gains, case.budget, collector=collector)
    return Comparison(
        seed=seed,
        scheme=scheme,
        label=case.label,
        implementation_bps=float(implementation.goodput_bps),
        oracle_bps=float(solution.goodput_bps),
        tolerance=tolerance,
    )


def differential_sweep(
    scheme: str,
    seeds: Sequence[int],
    tolerance: Optional[float] = None,
    config: Optional[SimConfig] = None,
    reproducer_dir: Optional[Path] = None,
    collector: Optional[Collector] = None,
) -> SweepReport:
    """Cross-validate one allocator against its oracle over seeded scenarios.

    Every stream of every scenario becomes one comparison; disagreements
    beyond ``tolerance`` (default: the documented :data:`ORACLE_RTOL`
    entry) are counted as ``oracle.mismatch`` and, when ``reproducer_dir``
    is given, dumped as replayable JSON reproducers.
    """
    col = active(collector)
    if tolerance is None:
        tolerance = ORACLE_RTOL[scheme]
    report = SweepReport(scheme=scheme, tolerance=tolerance)
    with col.span("oracle.differential_sweep", scheme=scheme, seeds=len(seeds)):
        for seed in seeds:
            scenario = draw_scenario(seed, scheme, config=config)
            for case in scenario.cases:
                comparison = _compare_case(scheme, seed, case, tolerance, collector=collector)
                report.comparisons.append(comparison)
                col.observe("oracle.rel_gap", comparison.rel_gap)
                if comparison.agree:
                    col.inc("oracle.agree")
                else:
                    col.inc("oracle.mismatch")
                    if reproducer_dir is not None:
                        report.reproducers.append(
                            write_reproducer(Path(reproducer_dir), comparison, case, scenario)
                        )
    return report


# ----------------------------------------------------------------------
# Reproducers: a mismatch must be replayable from its JSON alone
# ----------------------------------------------------------------------


def write_reproducer(
    directory: Path, comparison: Comparison, case: StreamCase, scenario: Scenario
) -> Path:
    """Dump one mismatch as a self-contained JSON reproducer.

    The gains are stored as full-precision floats (Python's ``repr`` round
    trip is exact for binary64), so a replay solves the *identical*
    problem — no topology re-draw, no RNG involved.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    payload = {
        "schema": REPRODUCER_SCHEMA,
        "scheme": comparison.scheme,
        "seed": comparison.seed,
        "label": comparison.label,
        "antennas": list(scenario.antennas),
        "noise_mw": scenario.noise_mw,
        "budget_mw": case.budget,
        "gains": [float(g) for g in case.gains],
        "implementation_bps": comparison.implementation_bps,
        "oracle_bps": comparison.oracle_bps,
        "rel_gap": comparison.rel_gap,
        "tolerance": comparison.tolerance,
    }
    name = f"mismatch-{comparison.scheme}-seed{comparison.seed}-{comparison.label.replace('/', '_')}.json"
    path = directory / name
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


def load_reproducer(path: Path) -> Dict:
    """Load and schema-check a reproducer file."""
    payload = json.loads(Path(path).read_text())
    schema = payload.get("schema")
    if schema != REPRODUCER_SCHEMA:
        raise ValueError(f"unsupported reproducer schema {schema!r} (want {REPRODUCER_SCHEMA})")
    return payload


def replay_reproducer(payload: Dict, collector: Optional[Collector] = None) -> Comparison:
    """Re-run the exact comparison a reproducer file captured."""
    case = StreamCase(
        gains=np.asarray(payload["gains"], dtype=float),
        budget=float(payload["budget_mw"]),
        label=str(payload["label"]),
    )
    return _compare_case(
        str(payload["scheme"]),
        int(payload["seed"]),
        case,
        float(payload["tolerance"]),
        collector=collector,
    )


# ----------------------------------------------------------------------
# N-player equilibrium sweep over random interference graphs
# ----------------------------------------------------------------------


def draw_graph(
    seed: int,
    n_players: int = 3,
    config: Optional[SimConfig] = None,
    tx_power_dbm: float = TX_POWER_DBM,
) -> BatchConcurrentContext:
    """Draw a seeded N-player Figure-6 problem from the office pipeline.

    Drops N (AP, client) pairs with the calibrated topology sampler
    (``n_aps=N``, at least two) and realizes their channels, as
    :func:`draw_scenario` does for two, then turns each pair's SVD design
    plus all cross couplings into a one-row
    :class:`~repro.core.equi_sinr.BatchConcurrentContext`: the interference
    graph of the N networks.
    """
    rng = np.random.default_rng(seed)
    ap_antennas, client_antennas = _ANTENNA_CYCLE[seed % len(_ANTENNA_CYCLE)]
    generator = config.topology_generator() if config is not None else TopologyGenerator()
    model = config.channel_model() if config is not None else ChannelModel()
    topology = generator.sample(rng, ap_antennas, client_antennas, n_aps=max(n_players, 2))
    channels = model.realize(topology, rng)
    tx_power_mw = float(dbm_to_mw(tx_power_dbm))
    pairs = list(zip(topology.aps, topology.clients))

    designs = []
    gains = []
    for ap, client in pairs:
        channel = channels.channel(ap.name, client.name)
        design = beamforming_design(channel, ap=ap.name, client=client.name)
        designs.append(design)
        gains.append(stream_gains(channel, design)[None])

    coupling = {}
    for victim, (_, victim_client) in enumerate(pairs):
        for source, (source_ap, _) in enumerate(pairs):
            if source == victim:
                continue
            channel = channels.channel(source_ap.name, victim_client.name)
            coupling[(victim, source)] = cross_coupling(
                channel, designs[source], victim_active_rx=designs[victim].active_rx
            )[None]
    return BatchConcurrentContext(
        gains=gains,
        coupling=coupling,
        budgets=[tx_power_mw] * len(pairs),
        noise_mw=[channels.noise_floor_mw] * len(pairs),
    )


@dataclass
class EquilibriumReport:
    """Regret statistics of the best-response dynamic over many graphs."""

    n_players: int
    #: Per-seed maximum player regret.
    max_regrets: List[float] = field(default_factory=list)
    #: Per-seed convergence flag of the best-response dynamic.
    converged: List[bool] = field(default_factory=list)

    @property
    def worst_regret(self) -> float:
        return max(self.max_regrets, default=0.0)

    @property
    def mean_regret(self) -> float:
        return float(np.mean(self.max_regrets)) if self.max_regrets else 0.0


def equilibrium_sweep(
    seeds: Sequence[int],
    n_players: int = 3,
    config: Optional[SimConfig] = None,
    collector: Optional[Collector] = None,
) -> EquilibriumReport:
    """Run the N-player dynamic on seeded graphs and measure regrets.

    The Figure-6 heuristic is *not* guaranteed to reach an equilibrium —
    this sweep quantifies how far it lands from one (per-player regret
    against the oracle best response) across random office graphs.
    """
    col = active(collector)
    report = EquilibriumReport(n_players=n_players)
    with col.span("oracle.equilibrium_sweep", players=n_players, seeds=len(seeds)):
        for seed in seeds:
            context = draw_graph(seed, n_players=n_players, config=config)
            result = allocate_concurrent(context)
            gaps = equilibrium_gaps(
                context, result.allocations, oracle=oracle_equi_snr, collector=collector
            )
            report.max_regrets.append(max(g.regret for g in gaps))
            report.converged.append(result.converged)
    return report
