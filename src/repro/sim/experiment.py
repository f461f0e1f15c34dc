"""The §4 evaluation loop: run the strategy engine across many topologies.

One :class:`ScenarioSpec` corresponds to one of the paper's evaluation
scenarios (single-antenna, 4×2 constrained, 3×2 overconstrained, 4×2 with
weakened interference); :func:`run_experiment` plays 30 topologies through
the COPA strategy engine (and optionally the mercury/water-filling COPA+
variant) and returns per-topology series ready for CDF plotting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from ..core.options import EngineOptions
from ..core.schemes import SERIES_KEYS, Scheme, SeriesKey
from ..obs.collector import Collector, active
from ..phy.channel import ChannelSet
from .config import DEFAULT_CONFIG, SimConfig
from .faults import FaultPlan
from .metrics import Summary, summarize
from .runner import RetryPolicy, RunnerStats, TopologyRecord, build_tasks, run_tasks

__all__ = [
    "ScenarioSpec",
    "SINGLE_ANTENNA",
    "CONSTRAINED_4X2",
    "OVERCONSTRAINED_3X2",
    "TopologyRecord",
    "ExperimentResult",
    "SERIES_KEYS",
    "SeriesKey",
    "generate_channel_sets",
    "run_experiment",
]


@dataclass(frozen=True)
class ScenarioSpec:
    """One evaluation scenario (§4.1's bullet list)."""

    name: str
    ap_antennas: int
    client_antennas: int
    #: Scale applied to the cross links (Fig. 12 uses −10 dB).
    interference_offset_db: float = 0.0
    #: Also run the impractical mercury/water-filling COPA+ variant.
    include_copa_plus: bool = True
    #: Number of interfering AP/client pairs.  2 (the paper's setting)
    #: runs the 2-AP engine; larger counts route every topology through
    #: the N-cell interference-graph engine (:mod:`repro.core.ncell`).
    n_aps: int = 2


SINGLE_ANTENNA = ScenarioSpec("1x1", ap_antennas=1, client_antennas=1)
CONSTRAINED_4X2 = ScenarioSpec("4x2", ap_antennas=4, client_antennas=2)
OVERCONSTRAINED_3X2 = ScenarioSpec("3x2", ap_antennas=3, client_antennas=2)


@dataclass
class ExperimentResult:
    """Per-topology aggregate throughputs for every scheme of interest."""

    spec: ScenarioSpec
    records: List[TopologyRecord]
    #: Runner telemetry (worker count, per-topology wall-clock, utilization).
    stats: Optional[RunnerStats] = None
    #: Shard-service telemetry (a :class:`repro.sim.service.ServiceStats`)
    #: when the run went through a shard directory; ``None`` otherwise.
    service_stats: Optional[object] = None

    def _aggregate(self, record: TopologyRecord, key: str) -> Optional[float]:
        outcome = record.outcome
        if key == SeriesKey.CSMA:
            return outcome.schemes[Scheme.CSMA].aggregate_bps
        if key == SeriesKey.COPA_SEQ:
            return outcome.schemes[Scheme.COPA_SEQ].aggregate_bps
        if key == SeriesKey.NULL:
            scheme = outcome.schemes.get(Scheme.NULL)
            return None if scheme is None else scheme.aggregate_bps
        if key == SeriesKey.COPA:
            return outcome.copa.aggregate_bps
        if key == SeriesKey.COPA_FAIR:
            return outcome.copa_fair.aggregate_bps
        if key == SeriesKey.COPA_PLUS:
            return None if record.plus_outcome is None else record.plus_outcome.copa.aggregate_bps
        if key == SeriesKey.COPA_PLUS_FAIR:
            return (
                None
                if record.plus_outcome is None
                else record.plus_outcome.copa_fair.aggregate_bps
            )
        raise KeyError(f"unknown series {key!r}; known: {SERIES_KEYS}")

    def series_mbps(self, key: str) -> np.ndarray:
        """Aggregate throughput (Mbit/s) per topology for one scheme."""
        values = [self._aggregate(record, key) for record in self.records]
        if any(v is None for v in values):
            raise KeyError(f"series {key!r} was not measured in this experiment")
        return np.asarray(values, dtype=float) / 1e6

    def summary(self, key: str) -> Summary:
        return summarize(self.series_mbps(key))

    def available_series(self) -> List[str]:
        """Series that were measured, probed cheaply on the first record.

        Scheme availability is uniform across a scenario's topologies (it
        depends only on the antenna configuration and ``include_copa_plus``),
        so probing one record's aggregates suffices — no need to recompute
        every full series just to see which ones exist.
        """
        if not self.records:
            return []
        probe = self.records[0]
        return [key for key in SERIES_KEYS if self._aggregate(probe, key) is not None]

    def mean_table_mbps(self) -> Dict[str, float]:
        """Scheme → mean aggregate Mbit/s (the numbers in the CDF legends)."""
        return {key: float(self.series_mbps(key).mean()) for key in self.available_series()}


def generate_channel_sets(
    spec: ScenarioSpec,
    config: SimConfig = DEFAULT_CONFIG,
    cache=None,
    collector: Optional[Collector] = None,
) -> List[ChannelSet]:
    """Draw the scenario's channel realizations (its "traces").

    Separated from :func:`run_experiment` so trace-driven emulation
    (§4.4 / Fig. 12) can transform recorded channels before replaying.

    ``cache`` (a :class:`repro.cache.ResultCache`) memoizes the whole
    list under a fingerprint of the channel-determining spec/config
    fields — two configs differing only in engine-side parameters (e.g.
    ``coherence_s``) share one realization, bit-identically.
    """
    if cache is not None:
        hit = cache.load_channel_sets(spec, config, collector=collector)
        if hit is not None:
            return hit
    generator = config.topology_generator()
    model = config.channel_model()
    sets = []
    for index in range(config.n_topologies):
        rng = config.rng_for_topology(index)
        topology = generator.sample(rng, spec.ap_antennas, spec.client_antennas, spec.n_aps)
        channels = model.realize(topology, rng)
        if spec.interference_offset_db:
            channels = channels.scaled_interference(spec.interference_offset_db)
        sets.append(channels)
    if cache is not None:
        cache.store_channel_sets(spec, config, sets, collector=collector)
    return sets


def run_experiment(
    spec: ScenarioSpec,
    config: SimConfig = DEFAULT_CONFIG,
    channel_sets: Optional[Sequence[ChannelSet]] = None,
    workers: Optional[int] = None,
    chunk_size: Optional[int] = None,
    batch_size: Optional[int] = None,
    options: Optional[EngineOptions] = None,
    collector: Optional[Collector] = None,
    policy: Optional[RetryPolicy] = None,
    checkpoint: Optional[str] = None,
    resume: bool = False,
    fault_plan: Optional[FaultPlan] = None,
    cache=None,
    shard_dir: Optional[str] = None,
) -> ExperimentResult:
    """Run the full strategy evaluation over a scenario's topologies.

    ``channel_sets`` overrides trace generation (used by the emulation
    path); the CSI-measurement RNG is re-seeded per topology so COPA and
    COPA+ see identical noisy CSI.

    Every experiment entry point (this one, the sweeps, the emulation
    replay) shares the same execution/observability keywords:

    ``workers``
        fans topologies out to a process pool (``None``/1 → serial,
        ``<= 0`` → one per CPU); every topology carries its private seed,
        so parallel results are bit-identical to serial ones.
    ``chunk_size``
        overrides the dispatch chunking policy.
    ``batch_size``
        the batched-engine dispatch unit (see
        :func:`repro.sim.runner.run_tasks`): ``None`` batches
        automatically, ``1`` forces the legacy per-topology path.
    ``options``
        a validated :class:`~repro.core.options.EngineOptions` (e.g.
        ``rate_selector`` for §4.6's multi-decoder evaluation), or
        ``None`` for all defaults.  Anything else — including the
        long-retired ``engine_kwargs`` dict — raises :class:`TypeError`.
    ``collector``
        a :class:`repro.obs.Collector` that receives stage spans (scenario
        setup, runner dispatch, one subtree per topology and scheme) and
        allocator/engine metrics.  ``None`` (default) disables
        observability on a no-op fast path.
    ``policy``
        a :class:`~repro.sim.runner.RetryPolicy` enabling per-task
        timeouts and bounded retries with backoff; retried topologies are
        pure seed replays, so results stay bit-identical.
    ``checkpoint`` / ``resume``
        path of a ``repro.ckpt/v1`` journal of completed topologies;
        ``resume=True`` reloads finished indices instead of recomputing
        them (see :mod:`repro.sim.checkpoint`).
    ``fault_plan``
        deterministic fault injection (:mod:`repro.sim.faults`) — the
        chaos suite's hook; leave ``None`` for real runs.
    ``cache``
        a :class:`repro.cache.ResultCache`: channel realizations and
        per-topology results are looked up by content address before
        being recomputed, and stored after harvest.  Cached results are
        bit-identical to cold ones; ``None`` (default) skips every cache
        code path.
    ``shard_dir``
        route the run through the sharded experiment service
        (:mod:`repro.sim.service`): publish the topology shards into this
        directory (idempotently), cooperate with any other worker
        processes draining it, and harvest the combined — bit-identical —
        result.  Requires regenerable channels (``channel_sets`` must be
        ``None``; shards carry the spec/config, not arrays) and is
        mutually exclusive with ``checkpoint``/``resume``/``fault_plan``
        (the service journals per shard and chaos-injects through its own
        hook); ``chunk_size``/``batch_size`` don't apply to the per-task
        fault-tolerant path workers run.
    """
    # Resolve here so a bad options value fails in the caller's frame.
    options = EngineOptions.resolve(options)
    if shard_dir is not None:
        if channel_sets is not None:
            raise ValueError(
                "shard_dir requires regenerable channels; pass channel_sets=None "
                "(use spec.interference_offset_db for emulated scenarios)"
            )
        if checkpoint is not None or resume or fault_plan is not None:
            raise ValueError(
                "shard_dir is mutually exclusive with checkpoint/resume/fault_plan; "
                "the service keeps per-shard journals itself"
            )
        from .service import run_sharded_experiment

        return run_sharded_experiment(
            spec,
            config,
            shard_dir,
            options=options,
            workers=workers,
            cache=cache,
            collector=collector,
            policy=policy,
        )
    col = active(collector)
    with col.span("experiment", scenario=spec.name, n_topologies=config.n_topologies):
        if channel_sets is None:
            with col.span("generate_channel_sets"):
                channel_sets = generate_channel_sets(
                    spec, config, cache=cache, collector=collector
                )
        tasks = build_tasks(
            channel_sets,
            base_seed=config.seed,
            coherence_s=config.coherence_s,
            imperfections=config.imperfections(),
            include_copa_plus=spec.include_copa_plus,
            options=options,
            fault_plan=fault_plan,
        )
        records, stats = run_tasks(
            tasks,
            workers=workers,
            chunk_size=chunk_size,
            batch_size=batch_size,
            collector=collector,
            policy=policy,
            checkpoint=checkpoint,
            resume=resume,
            cache=cache,
        )
    return ExperimentResult(spec=spec, records=records, stats=stats)
