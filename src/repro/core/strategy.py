"""§3.3: predicting the best strategy and §3.5: incentive compatibility.

For a cluster of interfering (AP, client) networks — the paper's pair,
or any k ≥ 1 — the strategy engine builds the whole menu of Figure 8,
predicts each strategy's throughput from the (noisy) CSI the APs actually
have, and picks:

* **COPA** — the aggregate-throughput-maximizing strategy, and
* **COPA fair** — the best strategy under the incentive-compatibility
  constraint that neither client does worse than sequential transmission
  with power allocation (COPA-SEQ), the paper's "simple tweak".

Reported throughputs are then *measured* on the true channels (CSI error,
TX noise and subcarrier leakage included), so a strategy the leader
mispredicts really does cost throughput, exactly as on the testbed.

This module holds the engine's result types and choice rule, and
:class:`StrategyEngine`, the per-topology front of the one menu
implementation in :mod:`repro.core.batch`.

Scheme names follow the paper:

``csma``       sequential, equal power, no subcarrier selection (baseline);
``copa_seq``   sequential + Equi-SNR power allocation & selection;
``null``       concurrent vanilla nulling, equal power (baseline; in the
               overconstrained case this is the paper's "Null+SDA");
``conc_bf``    concurrent, beamforming precoders + Equi-SINR (no nulling);
``conc_null``  concurrent, nulling precoders + Equi-SINR;
``conc_sda``   concurrent, shut-down-antenna nulling + Equi-SINR (§3.4),
               reported as the average over the two leader roles.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from ..mac.timing import MacOverheadModel
from ..obs.collector import Collector
from ..phy.channel import ChannelSet
from ..phy.constants import TX_POWER_DBM
from ..phy.noise import ImperfectionModel
from ..phy.rates import RateSelection, best_rate
from . import equi_snr
from .equi_sinr import StreamAllocation, StreamAllocator
from .schemes import COPA_CANDIDATES, Scheme

# Bound here only so the benchmark's layer trace (bench/layers.py) can
# patch them by name; this module calls neither.
from ..phy.mimo import mmse_sinr  # noqa: F401
from .equi_sinr import allocate_concurrent  # noqa: F401

__all__ = [
    "Scheme",
    "SCHEME_CSMA",
    "SCHEME_COPA_SEQ",
    "SCHEME_NULL",
    "SCHEME_CONC_BF",
    "SCHEME_CONC_NULL",
    "SCHEME_CONC_SDA",
    "SchemeResult",
    "StrategyOutcome",
    "StrategyEngine",
    "average_results",
    "choose_scheme",
]

# Back-compat aliases for the canonical names in :mod:`repro.core.schemes`.
# ``Scheme`` members are str-valued, so existing string comparisons and
# dict lookups keep working unchanged.
SCHEME_CSMA = Scheme.CSMA
SCHEME_COPA_SEQ = Scheme.COPA_SEQ
SCHEME_NULL = Scheme.NULL
SCHEME_CONC_BF = Scheme.CONC_BF
SCHEME_CONC_NULL = Scheme.CONC_NULL
SCHEME_CONC_SDA = Scheme.CONC_SDA

#: Tolerance for the fairness constraint: a client "loses" only if its
#: predicted throughput drops more than this fraction below COPA-SEQ's.
_FAIRNESS_SLACK = 1e-3


@dataclass(frozen=True)
class SchemeResult:
    """Throughput of one strategy in one topology."""

    name: str
    concurrent: bool
    #: Per-client throughput in bit/s, MAC overhead and airtime share applied.
    client_throughput_bps: Tuple[float, ...]
    #: Rate selections of the transmissions (PHY-level detail), one per cell.
    rates: Tuple[RateSelection, ...]
    #: The power allocations behind the result (per AP), when applicable —
    #: lets analyses inspect subcarrier usage (e.g. §4.2's OFDMA effect).
    allocations: Optional[Tuple[StreamAllocation, ...]] = None

    @property
    def aggregate_bps(self) -> float:
        return float(sum(self.client_throughput_bps))

    @property
    def aggregate_mbps(self) -> float:
        return self.aggregate_bps / 1e6


@dataclass
class StrategyOutcome:
    """Everything the engine learned about one topology."""

    #: Measured (true-channel) results per scheme.
    schemes: Dict[str, SchemeResult]
    #: CSI-predicted results per scheme (what the leader AP believes).
    predictions: Dict[str, SchemeResult]
    #: Scheme the throughput-maximizing COPA picks (from predictions).
    copa_choice: str
    #: Scheme the incentive-compatible COPA picks.
    copa_fair_choice: str

    @property
    def copa(self) -> SchemeResult:
        return self.schemes[self.copa_choice]

    @property
    def copa_fair(self) -> SchemeResult:
        return self.schemes[self.copa_fair_choice]


def average_results(name: str, results: Sequence[SchemeResult]) -> SchemeResult:
    """Average per-client throughputs (used for the two SDA leader roles)."""
    n_clients = len(results[0].client_throughput_bps)
    throughput = tuple(
        float(np.mean([r.client_throughput_bps[i] for r in results])) for i in range(n_clients)
    )
    return SchemeResult(
        name=name,
        concurrent=results[0].concurrent,
        client_throughput_bps=throughput,  # type: ignore[arg-type]
        rates=results[0].rates,
    )


def choose_scheme(
    predictions: Dict[str, SchemeResult],
    fair: bool,
    candidates: Sequence[str] = COPA_CANDIDATES,
) -> str:
    """Pick the best strategy from predicted throughputs (Fig. 8).

    With ``fair=True``, concurrent candidates are only admissible when
    neither client is predicted to fall below its COPA-SEQ throughput
    (§3.5's incentive-compatibility tweak).
    """
    baseline = predictions[SCHEME_COPA_SEQ]
    best_name = SCHEME_COPA_SEQ
    best_aggregate = baseline.aggregate_bps
    for name in candidates:
        if name not in predictions or name == SCHEME_COPA_SEQ:
            continue
        candidate = predictions[name]
        if fair:
            admissible = all(
                candidate.client_throughput_bps[i]
                >= baseline.client_throughput_bps[i] * (1.0 - _FAIRNESS_SLACK)
                for i in range(len(candidate.client_throughput_bps))
            )
            if not admissible:
                continue
        if candidate.aggregate_bps > best_aggregate:
            best_aggregate = candidate.aggregate_bps
            best_name = name
    return best_name


class StrategyEngine:
    """Evaluates the strategy menu for one channel realization.

    A one-row call of :class:`repro.core.batch.BatchedStrategyEngine`,
    the menu's only implementation, for a cluster of any k ≥ 1 (AP,
    client) pairs: the constructor measures every (AP, client) link's CSI
    from ``rng`` in nested AP-then-client order, and :meth:`run` returns
    the batched engine's single outcome.

    Parameters
    ----------
    channels:
        True channels of the topology (what physics does).
    imperfections:
        CSI error / TX EVM / leakage model (what separates belief from
        physics).
    coherence_s:
        Coherence time used for the MAC overhead accounting (the paper
        charges CSI dissemination once per 30 ms).
    allocator:
        Per-stream power allocator; :func:`repro.core.equi_snr.allocate`
        gives COPA, :func:`repro.core.mercury.mercury_allocate` gives the
        COPA+ upper bound.
    rate_selector:
        Rate-selection model: :func:`repro.phy.rates.best_rate` (default)
        enforces 802.11's single decoder;
        :func:`repro.core.multi_decoder.per_subcarrier_rates` evaluates the
        §4.6 one-decoder-per-coding-rate hardware.
    collector:
        Optional :class:`repro.obs.Collector`; when given, :meth:`run`
        records one span per scheme (design, allocation, measurement) and
        allocator metrics.  ``None`` costs a no-op context per stage.
    oracle_check:
        Shadow-validate sequential allocations against the optimization
        oracle (:mod:`repro.core.oracle`).  Agreement/mismatch is recorded
        on the collector (``oracle.agree`` / ``oracle.mismatch``), never
        raised; off by default (one extra oracle solve per stream).
    """

    def __init__(
        self,
        channels: ChannelSet,
        imperfections: Optional[ImperfectionModel] = None,
        rng: Optional[np.random.Generator] = None,
        overhead_model: Optional[MacOverheadModel] = None,
        coherence_s: float = 0.030,
        tx_power_dbm: float = TX_POWER_DBM,
        allocator: StreamAllocator = equi_snr.allocate,
        max_iterations: int = 8,
        rate_selector=best_rate,
        collector: Optional[Collector] = None,
        oracle_check: bool = False,
    ):
        from .batch import BatchedStrategyEngine, measure_csi  # batch imports this module

        imperfections = imperfections if imperfections is not None else ImperfectionModel()
        rng = rng if rng is not None else np.random.default_rng(0)
        #: The one-row engine holding this topology's measured CSI.
        self.batch = BatchedStrategyEngine(
            [channels],
            [measure_csi(channels, imperfections, rng)],
            imperfections=imperfections,
            overhead_model=overhead_model,
            coherence_s=coherence_s,
            tx_power_dbm=tx_power_dbm,
            allocator=allocator,
            max_iterations=max_iterations,
            rate_selector=rate_selector,
            collector=collector,
            oracle_check=oracle_check,
        )

    def run(self) -> StrategyOutcome:
        """Evaluate the full menu and make the COPA / COPA-fair choices."""
        return self.batch.run()[0]
