"""Beyond two senders: COPA pairing in an N-network neighbourhood (§3.1).

The paper limits its evaluation to two APs and sketches how more senders
would behave: the contention winner runs an ITS exchange with one
responder, the pair transmits (concurrently or sequentially), and other
radios honour the ITS airtime field like an RTS/CTS NAV.  For an N-AP
:class:`~repro.phy.channel.ChannelSet` (``TopologyGenerator.sample(n_aps=N)``
plus ``ChannelModel.realize``), :func:`pairing_throughput` computes that
round structure's per-client throughput in closed form:

1. every one of the C(N, 2) pairs is a k = 2 row of one
   :class:`~repro.core.batch.BatchedStrategyEngine` call on
   :func:`~repro.core.ncell.restrict_channels`, pair ``p``'s CSI measured
   with child seed ``p`` of ``default_rng(seed)`` — the engine call that
   :func:`~repro.core.batch.run_batch` makes for a split topology's rows;
2. the DCF leader is uniform over the N APs;
3. a leader pairs with the responder whose *predicted* joint throughput
   is best (the ITS REQ race decided by channel quality), and the pair's
   COPA (or COPA-fair) scheme delivers to both clients;
4. plain CSMA lets the leader transmit alone: it gets twice its CSMA
   figure from the pair ``(i, i + 1 mod N)``, whose per-client CSMA value
   is halved for turn-taking.

Pair outcomes are channel-static and the leader draw is uniform, so
contention rounds are i.i.d.: a client's throughput is the mean over the
N leaders of what each leader's round delivers to it, exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Dict, Optional, Tuple

import numpy as np

from ..mac.csma import jain_fairness
from ..phy.channel import ChannelSet
from ..phy.noise import ImperfectionModel
from .batch import BatchedStrategyEngine, measure_csi
from .ncell import restrict_channels
from .strategy import SCHEME_CSMA, StrategyOutcome

__all__ = ["PairingThroughput", "ScheduleResult", "pairing_throughput"]


@dataclass(frozen=True)
class ScheduleResult:
    """Per-client expected throughput (bit/s) of one access mode."""

    #: Client index → throughput, in topology order.
    throughput_bps: Tuple[float, ...]

    @property
    def aggregate_bps(self) -> float:
        return float(sum(self.throughput_bps))

    @property
    def fairness(self) -> float:
        return jain_fairness(list(self.throughput_bps))


@dataclass(frozen=True)
class PairingThroughput:
    """The neighbourhood's three access modes, on the same pair outcomes."""

    csma: ScheduleResult
    copa: ScheduleResult
    copa_fair: ScheduleResult
    #: ``(i, j)`` with ``i < j`` → the pair's two-network outcome; client
    #: ``i`` is the outcome's client 0.
    outcomes: Dict[Tuple[int, int], StrategyOutcome]


def pairing_throughput(
    channels: ChannelSet, imperfections: Optional[ImperfectionModel] = None, seed: int = 0
) -> PairingThroughput:
    """Expected per-client throughput of §3.1's pairing, CSMA and COPA."""
    n = len(channels.topology.aps)
    if n < 2:
        raise ValueError("pairing needs at least two networks")
    imperfections = imperfections if imperfections is not None else ImperfectionModel()
    pairs = list(combinations(range(n), 2))
    seeds = np.random.default_rng(seed).integers(0, 2**63 - 1, size=len(pairs)).tolist()
    rows = [restrict_channels(channels, pair) for pair in pairs]
    csi = [
        measure_csi(row, imperfections, np.random.default_rng(child))
        for row, child in zip(rows, seeds)
    ]
    outcomes = dict(
        zip(pairs, BatchedStrategyEngine(rows, csi, imperfections=imperfections).run())
    )

    def pair(i: int, j: int) -> StrategyOutcome:
        return outcomes[(min(i, j), max(i, j))]

    def paired(fair: bool) -> ScheduleResult:
        delivered = np.zeros(n)
        for leader in range(n):

            def predicted(partner: int) -> float:
                outcome = pair(leader, partner)
                choice = outcome.copa_fair_choice if fair else outcome.copa_choice
                return outcome.predictions[choice].aggregate_bps

            partner = max((p for p in range(n) if p != leader), key=predicted)
            outcome = pair(leader, partner)
            chosen = outcome.copa_fair if fair else outcome.copa
            delivered[sorted((leader, partner))] += chosen.client_throughput_bps
        return ScheduleResult(tuple((delivered / n).tolist()))

    def alone(leader: int) -> float:
        other = (leader + 1) % n
        csma = pair(leader, other).schemes[SCHEME_CSMA]
        # Transmitting alone for the whole round doubles the turn-taking figure.
        return 2.0 * csma.client_throughput_bps[int(leader > other)]

    return PairingThroughput(
        csma=ScheduleResult(tuple(alone(leader) / n for leader in range(n))),
        copa=paired(fair=False),
        copa_fair=paired(fair=True),
        outcomes=outcomes,
    )
