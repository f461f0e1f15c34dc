"""Slotted DCF contention, including COPA's fairness-deference tweak.

A round-based model of 802.11's distributed coordination function: every
backlogged station draws a backoff from its contention window, the
smallest counter wins the round, ties collide and double the colliders'
windows.  On top of this we model COPA pairs: when one member of a pair
wins, the pair runs an ITS exchange and (in sequential mode) consumes two
consecutive TXOPs — which is unfair to third-party senders, so §3.1
proposes that after a sequential COPA round the pair defers by drawing its
next backoff from ``[aCWmin+1, 2·aCWmin+1]`` instead of ``[0, aCWmin]``.
The paper leaves evaluating this to future work; we implement and
benchmark it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..phy.constants import CW_MAX, CW_MIN

__all__ = ["Station", "DcfStats", "DcfSimulator", "jain_fairness"]


@dataclass
class Station:
    """One contending sender."""

    name: str
    #: Name of the COPA partner AP, or None for a standalone sender.
    copa_partner: Optional[str] = None

    # -- mutable contention state --
    cw: int = CW_MIN
    backoff: int = 0
    #: True when the §3.1 deference window applies to the next draw.
    defer_next: bool = False


def jain_fairness(shares: Sequence[float]) -> float:
    """Jain's fairness index: 1 is perfectly fair, 1/n is maximally unfair."""
    shares = np.asarray(shares, dtype=float)
    if shares.size == 0:
        raise ValueError("need at least one share")
    total = shares.sum()
    if total == 0:
        return 1.0
    return float(total**2 / (shares.size * np.sum(shares**2)))


@dataclass
class DcfStats:
    """Outcome of a contention simulation."""

    txops_won: Dict[str, int]
    collisions: int
    rounds: int

    def share(self, name: str) -> float:
        total = sum(self.txops_won.values())
        return self.txops_won[name] / total if total else 0.0

    @property
    def fairness(self) -> float:
        return jain_fairness(list(self.txops_won.values()))

    @property
    def collision_rate(self) -> float:
        return self.collisions / self.rounds if self.rounds else 0.0


class DcfSimulator:
    """Round-based DCF with optional COPA pairs.

    ``copa_mode`` selects what a winning COPA pair does with the medium:
    ``"sequential"`` — both members transmit back-to-back (two TXOPs);
    ``"concurrent"`` — both transmit at once (each gets a TXOP's worth);
    ``None`` — pairs behave like independent CSMA stations.
    """

    def __init__(
        self,
        stations: Sequence[Station],
        rng: np.random.Generator,
        copa_mode: Optional[str] = "sequential",
        fairness_deference: bool = False,
        cw_min: int = CW_MIN,
        cw_max: int = CW_MAX,
    ):
        if copa_mode not in (None, "sequential", "concurrent"):
            raise ValueError(f"unknown copa_mode {copa_mode!r}")
        names = [s.name for s in stations]
        if len(set(names)) != len(names):
            raise ValueError("station names must be unique")
        by_name = {s.name: s for s in stations}
        for station in stations:
            if station.copa_partner is not None:
                partner = by_name.get(station.copa_partner)
                if partner is None or partner.copa_partner != station.name:
                    raise ValueError(
                        f"COPA pairing of {station.name!r} is not symmetric"
                    )
        self.stations = list(stations)
        self.rng = rng
        self.copa_mode = copa_mode
        self.fairness_deference = fairness_deference
        self.cw_min = cw_min
        self.cw_max = cw_max
        for station in self.stations:
            station.cw = cw_min
            station.backoff = self._draw(station)

    def _draw(self, station: Station) -> int:
        """Draw a backoff; a deferring COPA pair uses the shifted window."""
        if station.defer_next:
            station.defer_next = False
            return int(self.rng.integers(self.cw_min + 1, 2 * self.cw_min + 2))
        return int(self.rng.integers(0, station.cw + 1))

    def _winner(self) -> Tuple[Optional[Station], List[Station]]:
        """Advance one contention round; returns (winner or None, colliders)."""
        minimum = min(s.backoff for s in self.stations)
        lowest = [s for s in self.stations if s.backoff == minimum]
        for station in self.stations:
            station.backoff -= minimum
        if len(lowest) == 1:
            return lowest[0], []
        return None, lowest

    def run(self, rounds: int) -> DcfStats:
        """Simulate ``rounds`` medium acquisitions."""
        txops = {s.name: 0 for s in self.stations}
        collisions = 0
        for _ in range(rounds):
            winner, colliders = self._winner()
            if winner is None:
                collisions += 1
                for station in colliders:
                    station.cw = min(2 * station.cw + 1, self.cw_max)
                    station.backoff = self._draw(station)
                continue

            winner.cw = self.cw_min
            partner = self._partner(winner)
            if partner is not None and self.copa_mode is not None:
                txops[winner.name] += 1
                txops[partner.name] += 1
                if self.copa_mode == "sequential" and self.fairness_deference:
                    # §3.1: after winning two consecutive TXOPs, defer once.
                    winner.defer_next = True
                    partner.defer_next = True
                partner.cw = self.cw_min
                partner.backoff = self._draw(partner)
            else:
                txops[winner.name] += 1
            winner.backoff = self._draw(winner)
        return DcfStats(txops_won=txops, collisions=collisions, rounds=rounds)

    def _partner(self, station: Station) -> Optional[Station]:
        if station.copa_partner is None:
            return None
        return next(s for s in self.stations if s.name == station.copa_partner)
