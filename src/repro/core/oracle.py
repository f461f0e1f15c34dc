"""Optimization-based allocator oracle and N-player equilibrium checker.

COPA's allocators are iterative heuristics; their existing checks are
pinned golden values and hand-written invariants.  This module provides an
*independent* second opinion for each of them by posing the same problems
as small mathematical programs and solving those with generic machinery:

* **Equi-S(I)NR** (Algorithm 1) — for every survivor count ``m`` the
  max-min-S(I)NR power allocation over the kept subcarriers is a linear
  program (maximize ``t`` s.t. ``g_k p_k >= t``, ``sum p <= P``).  The
  oracle solves it with ``scipy.optimize.linprog`` (water-level bisection
  when SciPy is unavailable), sweeps every ``(m, MCS)`` pair with scalar
  arithmetic, and keeps the goodput argmax — the same problem the
  vectorized cumsum implementation solves, by a disjoint code path.

* **Mercury/water-filling** (COPA+) — for a fixed kept set and
  constellation the optimal powers maximize the concave total mutual
  information ``sum_k I(g_k p_k)`` over the power simplex (Lozano, Tulino
  & Verdu 2006).  The oracle maximizes it directly with SLSQP using the
  exactly-consistent (I, mmse) pair from :mod:`repro.core.mercury`
  (dual bisection on the marginal rate as the SciPy-free fallback), and
  certifies any candidate allocation through its KKT residual.

* **Best-response equilibrium** — the checks take the Figure-6 problem
  the engine solves, a one-row :class:`repro.core.equi_sinr
  .BatchConcurrentContext` of N players (so they run directly on
  ``engine.concurrent_context(...)``), and a joint allocation, such as
  :func:`repro.core.equi_sinr.allocate_concurrent` returns.
  :func:`equilibrium_gaps` measures each player's regret against its
  oracle best response, and :func:`incentive_gaps` generalizes §3.5's
  2-player incentive-compatibility ("fair") check to N players.

All solves emit ``oracle.solve`` spans and ``oracle.*`` counters through
an optional :class:`repro.obs.Collector`.  Nothing here imports SciPy at
module import time; :func:`solver_available` reports whether the LP/SLSQP
paths are live, and every entry point degrades to a bisection fallback.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from ..obs.collector import Collector, active
from ..phy.ber import uncoded_ber
from ..phy.coding import coded_ber, frame_error_rate
from ..phy.constants import (
    MCS_TABLE,
    MODULATIONS,
    MPDU_PAYLOAD_BYTES,
    N_DATA_SUBCARRIERS,
    Mcs,
    Modulation,
)
from ..phy.rates import best_rate
from . import equi_snr
from .equi_snr import MIN_GAIN
from .equi_sinr import (
    BatchConcurrentContext,
    StreamAllocation,
    effective_gains,
    radiated_powers,
)
from .mercury import (
    DEFAULT_DROPS,
    mercury_allocate,
    mmse_of_snr,
    mutual_information_of_snr,
)

__all__ = [
    "ORACLE_RTOL",
    "OracleSolution",
    "solver_available",
    "max_min_snr_powers",
    "oracle_equi_snr",
    "oracle_mercury",
    "oracle_single",
    "oracle_for",
    "allocator_key",
    "mercury_kkt_residual",
    "PlayerGap",
    "score_stream_allocation",
    "equilibrium_gaps",
    "IncentiveGap",
    "incentive_gaps",
    "shadow_check_single",
]

#: Documented per-scheme relative tolerance on predicted goodput between the
#: iterative allocator and its oracle (see EXPERIMENTS.md, "Correctness
#: oracles").  Equi-S(I)NR solves a finite sweep whose inner problem has a
#: unique optimum, so iterative and oracle must agree to solver precision;
#: mercury's inner bisection (1e-9 power tolerance, interpolated MMSE
#: tables) and the oracle's SLSQP land on the same optimum from different
#: directions, so its band is wider.
ORACLE_RTOL: Dict[str, float] = {
    "equi_snr": 1e-6,
    "equi_sinr": 1e-6,
    "mercury": 5e-3,
}


def _scipy_optimize():
    try:
        from scipy import optimize
    except ImportError:  # pragma: no cover - exercised via monkeypatch
        return None
    return optimize


def solver_available() -> bool:
    """True when SciPy's LP/SLSQP solvers back the oracle (else bisection)."""
    return _scipy_optimize() is not None


def _resolve_method(method: str) -> str:
    if method not in ("auto", "lp", "bisection"):
        raise ValueError(f"unknown oracle method {method!r}")
    if method == "auto":
        return "lp" if solver_available() else "bisection"
    if method == "lp" and not solver_available():
        raise RuntimeError("oracle method 'lp' requested but scipy is unavailable")
    return method


@dataclass(frozen=True)
class OracleSolution:
    """An oracle's answer to one stream's allocation problem."""

    #: Per-subcarrier transmit power (mW); dropped subcarriers get 0.
    powers: np.ndarray
    #: Boolean mask of subcarriers that carry data.
    used: np.ndarray
    #: Predicted PHY goodput in bit/s under the shared rate model.
    goodput_bps: float
    #: Index of the winning MCS, or -1 when nothing works.
    mcs_index: int
    #: The equalized S(I)NR of the winning configuration (0 for mercury).
    equalized_snr: float
    #: How the inner problem was solved: "lp", "slsqp" or "bisection".
    method: str

    @property
    def n_used(self) -> int:
        return int(self.used.sum())


# ----------------------------------------------------------------------
# Equi-S(I)NR: max-min SNR as an LP, goodput sweep over (m, MCS)
# ----------------------------------------------------------------------


def _max_min_snr_lp(gains: np.ndarray, total_power: float) -> Tuple[np.ndarray, float]:
    """Solve max t s.t. g_k p_k >= t, sum p <= P, p >= 0 with linprog."""
    optimize = _scipy_optimize()
    n = gains.size
    c = np.zeros(n + 1)
    c[-1] = -1.0
    a_ub = np.zeros((n + 1, n + 1))
    for k in range(n):
        a_ub[k, k] = -gains[k]
        a_ub[k, -1] = 1.0
    a_ub[-1, :n] = 1.0
    b_ub = np.zeros(n + 1)
    b_ub[-1] = total_power
    result = optimize.linprog(
        c, A_ub=a_ub, b_ub=b_ub, bounds=[(0.0, None)] * (n + 1), method="highs"
    )
    if not result.success:  # pragma: no cover - defensive
        raise RuntimeError(f"max-min SNR LP failed: {result.message}")
    powers = np.asarray(result.x[:n], dtype=float)
    # Land exactly on the budget (the LP is tight there up to solver eps).
    total = powers.sum()
    if total > 0:
        powers *= total_power / total
    return powers, float(result.x[-1])


def _max_min_snr_bisection(gains: np.ndarray, total_power: float) -> Tuple[np.ndarray, float]:
    """Water-level bisection: the largest t with sum_k t / g_k <= P."""
    t_lo, t_hi = 0.0, total_power * float(gains.max())
    for _ in range(100):
        t_mid = 0.5 * (t_lo + t_hi)
        if float(np.sum(t_mid / gains)) <= total_power:
            t_lo = t_mid
        else:
            t_hi = t_mid
    powers = t_lo / gains
    total = powers.sum()
    if total > 0:
        powers *= total_power / total
    return powers, t_lo


def max_min_snr_powers(
    gains, total_power: float, method: str = "auto"
) -> Tuple[np.ndarray, float, str]:
    """Max-min-S(I)NR powers over the given (all-kept) subcarriers.

    Returns ``(powers, snr, method_used)``.  ``gains`` must all be usable
    (> :data:`repro.core.equi_snr.MIN_GAIN`).
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1 or gains.size == 0:
        raise ValueError("gains must be a non-empty 1-D array")
    if np.any(gains <= MIN_GAIN):
        raise ValueError("max_min_snr_powers requires usable gains only")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    resolved = _resolve_method(method)
    if resolved == "lp":
        powers, snr = _max_min_snr_lp(gains, total_power)
    else:
        powers, snr = _max_min_snr_bisection(gains, total_power)
    return powers, snr, resolved


def _scalar_goodput(snr: float, n_used: int, mcs: Mcs, payload_bytes: int) -> float:
    """Goodput of one (equalized SNR, survivor count, MCS) configuration."""
    ber = float(uncoded_ber(snr, mcs.modulation))
    post = float(coded_ber(ber, mcs.code_rate))
    fer = float(frame_error_rate(post, payload_bytes * 8))
    return mcs.rate_bps * n_used / N_DATA_SUBCARRIERS * (1.0 - fer)


def oracle_equi_snr(
    gains,
    total_power: float,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
    method: str = "auto",
    collector: Optional[Collector] = None,
) -> OracleSolution:
    """Independent re-solve of Algorithm 1 (drop + equalize + rate).

    For every survivor count ``m`` the kept set is the ``m`` strongest
    usable subcarriers (optimal by exchange: swapping a kept subcarrier
    for a stronger dropped one lowers ``sum 1/g`` and so raises the
    equalized S(I)NR — verified exhaustively in the oracle's test suite),
    the inner max-min power problem is solved as an LP (or by bisection),
    and every MCS is scored with scalar arithmetic.  Shares only the PHY
    rate-model primitives with the production allocator.
    """
    col = active(collector)
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1:
        raise ValueError("gains must be one-dimensional (a single stream)")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    n = gains.size
    resolved = _resolve_method(method)

    with col.span("oracle.solve", kind="equi_snr", method=resolved):
        col.inc("oracle.solves")
        usable = np.flatnonzero(gains > MIN_GAIN)
        empty = OracleSolution(
            powers=np.zeros(n),
            used=np.zeros(n, dtype=bool),
            goodput_bps=0.0,
            mcs_index=-1,
            equalized_snr=0.0,
            method=resolved,
        )
        if usable.size == 0:
            return empty

        # Strongest usable subcarriers first.  Sweep m descending so the
        # incumbent is established early; a candidate whose zero-FER upper
        # bound (rate * m / N) cannot beat it is skipped without evaluating
        # the error model — a sound prune, not an approximation.
        order = usable[np.argsort(gains[usable])[::-1]]
        best = (0.0, -1, -1, 0.0)  # goodput, m, mcs index, snr
        max_rate = max(mcs.rate_bps for mcs in mcs_table)
        for m in range(order.size, 0, -1):
            if max_rate * m / N_DATA_SUBCARRIERS <= best[0]:
                break  # no smaller m can win either
            kept_gains = gains[order[:m]]
            _, snr = _max_min_snr_bisection(kept_gains, total_power)
            for mcs in mcs_table:
                if mcs.rate_bps * m / N_DATA_SUBCARRIERS <= best[0]:
                    continue
                goodput = _scalar_goodput(snr, m, mcs, payload_bytes)
                if goodput > best[0]:
                    best = (goodput, m, mcs.index, snr)

        goodput, m, mcs_index, snr = best
        if goodput <= 0.0:
            return empty

        kept = order[:m]
        # Solve the winning subset's power problem with the configured
        # solver (one LP per oracle solve keeps the sweep fast while the
        # returned powers still carry an independent LP certificate).
        kept_powers, snr_solved, method_used = max_min_snr_powers(
            gains[kept], total_power, method=resolved
        )
        powers = np.zeros(n)
        powers[kept] = kept_powers
        used = np.zeros(n, dtype=bool)
        used[kept] = True
        # Re-score at the solver's own level so goodput and powers agree.
        goodput, mcs_index = max(
            (_scalar_goodput(snr_solved, m, mcs, payload_bytes), mcs.index)
            for mcs in mcs_table
        )
        return OracleSolution(
            powers=powers,
            used=used,
            goodput_bps=float(goodput),
            mcs_index=int(mcs_index),
            equalized_snr=float(snr_solved),
            method=method_used,
        )


# ----------------------------------------------------------------------
# Mercury/water-filling: concave program + KKT certificate
# ----------------------------------------------------------------------


def _mercury_powers_slsqp(
    gains: np.ndarray, total_power: float, modulation: Modulation
) -> np.ndarray:
    """Maximize sum_k I(g_k p_k) on the simplex with SLSQP."""
    optimize = _scipy_optimize()
    n = gains.size

    def negative_mi(p: np.ndarray) -> float:
        return -float(np.sum(mutual_information_of_snr(gains * p, modulation)))

    def negative_grad(p: np.ndarray) -> np.ndarray:
        return -gains * mmse_of_snr(gains * p, modulation)

    result = optimize.minimize(
        negative_mi,
        np.full(n, total_power / n),
        jac=negative_grad,
        bounds=[(0.0, None)] * n,
        constraints=[
            {
                "type": "eq",
                "fun": lambda p: float(p.sum() - total_power),
                "jac": lambda p: np.ones_like(p),
            }
        ],
        method="SLSQP",
        options={"maxiter": 200, "ftol": 1e-12},
    )
    powers = np.clip(np.asarray(result.x, dtype=float), 0.0, None)
    total = powers.sum()
    if total > 0:
        powers *= total_power / total
    return powers


def _mercury_powers_dual_bisection(
    gains: np.ndarray, total_power: float, modulation: Modulation
) -> np.ndarray:
    """SciPy-free fallback: bisect the common marginal rate eta.

    At the optimum every active subcarrier has marginal mutual-information
    rate ``g_k * mmse(g_k p_k) = eta``.  For a trial eta the per-subcarrier
    powers are found by (vectorized) bisection on the *forward* MMSE curve
    — no use of the production code's inverted interpolation table — and
    the outer loop bisects eta until the budget is met.
    """
    snr_ceiling = 1e8  # top of the cached MMSE grid

    def powers_for(eta: float) -> np.ndarray:
        active_mask = gains * mmse_of_snr(np.zeros_like(gains), modulation) > eta
        powers = np.zeros_like(gains)
        if not active_mask.any():
            return powers
        g = gains[active_mask]
        lo = np.zeros_like(g)
        hi = np.full_like(g, snr_ceiling) / g
        for _ in range(60):
            mid = 0.5 * (lo + hi)
            marginal = g * mmse_of_snr(g * mid, modulation)
            # Marginal rate decreases in power: too-high marginal -> raise p.
            lo = np.where(marginal > eta, mid, lo)
            hi = np.where(marginal > eta, hi, mid)
        powers[active_mask] = 0.5 * (lo + hi)
        return powers

    eta_hi = float(gains.max())  # mmse(0) = 1, so marginal at p=0 is g
    eta_lo = eta_hi * 1e-15
    if powers_for(eta_lo).sum() < total_power:
        # Saturated constellations cannot absorb the budget; spread the
        # remainder proportionally like the production fallback does.
        powers = powers_for(eta_lo)
        total = powers.sum()
        if total <= 0:
            return np.full_like(gains, total_power / gains.size)
        return powers * (total_power / total)
    for _ in range(80):
        eta_mid = np.sqrt(eta_lo * eta_hi)
        if powers_for(eta_mid).sum() >= total_power:
            eta_lo = eta_mid
        else:
            eta_hi = eta_mid
    powers = powers_for(eta_lo)
    total = powers.sum()
    if total > 0:
        powers *= total_power / total
    return powers


def mercury_kkt_residual(gains, powers, modulation: Modulation) -> float:
    """KKT certificate for a mercury/water-filling allocation.

    Returns the worst relative violation of stationarity: active
    subcarriers must share one marginal rate ``eta = g * mmse(g p)``, and
    inactive ones must start below it.  Near zero certifies optimality of
    the concave program independently of how the powers were computed.
    """
    gains = np.asarray(gains, dtype=float)
    powers = np.asarray(powers, dtype=float)
    active_mask = powers > 1e-9 * max(float(powers.max()), 1e-300)
    if not active_mask.any():
        return 0.0
    marginals = gains * mmse_of_snr(gains * powers, modulation)
    eta = float(np.median(marginals[active_mask]))
    if eta <= 0:
        return 0.0
    residual = float(np.max(np.abs(marginals[active_mask] - eta))) / eta
    inactive = ~active_mask
    if inactive.any():
        # An idle subcarrier whose zero-power marginal exceeds eta should
        # have received power — count it against the certificate.
        idle_marginals = gains[inactive]  # mmse(0) = 1
        violation = float(np.max(idle_marginals - eta, initial=0.0)) / eta
        residual = max(residual, violation)
    return residual


def oracle_mercury(
    gains,
    total_power: float,
    drop_candidates: Optional[Sequence[int]] = None,
    modulations: Sequence[Modulation] = MODULATIONS,
    method: str = "auto",
    collector: Optional[Collector] = None,
) -> OracleSolution:
    """Independent re-solve of mercury/water-filling with selection.

    Sweeps the same ``(drop count, constellation)`` grid as
    :func:`repro.core.mercury.mercury_allocate` (the grid is part of the
    algorithm's contract) but solves every inner power problem by direct
    maximization of the concave mutual-information objective — SLSQP when
    SciPy is available, dual bisection on the marginal rate otherwise —
    rather than the production eta-bisection over inverted MMSE tables.
    """
    col = active(collector)
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1:
        raise ValueError("gains must be one-dimensional (a single stream)")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    resolved = _resolve_method(method)
    inner = _mercury_powers_slsqp if resolved == "lp" else _mercury_powers_dual_bisection
    method_used = "slsqp" if resolved == "lp" else "bisection"

    n = gains.size
    order = np.argsort(gains)
    drops = DEFAULT_DROPS if drop_candidates is None else tuple(drop_candidates)

    with col.span("oracle.solve", kind="mercury", method=method_used):
        col.inc("oracle.solves")
        best_goodput = 0.0
        best_powers = np.zeros(n)
        best_used = np.zeros(n, dtype=bool)
        best_mcs_index = -1
        # Highest-rate constellations first: once an incumbent exists, a
        # (drop, modulation) pair whose zero-FER bound (best table rate x
        # kept / N) cannot beat it skips its inner solve — a sound prune.
        by_rate = sorted(
            modulations,
            key=lambda mod: max(m.rate_bps for m in MCS_TABLE if m.modulation == mod),
            reverse=True,
        )
        for drop in drops:
            if drop >= n:
                continue
            kept = order[drop:]
            kept = kept[gains[kept] > 0]
            if kept.size == 0:
                continue
            sub_gains = gains[kept]
            for modulation in by_rate:
                ceiling = max(m.rate_bps for m in MCS_TABLE if m.modulation == modulation)
                if ceiling * kept.size / N_DATA_SUBCARRIERS <= best_goodput:
                    continue
                powers_kept = inner(sub_gains, total_power, modulation)
                sinr = np.zeros(n)
                sinr[kept] = powers_kept * sub_gains
                used = np.zeros(n, dtype=bool)
                used[kept] = powers_kept > 0
                if not used.any():
                    continue
                table = [m for m in MCS_TABLE if m.modulation == modulation]
                selection = best_rate(sinr, used=used, mcs_table=table)
                if selection.goodput_bps > best_goodput:
                    best_goodput = selection.goodput_bps
                    best_powers = np.zeros(n)
                    best_powers[kept] = powers_kept
                    best_used = used
                    best_mcs_index = selection.mcs.index if selection.mcs else -1

        return OracleSolution(
            powers=best_powers,
            used=best_used,
            goodput_bps=float(best_goodput),
            mcs_index=int(best_mcs_index),
            equalized_snr=0.0,
            method=method_used,
        )


# ----------------------------------------------------------------------
# Dispatch: which oracle cross-validates which iterative allocator
# ----------------------------------------------------------------------

#: Oracle entry points by scheme key (the keys of :data:`ORACLE_RTOL`).
_ORACLES: Dict[str, Callable] = {
    "equi_snr": oracle_equi_snr,
    "equi_sinr": oracle_equi_snr,  # same program on effective gains
    "mercury": oracle_mercury,
}


def oracle_for(key: str) -> Callable:
    """The oracle solver for a scheme key ("equi_snr"/"equi_sinr"/"mercury")."""
    try:
        return _ORACLES[key]
    except KeyError:
        raise KeyError(f"no oracle registered for {key!r}; known: {sorted(_ORACLES)}")


def allocator_key(allocator: Callable) -> Optional[str]:
    """Scheme key of a known per-stream allocator, or None if unrecognized."""
    if allocator is equi_snr.allocate:
        return "equi_snr"
    if allocator is mercury_allocate:
        return "mercury"
    return None


def oracle_single(
    gains: np.ndarray,
    total_power: float,
    interference: Optional[np.ndarray] = None,
    noise_mw: float = 1.0,
    oracle: Callable = oracle_equi_snr,
    collector: Optional[Collector] = None,
) -> List[OracleSolution]:
    """Oracle counterpart of :func:`repro.core.equi_sinr.allocate_single`.

    Splits the budget equally between streams (the paper's choice) and
    solves each stream's problem on its effective gains independently.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_subcarriers, n_streams)")
    n_streams = gains.shape[1]
    effective = effective_gains(gains, interference, noise_mw)
    budget = total_power / n_streams
    return [
        oracle(effective[:, s], budget, collector=collector) for s in range(n_streams)
    ]


# ----------------------------------------------------------------------
# N-player equilibrium checks
# ----------------------------------------------------------------------


def _player_name(i: int) -> str:
    """Player i's name in the gap reports, as the topology sampler names APs."""
    return f"AP{i + 1}"


def _joint_interference(
    context: BatchConcurrentContext, allocations: Sequence[StreamAllocation]
) -> List[np.ndarray]:
    """Each player's (n_sc,) interference at the joint operating point."""
    if context.n_rows != 1:
        raise ValueError(f"the equilibrium checks take a one-row context, got {context.n_rows} rows")
    if len(allocations) != context.n_players:
        raise ValueError("one allocation per player is required")
    radiated = [
        radiated_powers(a.powers, a.used, context.leakage_linear)[None] for a in allocations
    ]
    return [context.interference_at(i, radiated)[0] for i in range(context.n_players)]


def score_stream_allocation(
    context: BatchConcurrentContext,
    player: int,
    allocation: StreamAllocation,
    interference: np.ndarray,
) -> float:
    """Predicted goodput of a fixed allocation under given interference.

    Re-scores the allocation's per-stream SINRs with the shared rate
    model, against the gains and noise floor of ``player`` in the
    one-row ``context``; unlike ``Allocation.goodput_bps`` (computed
    against the interference seen at solve time) this evaluates the
    allocation at the joint operating point, which is what equilibrium
    checks need.
    """
    effective = effective_gains(context.gains[player][0], interference, context.noise_mw[player])
    total = 0.0
    for s in range(allocation.powers.shape[1]):
        used = allocation.used[:, s]
        if not used.any():
            continue
        sinr = allocation.powers[:, s] * effective[:, s]
        total += best_rate(sinr, used=used).goodput_bps
    return total


@dataclass(frozen=True)
class PlayerGap:
    """One player's distance from its best response."""

    player: str
    #: Goodput of the player's current allocation at the joint operating point.
    current_bps: float
    #: Goodput of the oracle best response to everyone else's allocation.
    best_response_bps: float

    @property
    def regret(self) -> float:
        """Relative improvement available by unilateral deviation (>= 0)."""
        if self.best_response_bps <= 0:
            return 0.0
        return max(0.0, self.best_response_bps - self.current_bps) / self.best_response_bps


def equilibrium_gaps(
    context: BatchConcurrentContext,
    allocations: Sequence[StreamAllocation],
    oracle: Callable = oracle_equi_snr,
    collector: Optional[Collector] = None,
) -> List[PlayerGap]:
    """Per-player epsilon-best-response check of a joint allocation.

    ``context`` is a one-row Figure-6 problem, as
    :func:`repro.core.equi_sinr.allocate_concurrent` takes, and player i
    is reported as ``AP{i+1}``.  Holding everyone else's radiated powers
    fixed, each player's best response is an independent single-stream
    oracle solve per stream; the gap between that and the player's
    current (re-scored) goodput is its regret.  A (near-)zero regret
    vector certifies a (near-)Nash equilibrium of the allocation game.
    """
    col = active(collector)
    interference = _joint_interference(context, allocations)
    gaps: List[PlayerGap] = []
    with col.span("oracle.equilibrium_check", players=context.n_players):
        for i, allocation in enumerate(allocations):
            current = score_stream_allocation(context, i, allocation, interference[i])
            solutions = oracle_single(
                context.gains[i][0],
                context.budgets[i],
                interference=interference[i],
                noise_mw=context.noise_mw[i],
                oracle=oracle,
                collector=collector,
            )
            best_response = float(sum(s.goodput_bps for s in solutions))
            gap = PlayerGap(
                player=_player_name(i), current_bps=current, best_response_bps=best_response
            )
            col.observe("oracle.regret", gap.regret)
            gaps.append(gap)
    return gaps


@dataclass(frozen=True)
class IncentiveGap:
    """One player's concurrent throughput vs. its sequential baseline."""

    player: str
    #: Goodput at the joint operating point (everyone transmitting).
    concurrent_bps: float
    #: Goodput transmitting alone with a 1/N airtime share.
    sequential_bps: float

    def compatible(self, slack: float = 1e-3) -> bool:
        return self.concurrent_bps >= self.sequential_bps * (1.0 - slack)


def incentive_gaps(
    context: BatchConcurrentContext,
    allocations: Sequence[StreamAllocation],
    oracle: Callable = oracle_equi_snr,
    collector: Optional[Collector] = None,
) -> List[IncentiveGap]:
    """N-player generalization of §3.5's incentive-compatibility check.

    COPA's 2-player "fair" mode admits a concurrent strategy only when
    neither client falls below its sequential (COPA-SEQ) throughput.  With
    N players the sequential baseline is each player transmitting alone —
    interference-free, full budget — for a 1/N share of the airtime; a
    joint allocation is incentive compatible when every player's
    concurrent goodput meets that baseline.  ``context`` is one row, as
    for :func:`equilibrium_gaps`.
    """
    interference = _joint_interference(context, allocations)
    share = 1.0 / context.n_players
    gaps: List[IncentiveGap] = []
    for i, allocation in enumerate(allocations):
        concurrent = score_stream_allocation(context, i, allocation, interference[i])
        alone = oracle_single(
            context.gains[i][0],
            context.budgets[i],
            interference=None,
            noise_mw=context.noise_mw[i],
            oracle=oracle,
            collector=collector,
        )
        sequential = float(sum(s.goodput_bps for s in alone)) * share
        gaps.append(
            IncentiveGap(
                player=_player_name(i), concurrent_bps=concurrent, sequential_bps=sequential
            )
        )
    return gaps


# ----------------------------------------------------------------------
# Shadow checks (the StrategyEngine hook)
# ----------------------------------------------------------------------


def shadow_check_single(
    gains: np.ndarray,
    total_power: float,
    allocation: StreamAllocation,
    allocator: Callable,
    interference: Optional[np.ndarray] = None,
    noise_mw: float = 1.0,
    collector: Optional[Collector] = None,
) -> Optional[bool]:
    """Cross-validate one :func:`allocate_single` result in shadow mode.

    Compares each stream's predicted goodput against the matching oracle
    within the documented tolerance, recording ``oracle.agree`` /
    ``oracle.mismatch`` counters and an ``oracle.rel_gap`` histogram
    instead of raising (engines must never fail on an oracle bug).
    Returns True/False for agree/mismatch, or None when the engine runs an
    allocator the oracle registry does not know.
    """
    col = active(collector)
    key = allocator_key(allocator)
    if key is None:
        col.inc("oracle.skipped")
        return None
    if key == "equi_snr" and interference is not None:
        key = "equi_sinr"
    tolerance = ORACLE_RTOL[key]
    oracle = oracle_for(key)
    solutions = oracle_single(
        gains,
        total_power,
        interference=interference,
        noise_mw=noise_mw,
        oracle=oracle,
        collector=collector,
    )
    agree = True
    for stream, solution in zip(allocation.per_stream, solutions):
        reference = max(solution.goodput_bps, stream.goodput_bps)
        gap = (
            abs(solution.goodput_bps - stream.goodput_bps) / reference
            if reference > 0
            else 0.0
        )
        col.observe("oracle.rel_gap", gap)
        if gap > tolerance:
            agree = False
    col.inc("oracle.agree" if agree else "oracle.mismatch")
    return agree
