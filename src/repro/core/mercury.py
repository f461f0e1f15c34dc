"""Mercury/water-filling power allocation (Lozano, Tulino & Verdú 2006).

Classic water-filling is optimal for Gaussian inputs; Wi-Fi transmits
discrete QAM constellations, for which the optimal per-subcarrier powers
follow the *mercury/water-filling* rule: with channel gains ``g_k`` and
water level ``1/η``,

    p_k = (1/g_k) · mmse⁻¹(η / g_k)   if g_k > η,   else 0,

where ``mmse(γ)`` is the minimum mean-square error of estimating the
constellation symbol at SNR γ.  The mercury (the ``mmse⁻¹`` correction)
pours *under* the water and reduces how much power a strong subcarrier
soaks up once its constellation is nearly saturated.

The paper uses iterated mercury/water-filling (plus explicit subcarrier
selection) as the impractical-but-better "COPA+" upper bound (§3.3, §4);
it reports 30–50 s of compute per allocation on their platform, which is
why COPA+ is evaluated in trace-driven emulation only.  Our NumPy
implementation is fast enough to run everywhere.

MMSE functions are computed numerically by Gauss–Hermite quadrature on the
per-dimension PAM decomposition of square QAM, then cached as monotone
interpolation tables.

The water level
---------------
Per row of gains the level follows one fixed trajectory: with
``η_high = max g``, bracket from ``η_low = η_high·1e-12``, dividing
``η_low`` by 1e3 until the total power at ``η_low`` reaches the budget
(at most 60 tries; a row that never gets there keeps its last ``η_low``),
then bisect in log space (``η_mid = √(η_low·η_high)``) until the total is
within ``tolerance`` of the budget or ``max_bisections`` run out, and
rescale the powers at ``η_low`` to the budget exactly.

One private kernel, :func:`_waterfill`, walks that trajectory for a whole
stack of rows at once, and every entry point goes through it:
:func:`mercury_waterfilling` is a one-row stack, and
:func:`mercury_allocate_batch` stacks its full (constellation × drop count
× row) grid into one sweep.  The rows lie end to end in one flat array,
ordered constellation-major, so each iteration makes one ``np.interp``
per constellation table and one row-wise sum of a ``reshape(k, w)`` view
per run of equal-width rows.  Both granularities are forced by bit-identity:

* *Sums per width.*  NumPy's pairwise summation groups a row's elements
  by the row's length, so a row must be summed over exactly its own
  elements; zero-padding rows to a common width changes the rounding.
* *Interps per table.*  Merging the tables into one ``np.interp`` (by
  offsetting their abscissae, say) does not reproduce each table's
  interpolation bit for bit.

Each iteration evaluates only the rows still live, and a row leaves the
stack as soon as the rest of its trajectory is known, by two exits that
are exact — the iterations they skip cannot change the level the row
ends at, so its powers are bitwise those of the full trajectory:

* *Saturation.*  Interpolating the decreasing table never returns more
  than its value at 0, so no element's power at any level exceeds its
  cap ``mmse⁻¹(0)/g``, and (rounding being monotone) no row total
  exceeds the row's total at the cap.  A row whose cap total falls
  short of the budget therefore fails all 60 bracket tries: it skips
  the loop and takes the level the serial fallback ends at directly.
  Such rows — strong channels on a small constellation — are most of a
  COPA+ grid.
* *Fixed point.*  Once ``η_mid`` rounds to ``η_low`` or ``η_high``, a
  bisection step leaves ``(η_low, η_high)`` unchanged, and every later
  step repeats it; the row stops there.

A gain ``g ≤ η`` maps to a ratio ``η/g ≥ 1`` above every table's largest
MMSE (which is below 1 at any positive SNR), so ``np.interp`` returns its
``right=0`` and the element gets exactly the zero power the serial rule
assigns to inactive subcarriers.  Rate selection for the grid runs once
per constellation over all drops (:func:`repro.phy.rates.best_rate_batch`).
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np

from ..phy.constants import MCS_TABLE, MODULATIONS, Modulation
# ``best_rate`` stays bound here for the benchmark's layer trace, which
# patches it by name (bench/layers.py).
from ..phy.rates import best_rate, best_rate_batch  # noqa: F401
from .equi_snr import Allocation, BatchAllocation

__all__ = [
    "DEFAULT_DROPS",
    "mmse_pam",
    "mmse_curve",
    "mmse_of_snr",
    "mmse_inverse",
    "mutual_information_of_snr",
    "mercury_waterfilling",
    "mercury_waterfilling_batch",
    "mercury_allocate",
    "mercury_allocate_batch",
]

#: Gauss–Hermite order for the MMSE integrals.
_GH_ORDER = 81
#: SNR grid for the cached MMSE tables (linear, log-spaced).
_SNR_GRID = np.logspace(-6, 8, 561)


def _pam_points(points_per_dim: int) -> np.ndarray:
    levels = 2.0 * np.arange(points_per_dim) - (points_per_dim - 1)
    return levels / np.sqrt(np.mean(levels**2))


def mmse_pam(snr_linear, points_per_dim: int) -> np.ndarray:
    """MMSE of unit-energy PAM in real AWGN with noise variance 1/snr.

    Computed exactly (to quadrature accuracy) as
    ``1 − E_y[(E[x|y])²]`` with the expectation over ``y = x + n`` taken by
    Gauss–Hermite quadrature around each constellation point.
    """
    snr = np.atleast_1d(np.asarray(snr_linear, dtype=float))
    x = _pam_points(points_per_dim)
    nodes, weights = np.polynomial.hermite.hermgauss(_GH_ORDER)
    weights = weights / np.sqrt(np.pi)

    out = np.empty_like(snr)
    for idx, gamma in enumerate(snr):
        if gamma <= 0:
            out[idx] = 1.0
            continue
        sigma = 1.0 / np.sqrt(gamma)
        # y samples: x_i + sigma * sqrt(2) * node  (Gauss-Hermite for N(0, σ²)).
        y = x[:, None] + sigma * np.sqrt(2.0) * nodes[None, :]
        # posterior mean of x given each y
        diff = y[:, :, None] - x[None, None, :]
        log_like = -(diff**2) * gamma / 2.0
        log_like -= log_like.max(axis=2, keepdims=True)
        like = np.exp(log_like)
        posterior_mean = (like * x[None, None, :]).sum(axis=2) / like.sum(axis=2)
        second_moment = ((posterior_mean**2) * weights[None, :]).sum(axis=1).mean()
        out[idx] = max(1.0 - second_moment, 0.0)
    return out if np.ndim(snr_linear) else float(out[0])


def _points_per_dim(modulation: Modulation) -> Tuple[int, float]:
    """PAM order per dimension and the SNR scale factor for the modulation.

    BPSK puts all its energy in one real dimension, so the effective
    per-dimension SNR is doubled; square QAM splits evenly, giving per-dim
    SNR equal to the complex-symbol SNR.
    """
    if modulation.bits_per_symbol == 1:
        return 2, 2.0
    if modulation.bits_per_symbol % 2:
        raise ValueError(f"unsupported modulation {modulation!r}")
    return 2 ** (modulation.bits_per_symbol // 2), 1.0


@lru_cache(maxsize=None)
def mmse_curve(bits_per_symbol: int) -> Tuple[np.ndarray, np.ndarray]:
    """Cached (snr_grid, mmse values) table for a constellation."""
    modulation = next(m for m in MODULATIONS if m.bits_per_symbol == bits_per_symbol)
    per_dim, scale = _points_per_dim(modulation)
    values = mmse_pam(_SNR_GRID * scale, per_dim)
    return _SNR_GRID.copy(), np.asarray(values)


def mmse_of_snr(snr_linear, modulation: Modulation) -> np.ndarray:
    """MMSE of the complex constellation at the given symbol SNR."""
    grid, values = mmse_curve(modulation.bits_per_symbol)
    snr = np.asarray(snr_linear, dtype=float)
    return np.interp(snr, grid, values, left=1.0, right=0.0)


@lru_cache(maxsize=None)
def _mi_table(bits_per_symbol: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Cumulative exact integral of the piecewise-linear MMSE interpolant.

    Returns ``(grid, mmse values, I(grid))`` with the mutual information in
    nats.  Below the grid the MMSE is 1 (so I(s) = s there); the cumulative
    values integrate the same interpolant :func:`mmse_of_snr` evaluates, so
    the pair (I, mmse) is an exactly consistent (objective, gradient) pair
    for optimizers — the I-MMSE relation dI/dsnr = mmse(snr).
    """
    grid, values = mmse_curve(bits_per_symbol)
    segments = np.diff(grid) * (values[:-1] + values[1:]) / 2.0
    cumulative = grid[0] + np.concatenate([[0.0], np.cumsum(segments)])
    return grid, values, cumulative


def mutual_information_of_snr(snr_linear, modulation: Modulation) -> np.ndarray:
    """Mutual information (nats) of the constellation at the given SNR.

    Defined as the exact integral of the interpolated MMSE curve, so
    :func:`mmse_of_snr` is its derivative everywhere — the property the
    oracle's concave program relies on.  Saturates at the constellation's
    entropy-limited ceiling once the MMSE table reaches zero.
    """
    grid, values, cumulative = _mi_table(modulation.bits_per_symbol)
    snr = np.atleast_1d(np.asarray(snr_linear, dtype=float))
    out = np.empty_like(snr)

    below = snr <= grid[0]
    above = snr >= grid[-1]
    inside = ~(below | above)
    out[below] = np.maximum(snr[below], 0.0)
    out[above] = cumulative[-1]
    if inside.any():
        s = snr[inside]
        index = np.searchsorted(grid, s, side="right") - 1
        g0, g1 = grid[index], grid[index + 1]
        v0, v1 = values[index], values[index + 1]
        slope = (v1 - v0) / (g1 - g0)
        ds = s - g0
        out[inside] = cumulative[index] + v0 * ds + 0.5 * slope * ds**2
    return out if np.ndim(snr_linear) else float(out[0])


def mmse_inverse(target, modulation: Modulation) -> np.ndarray:
    """SNR at which the constellation's MMSE equals ``target`` ∈ (0, 1].

    Targets at or above 1 map to SNR 0; targets at or below the table
    floor map to the top of the SNR grid (effectively "unbounded power",
    which the water level never actually requests).
    """
    grid, values = mmse_curve(modulation.bits_per_symbol)
    target = np.asarray(target, dtype=float)
    # values are decreasing in snr; np.interp needs increasing x.
    return np.interp(target, values[::-1], grid[::-1], left=grid[-1], right=0.0)


#: Lower-bracket expansions (each divides η by 1e3) before the water
#: level gives up and rescales the powers it has.
_BRACKET_TRIES = 60


def _runs(values: np.ndarray) -> List[Tuple[int, int]]:
    """``(start, stop)`` of each run of equal consecutive ``values``."""
    if not values.size:
        return []
    edges = np.flatnonzero(values[1:] != values[:-1]) + 1
    bounds = np.concatenate(([0], edges, [values.size])).tolist()
    return list(zip(bounds[:-1], bounds[1:]))


class _Stack:
    """Rows of gains laid end to end in one flat array.

    Row ``r`` has ``widths[r]`` elements and the constellation
    ``modulations[codes[r]]``.  Levels are interpolated once per run of
    rows sharing a constellation table and summed once per run of rows
    sharing a width, so every row is summed over exactly its own elements.
    """

    def __init__(self, gains: np.ndarray, widths: np.ndarray, codes: np.ndarray, modulations):
        self.gains, self.widths, self.codes, self.modulations = gains, widths, codes, modulations
        stops = np.cumsum(widths)
        starts = stops - widths
        self.tables = [(modulations[codes[a]], starts[a], stops[b - 1]) for a, b in _runs(codes)]
        self.sums = [(a, b, widths[a], starts[a], stops[b - 1]) for a, b in _runs(widths)]

    def powers(self, eta: np.ndarray) -> np.ndarray:
        """Every element's mercury power at its row's water level ``1/eta``."""
        levels = np.repeat(eta, self.widths) / self.gains
        for modulation, start, stop in self.tables:
            levels[start:stop] = mmse_inverse(levels[start:stop], modulation)
        with np.errstate(over="ignore"):
            levels /= self.gains
        return levels

    def totals(self, powers: np.ndarray) -> np.ndarray:
        """Per-row sums of ``powers``."""
        out = np.empty(self.widths.size)
        for a, b, width, start, stop in self.sums:
            np.add.reduce(powers[start:stop].reshape(b - a, width), axis=1, out=out[a:b])
        return out

    def take(self, keep: np.ndarray) -> "_Stack":
        """The stack of the rows where ``keep`` is true."""
        elements = np.repeat(keep, self.widths)
        return _Stack(self.gains[elements], self.widths[keep], self.codes[keep], self.modulations)


def _waterfill(
    blocks: Sequence[Tuple[Modulation, np.ndarray]],
    total_power: float,
    tolerance: float,
    max_bisections: int,
) -> List[np.ndarray]:
    """Mercury/water-filling of a stack of blocks in one water-level sweep.

    Each block is ``(modulation, gains)`` with gains of shape (k, w) and
    at least one positive gain per row; non-positive gains get zero
    power.  Returns one (k, w) powers array per block, every row equal
    bit for bit to the serial bracket-and-bisect trajectory (see the
    module docstring).
    """
    modulations = list(dict.fromkeys(modulation for modulation, _ in blocks))
    widths = np.concatenate([np.full(g.shape[0], g.shape[1]) for _, g in blocks])
    codes = np.concatenate([np.full(g.shape[0], modulations.index(m)) for m, g in blocks])
    gains = np.concatenate([g.ravel() for _, g in blocks])
    high = np.concatenate([g.max(axis=1) for _, g in blocks])
    # mmse⁻¹(η/∞)/∞ = 0 at every η: exactly the power a non-positive gain gets.
    gains[~(gains > 0)] = np.inf
    stack = _Stack(gains, widths, codes, modulations)

    low = high * 1e-12
    # Each row's final level starts where the serial bracket gives up.
    eta = low.copy()
    for _ in range(_BRACKET_TRIES):
        eta /= 1e3
    # Saturated rows fall short of the budget even at the table cap, so
    # their bracket never closes and they keep that level.
    live = stack.totals(stack.powers(np.zeros(widths.size))) >= total_power
    rows = np.flatnonzero(live)
    sub, low, high = stack.take(live), low[live], high[live]
    bisecting = np.zeros(rows.size, dtype=bool)
    steps = np.zeros(rows.size, dtype=int)
    band = tolerance * total_power
    while rows.size:
        mid = np.sqrt(low * high)
        totals = sub.totals(sub.powers(np.where(bisecting, mid, low)))
        found = ~bisecting & (totals >= total_power)
        missed = ~bisecting & ~found
        converged = bisecting & (np.abs(totals - total_power) <= band)
        raise_low = converged | (bisecting & (totals > total_power))
        new_low = np.where(raise_low, mid, np.where(missed, low / 1e3, low))
        new_high = np.where(bisecting & ~raise_low, mid, high)
        steps = np.where(found, 0, steps + 1)
        done = (
            converged
            # A bracket that did not move repeats this step from now on.
            | (bisecting & (new_low == low) & (new_high == high))
            | (bisecting & (steps >= max_bisections))
            | (found & (max_bisections <= 0))
            | (missed & (steps >= _BRACKET_TRIES))
        )
        low, high, bisecting = new_low, new_high, bisecting | found
        if done.any():
            eta[rows[done]] = low[done]
            keep = ~done
            rows, low, high = rows[keep], low[keep], high[keep]
            bisecting, steps = bisecting[keep], steps[keep]
            sub = sub.take(keep)

    powers = stack.powers(eta)
    scale = total_power / np.maximum(stack.totals(powers), 1e-300)
    powers *= np.repeat(scale, widths)
    splits = np.cumsum([g.size for _, g in blocks])[:-1]
    return [part.reshape(g.shape) for part, (_, g) in zip(np.split(powers, splits), blocks)]


def mercury_waterfilling(
    gains,
    total_power: float,
    modulation: Modulation,
    tolerance: float = 1e-9,
    max_bisections: int = 80,
) -> np.ndarray:
    """Optimal powers for a discrete constellation over parallel channels.

    ``gains[k]`` is the SINR per unit power on subcarrier k.  Returns the
    per-subcarrier powers summing to ``total_power`` (within tolerance);
    subcarriers with non-positive gain get none, and without any positive
    gain every power is zero.
    """
    gains = np.asarray(gains, dtype=float)
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    if not (gains > 0).any():
        return np.zeros_like(gains)
    (powers,) = _waterfill(
        [(modulation, gains.reshape(1, -1))], total_power, tolerance, max_bisections
    )
    return powers.reshape(gains.shape)


def mercury_waterfilling_batch(
    gains,
    total_power: float,
    modulation: Modulation,
    tolerance: float = 1e-9,
    max_bisections: int = 80,
) -> np.ndarray:
    """Row-batched :func:`mercury_waterfilling`, bit-identical per row.

    ``gains`` has shape (n_rows, n_sc) and must be strictly positive.
    """
    gains = np.asarray(gains, dtype=float)
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_rows, n_subcarriers)")
    if not np.all(gains > 0):
        raise ValueError("batched mercury/water-filling requires strictly positive gains")
    (powers,) = _waterfill([(modulation, gains)], total_power, tolerance, max_bisections)
    return powers


#: Default drop-count candidates for the subcarrier-selection loop.  The
#: mercury rule already zeroes hopeless subcarriers, so a coarse sweep of
#: explicit drops (which also shrink the decoder's codeword) suffices.
#: Public because the candidate grid is part of the algorithm's contract:
#: the optimization oracle (:mod:`repro.core.oracle`) sweeps the same grid
#: with an independent inner solver.
DEFAULT_DROPS: Tuple[int, ...] = (0, 1, 2, 3, 4, 6, 8, 10, 12, 16, 20, 26, 32, 40)


def mercury_allocate(
    gains,
    total_power: float,
    drop_candidates: Optional[Sequence[int]] = None,
    modulations: Sequence[Modulation] = MODULATIONS,
) -> Allocation:
    """Mercury/water-filling with explicit subcarrier selection.

    A drop-in replacement for :func:`repro.core.equi_snr.allocate` (same
    signature contract: ``gains`` is S(I)NR per unit power).  For each
    candidate drop count and constellation, allocate the remaining
    subcarriers by mercury/water-filling and predict goodput with the
    single-decoder rate model; keep the best.  One row of
    :func:`mercury_allocate_batch`.
    """
    gains = np.asarray(gains, dtype=float)
    return mercury_allocate_batch(gains[None], total_power, drop_candidates, modulations).row(0)


def mercury_allocate_batch(
    gains,
    total_power: float,
    drop_candidates: Optional[Sequence[int]] = None,
    modulations: Sequence[Modulation] = MODULATIONS,
) -> BatchAllocation:
    """:func:`mercury_allocate` for every row of ``gains`` (n_rows, n_sc).

    For each drop count ``d`` below n_sc, a row keeps its gains from rank
    ``d`` on in ascending order, less the non-positive ones (which sort
    first).  Every (constellation, drop, row) cell with a kept subcarrier
    joins one :func:`_waterfill` sweep; rate selection then runs once per
    constellation over all drops.  A row's winner is its first strict
    goodput maximum in drop-major, constellation-minor order; a row with
    no positive goodput gets no power and MCS index -1.
    """
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_rows, n_subcarriers)")
    n_rows, n = gains.shape
    drops = [d for d in (DEFAULT_DROPS if drop_candidates is None else drop_candidates) if d < n]
    if not (n_rows and drops and modulations):
        return BatchAllocation(
            powers=np.zeros((n_rows, n)),
            used=np.zeros((n_rows, n), dtype=bool),
            equalized_snr=np.zeros(n_rows),
            mcs_index=np.full(n_rows, -1),
            goodput_bps=np.zeros(n_rows),
        )
    order = np.argsort(gains, axis=1)
    ranked = np.take_along_axis(gains, order, axis=1)
    # First kept rank per (drop, row).
    first = np.maximum.outer(np.asarray(drops, dtype=int), (gains <= 0).sum(axis=1))

    blocks, cells = [], []
    for m, modulation in enumerate(modulations):
        for d, starts in enumerate(first):
            for start in np.unique(starts[starts < n]).tolist():
                members = np.flatnonzero(starts == start)
                blocks.append((modulation, ranked[members, start:]))
                cells.append((m, d, members, start))
    ranked_powers = np.zeros((len(modulations), len(drops), n_rows, n))
    if blocks:
        levels = _waterfill(blocks, total_power, tolerance=1e-9, max_bisections=80)
        for (m, d, members, start), powers in zip(cells, levels):
            ranked_powers[m, d, members, start:] = powers

    # Rate selection sees each constellation's cells in subcarrier order.
    rows = np.arange(n_rows)
    inverse = np.argsort(order, axis=1)
    tiled = np.tile(gains, (len(drops), 1))
    goodput = np.zeros((len(modulations), len(drops), n_rows))
    mcs_index = np.full(goodput.shape, -1)
    for m, modulation in enumerate(modulations):
        powers = ranked_powers[m][:, rows[:, None], inverse].reshape(-1, n)
        used = powers > 0
        sinr = np.where(used, powers * tiled, 0.0)
        table = [mcs for mcs in MCS_TABLE if mcs.modulation == modulation]
        selection = best_rate_batch(sinr, used=used, mcs_table=table)
        goodput[m] = selection.goodput_bps.reshape(len(drops), n_rows)
        mcs_index[m] = selection.mcs_index.reshape(len(drops), n_rows)

    # Column c of a row's candidates is drop c // n_mod, constellation c % n_mod.
    candidates = goodput.transpose(2, 1, 0).reshape(n_rows, -1)
    best = candidates.argmax(axis=1)
    won = candidates[rows, best] > 0
    d, m = np.divmod(best, len(modulations))
    winners = ranked_powers[m[:, None], d[:, None], rows[:, None], inverse]
    powers = np.where(won[:, None], winners, 0.0)
    return BatchAllocation(
        powers=powers,
        used=powers > 0,
        equalized_snr=np.zeros(n_rows),
        mcs_index=np.where(won, mcs_index[m, d, rows], -1),
        goodput_bps=np.where(won, candidates[rows, best], 0.0),
    )
