"""The stacked mercury/water-filling kernel against the serial reference.

The references below are the serial algorithms as first written: one
water level per call, bracketed and bisected element by element, and one
call per (drop count, constellation) cell of the subcarrier-selection
grid.  Every entry point of :mod:`repro.core.mercury` must reproduce them
byte for byte, on every path a row can take: bracket and converge, MMSE
saturation, stalled or exhausted bisection, non-positive gains, a single
row, fewer subcarriers than some drop counts, and water levels that
underflow toward zero.
"""

import numpy as np
import pytest

from repro.core.mercury import (
    DEFAULT_DROPS,
    mercury_allocate,
    mercury_allocate_batch,
    mercury_waterfilling,
    mercury_waterfilling_batch,
    mmse_curve,
    mmse_inverse,
)
from repro.phy.constants import BPSK, MCS_TABLE, MODULATIONS, QAM16, QAM64, QPSK
from repro.phy.rates import best_rate


def _reference_waterfilling(gains, total_power, modulation, tolerance=1e-9, max_bisections=80):
    """Serial bracket-and-bisect; returns ``(powers, path)``."""
    gains = np.asarray(gains, dtype=float)
    positive = gains > 0
    if not positive.any():
        return np.zeros_like(gains), "zero"

    def powers_for(eta):
        powers = np.zeros_like(gains)
        active = gains > eta
        if active.any():
            ratio = eta / gains[active]
            powers[active] = mmse_inverse(ratio, modulation) / gains[active]
        return powers

    eta_high = float(gains[positive].max())
    eta_low = eta_high * 1e-12
    for _ in range(60):
        if powers_for(eta_low).sum() >= total_power:
            break
        eta_low /= 1e3
    else:
        powers = powers_for(eta_low)
        return powers * (total_power / max(powers.sum(), 1e-300)), "saturated"

    path = "exhausted"
    for _ in range(max_bisections):
        eta_mid = np.sqrt(eta_low * eta_high)
        total = powers_for(eta_mid).sum()
        if abs(total - total_power) <= tolerance * total_power:
            eta_low = eta_mid
            path = "converged"
            break
        before = (eta_low, eta_high)
        if total > total_power:
            eta_low = eta_mid
        else:
            eta_high = eta_mid
        if (eta_low, eta_high) == before:
            path = "stalled"
    powers = powers_for(eta_low)
    return powers * (total_power / max(powers.sum(), 1e-300)), path


def _reference_allocate(gains, total_power, drop_candidates=None, modulations=MODULATIONS):
    """Serial grid sweep; returns (powers, used, mcs_index, goodput_bps, equalized_snr)."""
    gains = np.asarray(gains, dtype=float)
    n = gains.size
    order = np.argsort(gains)
    drops = DEFAULT_DROPS if drop_candidates is None else tuple(drop_candidates)
    best = (np.zeros(n), np.zeros(n, dtype=bool), -1, 0.0)
    for drop in drops:
        if drop >= n:
            continue
        kept = order[drop:]
        kept = kept[gains[kept] > 0]
        if kept.size == 0:
            continue
        for modulation in modulations:
            powers_kept, _ = _reference_waterfilling(gains[kept], total_power, modulation)
            sinr = np.zeros(n)
            sinr[kept] = powers_kept * gains[kept]
            used = np.zeros(n, dtype=bool)
            used[kept] = powers_kept > 0
            if not used.any():
                continue
            table = [m for m in MCS_TABLE if m.modulation == modulation]
            selection = best_rate(sinr, used=used, mcs_table=table)
            if selection.goodput_bps > best[3]:
                powers = np.zeros(n)
                powers[kept] = powers_kept
                best = (powers, used, selection.mcs.index, selection.goodput_bps)
    return best + (0.0,)


def _assert_same_bytes(actual, expected):
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape
    assert actual.tobytes() == expected.tobytes()


def _db(rng, low, high, size):
    return 10 ** (rng.uniform(low, high, size) / 10)


_RNG = np.random.default_rng(2015)
_PLAIN = _db(_RNG, 0, 30, 52)
_BPSK_CAP = float(mmse_inverse(0.0, BPSK))

def _case(gains, total_power, modulation, path, tolerance=1e-9, max_bisections=80):
    return np.asarray(gains, dtype=float), total_power, modulation, tolerance, max_bisections, path


#: name -> (gains, total_power, modulation, tolerance, max_bisections, reference path)
WATERFILLING_CASES = {
    "bracket-and-converge": _case(_PLAIN, 1.0, QAM16, "converged"),
    "bisection-budget-runs-out": _case(_PLAIN, 1.0, QAM16, "exhausted", max_bisections=5),
    "no-bisection-budget": _case(_PLAIN, 1.0, QAM64, "exhausted", max_bisections=0),
    # An exact tolerance leaves η_low and η_high adjacent floats, with
    # the budget between their totals.  The gains stall at every x86-64
    # SIMD level (X86_V2, V3, V4): whether the two totals straddle the
    # budget depends on how the level's loops round the sums.
    "bisection-stalls": _case(
        10 ** np.random.default_rng(1).uniform(-1, 4, (4, 12))[3],
        1.0,
        QAM64,
        "stalled",
        tolerance=0.0,
        max_bisections=200,
    ),
    "mmse-saturated": _case(10 ** _RNG.uniform(4, 6, 52), 1.0, BPSK, "saturated"),
    # Saturated, and the weak subcarrier's power depends on exactly where
    # the 60 bracket tries leave η_low.
    "saturated-final-level-matters": _case([1e100, 2e-91], 1e300, BPSK, "saturated"),
    # The total at the table cap is 1.2x the budget: not saturated.
    "just-above-saturation": _case(
        _PLAIN * (_BPSK_CAP / _PLAIN).sum() / 1.2, 1.0, BPSK, "converged"
    ),
    # Not saturated (the weakest gain's cap is huge), yet η_low never
    # falls far enough to open it: all 60 bracket tries run, and the
    # middle gains keep climbing toward their cap on the way.
    "bracket-never-closes": _case(
        np.r_[1e10, np.full(10, 1e-30), 1e-250], 1e40, QAM64, "saturated"
    ),
    "eta-low-goes-subnormal": _case(
        np.r_[np.full(51, 1e-117), 1e-310], 1e130, QAM64, "saturated"
    ),
    "eta-low-underflows-to-zero": _case(np.full(8, 1e-200), 1e300, QPSK, "saturated"),
    "non-positive-gains": _case(np.r_[_PLAIN[:20], 0.0, -3.0, 0.0], 0.5, QPSK, "converged"),
    "all-zero-gains": _case(np.zeros(8), 1.0, QPSK, "zero"),
    "one-subcarrier": _case([25.0], 1.0, QAM16, "converged"),
}


@pytest.mark.parametrize("case", sorted(WATERFILLING_CASES))
def test_waterfilling_matches_the_reference(case):
    gains, total_power, modulation, tolerance, max_bisections, path = WATERFILLING_CASES[case]
    expected, taken = _reference_waterfilling(
        gains, total_power, modulation, tolerance, max_bisections
    )
    assert taken == path
    actual = mercury_waterfilling(gains, total_power, modulation, tolerance, max_bisections)
    _assert_same_bytes(actual, expected)


def test_waterfilling_batch_rows_match_the_reference():
    """Rows on different paths share one sweep and still finish as if alone."""
    rng = np.random.default_rng(11)
    gains = 10 ** rng.uniform(-1, 4, (24, 12))
    gains[:6] *= 1e5  # saturated on BPSK
    for modulation in (BPSK, QAM64):
        powers = mercury_waterfilling_batch(
            gains, 1.0, modulation, tolerance=0.0, max_bisections=200
        )
        paths = set()
        for row, actual in zip(gains, powers):
            expected, path = _reference_waterfilling(row, 1.0, modulation, 0.0, 200)
            paths.add(path)
            _assert_same_bytes(actual, expected)
        assert {"stalled", "converged"} <= paths
    assert "saturated" in {
        _reference_waterfilling(row, 1.0, BPSK, 0.0, 200)[1] for row in gains[:6]
    }


def test_waterfilling_batch_rejects_non_positive_gains():
    with pytest.raises(ValueError):
        mercury_waterfilling_batch(np.array([[1.0, 0.0]]), 1.0, QPSK)


def test_every_table_stays_below_unit_mmse():
    """A gain at or below η then maps to exactly zero power."""
    for modulation in MODULATIONS:
        _, values = mmse_curve(modulation.bits_per_symbol)
        assert values.max() < 1.0
        assert float(mmse_inverse(1.0, modulation)) == 0.0


def _mixed_rows(rng, n_rows, n_sc):
    """Per-row gain levels from hopeless to MMSE-saturated."""
    levels = np.linspace(-10, 60, n_rows)[:, None]
    return _db(rng, -5, 25, (n_rows, n_sc)) * 10 ** (levels / 10)


def _hopeless_rows(rng):
    rows = _mixed_rows(rng, 4, 52)
    rows[0, :7] = 0.0  # more non-positive gains than the first drop counts
    rows[1, [3, 30]] = [-2.0, 0.0]
    rows[2, :] = 0.0  # no kept subcarrier at any drop count
    return rows


#: name -> (gains, total_power, drop_candidates, modulations)
ALLOCATE_CASES = {
    "mixed-regimes": (_mixed_rows(np.random.default_rng(5), 6, 52), 1.0, None, MODULATIONS),
    "non-positive-gains": (_hopeless_rows(np.random.default_rng(6)), 15.8, None, MODULATIONS),
    "single-row": (_mixed_rows(np.random.default_rng(7), 1, 52) * 30, 31.6, None, MODULATIONS),
    "fewer-subcarriers-than-drops": (
        _mixed_rows(np.random.default_rng(8), 3, 10), 1.0, None, MODULATIONS
    ),
    "one-subcarrier": (np.array([[3e2], [4e4]]), 1.0, None, MODULATIONS),
    "tiny-gains": (np.full((2, 16), 1e-200) * [[1.0], [3.0]], 1e300, None, MODULATIONS),
    "custom-grid": (
        _mixed_rows(np.random.default_rng(9), 3, 20), 2.0, (5, 0, 5, 19, 20, 64), (QAM64, BPSK)
    ),
}


@pytest.mark.parametrize("case", sorted(ALLOCATE_CASES))
def test_allocate_batch_matches_the_reference(case):
    gains, total_power, drops, modulations = ALLOCATE_CASES[case]
    batch = mercury_allocate_batch(gains, total_power, drops, modulations)
    for b, row in enumerate(gains):
        powers, used, mcs_index, goodput, equalized = _reference_allocate(
            row, total_power, drops, modulations
        )
        _assert_same_bytes(batch.powers[b], powers)
        _assert_same_bytes(batch.used[b], used)
        _assert_same_bytes(batch.mcs_index[b], np.int64(mcs_index))
        _assert_same_bytes(batch.goodput_bps[b], np.float64(goodput))
        _assert_same_bytes(batch.equalized_snr[b], np.float64(equalized))

        single = mercury_allocate(row, total_power, drops, modulations)
        _assert_same_bytes(single.powers, powers)
        _assert_same_bytes(single.used, used)
        assert (-1 if single.mcs is None else single.mcs.index) == mcs_index
        _assert_same_bytes(np.float64(single.goodput_bps), np.float64(goodput))
        assert single.equalized_snr == equalized


def test_allocate_batch_covers_both_outcomes():
    """The reference cases include rows that win an MCS and rows that do not."""
    gains, total_power, _, _ = ALLOCATE_CASES["non-positive-gains"]
    indices = mercury_allocate_batch(gains, total_power).mcs_index
    assert (indices == -1).any() and (indices >= 0).any()


def test_allocate_batch_without_candidates_allocates_nothing():
    batch = mercury_allocate_batch(np.ones((2, 4)), 1.0, drop_candidates=(4, 9))
    assert not batch.used.any() and (batch.mcs_index == -1).all()
    assert batch.powers.shape == (2, 4) and not batch.goodput_bps.any()
