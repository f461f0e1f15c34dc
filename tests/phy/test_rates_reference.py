"""Per-transmission rate selection against the per-row reference.

``evaluate_mcs`` and ``best_rate`` are one-row calls of their batched
forms.  The references below are the per-row functions as first written,
copied verbatim: a masked mean, a scalar coded-BER chain and an MCS scan
per transmission.  Each one-row call must reproduce them byte for byte
(every field, its type and the ``Mcs`` object itself) on seeded inputs
and on the edge cases a transmission can hit: 1-D and 2-D SINR, one to
three streams, no mask, an empty mask, a full mask, a single used cell,
SINRs of exactly zero, and a subset MCS table.  ``best_rate`` scores the
table one modulation run at a time, so reversed, partial, duplicated,
non-contiguous, one-entry and empty tables, and ties between equal
rates, are checked too.
"""

from dataclasses import fields, replace
from typing import Sequence

import numpy as np
import pytest

from repro.phy.ber import uncoded_ber
from repro.phy.coding import coded_ber, frame_error_rate
from repro.phy.constants import MCS_TABLE, MPDU_PAYLOAD_BYTES, N_DATA_SUBCARRIERS, QAM16, Mcs
from repro.phy.rates import RateSelection, best_rate, evaluate_mcs

_ZERO = RateSelection(mcs=None, goodput_bps=0.0, fer=1.0, channel_ber=0.5, n_used=0)


def _as_2d(sinr) -> np.ndarray:
    sinr = np.asarray(sinr, dtype=float)
    if sinr.ndim == 1:
        sinr = sinr[:, None]
    if sinr.ndim != 2:
        raise ValueError("sinr must have shape (n_subcarriers,) or (n_subcarriers, n_streams)")
    return sinr


def _reference_evaluate_mcs(
    sinr_linear,
    mcs: Mcs,
    used=None,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> RateSelection:
    sinr = _as_2d(sinr_linear)
    if used is None:
        mask = np.ones(sinr.shape, dtype=bool)
    else:
        mask = np.asarray(used, dtype=bool)
        if mask.ndim == 1:
            mask = mask[:, None]
        if mask.shape != sinr.shape:
            raise ValueError(f"used mask shape {mask.shape} != sinr shape {sinr.shape}")
    n_used = int(mask.sum())
    if n_used == 0:
        return _ZERO

    bers = uncoded_ber(sinr[mask], mcs.modulation)
    channel_ber = float(np.mean(bers))
    post = float(coded_ber(channel_ber, mcs.code_rate))
    fer = float(frame_error_rate(post, payload_bytes * 8))
    phy_rate = mcs.rate_bps * n_used / N_DATA_SUBCARRIERS
    goodput = phy_rate * (1.0 - fer)
    return RateSelection(mcs=mcs, goodput_bps=goodput, fer=fer, channel_ber=channel_ber, n_used=n_used)


def _reference_best_rate(
    sinr_linear,
    used=None,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
) -> RateSelection:
    best = _ZERO
    for mcs in mcs_table:
        candidate = _reference_evaluate_mcs(sinr_linear, mcs, used, payload_bytes)
        if candidate.goodput_bps > best.goodput_bps:
            best = candidate
    return best


def assert_same_selection(actual: RateSelection, expected: RateSelection) -> None:
    assert actual.mcs is expected.mcs
    for field in fields(RateSelection):
        if field.name == "mcs":
            continue
        a, e = getattr(actual, field.name), getattr(expected, field.name)
        assert type(a) is type(e), field.name
        assert np.asarray(a).tobytes() == np.asarray(e).tobytes(), field.name


def _db(rng, low, high, size):
    return 10 ** (rng.uniform(low, high, size) / 10)


def _cases():
    """name -> (sinr, used); seeded draws span every MCS's waterfall."""
    rng = np.random.default_rng(2015)
    cases = {}
    for streams in (1, 2, 3):
        sinr = _db(rng, -5, 35, (52, streams))
        cases[f"{streams}-streams-no-mask"] = (sinr, None)
        cases[f"{streams}-streams-random-mask"] = (sinr, rng.random(sinr.shape) > 0.2)
        cases[f"{streams}-streams-full-mask"] = (sinr, np.ones(sinr.shape, dtype=bool))
        cases[f"{streams}-streams-empty-mask"] = (sinr, np.zeros(sinr.shape, dtype=bool))
    flat = _db(rng, 0, 30, 52)
    cases["1d-no-mask"] = (flat, None)
    cases["1d-mask"] = (flat, flat > 10.0)
    cases["1d-sinr-as-list"] = (flat.tolist(), None)
    single = np.zeros(52, dtype=bool)
    single[17] = True
    cases["single-used-cell"] = (flat, single)
    cases["zero-sinr"] = (np.zeros(52), None)
    cases["flat-channel"] = (np.full(52, 10 ** 2.2), None)
    cases["hopeless"] = (np.full((52, 2), 1e-3), None)
    cases["one-subcarrier"] = (np.array([300.0]), None)
    for draw in range(20):
        streams = int(rng.integers(1, 4))
        sinr = _db(rng, -10, 40, (52, streams)) * 10 ** rng.uniform(-1, 1)
        cases[f"seeded-{draw}"] = (sinr, rng.random(sinr.shape) > rng.uniform(0, 0.6))
    return cases


CASES = _cases()


@pytest.mark.parametrize("case", sorted(CASES))
def test_evaluate_mcs_matches_the_reference(case):
    sinr, used = CASES[case]
    for mcs in MCS_TABLE:
        assert_same_selection(evaluate_mcs(sinr, mcs, used), _reference_evaluate_mcs(sinr, mcs, used))


@pytest.mark.parametrize("case", sorted(CASES))
def test_best_rate_matches_the_reference(case):
    sinr, used = CASES[case]
    assert_same_selection(best_rate(sinr, used), _reference_best_rate(sinr, used))


@pytest.mark.parametrize("payload_bytes", [100, MPDU_PAYLOAD_BYTES])
def test_best_rate_with_a_subset_table_matches_the_reference(payload_bytes):
    """Mercury scans one constellation's MCSs; the chosen object is the table's.

    The table holds copies, so an ``Mcs`` looked up in ``MCS_TABLE``
    instead would be equal but not the same object.
    """
    table = [replace(mcs) for mcs in MCS_TABLE if mcs.modulation == QAM16]
    for case in ("2-streams-random-mask", "1d-mask", "seeded-3", "seeded-7"):
        sinr, used = CASES[case]
        expected = _reference_best_rate(sinr, used, payload_bytes, table)
        assert_same_selection(best_rate(sinr, used, payload_bytes, table), expected)


def mcs_copies(indices):
    return [replace(MCS_TABLE[i]) for i in indices]


#: name -> MCS table.  The entries are copies, so the chosen ``Mcs`` must
#: be the table's own object; "+10" entries duplicate an MCS under
#: another index, so every duplicated winner is a tie between indices.
#: Equi-SNR's reference tests use the same tables.
TABLES = {
    "reversed": mcs_copies(range(7, -1, -1)),
    "partial": mcs_copies([1, 4, 5]),
    "duplicated": mcs_copies(range(8)) + [replace(m, index=m.index + 10) for m in MCS_TABLE],
    "adjacent-duplicate": mcs_copies(range(8)) + [replace(MCS_TABLE[7], index=9)],
    "non-contiguous": mcs_copies([6, 1, 7, 3, 0, 4, 2]),
    "one-entry": mcs_copies([4]),
    "empty": [],
}


@pytest.mark.parametrize("table", sorted(TABLES))
def test_best_rate_with_unusual_tables_matches_the_reference(table):
    for case in sorted(CASES):
        sinr, used = CASES[case]
        expected = _reference_best_rate(sinr, used, mcs_table=TABLES[table])
        assert_same_selection(best_rate(sinr, used, mcs_table=TABLES[table]), expected)


#: name -> (table, the index a strict ascending scan picks) for an SNR at
#: which QPSK is error-free, so both copies of MCS 1 give its full rate.
SAME_RATE_TIES = {
    # One run holds both copies.
    "adjacent": (mcs_copies([0, 1]) + [replace(MCS_TABLE[1], index=9)], 1),
    # Three runs; scanned top-down, the later copy is visited first and
    # sets the row best to exactly MCS 1's ceiling.
    "split": (mcs_copies([1, 0]) + [replace(MCS_TABLE[1], index=9)], 1),
    "split-reversed": ([replace(MCS_TABLE[1], index=9)] + mcs_copies([0, 1]), 9),
}


@pytest.mark.parametrize("case", sorted(SAME_RATE_TIES))
def test_equal_rates_tie_to_the_earlier_entry(case):
    table, index = SAME_RATE_TIES[case]
    sinr = np.full((52, 2), 1e4)
    expected = _reference_best_rate(sinr, mcs_table=table)
    assert expected.mcs.index == index and expected.fer == 0.0
    assert_same_selection(best_rate(sinr, mcs_table=table), expected)


def test_cases_cover_every_outcome():
    """The cases win low and high MCSs, and none at all."""
    chosen = {_reference_best_rate(*CASES[case]).mcs for case in CASES}
    assert None in chosen and MCS_TABLE[0] in chosen and MCS_TABLE[7] in chosen


@pytest.mark.parametrize(
    "sinr, used",
    [
        (np.ones((4, 2, 2)), None),
        (np.ones((52, 2)), np.ones(51, dtype=bool)),
        (np.ones((52, 2)), np.ones((52, 1), dtype=bool)),
        (np.ones(52), np.ones((52, 2), dtype=bool)),
    ],
)
def test_shape_errors_match_the_reference(sinr, used):
    with pytest.raises(ValueError) as expected:
        _reference_best_rate(sinr, used)
    for function in (best_rate, lambda s, u: evaluate_mcs(s, MCS_TABLE[0], u)):
        with pytest.raises(ValueError) as actual:
            function(sinr, used)
        assert str(actual.value) == str(expected.value)
