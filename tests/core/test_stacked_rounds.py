"""One allocator call per Figure-6 round, against one call per player.

A round of :func:`repro.core.equi_sinr.allocate_concurrent_batch` stacks
every stream of every player into one batch with per-row budgets
(:func:`repro.core.equi_sinr.allocate_players_batch`).  That is exact
only if the batched allocators treat rows independently, each at its own
budget; these tests hold the stacked call to k separate
:func:`allocate_single_batch` calls bit for bit, field by field, with
unequal stream counts (an SDA-style player with fewer streams), unequal
budgets and a zero-budget player.  They also pin the two pieces the
stacking leans on: per-row budgets in ``mercury_allocate_batch``, and
the padded ``np.add.reduceat`` row totals of the mercury water level.
"""

import numpy as np
import pytest

from repro.core import equi_snr
from repro.core.equi_sinr import (
    _batched,
    allocate_players_batch,
    allocate_single_batch,
    radiated_powers_batch,
)
from repro.core.equi_snr import allocate_power_only
from repro.core.mercury import _Stack, mercury_allocate, mercury_allocate_batch, mmse_inverse
from repro.phy.constants import BPSK, MODULATIONS, QAM16, QAM64, QPSK
from tests.core.test_allocator_reference import (
    _assert_same_bytes,
    _db,
    _stream_gains,
    assert_same_allocation,
)

ALLOCATORS = {
    "equi_snr": equi_snr.allocate_batch,
    "mercury": mercury_allocate_batch,
    "lifted-power-only": _batched(allocate_power_only),
}

#: name -> per-player (n_streams, budget, noise_mw).  The budgets give
#: every player a different per-stream budget, except the zero budget.
PLAYERS = {
    "k2-sda": [(2, 31.6, 1e-10), (1, 31.6, 1e-10)],
    "k2-zero-budget": [(2, 31.6, 1e-10), (2, 0.0, 2e-10)],
    "k3-sda-zero-budget": [(3, 31.6, 1e-10), (1, 15.8, 2e-10), (2, 0.0, 1e-10)],
    "k3-unequal": [(2, 31.6, 1e-10), (3, 20.0, 1e-10), (1, 5.0, 3e-10)],
}


def assert_same_batch_streams(actual, expected):
    _assert_same_bytes(actual.powers, expected.powers, "powers")
    _assert_same_bytes(actual.used, expected.used, "used")
    assert len(actual.per_stream) == len(expected.per_stream)
    for a, e in zip(actual.per_stream, expected.per_stream):
        for field in ("powers", "used", "equalized_snr", "mcs_index", "goodput_bps"):
            _assert_same_bytes(getattr(a, field), getattr(e, field), field)


def _round(case, n_rows=3):
    rng = np.random.default_rng(sum(map(ord, case)))
    players = PLAYERS[case]
    gains = [
        np.stack([_stream_gains(rng, streams, 5, 35) for _ in range(n_rows)])
        for streams, _, _ in players
    ]
    interference = [rng.uniform(0, 3e-8, (n_rows, 52)) for _ in players]
    interference[0] = None
    return gains, [b for _, b, _ in players], interference, [n for _, _, n in players]


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
@pytest.mark.parametrize("case", sorted(PLAYERS))
def test_one_stacked_round_equals_one_call_per_player(allocator, case):
    gains, budgets, interference, noise_mw = _round(case)
    batched = ALLOCATORS[allocator]
    stacked = allocate_players_batch(gains, budgets, interference, noise_mw, batched)
    assert len(stacked) == len(gains)
    for i, actual in enumerate(stacked):
        expected = allocate_single_batch(
            gains[i], budgets[i], interference[i], noise_mw[i], batched
        )
        assert_same_batch_streams(actual, expected)
        if budgets[i] == 0:
            assert not actual.used.any() and (actual.powers == 0).all()
            assert all((s.mcs_index == -1).all() for s in actual.per_stream)
        else:
            assert actual.used.any()


@pytest.mark.parametrize("case", sorted(PLAYERS))
def test_one_stacked_round_makes_one_allocator_call(case):
    gains, budgets, interference, noise_mw = _round(case)
    calls = []

    def counting(rows, budget):
        calls.append((rows.shape, np.shape(budget)))
        return equi_snr.allocate_batch(rows, budget)

    allocate_players_batch(gains, budgets, interference, noise_mw, counting)
    rows = sum(g.shape[0] * g.shape[2] for g, b in zip(gains, budgets) if b > 0)
    assert calls == [((rows, 52), (rows,))]


def test_stacked_rows_carry_each_players_per_stream_budget():
    gains, budgets, interference, noise_mw = _round("k3-unequal", n_rows=2)
    seen = []

    def recording(rows, budget):
        seen.append(np.asarray(budget))
        return equi_snr.allocate_batch(rows, budget)

    allocate_players_batch(gains, budgets, interference, noise_mw, recording)
    (budget,) = seen
    expected = np.concatenate(
        [np.full(g.shape[0] * g.shape[2], b / g.shape[2]) for g, b in zip(gains, budgets)]
    )
    _assert_same_bytes(budget, expected)


def test_radiated_powers_of_stacked_players_equal_one_pass_each():
    """One pass over the players' streams side by side equals one per player."""
    rng = np.random.default_rng(5)
    players = []
    for streams in (2, 1, 3):
        powers = _db(rng, -10, 10, (4, 52, streams))
        used = rng.random((4, 52, streams)) < 0.7
        used[0, :, 0] = False  # a fully dropped stream radiates nothing
        used[1, :, -1] = True  # a full stream has nothing to fill
        used[2, ::2, 0] = False  # no dropped subcarrier has an active neighbour
        used[2, 1::2, 0] = True
        players.append((powers, used))
    together = radiated_powers_batch(
        np.concatenate([p for p, _ in players], axis=2),
        np.concatenate([u for _, u in players], axis=2),
        0.002,
    )
    splits = np.cumsum([p.shape[2] for p, _ in players])[:-1]
    for part, (powers, used) in zip(np.split(together, splits, axis=2), players):
        _assert_same_bytes(np.ascontiguousarray(part), radiated_powers_batch(powers, used, 0.002))


def test_mercury_per_row_budgets_equal_scalar_calls():
    rng = np.random.default_rng(8)
    gains = _db(rng, -5, 40, (6, 52))
    gains[1, :5] = 0.0
    gains[2] *= 1e5  # MMSE-saturated on the small constellations
    budgets = np.array([1.0, 0.25, 31.6, 3.0, 1e-3, 7.5])
    batch = mercury_allocate_batch(gains, budgets)
    for b, (row, budget) in enumerate(zip(gains, budgets)):
        assert_same_allocation(batch.row(b), mercury_allocate(row, float(budget)))
    # A scalar budget is every row's budget.
    scalar = mercury_allocate_batch(gains, 3.0)
    for field in ("powers", "used", "equalized_snr", "mcs_index", "goodput_bps"):
        _assert_same_bytes(
            getattr(scalar, field), getattr(mercury_allocate_batch(gains, np.full(6, 3.0)), field)
        )


def test_lifted_allocators_give_each_row_its_own_budget():
    rng = np.random.default_rng(9)
    gains = _db(rng, 5, 35, (3, 52))
    budgets = np.array([31.6, 2.0, 0.5])
    batch = _batched(allocate_power_only)(gains, budgets)
    for b in range(3):
        assert_same_allocation(batch.row(b), allocate_power_only(gains[b], float(budgets[b])))


def _row_powers(gains, eta, modulation):
    """One row's mercury powers at level ``1/eta``, element by element."""
    powers = np.zeros(gains.size)
    positive = gains > 0
    with np.errstate(over="ignore"):
        powers[positive] = mmse_inverse(eta / gains[positive], modulation) / gains[positive]
    return powers


def test_padded_reduceat_totals_equal_per_row_reduce():
    """Widths 1–700, zeros and infinite powers: every total bit for bit."""
    rng = np.random.default_rng(28)
    modulations = list(MODULATIONS)
    for _ in range(40):
        blocks = []
        for _ in range(int(rng.integers(1, 8))):
            gains = 10 ** rng.uniform(-8, 8, (int(rng.integers(1, 4)), int(rng.integers(1, 701))))
            gains[rng.random(gains.shape) < 0.1] = 0.0
            # A subnormal gain's power overflows to inf at a low level.
            gains[rng.random(gains.shape) < 0.02] = 1e-310
            blocks.append((modulations[int(rng.integers(len(modulations)))], gains))
        stack = _Stack.of(blocks)
        rows = [(m, row) for m, g in blocks for row in g]
        eta = np.where(rng.random(len(rows)) < 0.2, 0.0, 10 ** rng.uniform(-10, 6, len(rows)))
        with np.errstate(over="ignore"):
            powers = stack.powers(eta)
        _assert_same_bytes(powers[stack.starts], np.zeros(len(rows)), "pads")
        expected = [
            np.add.reduce(_row_powers(row, level, m)) for (m, row), level in zip(rows, eta)
        ]
        _assert_same_bytes(stack.totals(powers), np.array(expected), "totals")


def test_pad_power_is_positive_zero_at_every_level():
    stack = _Stack.of([(m, np.full((1, 3), 10.0)) for m in (BPSK, QPSK, QAM16, QAM64)])
    for level in (0.0, 5e-324, 1e-300, 1.0, 1e300, np.finfo(float).max):
        powers = stack.powers(np.full(4, level))
        assert powers[stack.starts].tobytes() == np.zeros(4).tobytes()
