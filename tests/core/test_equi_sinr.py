"""The Figure-6 iterative concurrent Equi-SINR allocator."""

from dataclasses import replace

import numpy as np
import pytest

from repro.core.equi_sinr import (
    BatchConcurrentContext,
    allocate_concurrent,
    allocate_single,
    radiated_powers,
)
from repro.util import db_to_linear


def _pair(gains, coupling, budgets=(31.6, 31.6), noise_mw=(1e-10, 1e-10)):
    """A one-row two-AP context; ``coupling[a]`` is AP a's gain at the other client."""
    return BatchConcurrentContext(
        gains=[np.asarray(g)[None] for g in gains],
        coupling={(1 - a, a): np.asarray(c)[None] for a, c in enumerate(coupling)},
        budgets=list(budgets),
        noise_mw=list(noise_mw),
    )


def _context(rng, n_sc=52, streams=(2, 2), coupling_scale=1e-10):
    gains = [db_to_linear(rng.uniform(20, 40, (n_sc, s))) * 1e-7 for s in streams]
    coupling = [np.full((n_sc, s), coupling_scale) for s in streams]
    return _pair(gains, coupling)  # budgets ~15 dBm in mW


class TestRadiatedPowers:
    def test_active_cells_unchanged(self, rng):
        powers = rng.uniform(0.1, 1.0, (10, 2))
        used = np.ones((10, 2), dtype=bool)
        np.testing.assert_array_equal(radiated_powers(powers, used, 1e-3), powers)

    def test_dropped_cells_leak(self):
        powers = np.ones((10, 1))
        used = np.ones((10, 1), dtype=bool)
        used[5] = False
        radiated = radiated_powers(powers, used, 10 ** (-27 / 10))
        # Leakage: −27 dB of the neighbours' mean power.
        assert radiated[5, 0] == pytest.approx(10 ** (-27 / 10))

    def test_leakage_uses_active_neighbours_only(self):
        powers = np.array([[1.0], [2.0], [4.0], [8.0]])
        used = np.array([[True], [False], [False], [True]])
        radiated = radiated_powers(powers, used, 0.1)
        # Subcarrier 1's only active neighbour is 0; subcarrier 2's is 3.
        assert radiated[1, 0] == pytest.approx(0.1 * 1.0)
        assert radiated[2, 0] == pytest.approx(0.1 * 8.0)

    def test_fully_dropped_stream_radiates_nothing(self):
        powers = np.zeros((5, 1))
        used = np.zeros((5, 1), dtype=bool)
        np.testing.assert_array_equal(radiated_powers(powers, used, 0.1), 0.0)


class TestAllocateSingle:
    def test_budget_split_across_streams(self, rng):
        gains = db_to_linear(rng.uniform(20, 40, (52, 2))) * 1e-7
        result = allocate_single(gains, total_power=10.0, noise_mw=1e-10)
        assert result.powers.sum() == pytest.approx(10.0, rel=1e-6)
        for s in range(2):
            assert result.powers[:, s].sum() == pytest.approx(5.0, rel=1e-6)

    def test_interference_reduces_goodput(self, rng):
        gains = db_to_linear(rng.uniform(15, 30, (52, 1))) * 1e-7
        clean = allocate_single(gains, 10.0, noise_mw=1e-10)
        noisy = allocate_single(
            gains, 10.0, interference=np.full(52, 3e-8), noise_mw=1e-10
        )
        assert noisy.predicted_goodput_bps <= clean.predicted_goodput_bps

    def test_shapes(self, rng):
        gains = db_to_linear(rng.uniform(20, 40, (52, 3))) * 1e-7
        result = allocate_single(gains, 1.0, noise_mw=1e-10)
        assert result.powers.shape == (52, 3)
        assert result.used.shape == (52, 3)
        assert len(result.per_stream) == 3

    def test_rejects_1d_gains(self):
        with pytest.raises(ValueError):
            allocate_single(np.ones(52), 1.0)


class TestAllocateConcurrent:
    def test_runs_and_respects_budgets(self, rng):
        context = _context(rng)
        result = allocate_concurrent(context)
        for a in range(2):
            assert result.allocations[a].powers.sum() == pytest.approx(31.6, rel=1e-6)

    def test_weak_coupling_converges_fast(self, rng):
        """With negligible cross-interference the fixed point is immediate."""
        context = _context(rng, coupling_scale=1e-20)
        result = allocate_concurrent(context, max_iterations=8)
        assert result.converged
        assert result.iterations <= 3

    def test_iteration_never_loses_to_first_pass(self, rng):
        """COPA keeps the best solution seen, so iterating cannot regress."""
        context = _context(rng, coupling_scale=3e-9)
        one = allocate_concurrent(context, max_iterations=1)
        many = allocate_concurrent(context, max_iterations=8)
        assert many.predicted_aggregate_bps >= one.predicted_aggregate_bps * (1 - 1e-9)

    def test_strong_coupling_forces_avoidance(self, rng):
        """Heavy cross-interference must depress the predicted aggregate."""
        weak = allocate_concurrent(_context(rng, coupling_scale=1e-20))
        strong = allocate_concurrent(_context(rng, coupling_scale=1e-6))
        assert strong.predicted_aggregate_bps < weak.predicted_aggregate_bps

    def test_mismatched_context_rejected(self, rng):
        gains = [np.ones((52, 2)), np.ones((52, 2))]
        coupling = [np.ones((52, 1)), np.ones((52, 2))]
        with pytest.raises(ValueError):
            _pair(gains, coupling, budgets=[1, 1], noise_mw=[1, 1])

    def test_multi_row_context_rejected(self, rng):
        """allocate_concurrent is the one-row entry; B rows go to the batch form."""
        single = _context(rng)
        two_rows = replace(
            single,
            gains=[np.concatenate([g, g]) for g in single.gains],
            coupling={edge: np.concatenate([c, c]) for edge, c in single.coupling.items()},
        )
        with pytest.raises(ValueError, match="one-row context, got 2 rows"):
            allocate_concurrent(two_rows)

    @pytest.mark.parametrize(
        "budgets, noise_mw",
        [
            ([31.6], [1e-10, 1e-10]),  # short budgets
            ([31.6, 31.6], [1e-10]),  # short noise floors
            ([31.6, 31.6], [1e-10, 1e-10, 1e-10]),  # an extra noise floor
        ],
        ids=["short-budgets", "short-noise", "extra-noise"],
    )
    def test_per_player_lists_must_match_the_players(self, rng, budgets, noise_mw):
        gains = [np.ones((52, 2)), np.ones((52, 2))]
        with pytest.raises(ValueError, match="one entry per player"):
            _pair(gains, gains, budgets=budgets, noise_mw=noise_mw)

    def test_paper_anecdote_subcarrier_flip_flop_terminates(self):
        """§3.2.1's circular-dependency anecdote: the iteration must still
        terminate (bounded by max_iterations) even when stream decisions
        keep perturbing one another."""
        rng = np.random.default_rng(99)
        # Coupling comparable to gains: decisions strongly interact.
        gains = [db_to_linear(rng.uniform(10, 25, (52, 1))) * 1e-8 for _ in range(2)]
        coupling = [db_to_linear(rng.uniform(8, 20, (52, 1))) * 1e-8 for _ in range(2)]
        context = _pair(gains, coupling)
        result = allocate_concurrent(context, max_iterations=6)
        assert result.iterations <= 6
        assert result.predicted_aggregate_bps >= 0


class TestStreamSplit:
    def test_equal_split_default(self, rng):
        gains = db_to_linear(rng.uniform(20, 40, (52, 2))) * 1e-7
        result = allocate_single(gains, 10.0, noise_mw=1e-10)
        for s in range(2):
            assert result.powers[:, s].sum() == pytest.approx(5.0, rel=1e-6)
