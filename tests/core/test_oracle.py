"""Unit tests for the optimization oracle (:mod:`repro.core.oracle`).

Covers the solver layer (LP vs. the closed form, SLSQP vs. the production
bisection, the SciPy-free fallbacks), optimality certificates (exhaustive
subset enumeration at small n, KKT residuals), the N-player equilibrium
and incentive checkers on one-row Figure-6 contexts, and the engine's
shadow-check hook.
"""

from dataclasses import replace

import numpy as np
import pytest

from repro.core import equi_snr, mercury, oracle
from repro.core.equi_sinr import (
    BatchConcurrentContext,
    allocate_concurrent,
    allocate_single,
)
from repro.core.equi_snr import equalizing_powers
from repro.core.mercury import (
    mercury_waterfilling,
    mmse_of_snr,
    mutual_information_of_snr,
)
from repro.obs.collector import Collector
from repro.phy.constants import MCS_TABLE, MODULATIONS, N_DATA_SUBCARRIERS
from tests.core.test_allocator_reference import (
    InterferenceGraph,
    _reference_allocate_graph,
    assert_same_concurrent,
)

TOTAL_POWER_MW = 100.0
SEEDS = (0, 1, 2, 3, 4)


def draw_gains(seed: int, n: int = N_DATA_SUBCARRIERS) -> np.ndarray:
    rng = np.random.default_rng(seed)
    gains = rng.exponential(scale=1.0, size=n)
    return gains * 10.0 ** (rng.uniform(-1.5, 1.0))


def _no_scipy(monkeypatch):
    """Make the oracle believe SciPy is not installed."""
    monkeypatch.setattr(oracle, "_scipy_optimize", lambda: None)


# ----------------------------------------------------------------------
# max-min SNR inner solver
# ----------------------------------------------------------------------


class TestMaxMinSnrPowers:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lp_matches_closed_form(self, seed):
        """The LP's max-min level must equal S = P / sum(1/g) exactly."""
        gains = draw_gains(seed)
        powers, snr, method = oracle.max_min_snr_powers(gains, TOTAL_POWER_MW, method="lp")
        expected_powers, expected_snr = equalizing_powers(
            gains, np.ones_like(gains, dtype=bool), TOTAL_POWER_MW
        )
        assert method == "lp"
        assert snr == pytest.approx(expected_snr, rel=1e-9)
        np.testing.assert_allclose(powers, expected_powers, rtol=1e-7, atol=0.0)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bisection_matches_closed_form(self, seed):
        gains = draw_gains(seed)
        powers, snr, method = oracle.max_min_snr_powers(
            gains, TOTAL_POWER_MW, method="bisection"
        )
        _, expected_snr = equalizing_powers(
            gains, np.ones_like(gains, dtype=bool), TOTAL_POWER_MW
        )
        assert method == "bisection"
        assert snr == pytest.approx(expected_snr, rel=1e-12)
        assert float(powers.sum()) == pytest.approx(TOTAL_POWER_MW, rel=1e-12)

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="non-empty"):
            oracle.max_min_snr_powers(np.empty(0), TOTAL_POWER_MW)
        with pytest.raises(ValueError, match="usable"):
            oracle.max_min_snr_powers(np.array([1.0, 0.0]), TOTAL_POWER_MW)
        with pytest.raises(ValueError, match="positive"):
            oracle.max_min_snr_powers(np.ones(4), 0.0)
        with pytest.raises(ValueError, match="unknown oracle method"):
            oracle.max_min_snr_powers(np.ones(4), 1.0, method="magic")


# ----------------------------------------------------------------------
# equi-SNR oracle
# ----------------------------------------------------------------------


class TestOracleEquiSnr:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_agrees_with_iterative_allocator(self, seed):
        gains = draw_gains(seed)
        implementation = equi_snr.allocate(gains, TOTAL_POWER_MW)
        solution = oracle.oracle_equi_snr(gains, TOTAL_POWER_MW)
        assert solution.goodput_bps == pytest.approx(
            implementation.goodput_bps, rel=oracle.ORACLE_RTOL["equi_snr"]
        )
        assert solution.n_used == implementation.n_used
        np.testing.assert_array_equal(solution.used, implementation.used)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_optimal_over_all_subsets_small_n(self, seed):
        """Exhaustive certificate: no kept *subset* beats the oracle.

        At n = 8 every one of the 255 non-empty subsets is scored with the
        equalize-then-rate model; the oracle's top-m-by-gain sweep must
        match the global maximum (the exchange argument in its docstring).
        """
        n = 8
        gains = draw_gains(seed, n=n)
        solution = oracle.oracle_equi_snr(gains, TOTAL_POWER_MW)
        best = 0.0
        for mask_bits in range(1, 2**n):
            used = np.array([(mask_bits >> k) & 1 == 1 for k in range(n)])
            if not (gains[used] > equi_snr.MIN_GAIN).all():
                continue
            _, snr = equalizing_powers(gains, used, TOTAL_POWER_MW)
            goodput = max(
                float(
                    equi_snr.uniform_goodput(
                        np.asarray([snr]), np.asarray([int(used.sum())]), mcs
                    )[0]
                )
                for mcs in MCS_TABLE
            )
            best = max(best, goodput)
        assert solution.goodput_bps == pytest.approx(best, rel=1e-9)

    def test_budget_conservation_and_mask_consistency(self):
        gains = draw_gains(11)
        solution = oracle.oracle_equi_snr(gains, TOTAL_POWER_MW)
        assert float(solution.powers.sum()) == pytest.approx(TOTAL_POWER_MW, rel=1e-9)
        assert np.all(solution.powers[~solution.used] == 0.0)
        assert np.all(solution.powers[solution.used] > 0.0)

    def test_unusable_gains_give_empty_solution(self):
        solution = oracle.oracle_equi_snr(np.zeros(16), TOTAL_POWER_MW)
        assert solution.mcs_index == -1
        assert solution.goodput_bps == 0.0
        assert not solution.used.any()

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            oracle.oracle_equi_snr(np.ones((4, 2)), TOTAL_POWER_MW)
        with pytest.raises(ValueError, match="positive"):
            oracle.oracle_equi_snr(np.ones(4), -1.0)

    def test_emits_spans_and_counters(self):
        collector = Collector()
        oracle.oracle_equi_snr(draw_gains(3), TOTAL_POWER_MW, collector=collector)
        assert collector.metrics.counters["oracle.solves"] == 1
        assert any(span.name == "oracle.solve" for span in collector.spans)


# ----------------------------------------------------------------------
# mercury oracle
# ----------------------------------------------------------------------


class TestMutualInformation:
    @pytest.mark.parametrize("modulation", MODULATIONS, ids=lambda m: m.name)
    def test_derivative_is_mmse(self, modulation):
        """Finite differences of I must match the MMSE curve (I-MMSE)."""
        snr = np.logspace(-2, 3, 40)
        h = snr * 1e-6
        numeric = (
            mutual_information_of_snr(snr + h, modulation)
            - mutual_information_of_snr(snr - h, modulation)
        ) / (2 * h)
        # atol floors the comparison where the MMSE is so small that the
        # finite difference of the (saturated) integral cancels to noise.
        np.testing.assert_allclose(
            numeric, mmse_of_snr(snr, modulation), rtol=1e-3, atol=1e-7
        )

    @pytest.mark.parametrize("modulation", MODULATIONS, ids=lambda m: m.name)
    def test_monotone_and_saturating(self, modulation):
        snr = np.logspace(-4, 9, 200)
        mi = mutual_information_of_snr(snr, modulation)
        assert np.all(np.diff(mi) >= 0)
        # The ceiling cannot exceed the constellation entropy (in nats).
        assert mi[-1] <= modulation.bits_per_symbol * np.log(2) * 1.01


class TestOracleMercury:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_agrees_with_iterative_allocator(self, seed):
        gains = draw_gains(seed)
        implementation = mercury.mercury_allocate(gains, TOTAL_POWER_MW)
        solution = oracle.oracle_mercury(gains, TOTAL_POWER_MW)
        assert solution.goodput_bps == pytest.approx(
            implementation.goodput_bps, rel=oracle.ORACLE_RTOL["mercury"]
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("modulation", MODULATIONS[1:3], ids=lambda m: m.name)
    def test_production_waterfilling_passes_kkt(self, seed, modulation):
        """The eta-bisection's output must satisfy the oracle's optimality
        conditions — a certificate fully independent of how it was found."""
        gains = draw_gains(seed)[:16]
        powers = mercury_waterfilling(gains, TOTAL_POWER_MW, modulation)
        assert oracle.mercury_kkt_residual(gains, powers, modulation) < 1e-4

    def test_kkt_flags_a_bad_allocation(self):
        gains = draw_gains(2)[:8]
        uniform = np.full(8, TOTAL_POWER_MW / 8)
        modulation = MODULATIONS[2]
        optimal = mercury_waterfilling(gains, TOTAL_POWER_MW, modulation)
        assert oracle.mercury_kkt_residual(
            gains, uniform, modulation
        ) > 10 * oracle.mercury_kkt_residual(gains, optimal, modulation)

    def test_slsqp_and_dual_bisection_agree(self):
        gains = draw_gains(7)
        via_slsqp = oracle.oracle_mercury(gains, TOTAL_POWER_MW, method="lp")
        via_bisect = oracle.oracle_mercury(gains, TOTAL_POWER_MW, method="bisection")
        assert via_slsqp.method == "slsqp"
        assert via_bisect.method == "bisection"
        assert via_bisect.goodput_bps == pytest.approx(via_slsqp.goodput_bps, rel=1e-6)

    def test_budget_conservation(self):
        gains = draw_gains(9)
        solution = oracle.oracle_mercury(gains, TOTAL_POWER_MW)
        assert float(solution.powers.sum()) == pytest.approx(TOTAL_POWER_MW, rel=1e-6)
        assert np.all(solution.powers >= 0.0)


# ----------------------------------------------------------------------
# SciPy-free degradation
# ----------------------------------------------------------------------


class TestNoScipyFallback:
    def test_solver_available_reflects_import(self, monkeypatch):
        assert oracle.solver_available()  # the test environment has scipy
        _no_scipy(monkeypatch)
        assert not oracle.solver_available()

    def test_lp_method_raises_without_scipy(self, monkeypatch):
        _no_scipy(monkeypatch)
        with pytest.raises(RuntimeError, match="scipy is unavailable"):
            oracle.oracle_equi_snr(draw_gains(0), TOTAL_POWER_MW, method="lp")

    def test_auto_degrades_and_still_agrees(self, monkeypatch):
        gains = draw_gains(1)
        with_scipy = oracle.oracle_equi_snr(gains, TOTAL_POWER_MW)
        _no_scipy(monkeypatch)
        without = oracle.oracle_equi_snr(gains, TOTAL_POWER_MW)
        assert without.method == "bisection"
        assert without.goodput_bps == pytest.approx(with_scipy.goodput_bps, rel=1e-9)

    def test_mercury_auto_degrades_and_still_agrees(self, monkeypatch):
        gains = draw_gains(4)
        with_scipy = oracle.oracle_mercury(gains, TOTAL_POWER_MW)
        _no_scipy(monkeypatch)
        without = oracle.oracle_mercury(gains, TOTAL_POWER_MW)
        assert without.method == "bisection"
        assert without.goodput_bps == pytest.approx(with_scipy.goodput_bps, rel=1e-5)


# ----------------------------------------------------------------------
# equilibrium and incentive checks on one-row Figure-6 contexts
# ----------------------------------------------------------------------


def _random_context(seed: int) -> BatchConcurrentContext:
    """A one-row two-player problem with every edge."""
    rng = np.random.default_rng(seed)
    gains = [rng.exponential(size=(16, 2)) * 5 for _ in range(2)]
    coupling = [rng.exponential(size=(16, 2)) * 0.3 for _ in range(2)]
    return BatchConcurrentContext(
        gains=[g[None] for g in gains],
        # coupling[a] is player a's gain at the other player's client.
        coupling={(1, 0): coupling[0][None], (0, 1): coupling[1][None]},
        budgets=[TOTAL_POWER_MW, TOTAL_POWER_MW],
        noise_mw=[1.0, 1.0],
    )


def _isolated_context(seed: int, n_players: int = 3) -> BatchConcurrentContext:
    """A one-row problem with no interference edges (players out of range)."""
    rng = np.random.default_rng(seed)
    return BatchConcurrentContext(
        gains=[rng.exponential(size=(1, 16, 2)) * 5 for _ in range(n_players)],
        coupling={},
        budgets=[TOTAL_POWER_MW] * n_players,
        noise_mw=[1.0] * n_players,
    )


class TestEquilibriumChecks:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_two_player_graph_matches_allocate_concurrent(self, seed):
        """The N-player graph reference on two players is bit-identical to allocate_concurrent."""
        context = _random_context(seed)
        expected = _reference_allocate_graph(InterferenceGraph.of(context))
        assert_same_concurrent(allocate_concurrent(context), expected)

    def test_validation_rejects_malformed_graphs(self):
        gains = [np.ones((2, 16, s)) for s in (2, 1, 2)]
        malformed = [
            ("itself", [np.ones((2, 16, 2))] * 3, {(1, 1): np.ones((2, 16, 2))}),
            ("missing player", gains, {(0, 3): np.ones((2, 16, 2))}),
            ("missing player", gains, {(-1, 0): np.ones((2, 16, 2))}),
            ("n_sc", gains, {(0, 1): np.ones((2, 16, 2))}),
            ("n_sc", gains, {(2, 0): np.ones((3, 16, 2))}),
            ("share the row", [gains[0], np.ones((2, 8, 1)), gains[2]], {}),
            ("share the row", [gains[0], np.ones((3, 16, 1)), gains[2]], {}),
            ("share the row", [gains[0], np.ones((16, 1)), gains[2]], {}),
            ("at least two", gains[:1], {}),
        ]
        for message, players, coupling in malformed:
            with pytest.raises(ValueError, match=message):
                BatchConcurrentContext(
                    gains=players,
                    coupling=coupling,
                    budgets=[1.0] * len(players),
                    noise_mw=[1.0] * len(players),
                )

    def test_isolated_players_reach_equilibrium_immediately(self):
        """With no edges, best response == own optimum: zero regret for all."""
        context = _isolated_context(1)
        result = allocate_concurrent(context)
        assert result.converged
        gaps = oracle.equilibrium_gaps(context, result.allocations)
        assert [gap.player for gap in gaps] == ["AP1", "AP2", "AP3"]
        for gap in gaps:
            assert gap.regret == pytest.approx(0.0, abs=1e-9)

    def test_regret_is_bounded_and_recorded(self):
        context = _random_context(2)
        result = allocate_concurrent(context)
        collector = Collector()
        gaps = oracle.equilibrium_gaps(context, result.allocations, collector=collector)
        for gap in gaps:
            assert 0.0 <= gap.regret <= 1.0
        assert collector.metrics.histograms["oracle.regret"].count == 2

    def test_incentive_gaps_trivially_compatible_without_interference(self):
        """Interference-free concurrent transmission beats any 1/N share."""
        context = _isolated_context(3)
        result = allocate_concurrent(context)
        gaps = oracle.incentive_gaps(context, result.allocations)
        assert [gap.player for gap in gaps] == ["AP1", "AP2", "AP3"]
        for gap in gaps:
            assert gap.compatible()
            assert gap.concurrent_bps == pytest.approx(
                gap.sequential_bps * context.n_players, rel=1e-6
            )

    def test_equilibrium_gaps_requires_matching_allocations(self):
        context = _isolated_context(4)
        result = allocate_concurrent(context)
        with pytest.raises(ValueError, match="one allocation per player"):
            oracle.equilibrium_gaps(context, result.allocations[:1])

    def test_checks_take_a_one_row_context(self):
        context = _isolated_context(5)
        result = allocate_concurrent(context)
        two_rows = replace(context, gains=[np.concatenate([g, g]) for g in context.gains])
        for check in (oracle.equilibrium_gaps, oracle.incentive_gaps):
            with pytest.raises(ValueError, match="one-row context, got 2 rows"):
                check(two_rows, result.allocations)


# ----------------------------------------------------------------------
# dispatch and the engine's shadow hook
# ----------------------------------------------------------------------


class TestDispatchAndShadow:
    def test_oracle_for_known_and_unknown_keys(self):
        assert oracle.oracle_for("equi_snr") is oracle.oracle_equi_snr
        assert oracle.oracle_for("equi_sinr") is oracle.oracle_equi_snr
        assert oracle.oracle_for("mercury") is oracle.oracle_mercury
        with pytest.raises(KeyError, match="no oracle registered"):
            oracle.oracle_for("nonsense")

    def test_allocator_key_recognizes_registered_allocators(self):
        assert oracle.allocator_key(equi_snr.allocate) == "equi_snr"
        assert oracle.allocator_key(mercury.mercury_allocate) == "mercury"
        assert oracle.allocator_key(equi_snr.allocate_power_only) is None

    def test_shadow_check_agrees_on_clean_allocation(self):
        rng = np.random.default_rng(5)
        gains = rng.exponential(size=(52, 2)) * 5
        allocation = allocate_single(gains, TOTAL_POWER_MW, noise_mw=1.0)
        collector = Collector()
        verdict = oracle.shadow_check_single(
            gains,
            TOTAL_POWER_MW,
            allocation,
            equi_snr.allocate,
            noise_mw=1.0,
            collector=collector,
        )
        assert verdict is True
        assert collector.metrics.counters["oracle.agree"] == 1
        assert "oracle.mismatch" not in collector.metrics.counters

    def test_shadow_check_flags_a_corrupted_allocation(self):
        """A half-budget allocation must be reported, not raised."""
        rng = np.random.default_rng(6)
        gains = rng.exponential(size=(52, 1)) * 5
        corrupted = allocate_single(gains, TOTAL_POWER_MW / 2, noise_mw=1.0)
        collector = Collector()
        verdict = oracle.shadow_check_single(
            gains,
            TOTAL_POWER_MW,
            corrupted,
            equi_snr.allocate,
            noise_mw=1.0,
            collector=collector,
        )
        assert verdict is False
        assert collector.metrics.counters["oracle.mismatch"] == 1

    def test_shadow_check_skips_unregistered_allocators(self):
        rng = np.random.default_rng(8)
        gains = rng.exponential(size=(16, 1)) * 5
        allocation = allocate_single(
            gains, TOTAL_POWER_MW, noise_mw=1.0, allocator=equi_snr.allocate_power_only
        )
        collector = Collector()
        verdict = oracle.shadow_check_single(
            gains,
            TOTAL_POWER_MW,
            allocation,
            equi_snr.allocate_power_only,
            noise_mw=1.0,
            collector=collector,
        )
        assert verdict is None
        assert collector.metrics.counters["oracle.skipped"] == 1
