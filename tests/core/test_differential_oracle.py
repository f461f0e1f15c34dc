"""Differential correctness harness tests (:mod:`repro.core.differential`).

The headline guarantee of this suite: on 100 seeded random office
topologies per allocator, the iterative implementation and the
optimization oracle agree within the documented per-scheme tolerance
(:data:`repro.core.oracle.ORACLE_RTOL`) — and when they do not, the
harness produces a replayable reproducer that captures the exact failing
problem.
"""

import json

import numpy as np
import pytest

from repro.core import differential, equi_snr
from repro.core.oracle import ORACLE_RTOL
from repro.obs.collector import Collector

#: The acceptance floor: at least this many seeded scenarios per scheme.
N_SEEDS = 100


# ----------------------------------------------------------------------
# scenario generator
# ----------------------------------------------------------------------


class TestDrawScenario:
    def test_deterministic_in_seed(self):
        first = differential.draw_scenario(12, "equi_snr")
        second = differential.draw_scenario(12, "equi_snr")
        assert first.antennas == second.antennas
        assert len(first.cases) == len(second.cases)
        for a, b in zip(first.cases, second.cases):
            np.testing.assert_array_equal(a.gains, b.gains)
            assert a.budget == b.budget

    def test_antenna_configurations_cycle(self):
        shapes = {differential.draw_scenario(s, "equi_snr").antennas for s in range(3)}
        assert shapes == {(1, 1), (2, 2), (4, 2)}

    def test_interference_lowers_effective_gains(self):
        """The equi_sinr variant of a seed sees g/(I+noise) <= g/noise."""
        clean = differential.draw_scenario(5, "equi_snr")
        interfered = differential.draw_scenario(5, "equi_sinr")
        for a, b in zip(clean.cases, interfered.cases):
            assert np.all(b.gains <= a.gains * (1 + 1e-12))
            assert float(b.gains.sum()) < float(a.gains.sum())

    def test_unknown_scheme_rejected(self):
        with pytest.raises(KeyError, match="unknown scheme"):
            differential.draw_scenario(0, "zorp")


# ----------------------------------------------------------------------
# the headline differential sweeps
# ----------------------------------------------------------------------


@pytest.mark.parametrize("scheme", sorted(differential.SCHEMES))
def test_differential_sweep_100_seeds(scheme, tmp_path):
    """Oracle and implementation agree on >= 100 seeded topologies."""
    collector = Collector()
    report = differential.differential_sweep(
        scheme,
        range(N_SEEDS),
        reproducer_dir=tmp_path,
        collector=collector,
    )
    assert report.n_total >= N_SEEDS  # multiple streams per scenario
    assert report.mismatches == [], (
        f"{scheme}: {len(report.mismatches)} mismatches, "
        f"worst gap {report.worst_gap:.3g} vs tolerance {report.tolerance:g}; "
        f"reproducers: {[p.name for p in report.reproducers]}"
    )
    assert report.tolerance == ORACLE_RTOL[scheme]
    # Measured worst gaps sit orders of magnitude below each tolerance
    # (EXPERIMENTS.md, oracle tolerance policy); a drift that the
    # tolerance would still absorb fails here.
    assert report.worst_gap <= 1e-3 * report.tolerance, (
        f"{scheme}: worst gap {report.worst_gap:.3g} is within the tolerance "
        f"{report.tolerance:g} but above 1e-3 of it"
    )
    assert list(tmp_path.iterdir()) == []  # no reproducers on agreement
    assert collector.metrics.counters["oracle.agree"] == report.n_total
    assert "oracle.mismatch" not in collector.metrics.counters
    assert collector.metrics.histograms["oracle.rel_gap"].maximum <= report.tolerance


# ----------------------------------------------------------------------
# mismatch reproducers
# ----------------------------------------------------------------------


def _crippled_allocate(gains, total_power):
    """A deliberately wrong allocator: burns half the budget."""
    return equi_snr.allocate(gains, total_power / 2)


class TestMismatchReproducers:
    def test_forced_mismatch_produces_replayable_reproducer(self, tmp_path, monkeypatch):
        """Breaking the allocator must yield a reproducer that replays."""
        monkeypatch.setitem(differential.SCHEMES, "equi_snr", _crippled_allocate)
        collector = Collector()
        report = differential.differential_sweep(
            "equi_snr", range(3), reproducer_dir=tmp_path, collector=collector
        )
        assert report.mismatches, "half-budget allocator must disagree with the oracle"
        assert report.reproducers
        assert collector.metrics.counters["oracle.mismatch"] == len(report.mismatches)

        payload = differential.load_reproducer(report.reproducers[0])
        assert payload["schema"] == differential.REPRODUCER_SCHEMA
        assert payload["scheme"] == "equi_snr"
        assert payload["rel_gap"] > payload["tolerance"]

        # Replay solves the identical stored problem (monkeypatch still
        # active, so the crippled allocator is what gets re-run).
        replayed = differential.replay_reproducer(payload)
        assert not replayed.agree
        assert replayed.implementation_bps == pytest.approx(
            payload["implementation_bps"], rel=1e-12
        )
        assert replayed.oracle_bps == pytest.approx(payload["oracle_bps"], rel=1e-12)

    def test_replay_after_fix_shows_agreement(self, tmp_path, monkeypatch):
        """The reproducer also certifies the fix: un-cripple and replay."""
        monkeypatch.setitem(differential.SCHEMES, "equi_snr", _crippled_allocate)
        report = differential.differential_sweep(
            "equi_snr", range(3), reproducer_dir=tmp_path
        )
        payload = differential.load_reproducer(report.reproducers[0])
        monkeypatch.setitem(differential.SCHEMES, "equi_snr", equi_snr.allocate)
        assert differential.replay_reproducer(payload).agree

    def test_reproducer_gains_round_trip_exactly(self, tmp_path):
        """Binary64 gains must survive the JSON round trip bit-for-bit."""
        scenario = differential.draw_scenario(1, "equi_snr")
        case = scenario.cases[0]
        comparison = differential._compare_case(
            "equi_snr", 1, case, ORACLE_RTOL["equi_snr"]
        )
        path = differential.write_reproducer(tmp_path, comparison, case, scenario)
        payload = differential.load_reproducer(path)
        np.testing.assert_array_equal(np.asarray(payload["gains"]), case.gains)

    def test_load_rejects_unknown_schema(self, tmp_path):
        path = tmp_path / "bogus.json"
        path.write_text(json.dumps({"schema": "repro.oracle-repro/v999"}))
        with pytest.raises(ValueError, match="unsupported reproducer schema"):
            differential.load_reproducer(path)


# ----------------------------------------------------------------------
# N-player equilibrium sweep
# ----------------------------------------------------------------------


class TestEquilibriumSweep:
    def test_sweep_records_bounded_regrets(self):
        collector = Collector()
        report = differential.equilibrium_sweep(range(3), n_players=3, collector=collector)
        assert len(report.max_regrets) == 3
        for regret in report.max_regrets:
            assert 0.0 <= regret <= 1.0
        assert 0.0 <= report.mean_regret <= report.worst_regret <= 1.0
        assert collector.metrics.counters["oracle.solves"] > 0
        assert collector.metrics.histograms["oracle.regret"].count == 9  # 3 seeds x 3 players

    def test_draw_graph_is_deterministic(self):
        first = differential.draw_graph(2, n_players=3)
        second = differential.draw_graph(2, n_players=3)
        assert first.n_players == second.n_players
        for a, b in zip(first.players, second.players):
            np.testing.assert_array_equal(a.gains, b.gains)
        for key in first.coupling:
            np.testing.assert_array_equal(first.coupling[key], second.coupling[key])
