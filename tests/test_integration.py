"""End-to-end checks that the paper's qualitative results hold.

These run the real experiment pipeline over a reduced topology count (the
benchmarks run the full 30) and assert the *shapes* of §4's findings: the
ordering of schemes, who wins where, and the direction of every headline
comparison.
"""

import numpy as np
import pytest

from repro.sim.config import SimConfig
from repro.sim.experiment import ScenarioSpec, run_experiment
from repro.sim.metrics import compare


@pytest.fixture(scope="module")
def cfg():
    return SimConfig(n_topologies=8)


@pytest.fixture(scope="module")
def result_4x2(cfg):
    return run_experiment(ScenarioSpec("4x2", 4, 2, include_copa_plus=False), cfg)


@pytest.fixture(scope="module")
def result_1x1(cfg):
    return run_experiment(ScenarioSpec("1x1", 1, 1, include_copa_plus=False), cfg)


@pytest.fixture(scope="module")
def result_3x2(cfg):
    return run_experiment(ScenarioSpec("3x2", 3, 2, include_copa_plus=False), cfg)


@pytest.fixture(scope="module")
def result_weak(cfg):
    spec = ScenarioSpec("4x2", 4, 2, interference_offset_db=-10.0, include_copa_plus=False)
    return run_experiment(spec, cfg)


class TestConstrained4x2:
    """Figure 11's orderings."""

    def test_vanilla_nulling_loses_to_csma_on_average(self, result_4x2):
        """§4.3: 'we were surprised at how poorly nulling performs'."""
        assert result_4x2.series_mbps("null").mean() < result_4x2.series_mbps("csma").mean()

    def test_nulling_underperforms_csma_in_most_topologies(self, result_4x2):
        stats = compare(result_4x2.series_mbps("null"), result_4x2.series_mbps("csma"))
        assert stats.win_fraction <= 0.5

    def test_copa_beats_csma(self, result_4x2):
        assert result_4x2.series_mbps("copa").mean() > result_4x2.series_mbps("csma").mean()

    def test_copa_rescues_nulling(self, result_4x2):
        """§1: COPA improves nulling's throughput by a large mean factor."""
        stats = compare(result_4x2.series_mbps("copa"), result_4x2.series_mbps("null"))
        assert stats.mean_improvement > 0.25

    def test_fairness_costs_a_little(self, result_4x2):
        copa = result_4x2.series_mbps("copa").mean()
        fair = result_4x2.series_mbps("copa_fair").mean()
        assert fair <= copa + 1e-9
        assert fair >= copa * 0.85  # the price of fairness is modest (§4.3)

    def test_csma_magnitude_matches_paper_ballpark(self, result_4x2):
        """Paper: 110.1 Mbit/s mean; our substrate should land within ~25%."""
        assert result_4x2.series_mbps("csma").mean() == pytest.approx(110.1, rel=0.25)


class TestSingleAntenna:
    """Figure 10's orderings."""

    def test_copa_seq_beats_csma(self, result_1x1):
        assert (
            result_1x1.series_mbps("copa_seq").mean()
            > result_1x1.series_mbps("csma").mean()
        )

    def test_copa_at_least_copa_fair(self, result_1x1):
        assert (
            result_1x1.series_mbps("copa").mean()
            >= result_1x1.series_mbps("copa_fair").mean() - 1e-9
        )

    def test_csma_magnitude(self, result_1x1):
        """Paper: 47.7 Mbit/s mean CSMA throughput."""
        assert result_1x1.series_mbps("csma").mean() == pytest.approx(47.7, rel=0.25)

    def test_no_nulling_scheme_exists(self, result_1x1):
        with pytest.raises(KeyError):
            result_1x1.series_mbps("null")


class TestOverconstrained3x2:
    """Figure 13's orderings."""

    def test_null_sda_loses_to_csma(self, result_3x2):
        """Null+SDA alone 'doesn't come close to CSMA throughput' (§4.5)."""
        assert result_3x2.series_mbps("null").mean() < result_3x2.series_mbps("csma").mean()

    def test_copa_beats_csma(self, result_3x2):
        stats = compare(result_3x2.series_mbps("copa"), result_3x2.series_mbps("csma"))
        assert stats.mean_improvement > 0.0

    def test_sandwiched_between_1x1_and_4x2(self, result_1x1, result_3x2, result_4x2):
        """The 3×2 case sits between the single-antenna and 4×2 scenarios."""
        assert (
            result_1x1.series_mbps("copa").mean()
            < result_3x2.series_mbps("copa").mean()
            < result_4x2.series_mbps("copa").mean() * 1.2
        )


class TestWeakInterference:
    """Figure 12's orderings (§4.4)."""

    def test_nulling_recovers(self, result_4x2, result_weak):
        """With −10 dB interference, vanilla nulling does far better."""
        assert (
            result_weak.series_mbps("null").mean()
            > result_4x2.series_mbps("null").mean()
        )

    def test_nulling_wins_more_often(self, result_4x2, result_weak):
        strong = compare(result_4x2.series_mbps("null"), result_4x2.series_mbps("csma"))
        weak = compare(result_weak.series_mbps("null"), result_weak.series_mbps("csma"))
        assert weak.win_fraction >= strong.win_fraction

    def test_copa_gains_grow(self, result_4x2, result_weak):
        """Weak interference means concurrency almost always pays."""
        strong_gain = (
            result_4x2.series_mbps("copa").mean() / result_4x2.series_mbps("csma").mean()
        )
        weak_gain = (
            result_weak.series_mbps("copa").mean() / result_weak.series_mbps("csma").mean()
        )
        assert weak_gain > strong_gain

    def test_fair_and_greedy_converge(self, result_weak):
        """§4.4: 'There is little difference between COPA and COPA Fair'
        when both clients normally win from cooperating."""
        copa = result_weak.series_mbps("copa").mean()
        fair = result_weak.series_mbps("copa_fair").mean()
        assert fair == pytest.approx(copa, rel=0.08)
