"""§3.1's N-network pairing in closed form (repro.core.scheduler).

:func:`pairing_throughput` evaluates a neighbourhood's C(N, 2) pairs as
rows of one batched engine call and averages the pairing over a uniform
leader.  The pins here are exact where the contract is bit-identity:

* **N = 2 reduction** — with one pair, the per-client COPA, COPA-fair and
  CSMA figures are the one-row engine's, bit for bit;
* **row independence** — each pair's outcome is the one-row engine's on
  its restricted channels, CSI measured with the pair's child seed;
* **leader enumeration** — the expectation equals a brute-force loop over
  the N leaders in which each leader's best-predicted partner and the
  leader receive the pair's throughput under COPA, and only the leader
  receives under CSMA — so every bit a round delivers is counted once.
"""

import numpy as np
import pytest

from repro.core.batch import BatchedStrategyEngine, measure_csi
from repro.core.ncell import restrict_channels
from repro.core.scheduler import pairing_throughput
from repro.core.strategy import SCHEME_CSMA
from repro.sim.config import DEFAULT_CONFIG

from tests.core.test_batch import assert_same_outcome

#: (n_aps, ap_antennas, client_antennas, seed); 3x2 pairs run SDA rows.
NEIGHBOURHOODS = [(3, 4, 2, 7), (4, 4, 2, 11), (4, 3, 2, 12), (5, 4, 2, 13)]


def _neighbourhood(n_aps, ap_antennas, client_antennas, seed):
    rng = np.random.default_rng(seed)
    topology = DEFAULT_CONFIG.topology_generator().sample(
        rng, ap_antennas, client_antennas, n_aps=n_aps
    )
    return DEFAULT_CONFIG.channel_model().realize(topology, rng)


def _child_seeds(seed, n_pairs):
    return np.random.default_rng(seed).integers(0, 2**63 - 1, size=n_pairs).tolist()


def _one_row(channels, csi_seed):
    imperfections = DEFAULT_CONFIG.imperfections()
    csi = measure_csi(channels, imperfections, np.random.default_rng(csi_seed))
    return BatchedStrategyEngine([channels], [csi], imperfections=imperfections).run()[0]


@pytest.fixture(scope="module", params=NEIGHBOURHOODS, ids=lambda p: f"n{p[0]}-{p[1]}x{p[2]}")
def neighbourhood(request):
    n_aps, ap_antennas, client_antennas, seed = request.param
    channels = _neighbourhood(n_aps, ap_antennas, client_antennas, seed)
    return n_aps, seed, channels, pairing_throughput(channels, DEFAULT_CONFIG.imperfections(), seed)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_two_networks_reduce_to_the_one_row_engine(seed):
    channels = _neighbourhood(2, 4, 2, seed)
    result = pairing_throughput(channels, DEFAULT_CONFIG.imperfections(), seed)
    (child,) = _child_seeds(seed, 1)
    outcome = _one_row(channels, child)

    assert list(result.outcomes) == [(0, 1)]
    assert_same_outcome(result.outcomes[(0, 1)], outcome)
    assert result.copa.throughput_bps == outcome.copa.client_throughput_bps
    assert result.copa_fair.throughput_bps == outcome.copa_fair.client_throughput_bps
    assert result.csma.throughput_bps == outcome.schemes[SCHEME_CSMA].client_throughput_bps


def test_each_pair_is_its_own_one_row_run(neighbourhood):
    n_aps, seed, channels, result = neighbourhood
    pairs = [(i, j) for i in range(n_aps) for j in range(i + 1, n_aps)]
    assert list(result.outcomes) == pairs
    for pair, child in zip(pairs, _child_seeds(seed, len(pairs))):
        assert_same_outcome(result.outcomes[pair], _one_row(restrict_channels(channels, pair), child))


def _enumerate_leaders(result, n_aps, fair):
    """Brute force: per-client deliveries of every leader's round, summed."""
    copa, csma = [0.0] * n_aps, [0.0] * n_aps
    for leader in range(n_aps):
        best = None
        for partner in range(n_aps):
            if partner == leader:
                continue
            outcome = result.outcomes[tuple(sorted((leader, partner)))]
            choice = outcome.copa_fair_choice if fair else outcome.copa_choice
            predicted = outcome.predictions[choice].aggregate_bps
            if best is None or predicted > best[0]:
                best = (predicted, partner, outcome)
        _, partner, outcome = best
        chosen = outcome.copa_fair if fair else outcome.copa
        low, high = sorted((leader, partner))
        copa[low] += chosen.client_throughput_bps[0]
        copa[high] += chosen.client_throughput_bps[1]

        other = (leader + 1) % n_aps
        alone = result.outcomes[tuple(sorted((leader, other)))].schemes[SCHEME_CSMA]
        csma[leader] += 2.0 * alone.client_throughput_bps[0 if leader < other else 1]
    return [value / n_aps for value in copa], [value / n_aps for value in csma]


@pytest.mark.parametrize("fair", [False, True], ids=["copa", "copa_fair"])
def test_expectation_enumerates_the_leaders(neighbourhood, fair):
    n_aps, _, _, result = neighbourhood
    copa, csma = _enumerate_leaders(result, n_aps, fair)
    paired = result.copa_fair if fair else result.copa
    assert paired.throughput_bps == pytest.approx(copa, rel=1e-12)
    assert result.csma.throughput_bps == pytest.approx(csma, rel=1e-12)


def test_one_network_is_rejected():
    with pytest.raises(ValueError, match="at least two"):
        pairing_throughput(_neighbourhood(1, 4, 2, 0))
