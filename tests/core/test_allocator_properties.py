"""Seeded property tests for the power allocators.

Invariants every allocator must honour regardless of the channel draw:

* **budget** — total allocated power never exceeds the stream's budget;
* **dropped ⇒ zero** — a subcarrier outside the data mask gets exactly
  zero allocated power (leakage is modelled downstream, not here);
* **permutation equivariance** — relabelling subcarriers permutes the
  allocation but changes nothing else (the algorithms sort by gain, so
  this catches any accidental dependence on input order);
* **power-scaling monotonicity** — more budget can never predict less
  goodput (every candidate configuration improves pointwise with SNR).

The same invariants, suitably translated, cover the §4.6 multi-decoder
rate selection (conservation of the per-code-rate decomposition instead
of a power budget) and §3.1's N-network pairing (conservation of the
bits each leader's round delivers).  The gain draws are seeded, so
failures reproduce exactly.
"""

import numpy as np
import pytest

from repro.core.equi_sinr import allocate_single
from repro.core.equi_snr import allocate, allocate_power_only, allocate_selection_only
from repro.core.mercury import mercury_allocate
from repro.core.multi_decoder import per_subcarrier_rates
from repro.core.scheduler import pairing_throughput
from repro.core.strategy import SCHEME_CSMA
from repro.sim.config import DEFAULT_CONFIG

N_SUBCARRIERS = 52
TOTAL_POWER_MW = 100.0
SEEDS = (0, 1, 2, 3, 4)

#: name → allocator with the (gains, total_power) -> Allocation contract.
STREAM_ALLOCATORS = {
    "equi_snr": allocate,
    "equi_snr_power_only": allocate_power_only,
    "equi_snr_selection_only": allocate_selection_only,
    "mercury": mercury_allocate,
}


def draw_gains(seed: int) -> np.ndarray:
    """Per-subcarrier S(I)NR-per-mW gains spanning weak to strong fades."""
    rng = np.random.default_rng(seed)
    # Rayleigh-fading-flavoured: exponential power, spread over ~25 dB.
    gains = rng.exponential(scale=1.0, size=N_SUBCARRIERS)
    return gains * 10.0 ** (rng.uniform(-1.5, 1.0))


@pytest.mark.parametrize("name", sorted(STREAM_ALLOCATORS), ids=sorted(STREAM_ALLOCATORS))
@pytest.mark.parametrize("seed", SEEDS)
class TestStreamAllocatorProperties:
    def test_budget_never_exceeded(self, name, seed):
        allocation = STREAM_ALLOCATORS[name](draw_gains(seed), TOTAL_POWER_MW)
        total = float(allocation.powers.sum())
        assert total <= TOTAL_POWER_MW * (1 + 1e-9)
        if allocation.used.any():
            # No allocator should leave budget on the table either.
            assert total == pytest.approx(TOTAL_POWER_MW, rel=1e-6)

    def test_dropped_subcarriers_get_zero_power(self, name, seed):
        allocation = STREAM_ALLOCATORS[name](draw_gains(seed), TOTAL_POWER_MW)
        np.testing.assert_array_equal(
            allocation.powers[~allocation.used], np.zeros(int((~allocation.used).sum()))
        )
        assert np.all(allocation.powers >= 0.0)

    def test_permutation_equivariant(self, name, seed):
        gains = draw_gains(seed)
        permutation = np.random.default_rng(seed + 1000).permutation(N_SUBCARRIERS)
        base = STREAM_ALLOCATORS[name](gains, TOTAL_POWER_MW)
        permuted = STREAM_ALLOCATORS[name](gains[permutation], TOTAL_POWER_MW)
        np.testing.assert_allclose(
            permuted.powers, base.powers[permutation], rtol=1e-9, atol=1e-12
        )
        np.testing.assert_array_equal(permuted.used, base.used[permutation])
        assert permuted.goodput_bps == pytest.approx(base.goodput_bps, rel=1e-9)
        assert (permuted.mcs is None) == (base.mcs is None)
        if base.mcs is not None:
            assert permuted.mcs.index == base.mcs.index

    def test_power_scaling_monotone(self, name, seed):
        """Doubling the budget can never reduce predicted goodput."""
        gains = draw_gains(seed)
        allocator = STREAM_ALLOCATORS[name]
        goodputs = [
            allocator(gains, scale * TOTAL_POWER_MW).goodput_bps
            for scale in (0.5, 1.0, 2.0, 4.0)
        ]
        for lower, higher in zip(goodputs, goodputs[1:]):
            assert higher >= lower * (1 - 1e-9)


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("n_streams", [1, 2])
class TestMultiStreamAllocatorProperties:
    """The same invariants for the per-transmission wrapper (Equi-SINR)."""

    def draw(self, seed, n_streams):
        rng = np.random.default_rng(seed)
        return rng.exponential(scale=5.0, size=(N_SUBCARRIERS, n_streams))

    def test_budget_split_never_exceeded(self, seed, n_streams):
        result = allocate_single(self.draw(seed, n_streams), TOTAL_POWER_MW, noise_mw=1.0)
        assert float(result.powers.sum()) <= TOTAL_POWER_MW * (1 + 1e-9)
        # Per-stream budgets are equal splits; no stream may overdraw.
        per_stream = result.powers.sum(axis=0)
        assert np.all(per_stream <= TOTAL_POWER_MW / n_streams * (1 + 1e-9))

    def test_dropped_subcarriers_get_zero_power(self, seed, n_streams):
        result = allocate_single(self.draw(seed, n_streams), TOTAL_POWER_MW, noise_mw=1.0)
        assert np.all(result.powers[~result.used] == 0.0)

    def test_permutation_equivariant_in_subcarriers(self, seed, n_streams):
        gains = self.draw(seed, n_streams)
        permutation = np.random.default_rng(seed + 2000).permutation(N_SUBCARRIERS)
        base = allocate_single(gains, TOTAL_POWER_MW, noise_mw=1.0)
        permuted = allocate_single(gains[permutation], TOTAL_POWER_MW, noise_mw=1.0)
        np.testing.assert_allclose(
            permuted.powers, base.powers[permutation], rtol=1e-9, atol=1e-12
        )
        np.testing.assert_array_equal(permuted.used, base.used[permutation])


def test_unusable_gains_allocate_nothing():
    """All-zero gains must yield an empty, zero-power allocation."""
    for name, allocator in STREAM_ALLOCATORS.items():
        allocation = allocator(np.zeros(N_SUBCARRIERS), TOTAL_POWER_MW)
        assert not allocation.used.any(), name
        assert float(allocation.powers.sum()) == 0.0, name
        assert allocation.goodput_bps == 0.0, name


def draw_sinr(seed: int, n_streams: int = 2) -> np.ndarray:
    """Per-cell SINRs spanning the useless-to-saturated range."""
    rng = np.random.default_rng(seed)
    return rng.exponential(scale=1.0, size=(N_SUBCARRIERS, n_streams)) * 10.0 ** (
        rng.uniform(-0.5, 2.0)
    )


@pytest.mark.parametrize("seed", SEEDS)
class TestMultiDecoderProperties:
    """The allocator invariants, translated for §4.6 rate selection."""

    def test_goodput_conserves_per_code_rate_decomposition(self, seed):
        """The total is exactly the sum of its per-decoder contributions."""
        selection = per_subcarrier_rates(draw_sinr(seed))
        assert selection.goodput_bps == pytest.approx(
            sum(selection.per_code_rate_bps.values()), rel=1e-12
        )
        assert selection.goodput_bps >= 0.0

    def test_masked_cells_carry_nothing(self, seed):
        """Unused cells must read -1; masking cells cannot raise goodput."""
        sinr = draw_sinr(seed)
        mask = np.random.default_rng(seed + 3000).random(sinr.shape) < 0.7
        selection = per_subcarrier_rates(sinr, used=mask)
        assert np.all(selection.mcs_indices[~mask] == -1)
        unmasked = per_subcarrier_rates(sinr)
        assert selection.goodput_bps <= unmasked.goodput_bps * (1 + 1e-9)

    def test_permutation_equivariant(self, seed):
        sinr = draw_sinr(seed)
        permutation = np.random.default_rng(seed + 4000).permutation(N_SUBCARRIERS)
        base = per_subcarrier_rates(sinr)
        permuted = per_subcarrier_rates(sinr[permutation])
        np.testing.assert_array_equal(permuted.mcs_indices, base.mcs_indices[permutation])
        assert permuted.goodput_bps == pytest.approx(base.goodput_bps, rel=1e-9)

    def test_power_scaling_monotone(self, seed):
        """Scaling every cell's SINR up can never reduce goodput."""
        sinr = draw_sinr(seed)
        goodputs = [
            per_subcarrier_rates(sinr * factor).goodput_bps for factor in (0.5, 1.0, 2.0, 4.0)
        ]
        for lower, higher in zip(goodputs, goodputs[1:]):
            assert higher >= lower * (1 - 1e-9)


class TestSchedulerProperties:
    """Conservation and determinism invariants for the N-network pairing."""

    N_APS = 3

    def _schedule(self, seed: int):
        rng = np.random.default_rng(seed)
        topology = DEFAULT_CONFIG.topology_generator().sample(rng, 2, 2, n_aps=self.N_APS)
        channels = DEFAULT_CONFIG.channel_model().realize(topology, rng)
        return pairing_throughput(channels, DEFAULT_CONFIG.imperfections(), seed)

    def _partner(self, result, leader: int) -> int:
        def predicted(partner: int) -> float:
            outcome = result.outcomes[tuple(sorted((leader, partner)))]
            return outcome.predictions[outcome.copa_choice].aggregate_bps

        return max((p for p in range(self.N_APS) if p != leader), key=predicted)

    def _round_total(self, result, mode: str, leader: int) -> float:
        """Bits per second one leader's round delivers, over all clients."""
        if mode == "copa":
            partner = self._partner(result, leader)
            return result.outcomes[tuple(sorted((leader, partner)))].copa.aggregate_bps
        other = (leader + 1) % self.N_APS
        alone = result.outcomes[tuple(sorted((leader, other)))].schemes[SCHEME_CSMA]
        return 2.0 * alone.client_throughput_bps[int(leader > other)]

    @pytest.mark.parametrize("mode", ["copa", "csma"])
    def test_throughput_conserves_delivered_bits(self, mode):
        """Per-client throughputs must re-aggregate to the rounds' deliveries."""
        result = self._schedule(0)
        schedule = getattr(result, mode)
        delivered = sum(self._round_total(result, mode, leader) for leader in range(self.N_APS))
        assert len(schedule.throughput_bps) == self.N_APS
        assert schedule.aggregate_bps == pytest.approx(delivered / self.N_APS, rel=1e-12)
        assert schedule.aggregate_bps >= 0.0
        assert 0.0 < schedule.fairness <= 1.0 + 1e-12

    def test_copa_rounds_deliver_to_pairs_csma_to_leaders(self):
        result = self._schedule(1)
        for client in range(self.N_APS):
            # CSMA: a client receives only in the rounds its own AP leads.
            own = self._round_total(result, "csma", client)
            assert result.csma.throughput_bps[client] == pytest.approx(
                own / self.N_APS, rel=1e-12
            )
            # COPA: it receives when it leads and whenever a leader picks it.
            received = 0.0
            for leader in range(self.N_APS):
                partner = self._partner(result, leader)
                if client in (leader, partner):
                    low, high = sorted((leader, partner))
                    copa = result.outcomes[(low, high)].copa
                    received += copa.client_throughput_bps[int(client == high)]
            assert result.copa.throughput_bps[client] == pytest.approx(
                received / self.N_APS, rel=1e-12
            )

    def test_deterministic_under_fixed_seeds(self):
        first = self._schedule(2)
        second = self._schedule(2)
        assert first.copa.throughput_bps == second.copa.throughput_bps
        assert first.csma.throughput_bps == second.csma.throughput_bps
        assert [o.copa_choice for o in first.outcomes.values()] == [
            o.copa_choice for o in second.outcomes.values()
        ]
