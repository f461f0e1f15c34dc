"""Extension: COPA pairing in neighbourhoods of 2-5 networks (§3.1).

The paper evaluates two APs and sketches the >2 case.  For each N we draw
8 office neighbourhoods of N 4x2 (AP, client) pairs from the calibrated
topology sampler and compute §3.1's pairing in closed form
(:func:`repro.core.scheduler.pairing_throughput`): a uniform contention
winner coordinates with its best responder while the rest defer, versus
plain CSMA (winner alone).  Expected shape: COPA's mean aggregate
advantage persists with more networks (two transmissions per round
instead of one) while mean Jain fairness across clients stays in a sane
band next to CSMA's.
"""

import numpy as np

from repro.core.scheduler import pairing_throughput

from conftest import write_result

N_DRAWS = 8


def _neighbourhood(config, n_aps: int, seed: int):
    rng = np.random.default_rng(seed)
    topology = config.topology_generator().sample(rng, 4, 2, n_aps=n_aps)
    return config.channel_model().realize(topology, rng)


def test_multi_ap_pairing(benchmark, config):
    rows = {}
    for n_aps in (2, 3, 4, 5):
        draws = []
        for draw in range(N_DRAWS):
            seed = 1000 * n_aps + draw
            result = pairing_throughput(
                _neighbourhood(config, n_aps, seed), config.imperfections(), seed
            )
            draws.append(
                (
                    result.csma.aggregate_bps / 1e6,
                    result.copa.aggregate_bps / 1e6,
                    result.csma.fairness,
                    result.copa.fairness,
                )
            )
        csma, copa, csma_fair, copa_fair = np.mean(draws, axis=0)
        rows[n_aps] = {"csma": csma, "copa": copa, "csma_fair": csma_fair, "copa_fair": copa_fair}

    channels = _neighbourhood(config, 3, 0)
    benchmark(lambda: pairing_throughput(channels, config.imperfections(), 0))

    lines = [
        f"mean over {N_DRAWS} neighbourhoods per N",
        f"{'networks':<10}{'csma Mbps':>10}{'copa Mbps':>10}{'gain':>7}"
        f"{'csma Jain':>11}{'copa Jain':>11}",
    ]
    for n_aps, row in rows.items():
        gain = row["copa"] / row["csma"] - 1
        lines.append(
            f"{n_aps:<10}{row['csma']:>10.1f}{row['copa']:>10.1f}{gain:>6.0%}"
            f"{row['csma_fair']:>11.2f}{row['copa_fair']:>11.2f}"
        )
    write_result("multi_ap.txt", "\n".join(lines) + "\n")

    for n_aps, row in rows.items():
        assert row["copa"] > row["csma"], f"{n_aps} networks: COPA must win"
    # Fairness stays in a sane band (pairing favours good pairings, but the
    # uniform leader draw keeps every client in the rotation).
    assert all(row["copa_fair"] > 0.4 for row in rows.values())
