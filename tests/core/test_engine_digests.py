"""Pinned SHA-256 digests of the strategy engine's complete outputs.

Every field of every :class:`StrategyOutcome` a case produces is hashed:
measured and predicted per-client throughputs, every rate selection
(including the §4.6 ``MultiDecoderSelection``), every per-stream
allocation array and both COPA choices.  Floats are hashed through
``float.hex`` and arrays through their raw bytes, dtype and shape, so a
single flipped bit anywhere in an outcome changes its digest.

The digests were recorded with the original two-AP serial engine and
its k-AP cluster subclass, before the menu became one batched
implementation; they pin that the per-topology front
(:class:`repro.core.strategy.StrategyEngine`) and its callers still
reproduce those results bit for bit, and that the caller's RNG is left
in the same state.  The split-topology cases (``graph-*-threshold``) run
through :func:`repro.sim.runner.evaluate_topology`, which draws from the
task seed alone, so they pin the combined outcome only; their digests
were recorded with the per-cluster graph engine that this path replaced.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib

import numpy as np
import pytest

from repro.core.controller import CopaSession
from repro.core.equi_snr import allocate_power_only, allocate_selection_only
from repro.core.mercury import mercury_allocate
from repro.core.multi_decoder import per_subcarrier_rates
from repro.core.options import EngineOptions
from repro.core.schemes import Scheme
from repro.core.strategy import StrategyEngine, choose_scheme
from repro.sim.config import DEFAULT_CONFIG
from repro.sim.network import copa_vs_nopa_example
from repro.sim.runner import TopologyTask, evaluate_topology


def _feed(h, value) -> None:
    """Hash ``value`` canonically, recursing through containers."""
    if value is None:
        h.update(b"N")
    elif isinstance(value, (bool, np.bool_)):
        h.update(b"T" if value else b"F")
    elif isinstance(value, enum.Enum):
        h.update(b"e" + str(value.value).encode())
    elif isinstance(value, (int, np.integer)):
        h.update(b"i%d;" % int(value))
    elif isinstance(value, (float, np.floating)):
        h.update(b"f" + float(value).hex().encode())
    elif isinstance(value, str):
        h.update(b"s%d:" % len(value) + value.encode())
    elif isinstance(value, np.ndarray):
        h.update(b"a" + value.dtype.str.encode() + repr(value.shape).encode())
        h.update(np.ascontiguousarray(value).tobytes())
    elif isinstance(value, dict):
        h.update(b"d%d" % len(value))
        for key in sorted(value, key=str):
            _feed(h, key)
            _feed(h, value[key])
    elif isinstance(value, (list, tuple)):
        h.update(b"l%d" % len(value))
        for item in value:
            _feed(h, item)
    elif dataclasses.is_dataclass(value):
        h.update(b"c" + type(value).__name__.encode())
        for field in dataclasses.fields(value):
            h.update(field.name.encode())
            _feed(h, getattr(value, field.name))
    else:
        raise TypeError(f"cannot digest {type(value).__name__}")


def digest(*values) -> str:
    h = hashlib.sha256()
    for value in values:
        _feed(h, value)
    return h.hexdigest()


def _channels(seed, ap_antennas, client_antennas, n_aps=2):
    rng = np.random.default_rng(seed)
    topology = DEFAULT_CONFIG.topology_generator().sample(
        rng, ap_antennas, client_antennas, n_aps=n_aps
    )
    return DEFAULT_CONFIG.channel_model().realize(topology, rng)


def _engine_case(antennas, seeds=(0, 1), n_aps=2, **kwargs):
    """Outcomes of StrategyEngine over seeded topologies, plus the RNG state."""

    def run():
        values = []
        for seed in seeds:
            rng = np.random.default_rng(seed + 100)
            engine = StrategyEngine(
                _channels(seed, *antennas, n_aps=n_aps),
                imperfections=DEFAULT_CONFIG.imperfections(),
                rng=rng,
                **kwargs,
            )
            values += [engine.run(), rng.random()]
        return values

    return run


def _split_case(antennas, n_aps, seed, threshold_db, *, clusters):
    """The combined outcome of a topology the threshold policy splits."""

    def run():
        task = TopologyTask(
            index=0,
            channels=_channels(seed, *antennas, n_aps=n_aps),
            imperfections=DEFAULT_CONFIG.imperfections(),
            seed=seed + 100,
            coherence_s=0.030,
            options=EngineOptions(cluster_policy="threshold", cluster_threshold_db=threshold_db),
        )
        outcome = evaluate_topology(task).record.outcome
        # The case exists to exercise these cluster sizes.
        assert outcome.clusters == clusters
        return [outcome]

    return run


def _session_case():
    rng = np.random.default_rng(7)
    session = CopaSession(
        _channels(3, 4, 2), imperfections=DEFAULT_CONFIG.imperfections(), rng=rng
    )
    first = session._refresh_strategy(0.0)
    second = session._refresh_strategy(0.05)
    return [first, second, rng.random()]


def _fairness_slack_case():
    """Fair choices for a concurrent candidate just below/above COPA-SEQ.

    Real engine predictions rarely land within the fairness slack of
    COPA-SEQ, so the boundary is probed directly: one client's predicted
    throughput is scaled around its COPA-SEQ value, the other's doubled.
    """
    outcome = _engine_case((4, 2), seeds=(0,))()[0]
    baseline = outcome.predictions[Scheme.COPA_SEQ].client_throughput_bps
    choices = []
    for factor in (1.0 - 2e-3, 1.0 - 5e-4, 1.0, 1.0 + 5e-4):
        candidate = dataclasses.replace(
            outcome.predictions[Scheme.CONC_NULL],
            client_throughput_bps=(baseline[0] * factor, baseline[1] * 2.0),
        )
        predictions = {**outcome.predictions, Scheme.CONC_NULL: candidate}
        choices.append(choose_scheme(predictions, fair=True))
    return [outcome, choices]


def _nopa_case():
    rng = np.random.default_rng(11)
    comparison = copa_vs_nopa_example(
        _channels(4, 4, 2), imperfections=DEFAULT_CONFIG.imperfections(), rng=rng
    )
    return [comparison, rng.random()]


CASES = {
    "1x1": _engine_case((1, 1)),
    "4x2": _engine_case((4, 2)),
    "3x2": _engine_case((3, 2)),
    "3x2-mercury": _engine_case((3, 2), seeds=(0,), allocator=mercury_allocate),
    "4x2-power-only": _engine_case((4, 2), seeds=(0,), allocator=allocate_power_only),
    "1x1-selection-only": _engine_case(
        (1, 1), seeds=(0,), allocator=allocate_selection_only
    ),
    "4x2-per-subcarrier-rates": _engine_case(
        (4, 2), seeds=(0,), rate_selector=per_subcarrier_rates
    ),
    "3x2-oracle-check": _engine_case((3, 2), seeds=(0,), oracle_check=True),
    "4x2-one-iteration": _engine_case((4, 2), seeds=(0,), max_iterations=1),
    "graph-3ap-fixed": _engine_case((4, 2), seeds=(0,), n_aps=3),
    "graph-3ap-1x1-fixed": _engine_case((1, 1), seeds=(0,), n_aps=3),
    "graph-4ap-fixed": _engine_case((4, 2), seeds=(1,), n_aps=4),
    "graph-3ap+1ap-threshold": _split_case((4, 2), 4, 1, -60.0, clusters=((0, 1, 2), (3,))),
    "graph-1ap+2ap+1ap-threshold": _split_case(
        (4, 2), 4, 2, -60.0, clusters=((0,), (1, 2), (3,))
    ),
    "graph-singletons-threshold": _split_case((4, 2), 3, 0, -50.0, clusters=((0,), (1,), (2,))),
    "copa-session-refreshes": _session_case,
    "copa-vs-nopa-example": _nopa_case,
    "fairness-slack": _fairness_slack_case,
}

#: Recorded with the serial engine before the strategy menu was unified.
DIGESTS = {
    "1x1": "374295428d86417e3cfb76242bbff5d983346fa16b39888ae0f44acb930997a3",
    "1x1-selection-only": "e670958b42a0d80b736b5c3a42b526e25cdd21d74923df320cda217bc38e5e68",
    "3x2": "1525a8b3040f66e1b0750efb1fd396561b8ffddd4f44795bd72311158c888921",
    "3x2-mercury": "a6c4896115a7b54cd4a2c8b005129f34d2bec4990a5609b87078a13a404d8bda",
    "3x2-oracle-check": "b1a62784b00509eb0063bd95a27fbdfadd9f0f5b9b9e309b9d4e38486c5d1f67",
    "4x2": "b4a3cc5f51cf1856f0e1e3bd964d958b6aeb839e5700cc6550c9501f994e2010",
    "4x2-one-iteration": "023f13d8fde169d1da3eb9c07cd899c4383b85367a510a2903a94ab643cc37d5",
    "4x2-per-subcarrier-rates": "25f4625ca741ae10cc016c2cddfb6b173deea938a1021a6fd643bf46b71e1786",
    "4x2-power-only": "b2d003e9c2ec77cce317d29fbb03eb5cd43644602d6449f58361036ae3fad56e",
    "copa-session-refreshes": "bb9eeb4ad52a1700e34c19b5d25c1b089cf4ce55665e12a5d8f63e0bd61be739",
    "fairness-slack": "6218701346fe69377cfab7651cb51c323cfc4eb2edd5e069c2ffc468ab1f8afd",
    "copa-vs-nopa-example": "bb6df17ef4cb14d5655850cfa31ef405fbf6531cd7820807d02a88b41033fc96",
    "graph-1ap+2ap+1ap-threshold": "e3190f12c6c85810157be569c5094736d4f9699c159636b7a9ec77483704d4f0",
    "graph-3ap+1ap-threshold": "9822afa2496e266d0d0db4c85d5cafb0bf8fc5f5d26e8a4314b43d44aae110ea",
    "graph-3ap-1x1-fixed": "fe51119a87159f7054265ce67e1a1cdc0c6b7875b8642d43b8ce45040af69466",
    "graph-3ap-fixed": "f2c9805a9813b2d628c0f547c939c61bcdafaad9488e72db58dabc287b7b73d2",
    "graph-4ap-fixed": "8d99395443c38ae964e6486006156fc22fcbee12bb5980f0853806f3ef30ff2d",
    "graph-singletons-threshold": "47aa794ca78b0412fd17652a0701f363832e115ed1ddb46f884174dd26bb379e",
}


def test_every_case_is_pinned():
    assert sorted(DIGESTS) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_outputs_match_pinned_digest(case):
    assert digest(*CASES[case]()) == DIGESTS[case]


def test_digest_sees_one_ulp():
    value = np.array([0.1, 0.2])
    bumped = value.copy()
    bumped[1] = np.nextafter(bumped[1], 1.0)
    assert digest(value) != digest(bumped)
    assert digest(0.1) != digest(np.nextafter(0.1, 1.0))
