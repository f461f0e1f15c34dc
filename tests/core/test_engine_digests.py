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

Those digests hold on an AVX-512 host running OpenBLAS's SkylakeX
kernels only.  The tables for the other dispatch classes (NumPy's SIMD
level and OpenBLAS's kernel set) in ``engine_digests.json`` were
recorded at commit f8b8bf6, before the Fig-6 rounds were stacked into
one allocator call; the test reads the table of the host's class
(:mod:`tests.dispatch`).
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from pathlib import Path

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
from tests.dispatch import blas_core, pinned, simd_level


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

#: One table per dispatch class, keyed ``"<SIMD level>/<OpenBLAS
#: kernels>"``, all recorded at commit f8b8bf6 with NumPy 2.4.6 (X86_V2
#: is its build baseline) and its bundled OpenBLAS 0.3.31 on an X86_V4
#: host: ``NPY_DISABLE_CPU_FEATURES`` switched off the NumPy targets
#: above a level and ``OPENBLAS_CORETYPE`` forced the kernels.  Forced
#: to Zen, that OpenBLAS runs and names its Haswell kernels; forced to
#: Cooperlake or SapphireRapids, its SkylakeX ones.  The
#: ``X86_V4/SkylakeX`` table is the one the serial engine recorded.
#: Other NumPy or OpenBLAS releases may round differently again; no
#: table is recorded for them.
DIGESTS = json.loads((Path(__file__).parent / "engine_digests.json").read_text())


def test_every_case_is_pinned():
    for table in DIGESTS.values():
        assert sorted(table) == sorted(CASES)


@pytest.mark.parametrize("case", sorted(CASES))
def test_engine_outputs_match_pinned_digest(case):
    table = pinned(DIGESTS, f"{simd_level()}/{blas_core()}")
    assert digest(*CASES[case]()) == table[case]


def test_digest_sees_one_ulp():
    value = np.array([0.1, 0.2])
    bumped = value.copy()
    bumped[1] = np.nextafter(bumped[1], 1.0)
    assert digest(value) != digest(bumped)
    assert digest(0.1) != digest(np.nextafter(0.1, 1.0))
