"""COPA's core contribution: power allocation, precoding, strategy choice."""

from .equi_snr import Allocation, allocate
from .equi_sinr import (
    BatchConcurrentContext,
    ConcurrentAllocation,
    StreamAllocation,
    allocate_concurrent,
    allocate_single,
    radiated_powers,
)
from .controller import CopaAccessPoint, CopaSession, TxopRecord
from .options import EngineOptions
from .scheduler import PairingThroughput, ScheduleResult, pairing_throughput
from .schemes import COPA_CANDIDATES, SCHEMES, SERIES_KEYS, Scheme, SeriesKey
from .differential import (
    SweepReport,
    differential_sweep,
    draw_scenario,
    equilibrium_sweep,
    load_reproducer,
    replay_reproducer,
)
from .mercury import mercury_allocate, mercury_waterfilling, mmse_of_snr
from .multi_decoder import MultiDecoderSelection, per_subcarrier_rates
from .oracle import (
    ORACLE_RTOL,
    OracleSolution,
    equilibrium_gaps,
    incentive_gaps,
    oracle_equi_snr,
    oracle_mercury,
    solver_available,
)
from .precoding import (
    TransmissionDesign,
    beamforming_design,
    cross_coupling,
    nulling_design,
    stream_gains,
)
from .strategy import (
    SCHEME_CONC_BF,
    SCHEME_CONC_NULL,
    SCHEME_CONC_SDA,
    SCHEME_COPA_SEQ,
    SCHEME_CSMA,
    SCHEME_NULL,
    SchemeResult,
    StrategyEngine,
    StrategyOutcome,
)

__all__ = [
    "Allocation",
    "BatchConcurrentContext",
    "COPA_CANDIDATES",
    "ConcurrentAllocation",
    "EngineOptions",
    "ORACLE_RTOL",
    "OracleSolution",
    "SweepReport",
    "differential_sweep",
    "draw_scenario",
    "equilibrium_gaps",
    "equilibrium_sweep",
    "incentive_gaps",
    "load_reproducer",
    "oracle_equi_snr",
    "oracle_mercury",
    "replay_reproducer",
    "solver_available",
    "SCHEMES",
    "SERIES_KEYS",
    "Scheme",
    "SeriesKey",
    "CopaAccessPoint",
    "CopaSession",
    "MultiDecoderSelection",
    "PairingThroughput",
    "ScheduleResult",
    "pairing_throughput",
    "TxopRecord",
    "per_subcarrier_rates",
    "SCHEME_CONC_BF",
    "SCHEME_CONC_NULL",
    "SCHEME_CONC_SDA",
    "SCHEME_COPA_SEQ",
    "SCHEME_CSMA",
    "SCHEME_NULL",
    "SchemeResult",
    "StrategyEngine",
    "StrategyOutcome",
    "StreamAllocation",
    "TransmissionDesign",
    "allocate",
    "allocate_concurrent",
    "allocate_single",
    "beamforming_design",
    "cross_coupling",
    "mercury_allocate",
    "mercury_waterfilling",
    "mmse_of_snr",
    "nulling_design",
    "radiated_powers",
    "stream_gains",
]
