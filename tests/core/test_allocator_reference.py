"""Per-row Equi-SNR and Figure-6 entry points against the per-row reference.

``equalizing_powers``, ``allocate``, ``radiated_powers``,
``allocate_single`` and ``allocate_concurrent`` are one-row calls of
their batched forms.  The references below are the per-row functions as
first written, copied verbatim, less the ``stream_split`` and
``on_iteration`` knobs, and with each call to another per-row function
pointed at that function's reference.  ``allocate_concurrent`` has two:
the two-AP iteration and its N-player generalization.  Both take the
input containers they were written for, which live here; each case is
handed to ``allocate_concurrent`` as the one-row
``BatchConcurrentContext`` it describes.  Goldens, fingerprint pins and
engine digests cannot see these entry points, because the engine runs
the batched forms; these tests are what pins them.  Every field must
match byte for byte, on seeded inputs and on the edge cases a stream can
hit: all-zero gains, gains at or below ``MIN_GAIN``, a single usable
subcarrier, a flat channel, one to three streams, zero budgets, and
Figure-6 runs that converge, stall at the iteration cap or never
converge.

``allocate`` also runs a top-down MCS scan that skips cells which cannot
win their row; the hand-built ties and unusual tables below are the cases
where a wrong skip or a wrong tie rule would change the chosen cell or MCS.

Two exemptions, both for a budget that is not finite and positive:

* the reference ``allocate`` accepts NaN and infinite budgets (returning
  "no MCS" or infinite powers), and the allocators reject them, as
  ``test_allocators_reject_bad_budgets`` checks;
* the references of ``allocate_single`` and ``allocate_concurrent``
  return empty allocations for NaN and negative budgets, and the
  production forms reject NaN, infinite and negative budgets, as
  ``test_stream_allocators_reject_bad_budgets`` checks.  A zero budget
  still gives every stream an empty allocation, in both.
"""

from dataclasses import dataclass, fields, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np
import pytest

from repro.core import equi_snr
from repro.core.differential import draw_graph
from repro.core.equi_sinr import (
    BatchConcurrentContext,
    ConcurrentAllocation,
    StreamAllocation,
    _batched,
    allocate_concurrent,
    allocate_concurrent_batch,
    allocate_single,
    allocate_single_batch,
    effective_gains,
    radiated_powers,
)
from repro.core.equi_snr import (
    MIN_GAIN,
    Allocation,
    allocate,
    allocate_batch,
    allocate_power_only,
    allocate_selection_only,
    equalizing_powers,
    uniform_goodput,
)
from repro.core.mercury import mercury_allocate, mercury_allocate_batch
from repro.obs import Collector
from repro.obs.collector import active
from repro.phy.constants import MCS_TABLE, MPDU_PAYLOAD_BYTES, Mcs
from tests.core.test_ncell_properties import _engine_graph
from tests.phy.test_rates_reference import SAME_RATE_TIES, TABLES, mcs_copies

# ---------------------------------------------------------------------------
# Input containers of the Figure-6 references
# ---------------------------------------------------------------------------


@dataclass
class ConcurrentContext:
    """The two-AP Figure-6 problem, as the two-AP reference reads it.

    ``gains[a]`` is AP a's signal gain at its own client, shape
    (n_sc, n_streams_a); ``coupling[a]`` is AP a's interference gain at
    the *other* AP's client, same shape.
    """

    gains: Sequence[np.ndarray]
    coupling: Sequence[np.ndarray]
    budgets: Sequence[float]
    noise_mw: Sequence[float]
    leakage_linear: float = 10.0 ** (-27.0 / 10.0)

    def batch(self) -> BatchConcurrentContext:
        """The same problem as a one-row context."""
        return BatchConcurrentContext(
            gains=[np.asarray(g)[None] for g in self.gains],
            coupling={(1 - a, a): np.asarray(c)[None] for a, c in enumerate(self.coupling)},
            budgets=self.budgets,
            noise_mw=self.noise_mw,
            leakage_linear=self.leakage_linear,
        )


@dataclass(frozen=True)
class GraphPlayer:
    """One (AP, client) pair of the N-player reference's input."""

    #: (n_sc, n_streams) signal gain at the own client per unit power.
    gains: np.ndarray
    budget: float
    noise_mw: float

    @property
    def n_streams(self) -> int:
        return int(self.gains.shape[1])


@dataclass
class InterferenceGraph:
    """The N-player Figure-6 problem, as the N-player reference reads it.

    ``coupling[(victim, source)]`` is the source's (n_sc, n_streams_source)
    interference gain at the victim's client; a missing edge means the two
    do not hear each other.
    """

    players: List[GraphPlayer]
    coupling: Dict[Tuple[int, int], np.ndarray]
    leakage_linear: float = 10.0 ** (-27.0 / 10.0)

    @property
    def n_players(self) -> int:
        return len(self.players)

    @property
    def n_subcarriers(self) -> int:
        return int(self.players[0].gains.shape[0])

    @classmethod
    def of(cls, context: BatchConcurrentContext) -> "InterferenceGraph":
        """Row 0 of ``context``."""
        return cls(
            players=[
                GraphPlayer(gains=gains[0], budget=budget, noise_mw=noise_mw)
                for gains, budget, noise_mw in zip(context.gains, context.budgets, context.noise_mw)
            ],
            coupling={edge: gain[0] for edge, gain in context.coupling.items()},
            leakage_linear=context.leakage_linear,
        )

    def batch(self) -> BatchConcurrentContext:
        """The same problem as a one-row context."""
        return BatchConcurrentContext(
            gains=[np.asarray(p.gains)[None] for p in self.players],
            coupling={edge: np.asarray(gain)[None] for edge, gain in self.coupling.items()},
            budgets=[p.budget for p in self.players],
            noise_mw=[p.noise_mw for p in self.players],
            leakage_linear=self.leakage_linear,
        )


GraphAllocation = ConcurrentAllocation


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------


def _reference_equalizing_powers(gains: np.ndarray, used: np.ndarray, total_power: float):
    gains = np.asarray(gains, dtype=float)
    used = np.asarray(used, dtype=bool)
    powers = np.zeros_like(gains)
    if not used.any():
        return powers, 0.0
    inverse_sum = float(np.sum(1.0 / gains[used]))
    equalized = total_power / inverse_sum
    powers[used] = equalized / gains[used]
    return powers, equalized


def _reference_allocate(
    gains,
    total_power: float,
    mcs_table: Sequence[Mcs] = MCS_TABLE,
    payload_bytes: int = MPDU_PAYLOAD_BYTES,
) -> Allocation:
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 1:
        raise ValueError("gains must be one-dimensional (a single stream)")
    if total_power <= 0:
        raise ValueError("total_power must be positive")
    n = gains.size
    usable = gains > MIN_GAIN

    order = np.argsort(gains)  # weakest first
    sorted_gains = gains[order]
    # Suffix sums of 1/g: inverse_suffix[i] = Σ_{k ≥ i} 1/g_k (sorted order),
    # skipping unusable subcarriers entirely.
    with np.errstate(divide="ignore"):
        inv = np.where(sorted_gains > MIN_GAIN, 1.0 / np.maximum(sorted_gains, MIN_GAIN), 0.0)
    inverse_suffix = np.cumsum(inv[::-1])[::-1]
    usable_suffix = np.cumsum(usable[order][::-1].astype(int))[::-1]

    # Candidate i = "drop the weakest i subcarriers".
    drop_counts = np.arange(n)
    n_used = usable_suffix[drop_counts]
    with np.errstate(divide="ignore", invalid="ignore"):
        equalized = np.where(
            inverse_suffix[drop_counts] > 0,
            total_power / inverse_suffix[drop_counts],
            0.0,
        )

    best_goodput = np.zeros(n)
    best_mcs_index = np.full(n, -1)
    for mcs in mcs_table:
        goodput = uniform_goodput(equalized, n_used, mcs, payload_bytes)
        improved = goodput > best_goodput
        best_goodput = np.where(improved, goodput, best_goodput)
        best_mcs_index = np.where(improved, mcs.index, best_mcs_index)

    best_i = int(np.argmax(best_goodput))
    if best_goodput[best_i] <= 0.0:
        return Allocation(
            powers=np.zeros(n),
            used=np.zeros(n, dtype=bool),
            equalized_snr=0.0,
            mcs=None,
            goodput_bps=0.0,
        )

    used = np.zeros(n, dtype=bool)
    kept = order[best_i:]
    used[kept] = usable[kept]
    powers, equalized_snr = _reference_equalizing_powers(gains, used, total_power)
    mcs = next(m for m in mcs_table if m.index == best_mcs_index[best_i])
    return Allocation(
        powers=powers,
        used=used,
        equalized_snr=float(equalized_snr),
        mcs=mcs,
        goodput_bps=float(best_goodput[best_i]),
    )


def _reference_radiated_powers(powers: np.ndarray, used: np.ndarray, leakage_linear: float) -> np.ndarray:
    powers = np.asarray(powers, dtype=float)
    used = np.asarray(used, dtype=bool)
    radiated = np.where(used, powers, 0.0)
    for s in range(powers.shape[1]):
        dropped = ~used[:, s]
        if not dropped.any() or used[:, s].sum() == 0:
            continue
        column = powers[:, s]
        above = np.roll(column, -1)
        below = np.roll(column, 1)
        above_used = np.roll(used[:, s], -1)
        below_used = np.roll(used[:, s], 1)
        neighbour_sum = np.where(above_used, above, 0.0) + np.where(below_used, below, 0.0)
        neighbour_count = above_used.astype(float) + below_used.astype(float)
        fallback = float(column[used[:, s]].mean())
        neighbour_mean = np.where(neighbour_count > 0, neighbour_sum / np.maximum(neighbour_count, 1), fallback)
        radiated[dropped, s] = leakage_linear * neighbour_mean[dropped]
    return radiated


def _reference_effective_gains(
    gains: np.ndarray,
    interference: Optional[np.ndarray],
    noise_mw: float,
) -> np.ndarray:
    gains = np.asarray(gains, dtype=float)
    n_sc = gains.shape[0]
    denominator = noise_mw + (
        np.zeros(n_sc) if interference is None else np.asarray(interference, dtype=float)
    )
    if gains.ndim == 1:
        return gains / denominator
    return gains / denominator[:, None]


def _reference_allocate_single(
    gains: np.ndarray,
    total_power: float,
    interference: Optional[np.ndarray] = None,
    noise_mw: float = 1.0,
    allocator: Callable = _reference_allocate,
) -> StreamAllocation:
    gains = np.asarray(gains, dtype=float)
    if gains.ndim != 2:
        raise ValueError("gains must have shape (n_subcarriers, n_streams)")
    n_sc, n_streams = gains.shape
    effective = _reference_effective_gains(gains, interference, noise_mw)
    budgets = np.full(n_streams, total_power / n_streams)
    empty = Allocation(
        powers=np.zeros(n_sc),
        used=np.zeros(n_sc, dtype=bool),
        equalized_snr=0.0,
        mcs=None,
        goodput_bps=0.0,
    )
    allocations = [
        allocator(effective[:, s], float(budgets[s])) if budgets[s] > 0 else empty
        for s in range(n_streams)
    ]
    powers = np.stack([a.powers for a in allocations], axis=1)
    used = np.stack([a.used for a in allocations], axis=1)
    return StreamAllocation(powers=powers, used=used, per_stream=allocations)


def _reference_interference_at(context: ConcurrentContext, victim: int, other_radiated: np.ndarray) -> np.ndarray:
    other = 1 - victim
    return np.sum(context.coupling[other] * other_radiated, axis=1)


def _reference_allocate_concurrent(
    context: ConcurrentContext,
    max_iterations: int = 8,
    tolerance: float = 1e-3,
    allocator: Callable = _reference_allocate,
    collector=None,
) -> ConcurrentAllocation:
    n_sc = context.gains[0].shape[0]

    # Step 1: the other sender is assumed to spread power equally.
    radiated = [
        np.full(context.gains[a].shape, context.budgets[a] / (context.gains[a].shape[1] * n_sc))
        for a in range(2)
    ]

    best: Optional[ConcurrentAllocation] = None
    previous_powers: Optional[List[np.ndarray]] = None
    converged = False
    iterations_run = 0

    for iteration in range(1, max_iterations + 1):
        iterations_run = iteration
        allocations: List[StreamAllocation] = []
        for a in range(2):
            interference = _reference_interference_at(context, victim=a, other_radiated=radiated[1 - a])
            allocations.append(
                _reference_allocate_single(
                    context.gains[a],
                    context.budgets[a],
                    interference=interference,
                    noise_mw=context.noise_mw[a],
                    allocator=allocator,
                )
            )
        candidate = ConcurrentAllocation(allocations=allocations, iterations=iteration, converged=False)
        if best is None or candidate.predicted_aggregate_bps > best.predicted_aggregate_bps:
            best = candidate

        new_radiated = [
            _reference_radiated_powers(allocations[a].powers, allocations[a].used, context.leakage_linear)
            for a in range(2)
        ]
        if previous_powers is not None:
            scale = sum(context.budgets)
            change = sum(
                float(np.abs(new_radiated[a] - previous_powers[a]).sum()) for a in range(2)
            )
            if change <= tolerance * scale:
                converged = True
                radiated = new_radiated
                break
        previous_powers = new_radiated
        radiated = new_radiated

    assert best is not None
    if collector is not None:
        collector.observe("alloc.concurrent_iterations", iterations_run)
        collector.inc("alloc.converged" if converged else "alloc.unconverged")
        collector.inc(
            "alloc.concurrent_dropped_subcarriers",
            sum(
                stream.n_dropped
                for allocation in best.allocations
                for stream in allocation.per_stream
            ),
        )
    return ConcurrentAllocation(
        allocations=best.allocations,
        iterations=iterations_run,
        converged=converged,
    )


def _reference_graph_interference_at(
    graph: InterferenceGraph, victim: int, radiated: Sequence[np.ndarray]
) -> np.ndarray:
    total = np.zeros(graph.n_subcarriers)
    for source in range(graph.n_players):
        if source == victim:
            continue
        edge = graph.coupling.get((victim, source))
        if edge is not None:
            total += np.sum(edge * radiated[source], axis=1)
    return total


def _reference_allocate_graph(
    graph: InterferenceGraph,
    max_iterations: int = 8,
    tolerance: float = 1e-3,
    allocator=_reference_allocate,
    collector=None,
) -> GraphAllocation:
    col = active(collector)
    n = graph.n_players
    n_sc = graph.n_subcarriers
    radiated = [
        np.full(p.gains.shape, p.budget / (p.n_streams * n_sc)) for p in graph.players
    ]

    best: Optional[GraphAllocation] = None
    previous: Optional[List[np.ndarray]] = None
    converged = False
    iterations_run = 0
    scale = sum(p.budget for p in graph.players)

    with col.span("oracle.graph_dynamics", players=n):
        for iteration in range(1, max_iterations + 1):
            iterations_run = iteration
            allocations = []
            for i, player in enumerate(graph.players):
                interference = _reference_graph_interference_at(graph, i, radiated)
                allocations.append(
                    _reference_allocate_single(
                        player.gains,
                        player.budget,
                        interference=interference,
                        noise_mw=player.noise_mw,
                        allocator=allocator,
                    )
                )
            candidate = GraphAllocation(
                allocations=allocations, iterations=iteration, converged=False
            )
            if best is None or candidate.predicted_aggregate_bps > best.predicted_aggregate_bps:
                best = candidate

            new_radiated = [
                _reference_radiated_powers(a.powers, a.used, graph.leakage_linear)
                for a in allocations
            ]
            if previous is not None:
                change = sum(
                    float(np.abs(new_radiated[i] - previous[i]).sum()) for i in range(n)
                )
                if change <= tolerance * scale:
                    converged = True
                    break
            previous = new_radiated
            radiated = new_radiated

    assert best is not None
    return GraphAllocation(
        allocations=best.allocations, iterations=iterations_run, converged=converged
    )


# ---------------------------------------------------------------------------
# Comparisons
# ---------------------------------------------------------------------------


def _assert_same_bytes(actual, expected, what=""):
    assert type(actual) is type(expected), what
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype and actual.shape == expected.shape, what
    assert actual.tobytes() == expected.tobytes(), what


def assert_same_allocation(actual: Allocation, expected: Allocation) -> None:
    assert actual.mcs is expected.mcs
    for field in fields(Allocation):
        if field.name != "mcs":
            _assert_same_bytes(getattr(actual, field.name), getattr(expected, field.name), field.name)


def assert_same_streams(actual: StreamAllocation, expected: StreamAllocation) -> None:
    _assert_same_bytes(actual.powers, expected.powers, "powers")
    _assert_same_bytes(actual.used, expected.used, "used")
    assert len(actual.per_stream) == len(expected.per_stream)
    for a, e in zip(actual.per_stream, expected.per_stream):
        assert_same_allocation(a, e)


def assert_same_concurrent(actual: ConcurrentAllocation, expected: ConcurrentAllocation) -> None:
    _assert_same_bytes(actual.iterations, expected.iterations, "iterations")
    _assert_same_bytes(actual.converged, expected.converged, "converged")
    assert len(actual.allocations) == len(expected.allocations)
    for a, e in zip(actual.allocations, expected.allocations):
        assert_same_streams(a, e)


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------


def _db(rng, low, high, size):
    return 10 ** (rng.uniform(low, high, size) / 10)


def _gain_cases():
    """name -> (gains, total_power): one stream's S(I)NR per mW and its budget."""
    rng = np.random.default_rng(2015)
    at_floor = _db(rng, 5, 30, 52)
    at_floor[[3, 9, 40]] = MIN_GAIN
    at_floor[[4, 41]] = MIN_GAIN / 2
    at_floor[12] = -1.0
    one_usable = np.zeros(52)
    one_usable[23] = 400.0
    deep_fades = _db(rng, 10, 30, 52)
    deep_fades[::7] *= 1e-4
    # Strong enough that nothing usable is dropped: only the gains at the
    # cutoff decide which subcarriers carry data.
    strong_with_floor = _db(rng, 35, 45, 52)
    strong_with_floor[[3, 30]] = MIN_GAIN
    cases = {
        "all-zero": (np.zeros(52), 1.0),
        "all-below-min-gain": (np.full(52, MIN_GAIN), 1.0),
        "at-and-below-min-gain": (at_floor, 0.5),
        "strong-with-gains-at-min-gain": (strong_with_floor, 31.6),
        "single-usable": (one_usable, 1.0),
        "flat": (np.full(52, 30.0), 2.0),
        "hopeless": (np.full(52, 1e-3), 1.0),
        "saturating": (_db(rng, 40, 60, 52), 31.6),
        "deep-fades": (deep_fades, 1.0),
        "one-subcarrier": (np.array([50.0]), 1.0),
        "two-subcarriers": (np.array([3.0, 500.0]), 1.0),
    }
    for draw in range(16):
        scale = 10 ** rng.uniform(-2, 2)
        cases[f"seeded-{draw}"] = (_db(rng, -5, 35, 52) * scale, float(rng.uniform(0.1, 40)))
    return cases


GAIN_CASES = _gain_cases()


def _mask_cases():
    rng = np.random.default_rng(6)
    gains = _db(rng, 0, 30, 52)
    single = np.zeros(52, dtype=bool)
    single[5] = True
    return {
        "empty": (gains, np.zeros(52, dtype=bool)),
        "full": (gains, np.ones(52, dtype=bool)),
        "single": (gains, single),
        "random": (gains, rng.random(52) > 0.3),
        "strongest-half": (gains, gains > np.median(gains)),
    }


MASK_CASES = _mask_cases()


# ---------------------------------------------------------------------------
# Algorithm 1
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("case", sorted(MASK_CASES))
@pytest.mark.parametrize("total_power", [1.0, 31.6, 7])
def test_equalizing_powers_matches_the_reference(case, total_power):
    gains, used = MASK_CASES[case]
    powers, equalized = equalizing_powers(gains, used, total_power)
    expected_powers, expected_equalized = _reference_equalizing_powers(gains, used, total_power)
    _assert_same_bytes(powers, expected_powers)
    _assert_same_bytes(equalized, float(expected_equalized))


@pytest.mark.parametrize("case", sorted(GAIN_CASES))
def test_allocate_matches_the_reference(case):
    gains, total_power = GAIN_CASES[case]
    assert_same_allocation(allocate(gains, total_power), _reference_allocate(gains, total_power))


@pytest.mark.parametrize("case", ["seeded-0", "seeded-5", "deep-fades", "flat"])
def test_allocate_with_a_custom_table_matches_the_reference(case):
    """The tables hold copies: the chosen ``Mcs`` must be the table's own object."""
    gains, total_power = GAIN_CASES[case]
    low = [replace(mcs) for mcs in MCS_TABLE[:4]]
    reversed_table = [replace(mcs) for mcs in MCS_TABLE[::-1]]
    for table, payload_bytes in ((low, MPDU_PAYLOAD_BYTES), (reversed_table, 200)):
        actual = allocate(gains, total_power, table, payload_bytes)
        assert_same_allocation(actual, _reference_allocate(gains, total_power, table, payload_bytes))


def test_allocate_cases_cover_every_outcome():
    outcomes = [_reference_allocate(*GAIN_CASES[case]) for case in GAIN_CASES]
    chosen = {a.mcs for a in outcomes}
    assert None in chosen and MCS_TABLE[7] in chosen and len(chosen) >= 4
    assert any(0 < a.n_dropped < 52 for a in outcomes if a.mcs is not None)


def test_allocate_keeps_its_shape_error():
    for function in (allocate, _reference_allocate):
        with pytest.raises(ValueError, match="one-dimensional"):
            function(np.ones((4, 2)), 1.0)


# ---------------------------------------------------------------------------
# The top-down MCS scan
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("table", sorted(TABLES))
@pytest.mark.parametrize("case", sorted(GAIN_CASES))
def test_allocate_with_unusual_tables_matches_the_reference(case, table):
    gains, total_power = GAIN_CASES[case]
    actual = allocate(gains, total_power, TABLES[table])
    assert_same_allocation(actual, _reference_allocate(gains, total_power, TABLES[table]))


@pytest.mark.parametrize("table", ["duplicated", "adjacent-duplicate"])
def test_unusual_tables_see_duplicate_ties(table):
    """Some case must win on a duplicated MCS, so its tie decides the index."""
    entries = [(m.modulation, m.code_rate) for m in TABLES[table]]
    chosen = [_reference_allocate(*GAIN_CASES[case], TABLES[table]).mcs for case in GAIN_CASES]
    assert any(
        m is not None and entries.count((m.modulation, m.code_rate)) > 1 for m in chosen
    )


def _ceiling_tie_gains(width):
    """One row whose maximum is reached by two drop counts at their rate ceiling.

    With ``TIE_TABLE`` (QPSK 1/2 at 13 Mbit/s, 16-QAM 1/2 at 26 Mbit/s)
    keeping both usable subcarriers at an equalized SNR of 17.375 gives
    13 Mbit/s × 2/52 with ``1 − FER`` rounding to exactly 1, while
    16-QAM there does worse.  Dropping the weaker one leaves an SNR of
    4000, where 16-QAM's FER is exactly 0: 26 Mbit/s × 1/52, the same
    float.  Other subcarriers, if any, are dead (zero gain).
    """
    gains = np.zeros(width)
    gains[-2:] = 1.0 / (1.0 / 17.375 - 1.0 / 4000.0), 4000.0
    return gains


TIE_TABLE = mcs_copies([1, 3])


@pytest.mark.parametrize("width", [2, 52])
def test_row_tie_at_the_rate_ceiling(width):
    gains = _ceiling_tie_gains(width)
    expected = _reference_allocate(gains, 1.0, TIE_TABLE)
    # The tie is real: the earlier drop count wins it with the earlier MCS.
    ceiling = TIE_TABLE[0].rate_bps * 2 / 52
    assert expected.mcs is TIE_TABLE[0] and expected.n_used == 2
    assert expected.goodput_bps == ceiling
    assert uniform_goodput(np.array([4000.0]), np.array([1]), TIE_TABLE[1])[0] == ceiling
    assert uniform_goodput(np.array([17.375]), np.array([2]), TIE_TABLE[1])[0] < ceiling
    assert_same_allocation(allocate(gains, 1.0, TIE_TABLE), expected)


@pytest.mark.parametrize("case", sorted(SAME_RATE_TIES))
@pytest.mark.parametrize("width", [1, 52])
def test_same_cell_tie_between_equal_rates(case, width):
    table, index = SAME_RATE_TIES[case]
    gains = np.full(width, 1e4)
    expected = _reference_allocate(gains, 1.0, table)
    assert expected.mcs.index == index and expected.n_used == width
    assert expected.goodput_bps == MCS_TABLE[1].rate_bps * width / 52
    assert_same_allocation(allocate(gains, 1.0, table), expected)


# ---------------------------------------------------------------------------
# Figure 6
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("streams", [1, 2, 3])
def test_radiated_powers_matches_the_reference(streams):
    rng = np.random.default_rng(40 + streams)
    powers = rng.uniform(0.0, 2.0, (52, streams))
    masks = {
        "random": rng.random((52, streams)) > 0.4,
        "full": np.ones((52, streams), dtype=bool),
        "empty": np.zeros((52, streams), dtype=bool),
        # Isolated survivors: dropped cells with no active neighbour fall
        # back to the stream's mean used power.
        "sparse": np.zeros((52, streams), dtype=bool),
    }
    masks["sparse"][[0, 20, 21, 47]] = True
    masks["mixed-streams"] = masks["random"].copy()
    masks["mixed-streams"][:, 0] = False
    for name, used in masks.items():
        for leakage in (10 ** (-27 / 10), 0.1):
            actual = radiated_powers(powers, used, leakage)
            _assert_same_bytes(actual, _reference_radiated_powers(powers, used, leakage), name)


def test_effective_gains_matches_the_reference():
    rng = np.random.default_rng(3)
    interference = rng.uniform(0, 1e-8, 52)
    for gains in (rng.uniform(0, 1e-6, 52), rng.uniform(0, 1e-6, (52, 3))):
        for interference_case in (None, interference):
            _assert_same_bytes(
                effective_gains(gains, interference_case, 1e-10),
                _reference_effective_gains(gains, interference_case, 1e-10),
            )


#: name -> (production allocator, the per-row allocator the reference calls).
#: Equi-SNR and mercury have batched forms (the registry path); the
#: ablations are lifted, called once per row.
ALLOCATORS = {
    "equi_snr": (equi_snr.allocate, _reference_allocate),
    "mercury": (mercury_allocate, mercury_allocate),
    "power_only": (allocate_power_only, allocate_power_only),
    "selection_only": (allocate_selection_only, allocate_selection_only),
}


def _stream_gains(rng, streams, low=20, high=40):
    return _db(rng, low, high, (52, streams)) * 1e-7


def _single_cases():
    """name -> (gains, total_power, interference, noise_mw)."""
    rng = np.random.default_rng(77)
    zero_stream = _stream_gains(rng, 2)
    zero_stream[:, 1] = 0.0
    return {
        "one-stream": (_stream_gains(rng, 1), 10.0, None, 1e-10),
        "two-streams-interfered": (
            _stream_gains(rng, 2, 10, 30), 31.6, rng.uniform(0, 3e-8, 52), 1e-10
        ),
        "three-streams": (_stream_gains(rng, 3), 31.6, None, 1e-10),
        "zero-gain-stream": (zero_stream, 10.0, None, 1e-10),
        "all-zero": (np.zeros((52, 2)), 10.0, None, 1e-10),
        "zero-budget": (_stream_gains(rng, 2), 0.0, None, 1e-10),
        "weak": (_stream_gains(rng, 2, -10, 10), 1.0, rng.uniform(0, 1e-9, 52), 1e-10),
    }


SINGLE_CASES = _single_cases()


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
@pytest.mark.parametrize("case", sorted(SINGLE_CASES))
def test_allocate_single_matches_the_reference(allocator, case):
    production, reference = ALLOCATORS[allocator]
    gains, total_power, interference, noise_mw = SINGLE_CASES[case]
    actual = allocate_single(gains, total_power, interference, noise_mw, allocator=production)
    expected = _reference_allocate_single(gains, total_power, interference, noise_mw, reference)
    assert_same_streams(actual, expected)


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
@pytest.mark.parametrize("streams", [1, 2, 3])
def test_allocate_single_batch_rows_match_the_reference(allocator, streams):
    """All streams of all rows go through one allocator call; each row must
    still equal its own per-row reference."""
    production, reference = ALLOCATORS[allocator]
    rng = np.random.default_rng(500 + streams)
    gains = np.stack([_stream_gains(rng, streams, 5, 35) for _ in range(4)])
    interference = rng.uniform(0, 3e-8, (4, 52))
    actual = allocate_single_batch(gains, 31.6, interference, 1e-10, _batched(production))
    for b in range(4):
        expected = _reference_allocate_single(gains[b], 31.6, interference[b], 1e-10, reference)
        assert_same_streams(actual.row(b), expected)


def test_allocate_single_keeps_its_shape_error():
    for function in (allocate_single, _reference_allocate_single):
        with pytest.raises(ValueError, match="n_subcarriers, n_streams"):
            function(np.ones(52), 1.0)


def _context(rng, streams, coupling_scale, gain_db=(20, 40)):
    return ConcurrentContext(
        gains=[_stream_gains(rng, s, *gain_db) for s in streams],
        coupling=[np.full((52, s), coupling_scale) for s in streams],
        budgets=[31.6, 31.6],
        noise_mw=[1e-10, 1e-10],
    )


def _concurrent_cases():
    """name -> (context, max_iterations, tolerance)."""
    rng = np.random.default_rng(99)
    flip_flop = ConcurrentContext(
        gains=[_db(rng, 10, 25, (52, 1)) * 1e-8 for _ in range(2)],
        coupling=[_db(rng, 8, 20, (52, 1)) * 1e-8 for _ in range(2)],
        budgets=[31.6, 15.8],
        noise_mw=[1e-10, 2e-10],
    )
    return {
        "converges-fast": (_context(rng, (2, 2), 1e-20), 8, 1e-3),
        "moderate": (_context(rng, (2, 2), 3e-9), 8, 1e-3),
        "strong": (_context(rng, (1, 2), 1e-6, (10, 30)), 8, 1e-3),
        "mixed-streams": (_context(rng, (3, 1), 1e-9), 8, 1e-3),
        "one-iteration": (_context(rng, (2, 2), 3e-9), 1, 1e-3),
        "never-converges": (_context(rng, (2, 2), 3e-9), 4, 0.0),
        "flip-flop": (flip_flop, 6, 1e-3),
    }


CONCURRENT_CASES = _concurrent_cases()


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
@pytest.mark.parametrize("case", sorted(CONCURRENT_CASES))
def test_allocate_concurrent_matches_the_reference(allocator, case):
    production, reference = ALLOCATORS[allocator]
    context, max_iterations, tolerance = CONCURRENT_CASES[case]
    collectors = Collector(), Collector()
    actual = allocate_concurrent(
        context.batch(), max_iterations, tolerance, production, collectors[0]
    )
    expected = _reference_allocate_concurrent(
        context, max_iterations, tolerance, reference, collectors[1]
    )
    assert_same_concurrent(actual, expected)
    assert collectors[0].metrics.as_payload() == collectors[1].metrics.as_payload()


def test_concurrent_cases_cover_both_endings():
    endings = {
        (case, _reference_allocate_concurrent(*CONCURRENT_CASES[case]).converged)
        for case in CONCURRENT_CASES
    }
    assert {converged for _, converged in endings} == {True, False}
    iterations = {
        _reference_allocate_concurrent(*CONCURRENT_CASES[case]).iterations
        for case in CONCURRENT_CASES
    }
    assert len(iterations) >= 3


def _mixed_graph(rng, coupling_scale=1e-9, leakage_linear=10 ** (-2.7), streams=(1, 2, 3)):
    """Players with unequal stream counts, budgets and noise floors; every edge."""
    players = [
        GraphPlayer(gains=_stream_gains(rng, s, 10, 30), budget=float(budget), noise_mw=noise_mw)
        for s, budget, noise_mw in zip(streams, (31.6, 10.0, 3.2), (1e-10, 3e-10, 2e-11))
    ]
    coupling = {
        (victim, source): _db(rng, 0, 15, (52, players[source].n_streams)) * coupling_scale
        for victim in range(len(players))
        for source in range(len(players))
        if victim != source
    }
    return InterferenceGraph(players=players, coupling=coupling, leakage_linear=leakage_linear)


def _engine_input(n_aps, seed):
    return InterferenceGraph.of(_engine_graph(n_aps, seed))


def _graph_cases():
    """name -> (graph, max_iterations, tolerance)."""
    rng = np.random.default_rng(2026)
    cases = {f"engine-n{n}": (_engine_input(n, seed=1), 8, 1e-3) for n in (2, 3, 4, 6)}
    cases.update(
        {
            f"draw-graph-{seed}": (InterferenceGraph.of(draw_graph(seed, n_players=3 + seed % 2)), 8, 1e-3)
            for seed in range(3)
        }
    )
    full = _engine_input(4, seed=2)
    cases["missing-edges"] = (
        InterferenceGraph(
            players=full.players,
            coupling={edge: gain for edge, gain in full.coupling.items() if (edge[0] + edge[1]) % 3},
            leakage_linear=full.leakage_linear,
        ),
        8,
        1e-3,
    )
    cases["unequal-players"] = (_mixed_graph(rng), 8, 1e-3)
    cases["unequal-players-weakly-coupled"] = (_mixed_graph(rng, coupling_scale=1e-12), 8, 1e-3)
    cases["no-edges"] = (InterferenceGraph(players=full.players, coupling={}), 8, 1e-3)
    cases["unequal-players-never-converges"] = (_mixed_graph(rng), 4, 0.0)
    base = _engine_input(3, seed=0)
    cases["no-leakage"] = (
        InterferenceGraph(players=base.players, coupling=base.coupling, leakage_linear=0.0), 8, 1e-3
    )
    cases["one-iteration"] = (_engine_input(4, seed=0), 1, 1e-3)
    return cases


GRAPH_CASES = _graph_cases()


@pytest.mark.parametrize(
    "allocator, case",
    [("equi_snr", case) for case in sorted(GRAPH_CASES)]
    + [
        (allocator, case)
        for allocator in ("mercury", "power_only", "selection_only")
        for case in ("unequal-players-weakly-coupled", "one-iteration")
    ],
)
def test_allocate_concurrent_matches_the_graph_reference(allocator, case):
    production, reference = ALLOCATORS[allocator]
    graph, max_iterations, tolerance = GRAPH_CASES[case]
    actual = allocate_concurrent(graph.batch(), max_iterations, tolerance, production)
    expected = _reference_allocate_graph(graph, max_iterations, tolerance, reference)
    assert_same_concurrent(actual, expected)


def test_graph_cases_cover_both_endings():
    results = {case: _reference_allocate_graph(*GRAPH_CASES[case]) for case in GRAPH_CASES}
    assert {r.converged for r in results.values()} == {True, False}
    assert len({r.iterations for r in results.values()}) >= 3
    assert {len(r.allocations) for r in results.values()} >= {2, 3, 4, 6}


def _row_context(coupling_scales, rng):
    """A k = 3 batch whose row b has its coupling scaled by ``coupling_scales[b]``."""
    streams = (2, 1, 2)
    n_rows = len(coupling_scales)
    gains = [_db(rng, 10, 30, (n_rows, 52, s)) * 1e-8 for s in streams]
    scale = np.asarray(coupling_scales, dtype=float)[:, None, None]
    coupling = {
        (victim, source): _db(rng, 10, 20, (n_rows, 52, streams[source])) * 1e-8 * scale
        for victim in range(3)
        for source in range(3)
        if victim != source
    }
    return BatchConcurrentContext(
        gains=gains, coupling=coupling, budgets=[31.6, 15.8, 31.6], noise_mw=[1e-10, 2e-10, 1e-10]
    )


def _take_rows(context, rows):
    return BatchConcurrentContext(
        gains=[g[rows] for g in context.gains],
        coupling={edge: gain[rows] for edge, gain in context.coupling.items()},
        budgets=context.budgets,
        noise_mw=context.noise_mw,
        leakage_linear=context.leakage_linear,
    )


def test_three_player_rows_are_independent():
    """An uncoupled and a weakly coupled row converge early while their
    neighbours run to the cap; each row equals its own one-row call, and
    row order is immaterial."""
    context = _row_context([1.0, 0.0, 3e-5, 1.0], np.random.default_rng(31))
    allocations, iterations, converged = allocate_concurrent_batch(context, 6, 1e-3)
    assert iterations.tolist() == [6, 2, 5, 6]
    assert converged.tolist() == [False, True, True, False]
    for b in range(context.n_rows):
        alone, alone_iterations, alone_converged = allocate_concurrent_batch(
            _take_rows(context, [b]), 6, 1e-3
        )
        assert (alone_iterations[0], alone_converged[0]) == (iterations[b], converged[b])
        for together, single in zip(allocations, alone):
            assert_same_streams(together.row(b), single.row(0))
    order = [2, 1, 3, 0]
    permuted, permuted_iterations, permuted_converged = allocate_concurrent_batch(
        _take_rows(context, order), 6, 1e-3
    )
    _assert_same_bytes(permuted_iterations, iterations[order])
    _assert_same_bytes(permuted_converged, converged[order])
    for b, source_row in enumerate(order):
        for shuffled, original in zip(permuted, allocations):
            assert_same_streams(shuffled.row(b), original.row(source_row))


# ---------------------------------------------------------------------------
# Budgets
# ---------------------------------------------------------------------------

BAD_BUDGETS = [np.nan, np.inf, -np.inf, 0.0, -1.0]


@pytest.mark.parametrize("budget", BAD_BUDGETS)
@pytest.mark.parametrize(
    "allocator",
    [allocate, allocate_power_only, allocate_selection_only, mercury_allocate],
    ids=lambda f: f.__name__,
)
def test_allocators_reject_bad_budgets(allocator, budget):
    with pytest.raises(ValueError, match="total_power"):
        allocator(np.full(52, 100.0), budget)


@pytest.mark.parametrize("budget", BAD_BUDGETS)
@pytest.mark.parametrize(
    "allocator", [allocate_batch, mercury_allocate_batch], ids=lambda f: f.__name__
)
def test_batched_allocators_reject_bad_budgets(allocator, budget):
    with pytest.raises(ValueError, match="total_power"):
        allocator(np.full((2, 52), 100.0), budget)


def test_allocate_batch_rejects_one_bad_row_budget():
    with pytest.raises(ValueError, match="total_power"):
        allocate_batch(np.full((3, 52), 100.0), np.array([1.0, np.nan, 2.0]))



@pytest.mark.parametrize("budget", [np.nan, np.inf, -np.inf, -1.0])
def test_stream_allocators_reject_bad_budgets(budget):
    gains = np.full((52, 2), 1e-7)
    coupling = np.full((52, 2), 1e-9)
    with pytest.raises(ValueError, match="total_power"):
        allocate_single(gains, budget, noise_mw=1e-10)
    with pytest.raises(ValueError, match="total_power"):
        allocate_single_batch(gains[None], budget, noise_mw=1e-10)
    for budgets in ([budget, 31.6], [31.6, budget]):
        batch = BatchConcurrentContext(
            gains=[gains[None], gains[None]],
            coupling={(0, 1): coupling[None], (1, 0): coupling[None]},
            budgets=budgets,
            noise_mw=[1e-10, 1e-10],
        )
        with pytest.raises(ValueError, match="total_power"):
            allocate_concurrent(batch)
        with pytest.raises(ValueError, match="total_power"):
            allocate_concurrent_batch(batch)


@pytest.mark.parametrize("allocator", sorted(ALLOCATORS))
def test_zero_budget_gives_empty_streams(allocator):
    production, reference = ALLOCATORS[allocator]
    gains = np.full((52, 2), 1e-7)
    actual = allocate_single(gains, 0.0, noise_mw=1e-10, allocator=production)
    assert_same_streams(actual, _reference_allocate_single(gains, 0.0, None, 1e-10, reference))
    assert not actual.used.any() and all(a.mcs is None for a in actual.per_stream)
    context = ConcurrentContext(
        gains=[gains, gains],
        coupling=[np.full((52, 2), 1e-9)] * 2,
        budgets=[0.0, 31.6],
        noise_mw=[1e-10, 1e-10],
    )
    assert_same_concurrent(
        allocate_concurrent(context.batch(), allocator=production),
        _reference_allocate_concurrent(context, allocator=reference),
    )
