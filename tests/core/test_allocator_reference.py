"""Per-row Equi-SNR and Figure-6 entry points against the per-row reference.

``equalizing_powers``, ``allocate``, ``radiated_powers``,
``allocate_single`` and ``allocate_concurrent`` are one-row calls of
their batched forms.  The references below are the per-row functions as
first written, copied verbatim, less the ``stream_split`` and
``on_iteration`` knobs, and with each call to another per-row function
pointed at that function's reference.  Goldens, fingerprint pins and
engine digests cannot see these entry points, because the engine runs
the batched forms; these tests are what pins them.  Every field must
match byte for byte, on seeded inputs and on the edge cases a stream can
hit: all-zero gains, gains at or below ``MIN_GAIN``, a single usable
subcarrier, a flat channel, one to three streams, zero budgets, and
Figure-6 runs that converge, stall at the iteration cap or never
converge.

The one exemption is a budget that is not finite and positive: the
references accept NaN and infinite budgets (returning "no MCS" or
infinite powers), and the allocators now reject them, as
``test_allocators_reject_bad_budgets`` checks.
"""

from dataclasses import fields, replace
from typing import Callable, List, Optional, Sequence

import numpy as np
import pytest

from repro.core import equi_snr
from repro.core.equi_sinr import (
    ConcurrentAllocation,
    ConcurrentContext,
    StreamAllocation,
    allocate_concurrent,
    allocate_single,
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
from repro.phy.constants import MCS_TABLE, MPDU_PAYLOAD_BYTES, Mcs

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
    assert len(actual.allocations) == len(expected.allocations) == 2
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
    actual = allocate_concurrent(context, max_iterations, tolerance, production, collectors[0])
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

