"""Coded BER and frame-error rate of 802.11's convolutional code.

802.11 uses the industry-standard rate-1/2, constraint-length-7
convolutional code (generators 133/171 octal), punctured to rates 2/3, 3/4
and 5/6.  Following the references the paper's methodology cites ([8],
[26]), we map an uncoded (channel) BER to a post-Viterbi BER with the
hard-decision union bound over each code's distance spectrum, then to a
frame error rate for an MPDU.

The distance spectra below are the published weight enumerators
(information-bit-weight coefficients ``B_d`` starting at each code's free
distance) for the 133/171 code and its standard 802.11 puncturing patterns.

The bound is evaluated as one stacked pass (:func:`_union_bound`) over
a term plan cached per tuple of spectra: one ``p**k`` and one ``q**j``
table, every ``(C(d,k)·p^k)·q^j`` term of every distance in one
broadcast, then each distance's terms and each rate's weighted
distances added one term position at a time.  The additions keep the order
of the per-distance formula, so a rate's result does not depend on the
other rates or distances evaluated with it.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, List, NamedTuple, Sequence, Tuple

import numpy as np

from scipy.special import comb

from .constants import MPDU_PAYLOAD_BYTES

__all__ = [
    "DISTANCE_SPECTRA",
    "pairwise_error_probability",
    "coded_ber",
    "coded_bers",
    "frame_error_rate",
    "mpdu_error_rate",
]

#: code rate → (free distance, information-bit weights B_d for d = dfree, …).
DISTANCE_SPECTRA: Dict[Tuple[int, int], Tuple[int, Tuple[int, ...]]] = {
    (1, 2): (10, (36, 0, 211, 0, 1404, 0, 11633, 0, 77433, 0)),
    (2, 3): (6, (3, 70, 285, 1276, 6160, 27128, 117019)),
    (3, 4): (5, (42, 201, 1492, 10469, 62935, 379644)),
    (5, 6): (4, (92, 528, 8694, 79453, 792114)),
}

#: code rate → its ``(distance, weight)`` pairs with a nonzero weight.
_SPECTRA = {
    code_rate: tuple((dfree + offset, weight) for offset, weight in enumerate(weights) if weight)
    for code_rate, (dfree, weights) in DISTANCE_SPECTRA.items()
}

#: Above this channel BER the union bound is meaningless; decoding has failed.
_UNION_BOUND_LIMIT = 0.08


def _as_batch(values) -> Tuple[np.ndarray, bool]:
    """Normalize to a ≥1-d float array; flag whether the input was scalar.

    NumPy's pow ufunc rounds the last ulp differently for 0-d operands
    than for arrays, so routing scalars through a 1-element array keeps
    scalar and batched evaluations bit-identical.
    """
    array = np.asarray(values, dtype=float)
    if array.ndim == 0:
        return array.reshape(1), True
    return array, False


class _TermPlan(NamedTuple):
    """Where each union-bound term and weighted distance sits in the stacked pass.

    Built once per tuple of spectra by :func:`_term_plan`.  Distances are
    ordered largest first, so the longest term lists come first, and
    term ``t`` is ``coefficients[t] * p**k[t] * q**j[t]``.  Terms are
    stored position by position: ``term_blocks[i]`` is ``(start, stop,
    m)``, the slice holding the ``i``-th term of the first ``m``
    distances, the ones that have one.  Rates are ordered longest
    spectrum first and their weighted distances stored the same way
    (``weights``, ``distance_rows``, ``weight_blocks``); ``rate_rows[r]``
    is where the caller's rate ``r`` lands.  The exponent columns list
    every ``k`` and ``j`` from 0.
    """

    p_exponents: np.ndarray
    q_exponents: np.ndarray
    coefficients: np.ndarray
    k: np.ndarray
    j: np.ndarray
    term_blocks: Tuple[Tuple[int, int, int], ...]
    weights: np.ndarray
    distance_rows: np.ndarray
    weight_blocks: Tuple[Tuple[int, int, int], ...]
    rate_rows: np.ndarray


def _position_major(lists: Sequence[Sequence]) -> Tuple[list, Tuple[Tuple[int, int, int], ...]]:
    """The items of ``lists`` (longest first) position by position, and each position's slice.

    Position ``i`` holds the ``i``-th item of every list longer than
    ``i``; those are the first ``m`` lists, stored at ``start:stop``.
    """
    items, blocks = [], []
    for i in range(len(lists[0])):
        column = [items_of[i] for items_of in lists if i < len(items_of)]
        blocks.append((len(items), len(items) + len(column), len(column)))
        items.extend(column)
    return items, tuple(blocks)


@lru_cache(maxsize=None)
def _term_plan(spectra: Tuple[Tuple[Tuple[int, int], ...], ...]) -> _TermPlan:
    """The plan for ``spectra``: per rate, its ``(distance, weight)`` pairs.

    Each distance's terms are listed as the per-distance formula sums
    them, k ascending from ``ceil(d/2)`` to d; for even d the first is the
    tie term, whose coefficient is ``0.5 * C(d, d/2)``.
    """
    distances = sorted({distance for spectrum in spectra for distance, _ in spectrum}, reverse=True)
    terms, term_blocks = _position_major(
        [
            [
                ((0.5 if 2 * k == distance else 1.0) * comb(distance, k), k, distance - k)
                for k in range((distance + 1) // 2, distance + 1)
            ]
            for distance in distances
        ]
    )
    order = sorted(range(len(spectra)), key=lambda r: -len(spectra[r]))
    weighted, weight_blocks = _position_major(
        [[(weight, distances.index(distance)) for distance, weight in spectra[r]] for r in order]
    )
    coefficients, k, j = zip(*terms)
    weights, distance_rows = zip(*weighted)
    return _TermPlan(
        p_exponents=np.arange(max(k) + 1)[:, None],
        q_exponents=np.arange(max(j) + 1)[:, None],
        coefficients=np.array(coefficients)[:, None],
        k=np.array(k),
        j=np.array(j),
        term_blocks=term_blocks,
        weights=np.array(weights, dtype=float)[:, None],
        distance_rows=np.array(distance_rows),
        weight_blocks=weight_blocks,
        rate_rows=np.argsort(order),
    )


def _powers(base: np.ndarray, exponents: np.ndarray) -> np.ndarray:
    """``base**e`` for each e of the ``(n, 1)`` exponent column 0, 1, …, one row each.

    ``base**2`` is ``np.square(base)``, which a broadcast power does not
    reproduce to the last ulp on short inputs, so that row is squared.
    """
    table = np.power(base, exponents)
    if len(exponents) > 2:
        table[2] = np.square(base)
    return table


def _union_bound(p: np.ndarray, plan: _TermPlan) -> Tuple[np.ndarray, np.ndarray]:
    """Pairwise error probability of each distance and bound of each rate.

    ``p`` is 1-D and already in the clip range [0, 0.5] (NaN passes
    through).  Returns the ``(n_distances, n)`` probabilities in the
    plan's distance order, each clipped to [0, 1], and the ``(n_rates,
    n)`` unclipped bounds in the caller's rate order.  Every term keeps
    the association ``(C(d,k) * p**k) * q**(d-k)``, and every sum runs
    from ``+0.0`` in term order, one term position at a time, so each
    result is bit-identical to evaluating the per-distance formula
    alone; a reduction over the term axis would group the additions
    differently.
    """
    terms = plan.coefficients * _powers(p, plan.p_exponents)[plan.k]
    terms *= _powers(1.0 - p, plan.q_exponents)[plan.j]
    total = np.zeros((plan.term_blocks[0][2], p.size))
    for start, stop, m in plan.term_blocks:
        total[:m] += terms[start:stop]
    probabilities = np.clip(total, 0.0, 1.0)
    weighted = plan.weights * probabilities[plan.distance_rows]
    bounds = np.zeros((plan.weight_blocks[0][2], p.size))
    for start, stop, m in plan.weight_blocks:
        bounds[:m] += weighted[start:stop]
    return probabilities, bounds[plan.rate_rows]


def pairwise_error_probability(channel_ber, distance: int) -> np.ndarray:
    """Probability that a weight-``distance`` error event beats the decoder.

    Hard-decision Viterbi over a binary symmetric channel with crossover
    probability ``channel_ber`` (clipped to [0, 0.5]):

    * odd d:   P_d = Σ_{k=(d+1)/2}^{d} C(d,k) p^k (1−p)^{d−k}
    * even d:  the k = d/2 term counts half (ties broken by a fair coin).

    One distance of the stacked union-bound pass.
    """
    p, scalar = _as_batch(channel_ber)
    p = np.clip(p, 0.0, 0.5)
    probabilities, _ = _union_bound(p.ravel(), _term_plan((((distance, 1),),)))
    total = probabilities[0].reshape(p.shape)
    return total[0] if scalar else total


def coded_ber(channel_ber, code_rate: Tuple[int, int]) -> np.ndarray:
    """Post-Viterbi BER via the union bound over the distance spectrum.

    ``channel_ber`` is the (possibly subcarrier-averaged — the interleaver
    justifies the averaging) uncoded BER seen by the decoder.  Beyond the
    union bound's validity region the result saturates at 0.5, modelling a
    decoder in free fall.  One rate of :func:`coded_bers`.
    """
    (out,) = coded_bers(channel_ber, (code_rate,))
    return out


def coded_bers(channel_ber, code_rates: Sequence[Tuple[int, int]]) -> List[np.ndarray]:
    """:func:`coded_ber` of one channel BER under each of ``code_rates``.

    Two regions are exact constants and skip the bound entirely: p ≥
    ``_UNION_BOUND_LIMIT`` (+inf included) gives 0.5, and p ≤ 0 (−0.0 and
    −inf included) gives 0.0, because every term of every distance is
    then zero.  The remaining elements, NaN included, are gathered once
    into one contiguous array, and one stacked pass (:func:`_union_bound`)
    computes every term of every distance the rates need, each distance's
    pairwise probability and each rate's weighted sum.  Every result is
    bit-identical to summing ``weight * pairwise_error_probability(p, d)``
    over that rate's spectrum, then saturating and clipping to [0, 0.5].
    """
    for code_rate in code_rates:
        if code_rate not in _SPECTRA:
            raise ValueError(f"unknown code rate {code_rate!r}")
    if not code_rates:
        return []
    p, scalar = _as_batch(channel_ber)
    saturated = p >= _UNION_BOUND_LIMIT
    out = np.repeat(np.where(saturated, 0.5, 0.0)[None], len(code_rates), axis=0)
    pending = ~(saturated | (p <= 0.0))
    if pending.any():
        # Pending values lie in (0, limit) or are NaN, inside the clip range.
        plan = _term_plan(tuple(_SPECTRA[code_rate] for code_rate in code_rates))
        _, bounds = _union_bound(p[pending], plan)
        out[:, pending] = np.clip(bounds, 0.0, 0.5)
    return [row[0] if scalar else row for row in out]


def frame_error_rate(post_viterbi_ber, n_payload_bits: int) -> np.ndarray:
    """Probability at least one of ``n_payload_bits`` decodes wrongly.

    Computed in log space so tiny BERs don't underflow to FER = 0 for the
    wrong reason.
    """
    ber, scalar = _as_batch(post_viterbi_ber)
    ber = np.clip(ber, 0.0, 0.5)
    with np.errstate(divide="ignore"):
        log_ok = n_payload_bits * np.log1p(-ber)
    fer = -np.expm1(log_ok)
    return fer[0] if scalar else fer


def mpdu_error_rate(channel_ber, code_rate: Tuple[int, int], payload_bytes: int = MPDU_PAYLOAD_BYTES) -> np.ndarray:
    """FER of one MPDU given the channel BER and code rate."""
    return frame_error_rate(coded_ber(channel_ber, code_rate), payload_bytes * 8)
