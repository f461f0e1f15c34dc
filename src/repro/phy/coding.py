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
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

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

#: Above this channel BER the union bound is meaningless; decoding has failed.
_UNION_BOUND_LIMIT = 0.08

#: Binomial coefficients C(d, k) as float64, precomputed once so the hot
#: union-bound loops never re-enter scipy.  Entries are the exact floats
#: ``scipy.special.comb`` returns.
_COMB_LIMIT = 64
_COMB_TABLE = comb(
    np.arange(_COMB_LIMIT + 1)[:, None], np.arange(_COMB_LIMIT + 1)[None, :]
)


def _comb(d: int, k: int) -> float:
    if d <= _COMB_LIMIT:
        return _COMB_TABLE[d, k]
    return comb(d, k)


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


def _pairwise_error_probabilities(p: np.ndarray, distances: Sequence[int]) -> List[np.ndarray]:
    """``pairwise_error_probability`` of each distance, from one power table.

    ``p`` must already lie in the clip range [0, 0.5] (NaN passes through).
    Each ``p**k`` and ``q**j`` the distances need is computed once, with
    the same expression the per-distance formula uses, and shared by every
    distance.  Each term keeps its association ``(C(d,k) * p**k) *
    q**(d-k)``, the even-d tie term keeps its ``0.5 * C(d, d/2)`` prefix,
    and terms are summed in increasing k after the tie term, starting
    from zeros, so every distance's result is bit-identical to
    evaluating the formula alone.
    """
    q = 1.0 - p
    p_powers = {k: p**k for k in range((min(distances) + 1) // 2, max(distances) + 1)}
    q_powers = [q**j for j in range(max(distances) // 2 + 1)]
    probabilities = []
    for distance in distances:
        total = np.zeros_like(p)
        if distance % 2:
            start = (distance + 1) // 2
        else:
            start = distance // 2 + 1
            half = distance // 2
            total = total + 0.5 * _comb(distance, half) * p_powers[half] * q_powers[distance - half]
        for k in range(start, distance + 1):
            total = total + _comb(distance, k) * p_powers[k] * q_powers[distance - k]
        probabilities.append(np.clip(total, 0.0, 1.0))
    return probabilities


def pairwise_error_probability(channel_ber, distance: int) -> np.ndarray:
    """Probability that a weight-``distance`` error event beats the decoder.

    Hard-decision Viterbi over a binary symmetric channel with crossover
    probability ``channel_ber`` (clipped to [0, 0.5]):

    * odd d:   P_d = Σ_{k=(d+1)/2}^{d} C(d,k) p^k (1−p)^{d−k}
    * even d:  the k = d/2 term counts half (ties broken by a fair coin).
    """
    p, scalar = _as_batch(channel_ber)
    (total,) = _pairwise_error_probabilities(np.clip(p, 0.0, 0.5), (distance,))
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
    into one contiguous array.  One power table serves the union of the
    rates' distances, and each distance's pairwise probability is
    computed once.  Each rate then sums its own weighted terms in
    spectrum order, so every result is bit-identical to summing
    ``weight * pairwise_error_probability(p, d)`` over that rate's
    spectrum, then saturating and clipping to [0, 0.5].
    """
    spectra = []
    for code_rate in code_rates:
        if code_rate not in DISTANCE_SPECTRA:
            raise ValueError(f"unknown code rate {code_rate!r}")
        dfree, weights = DISTANCE_SPECTRA[code_rate]
        spectra.append([(dfree + offset, weight) for offset, weight in enumerate(weights) if weight])
    p, scalar = _as_batch(channel_ber)
    saturated = p >= _UNION_BOUND_LIMIT
    outs = [np.where(saturated, 0.5, 0.0) for _ in spectra]
    pending = ~(saturated | (p <= 0.0))
    if spectra and pending.any():
        # Pending values lie in (0, limit) or are NaN, inside the clip range.
        live = p[pending]
        distances = sorted({distance for terms in spectra for distance, _ in terms})
        probabilities = dict(zip(distances, _pairwise_error_probabilities(live, distances)))
        for out, terms in zip(outs, spectra):
            bound = np.zeros_like(live)
            for distance, weight in terms:
                bound = bound + weight * probabilities[distance]
            out[pending] = np.clip(bound, 0.0, 0.5)
    return [out[0] if scalar else out for out in outs]


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
