"""802.11's convolutional code: encoder, puncturing, hard Viterbi decoder.

The industry-standard K=7 code with generators 133/171 (octal), punctured
to rates 2/3, 3/4 and 5/6 with the 802.11 puncturing patterns.  This is
the signal-level counterpart of the analytic union bound in
:mod:`repro.phy.coding`; the test suite Monte-Carlo-checks one against the
other.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Tuple

import numpy as np

__all__ = [
    "CONSTRAINT_LENGTH",
    "GENERATORS",
    "PUNCTURING_PATTERNS",
    "encode",
    "puncture",
    "depuncture",
    "depuncture_soft",
    "viterbi_decode",
    "viterbi_decode_soft",
    "code_through_channel",
]

CONSTRAINT_LENGTH = 7
#: Generator polynomials, octal 133 and 171.
GENERATORS = (0o133, 0o171)
_N_STATES = 2 ** (CONSTRAINT_LENGTH - 1)

#: 802.11 puncturing patterns: per code rate, a (keep_a, keep_b) bit pattern
#: applied cyclically to the two encoder output streams.
PUNCTURING_PATTERNS = {
    (1, 2): ((1,), (1,)),
    (2, 3): ((1, 1), (1, 0)),
    (3, 4): ((1, 1, 0), (1, 0, 1)),
    (5, 6): ((1, 1, 0, 1, 0), (1, 0, 1, 0, 1)),
}

#: Depunctured positions carry this value: an erasure the decoder ignores.
ERASURE = -1


def _parity(value: np.ndarray) -> np.ndarray:
    value = value.copy()
    for shift in (16, 8, 4, 2, 1):
        value ^= value >> shift
    return value & 1


@lru_cache(maxsize=1)
def _trellis() -> Tuple[np.ndarray, np.ndarray]:
    """(next_state, outputs): arrays indexed [state, input_bit].

    ``outputs[s, b]`` packs the two coded bits as out_a * 2 + out_b.
    State is the most-recent-first shift register of the last 6 input bits.
    """
    states = np.arange(_N_STATES)
    next_state = np.empty((_N_STATES, 2), dtype=np.int64)
    outputs = np.empty((_N_STATES, 2), dtype=np.int64)
    for bit in (0, 1):
        register = (bit << (CONSTRAINT_LENGTH - 1)) | states
        out_a = _parity(register & GENERATORS[0])
        out_b = _parity(register & GENERATORS[1])
        next_state[:, bit] = register >> 1
        outputs[:, bit] = out_a * 2 + out_b
    return next_state, outputs


@lru_cache(maxsize=1)
def _acs_tables() -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Predecessor (butterfly) tables for the add-compare-select kernel.

    With the most-recent-first shift register, state ``n`` has exactly two
    trellis predecessors ``p_j = 2 * (n mod 32) + j`` for ``j in {0, 1}``,
    both reached by input bit ``n >> 5`` (the bit that became the new MSB).
    Returns

    * ``prev`` — (64, 2) predecessor state indices,
    * ``prev_out`` — (64, 2) packed coded output (a * 2 + b) emitted on
      the transition ``p_j -> n``,
    * ``state_bit`` — (64,) the input bit that leads *into* each state,
      which during traceback is the decoded bit.
    """
    _, outputs = _trellis()
    states = np.arange(_N_STATES)
    state_bit = states >> (CONSTRAINT_LENGTH - 2)
    base = (states & (_N_STATES // 2 - 1)) << 1
    prev = np.stack([base, base + 1], axis=1)
    prev_out = outputs[prev, state_bit[:, None]]
    return prev, prev_out, state_bit


def _acs_forward(
    branch: np.ndarray,
    metrics: np.ndarray,
    maximize: bool,
    ceiling=None,
) -> Tuple[np.ndarray, np.ndarray]:
    """Run the whole trellis through one table-driven ACS kernel.

    ``branch`` is an (n_steps, 4) table of per-step branch metrics indexed
    by packed coded output; ``metrics`` the initial path metrics (consumed).
    Returns ``(final_metrics, back)`` where ``back[t, n]`` is the surviving
    predecessor of state ``n`` after step ``t``.

    Semantics match the reference per-step implementation bit for bit:
    ties select the lower-indexed predecessor, and states whose
    predecessors are all unreached stay pinned at the sentinel (``ceiling``
    clamps the hard decoder's integer infinity; the soft decoder's −inf
    propagates by itself).
    """
    prev, prev_out, _ = _acs_tables()
    n_steps = branch.shape[0]
    step_branch = branch[:, prev_out]  # (n_steps, 64, 2), one gather up front
    back = np.empty((n_steps, _N_STATES), dtype=np.int8)
    prev0 = prev[:, 0].astype(np.int8)
    for t in range(n_steps):
        cand = metrics[prev]
        cand += step_branch[t]
        c0, c1 = cand[:, 0], cand[:, 1]
        take1 = c1 > c0 if maximize else c1 < c0
        metrics = np.where(take1, c1, c0)
        if ceiling is not None:
            np.minimum(metrics, ceiling, out=metrics)
        back[t] = prev0 + take1
    return metrics, back


def _traceback(back: np.ndarray, final_state: int) -> np.ndarray:
    """Walk the survivor pointers; the decoded bit is each state's MSB."""
    _, _, state_bit = _acs_tables()
    n_steps = back.shape[0]
    decoded = np.empty(n_steps, dtype=np.int8)
    state = final_state
    for t in range(n_steps - 1, -1, -1):
        decoded[t] = state_bit[state]
        state = int(back[t, state])
    return decoded


#: Packed coded outputs in table order: column ``o`` of a branch table is
#: the metric of emitting the pair ``(o >> 1, o & 1)``.
_OUT_A = np.array([0, 0, 1, 1], dtype=np.int64)
_OUT_B = np.array([0, 1, 0, 1], dtype=np.int64)


def _hard_branch_table(received: np.ndarray) -> np.ndarray:
    """(n_steps, 4) Hamming branch metrics; erasures contribute nothing."""
    pairs = received.reshape(-1, 2).astype(np.int64)
    rx_a, rx_b = pairs[:, :1], pairs[:, 1:]
    branch = ((rx_a != ERASURE) & (_OUT_A[None, :] != rx_a)).astype(np.int64)
    branch += (rx_b != ERASURE) & (_OUT_B[None, :] != rx_b)
    return branch


def _soft_branch_table(llrs: np.ndarray) -> np.ndarray:
    """(n_steps, 4) correlation branch metrics: +L for coded 0, −L for 1."""
    pairs = llrs.reshape(-1, 2)
    sign_a = 1.0 - 2.0 * _OUT_A
    sign_b = 1.0 - 2.0 * _OUT_B
    return sign_a[None, :] * pairs[:, :1] + sign_b[None, :] * pairs[:, 1:]


def encode(bits) -> np.ndarray:
    """Rate-1/2 mother-code output, interleaved (a0, b0, a1, b1, ...).

    The encoder starts in the all-zero state; callers append tail bits
    themselves if they want trellis termination.
    """
    bits = np.asarray(bits, dtype=np.int64).ravel()
    next_state, outputs = _trellis()
    coded = np.empty(2 * bits.size, dtype=np.int8)
    state = 0
    for i, bit in enumerate(bits):
        packed = outputs[state, bit]
        coded[2 * i] = packed >> 1
        coded[2 * i + 1] = packed & 1
        state = next_state[state, bit]
    return coded


def _pattern_mask(code_rate: Tuple[int, int], n_pairs: int) -> np.ndarray:
    keep_a, keep_b = PUNCTURING_PATTERNS[code_rate]
    period = len(keep_a)
    mask = np.empty(2 * n_pairs, dtype=bool)
    idx = np.arange(n_pairs) % period
    mask[0::2] = np.asarray(keep_a, dtype=bool)[idx]
    mask[1::2] = np.asarray(keep_b, dtype=bool)[idx]
    return mask


def puncture(coded, code_rate: Tuple[int, int]) -> np.ndarray:
    """Drop coded bits per the 802.11 pattern for ``code_rate``."""
    coded = np.asarray(coded).ravel()
    if coded.size % 2:
        raise ValueError("coded stream must contain whole (a, b) pairs")
    if code_rate not in PUNCTURING_PATTERNS:
        raise ValueError(f"unknown code rate {code_rate!r}")
    return coded[_pattern_mask(code_rate, coded.size // 2)]


def depuncture(received, code_rate: Tuple[int, int], n_info_bits: int) -> np.ndarray:
    """Re-insert erasures where bits were punctured.

    Returns a length 2 × n_info_bits array of {0, 1, ERASURE}.
    """
    received = np.asarray(received, dtype=np.int8).ravel()
    mask = _pattern_mask(code_rate, n_info_bits)
    if received.size != int(mask.sum()):
        raise ValueError(
            f"expected {int(mask.sum())} received bits for {n_info_bits} info bits, got {received.size}"
        )
    full = np.full(2 * n_info_bits, ERASURE, dtype=np.int8)
    full[mask] = received
    return full


def viterbi_decode(received, code_rate: Tuple[int, int] = (1, 2), n_info_bits: int = None) -> np.ndarray:
    """Hard-decision Viterbi decoding with erasure support.

    ``received`` is the punctured hard-bit stream for rates ≠ 1/2 (it is
    depunctured internally), or the full (a, b) stream for rate 1/2 —
    values of :data:`ERASURE` are skipped in the branch metric either way.
    The decoder assumes the encoder started in state 0 and traces back
    from the best final state.
    """
    received = np.asarray(received, dtype=np.int8).ravel()
    if code_rate != (1, 2) or n_info_bits is not None:
        if n_info_bits is None:
            num, den = code_rate
            if (received.size * num) % den:
                raise ValueError("received length inconsistent with code rate")
            n_info_bits = received.size * num // den
        received = depuncture(received, code_rate, n_info_bits)
    if received.size % 2:
        raise ValueError("depunctured stream must contain whole (a, b) pairs")
    infinity = np.int64(1) << 40
    metrics = np.full(_N_STATES, infinity, dtype=np.int64)
    metrics[0] = 0
    metrics, back = _acs_forward(
        _hard_branch_table(received), metrics, maximize=False, ceiling=infinity
    )
    return _traceback(back, int(np.argmin(metrics)))


def _reference_viterbi_decode(
    received, code_rate: Tuple[int, int] = (1, 2), n_info_bits: int = None
) -> np.ndarray:
    """The original per-step hard decoder, retained as the equivalence
    baseline for the table-driven ACS kernel (see
    ``tests/phy/test_phy_vectorization.py``)."""
    received = np.asarray(received, dtype=np.int8).ravel()
    if code_rate != (1, 2) or n_info_bits is not None:
        if n_info_bits is None:
            num, den = code_rate
            if (received.size * num) % den:
                raise ValueError("received length inconsistent with code rate")
            n_info_bits = received.size * num // den
        received = depuncture(received, code_rate, n_info_bits)
    if received.size % 2:
        raise ValueError("depunctured stream must contain whole (a, b) pairs")
    n_steps = received.size // 2

    next_state, outputs = _trellis()
    out_a = (outputs >> 1).astype(np.int8)
    out_b = (outputs & 1).astype(np.int8)

    infinity = np.int64(1) << 40
    metrics = np.full(_N_STATES, infinity, dtype=np.int64)
    metrics[0] = 0
    history = np.empty((n_steps, _N_STATES), dtype=np.int8)
    back = np.empty((n_steps, _N_STATES), dtype=np.int64)

    for t in range(n_steps):
        rx_a, rx_b = received[2 * t], received[2 * t + 1]
        branch = np.zeros((_N_STATES, 2), dtype=np.int64)
        if rx_a != ERASURE:
            branch += out_a != rx_a
        if rx_b != ERASURE:
            branch += out_b != rx_b
        candidate = metrics[:, None] + branch  # [state, bit]
        new_metrics = np.full(_N_STATES, infinity, dtype=np.int64)
        chosen_bit = np.zeros(_N_STATES, dtype=np.int8)
        chosen_prev = np.zeros(_N_STATES, dtype=np.int64)
        for bit in (0, 1):
            targets = next_state[:, bit]
            cand = candidate[:, bit]
            order = np.argsort(cand, kind="stable")
            sorted_targets = targets[order]
            first = np.full(_N_STATES, -1, dtype=np.int64)
            # keep the best (smallest-metric) predecessor per target state
            seen_positions = np.unique(sorted_targets, return_index=True)[1]
            first[np.unique(sorted_targets)] = order[seen_positions]
            valid = first >= 0
            better = np.zeros(_N_STATES, dtype=bool)
            better[valid] = cand[first[valid]] < new_metrics[valid]
            new_metrics[better] = cand[first[better]]
            chosen_bit[better] = bit
            chosen_prev[better] = first[better]
        history[t] = chosen_bit
        back[t] = chosen_prev
        metrics = new_metrics

    decoded = np.empty(n_steps, dtype=np.int8)
    state = int(np.argmin(metrics))
    for t in range(n_steps - 1, -1, -1):
        decoded[t] = history[t, state]
        state = int(back[t, state])
    return decoded


def code_through_channel(
    bits,
    code_rate: Tuple[int, int],
    flip_probability: float,
    rng: np.random.Generator,
) -> np.ndarray:
    """Encode → puncture → BSC(p) → decode; returns the decoded bits.

    A convenience wrapper used by the Monte-Carlo validation tests.
    """
    bits = np.asarray(bits, dtype=np.int8).ravel()
    coded = puncture(encode(bits), code_rate)
    flips = rng.uniform(size=coded.size) < flip_probability
    received = (coded ^ flips).astype(np.int8)
    return viterbi_decode(received, code_rate, n_info_bits=bits.size)


def depuncture_soft(llrs, code_rate: Tuple[int, int], n_info_bits: int) -> np.ndarray:
    """Re-insert zero-LLR erasures where bits were punctured (soft path)."""
    llrs = np.asarray(llrs, dtype=float).ravel()
    mask = _pattern_mask(code_rate, n_info_bits)
    if llrs.size != int(mask.sum()):
        raise ValueError(
            f"expected {int(mask.sum())} LLRs for {n_info_bits} info bits, got {llrs.size}"
        )
    full = np.zeros(2 * n_info_bits, dtype=float)
    full[mask] = llrs
    return full


def viterbi_decode_soft(
    llrs,
    code_rate: Tuple[int, int] = (1, 2),
    n_info_bits: int = None,
) -> np.ndarray:
    """Soft-decision Viterbi decoding from per-bit LLRs.

    ``llrs`` follow the :mod:`repro.phy.llr` convention (positive favours
    bit 0).  The path metric maximizes the correlation
    ``Σ (1 − 2·c_t)·L_t`` between the candidate codeword and the LLRs;
    punctured positions contribute nothing (zero LLR).  Worth roughly 2 dB
    over hard decisions on AWGN — the margin the test suite verifies.
    """
    llrs = np.asarray(llrs, dtype=float).ravel()
    if code_rate != (1, 2) or n_info_bits is not None:
        if n_info_bits is None:
            num, den = code_rate
            if (llrs.size * num) % den:
                raise ValueError("LLR length inconsistent with code rate")
            n_info_bits = llrs.size * num // den
        llrs = depuncture_soft(llrs, code_rate, n_info_bits)
    if llrs.size % 2:
        raise ValueError("depunctured LLR stream must contain whole (a, b) pairs")
    metrics = np.full(_N_STATES, -np.inf)
    metrics[0] = 0.0
    metrics, back = _acs_forward(_soft_branch_table(llrs), metrics, maximize=True)
    return _traceback(back, int(np.argmax(metrics)))


def _reference_viterbi_decode_soft(
    llrs, code_rate: Tuple[int, int] = (1, 2), n_info_bits: int = None
) -> np.ndarray:
    """The original per-step soft decoder, retained as the equivalence
    baseline for the table-driven ACS kernel."""
    llrs = np.asarray(llrs, dtype=float).ravel()
    if code_rate != (1, 2) or n_info_bits is not None:
        if n_info_bits is None:
            num, den = code_rate
            if (llrs.size * num) % den:
                raise ValueError("LLR length inconsistent with code rate")
            n_info_bits = llrs.size * num // den
        llrs = depuncture_soft(llrs, code_rate, n_info_bits)
    if llrs.size % 2:
        raise ValueError("depunctured LLR stream must contain whole (a, b) pairs")
    n_steps = llrs.size // 2

    next_state, outputs = _trellis()
    # Branch correlation per output bit: +L for coded 0, −L for coded 1.
    sign_a = 1.0 - 2.0 * (outputs >> 1)
    sign_b = 1.0 - 2.0 * (outputs & 1)

    metrics = np.full(_N_STATES, -np.inf)
    metrics[0] = 0.0
    history = np.empty((n_steps, _N_STATES), dtype=np.int8)
    back = np.empty((n_steps, _N_STATES), dtype=np.int64)

    for t in range(n_steps):
        l_a, l_b = llrs[2 * t], llrs[2 * t + 1]
        branch = sign_a * l_a + sign_b * l_b  # [state, bit]
        candidate = metrics[:, None] + branch
        new_metrics = np.full(_N_STATES, -np.inf)
        chosen_bit = np.zeros(_N_STATES, dtype=np.int8)
        chosen_prev = np.zeros(_N_STATES, dtype=np.int64)
        for bit in (0, 1):
            targets = next_state[:, bit]
            cand = candidate[:, bit]
            order = np.argsort(-cand, kind="stable")
            sorted_targets = targets[order]
            first = np.full(_N_STATES, -1, dtype=np.int64)
            unique_targets, positions = np.unique(sorted_targets, return_index=True)
            first[unique_targets] = order[positions]
            valid = first >= 0
            better = np.zeros(_N_STATES, dtype=bool)
            better[valid] = cand[first[valid]] > new_metrics[valid]
            new_metrics[better] = cand[first[better]]
            chosen_bit[better] = bit
            chosen_prev[better] = first[better]
        history[t] = chosen_bit
        back[t] = chosen_prev
        metrics = new_metrics

    decoded = np.empty(n_steps, dtype=np.int8)
    state = int(np.argmax(metrics))
    for t in range(n_steps - 1, -1, -1):
        decoded[t] = history[t, state]
        state = int(back[t, state])
    return decoded
