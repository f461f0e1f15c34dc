"""Convolutional-code union bound and frame error rates."""

from itertools import combinations

import numpy as np
import pytest
from scipy.special import comb

from repro.phy.coding import (
    _UNION_BOUND_LIMIT,
    DISTANCE_SPECTRA,
    _as_batch,
    coded_ber,
    coded_bers,
    frame_error_rate,
    mpdu_error_rate,
    pairwise_error_probability,
)


class TestPairwiseErrorProbability:
    def test_zero_channel_ber(self):
        assert pairwise_error_probability(0.0, 10) == pytest.approx(0.0)

    def test_half_channel_ber_odd(self):
        # With p = 0.5 every coded bit is a coin flip: P_d = 0.5 for odd d.
        assert pairwise_error_probability(0.5, 5) == pytest.approx(0.5)

    def test_half_channel_ber_even_with_tie(self):
        assert pairwise_error_probability(0.5, 4) == pytest.approx(0.5)

    def test_monotone_in_p(self):
        ps = np.linspace(0.0, 0.5, 30)
        out = pairwise_error_probability(ps, 6)
        assert np.all(np.diff(out) >= -1e-15)

    def test_larger_distance_is_safer(self):
        p = 0.02
        assert pairwise_error_probability(p, 12) < pairwise_error_probability(p, 6)

    def test_d1_equals_p(self):
        # Distance 1: one bad bit loses the comparison outright.
        assert pairwise_error_probability(0.07, 1) == pytest.approx(0.07)


class TestDistanceSpectra:
    def test_all_80211_rates_present(self):
        assert set(DISTANCE_SPECTRA) == {(1, 2), (2, 3), (3, 4), (5, 6)}

    def test_free_distances(self):
        # Published free distances of the punctured 133/171 code.
        assert DISTANCE_SPECTRA[(1, 2)][0] == 10
        assert DISTANCE_SPECTRA[(2, 3)][0] == 6
        assert DISTANCE_SPECTRA[(3, 4)][0] == 5
        assert DISTANCE_SPECTRA[(5, 6)][0] == 4


class TestCodedBer:
    def test_stronger_code_wins(self):
        """At equal channel BER, lower-rate codes decode better."""
        p = 0.02
        bers = [float(coded_ber(p, rate)) for rate in [(1, 2), (2, 3), (3, 4), (5, 6)]]
        assert bers == sorted(bers)

    def test_coding_gain_exists(self):
        # At a moderate channel BER the decoder output is far cleaner.
        assert coded_ber(0.005, (1, 2)) < 0.005 / 100

    def test_saturates_at_half(self):
        assert coded_ber(0.3, (1, 2)) == pytest.approx(0.5)

    def test_monotone(self):
        ps = np.linspace(1e-5, 0.07, 40)
        out = coded_ber(ps, (3, 4))
        assert np.all(np.diff(out) >= -1e-18)

    def test_clean_channel(self):
        assert coded_ber(0.0, (5, 6)) == pytest.approx(0.0)

    def test_unknown_rate_raises(self):
        with pytest.raises(ValueError):
            coded_ber(0.01, (7, 8))


class TestFrameErrorRate:
    def test_zero_ber_zero_fer(self):
        assert frame_error_rate(0.0, 12000) == pytest.approx(0.0)

    def test_matches_direct_formula(self):
        ber, n = 1e-4, 1000
        assert frame_error_rate(ber, n) == pytest.approx(1 - (1 - ber) ** n, rel=1e-9)

    def test_tiny_ber_no_underflow(self):
        # 1e-12 over 12 kbit ≈ 1.2e-8, must not round to zero.
        fer = frame_error_rate(1e-12, 12000)
        assert fer == pytest.approx(1.2e-8, rel=0.01)

    def test_long_frames_fail_more(self):
        assert frame_error_rate(1e-5, 100_000) > frame_error_rate(1e-5, 1_000)

    def test_mpdu_default_payload(self):
        assert mpdu_error_rate(0.0, (1, 2)) == pytest.approx(0.0)
        assert mpdu_error_rate(0.2, (1, 2)) == pytest.approx(1.0)


class TestViterbiMonteCarloValidation:
    """The union bound must track the real Viterbi decoder's performance."""

    @pytest.mark.parametrize(
        "code_rate,p",
        [((1, 2), 0.050), ((3, 4), 0.020)],
    )
    def test_bound_brackets_simulation(self, code_rate, p):
        from repro.phy.viterbi import code_through_channel

        rng = np.random.default_rng(7)
        n_bits = 60_000
        num, den = code_rate
        n_bits -= n_bits % num
        bits = rng.integers(0, 2, n_bits).astype(np.int8)
        decoded = code_through_channel(bits, code_rate, p, rng)
        simulated = float(np.mean(bits != decoded))
        # The channel BER is chosen high enough that errors actually occur,
        # so both sides of the bracket are meaningful.
        assert simulated > 0
        bound = float(coded_ber(p, code_rate))
        # A union bound over-counts error events, so it sits above the
        # simulation — but within a couple of orders of magnitude at these
        # operating points (it is what drives MCS selection).
        assert simulated <= bound * 3.0
        assert bound <= simulated * 300.0


class TestScalarArrayBitIdentity:
    """Scalar and array evaluations must share one ufunc code path.

    NumPy's pow ufunc rounds the last ulp differently for 0-d operands
    than for arrays; the coding kernels normalize scalars to 1-element
    arrays so the batched engine stays bit-identical to the serial one.
    All comparisons here are exact (``==``), not approximate.
    """

    PS = np.geomspace(1e-9, 0.45, 17)

    def test_pairwise_scalar_equals_array_row(self):
        for distance in (4, 5, 6, 10):
            array = pairwise_error_probability(self.PS, distance)
            for p, row in zip(self.PS, array):
                assert pairwise_error_probability(float(p), distance) == row

    @pytest.mark.parametrize("code_rate", sorted(DISTANCE_SPECTRA))
    def test_coded_ber_scalar_equals_array_row(self, code_rate):
        array = coded_ber(self.PS, code_rate)
        for p, row in zip(self.PS, array):
            assert coded_ber(float(p), code_rate) == row

    def test_frame_error_rate_scalar_equals_array_row(self):
        array = frame_error_rate(self.PS, 12000)
        for p, row in zip(self.PS, array):
            assert frame_error_rate(float(p), 12000) == row

    def test_scalar_inputs_still_return_scalars(self):
        assert np.ndim(coded_ber(1e-3, (1, 2))) == 0
        assert np.ndim(frame_error_rate(1e-6, 12000)) == 0
        assert np.ndim(pairwise_error_probability(1e-3, 10)) == 0

    def test_batch_position_does_not_change_bits(self):
        """Embedding the same value at different offsets of a larger batch
        must not move a single ulp."""
        value = 0.0123456789
        lone = coded_ber(np.array([value]), (3, 4))[0]
        padded = np.concatenate([self.PS, [value], self.PS[::-1]])
        assert coded_ber(padded, (3, 4))[len(self.PS)] == lone


# The per-distance union bound as it stood before the shared power table
# and the saturation gather, kept verbatim as the bit-identity oracle.
def _reference_pairwise_error_probability(channel_ber, distance: int) -> np.ndarray:
    p, scalar = _as_batch(channel_ber)
    p = np.clip(p, 0.0, 0.5)
    q = 1.0 - p
    total = np.zeros_like(p)
    if distance % 2:
        start = (distance + 1) // 2
    else:
        start = distance // 2 + 1
        half = distance // 2
        total = total + 0.5 * comb(distance, half) * p**half * q ** (distance - half)
    for k in range(start, distance + 1):
        total = total + comb(distance, k) * p**k * q ** (distance - k)
    total = np.clip(total, 0.0, 1.0)
    return total[0] if scalar else total


def _reference_coded_ber(channel_ber, code_rate) -> np.ndarray:
    if code_rate not in DISTANCE_SPECTRA:
        raise ValueError(f"unknown code rate {code_rate!r}")
    dfree, weights = DISTANCE_SPECTRA[code_rate]
    p, scalar = _as_batch(channel_ber)
    bound = np.zeros_like(p)
    for offset, weight in enumerate(weights):
        if weight == 0:
            continue
        bound = bound + weight * _reference_pairwise_error_probability(p, dfree + offset)
    bound = np.where(p >= _UNION_BOUND_LIMIT, 0.5, bound)
    bound = np.clip(bound, 0.0, 0.5)
    return bound[0] if scalar else bound


def _assert_same_bits(actual, expected):
    """Same type, dtype and shape, NaN at the same positions, and every
    other element bit for bit.

    A NaN's sign is not compared: it is whichever NaN operand the CPU
    propagates, and NumPy's SIMD and scalar loops propagate different
    ones, so it differs between dispatch paths for the same program.
    """
    assert type(actual) is type(expected)
    actual, expected = np.asarray(actual), np.asarray(expected)
    assert actual.dtype == expected.dtype
    assert actual.shape == expected.shape
    nan = np.isnan(expected)
    assert np.array_equal(np.isnan(actual), nan)
    assert actual[~nan].tobytes() == expected[~nan].tobytes()


_SPECIALS = np.array(
    [
        0.0,
        -0.0,
        -1e-300,
        -0.01,
        -1.0,
        _UNION_BOUND_LIMIT,
        np.nextafter(_UNION_BOUND_LIMIT, 0),
        np.nextafter(_UNION_BOUND_LIMIT, 1),
        0.5,
        0.5000001,
        0.9,
        1.0,
        1e300,
        np.inf,
        -np.inf,
        np.nan,
        -np.nan,
        5e-324,
    ]
)


def _channel_bers(seed: int) -> np.ndarray:
    """Geometric, uniform and special channel BERs, shuffled together."""
    rng = np.random.default_rng(seed)
    values = np.concatenate(
        [
            np.geomspace(1e-300, 0.5),
            np.geomspace(1e-6, 0.1, 400),
            10.0 ** rng.uniform(-12.0, np.log10(0.5), 600),
            rng.uniform(0.0, 0.1, 300),
            _SPECIALS,
        ]
    )
    return rng.permutation(values)


class TestUnionBoundMatchesReference:
    """``coded_ber`` and ``pairwise_error_probability`` reproduce the
    per-distance reference bit for bit, saturated and NaN inputs included."""

    RATES = sorted(DISTANCE_SPECTRA)

    @pytest.mark.parametrize("code_rate", RATES)
    @pytest.mark.parametrize("seed", [0, 1, 2015])
    def test_one_dimensional(self, code_rate, seed):
        ps = _channel_bers(seed)
        _assert_same_bits(coded_ber(ps, code_rate), _reference_coded_ber(ps, code_rate))

    @pytest.mark.parametrize("code_rate", RATES)
    def test_equi_snr_row_shape(self, code_rate):
        """Equi-SNR evaluates a (rows, 52) block of per-subcarrier BERs."""
        ps = _channel_bers(7)[: 24 * 52].reshape(24, 52)
        _assert_same_bits(coded_ber(ps, code_rate), _reference_coded_ber(ps, code_rate))

    @pytest.mark.parametrize("code_rate", RATES)
    def test_non_contiguous_view(self, code_rate):
        ps = _channel_bers(8)[: 24 * 52].reshape(24, 52)[:, ::3]
        _assert_same_bits(coded_ber(ps, code_rate), _reference_coded_ber(ps, code_rate))

    @pytest.mark.parametrize("code_rate", RATES)
    def test_python_floats_and_zero_d_arrays(self, code_rate):
        for value in np.concatenate([np.geomspace(1e-300, 0.5), _SPECIALS]):
            for scalar in (float(value), np.array(value)):
                _assert_same_bits(
                    coded_ber(scalar, code_rate), _reference_coded_ber(scalar, code_rate)
                )

    @pytest.mark.parametrize("code_rate", RATES)
    def test_all_saturated_and_empty(self, code_rate):
        for ps in (_SPECIALS[np.isfinite(_SPECIALS)], np.array([0.3, 0.0, -1.0]), np.array([])):
            _assert_same_bits(coded_ber(ps, code_rate), _reference_coded_ber(ps, code_rate))

    @pytest.mark.parametrize("code_rate", RATES)
    def test_offset_among_saturated_and_zero_neighbours(self, code_rate):
        value = 0.0123456789
        neighbours = np.array([0.0, 0.3, -0.0, _UNION_BOUND_LIMIT, 0.0, 1.0, 0.0, 0.2])
        lone = _reference_coded_ber(np.array([value]), code_rate)[0]
        for offset in range(len(neighbours) + 1):
            ps = np.insert(neighbours, offset, value)
            out = coded_ber(ps, code_rate)
            _assert_same_bits(out, _reference_coded_ber(ps, code_rate))
            assert out[offset].tobytes() == lone.tobytes()

    @pytest.mark.parametrize("distance", range(1, 21))
    def test_pairwise_error_probability(self, distance):
        ps = _channel_bers(distance)
        _assert_same_bits(
            pairwise_error_probability(ps, distance),
            _reference_pairwise_error_probability(ps, distance),
        )
        for value in (0.0123, -0.0, 0.7, np.nan):
            _assert_same_bits(
                pairwise_error_probability(value, distance),
                _reference_pairwise_error_probability(value, distance),
            )


#: Every non-empty subset of the four code rates, in ascending and
#: descending order: 15 subsets, 30 orderings (one-rate subsets twice).
RATE_SUBSETS = [
    ordered
    for size in range(1, len(DISTANCE_SPECTRA) + 1)
    for subset in combinations(sorted(DISTANCE_SPECTRA), size)
    for ordered in (subset, subset[::-1])
]


class TestCodedBersMatchesReference:
    """``coded_bers`` evaluates its rates in one stacked pass; each rate
    must still equal the per-distance reference bit for bit."""

    def test_every_subset_is_listed(self):
        assert len({frozenset(subset) for subset in RATE_SUBSETS}) == 15

    @staticmethod
    def _check(ps, code_rates):
        results = coded_bers(ps, code_rates)
        assert isinstance(results, list) and len(results) == len(code_rates)
        for code_rate, result in zip(code_rates, results):
            _assert_same_bits(result, _reference_coded_ber(ps, code_rate))

    @pytest.mark.parametrize("code_rates", RATE_SUBSETS, ids=str)
    def test_one_dimensional_with_specials(self, code_rates):
        self._check(_channel_bers(2015), code_rates)
        self._check(_SPECIALS, code_rates)

    @pytest.mark.parametrize("code_rates", RATE_SUBSETS, ids=str)
    def test_equi_snr_row_shape(self, code_rates):
        self._check(_channel_bers(7)[: 24 * 52].reshape(24, 52), code_rates)

    @pytest.mark.parametrize("code_rates", RATE_SUBSETS, ids=str)
    def test_python_floats_and_zero_d_arrays(self, code_rates):
        for value in _SPECIALS:
            for scalar in (float(value), np.array(value)):
                self._check(scalar, code_rates)

    def test_repeated_rates_and_all_saturated(self):
        rates = [(3, 4), (1, 2), (3, 4)]
        self._check(_channel_bers(3), rates)
        self._check(np.array([0.3, 0.0, -1.0, np.inf]), rates)
        self._check(np.array([]), rates)

    def test_one_pending_element_under_one_distance(self):
        """A lone value's terms form a column; one reduction over it would
        group the additions pairwise, where the bound adds them in order."""
        regrouped = 0
        for distance in range(12, 21):
            for value in np.linspace(0.005, 0.5, 40):
                p = np.array([value])
                # The reference's terms, in the order it adds them.
                terms = np.concatenate(
                    [
                        (0.5 if 2 * k == distance else 1.0)
                        * comb(distance, k)
                        * p**k
                        * (1.0 - p) ** (distance - k)
                        for k in range((distance + 1) // 2, distance + 1)
                    ]
                )
                in_order = 0.0
                for term in terms:
                    in_order += term
                regrouped += np.add.reduce(terms) != in_order
                for one in (p, value):
                    _assert_same_bits(
                        pairwise_error_probability(one, distance),
                        _reference_pairwise_error_probability(one, distance),
                    )
                    if value < _UNION_BOUND_LIMIT:
                        _assert_same_bits(coded_ber(one, (1, 2)), _reference_coded_ber(one, (1, 2)))
        assert regrouped, "no input tells the two summation orders apart"

    @pytest.mark.parametrize("code_rates", RATE_SUBSETS, ids=str)
    def test_values_whose_square_a_broadcast_power_rounds_differently(self, code_rates):
        """``p**2`` is ``np.square(p)``; on arrays of a few thousand
        elements or fewer, a broadcast ``np.power`` over a column of
        exponents rounds some of these squares an ulp away from it."""
        ps = 10.0 ** np.random.default_rng(27).uniform(-6.0, np.log10(_UNION_BOUND_LIMIT), 4000)
        column = np.arange(3)[:, None]
        differ = (np.power(ps, column)[2] != np.square(ps)) | (
            np.power(1.0 - ps, column)[2] != np.square(1.0 - ps)
        )
        if not differ.any():
            pytest.skip("this NumPy rounds a broadcast power's squares as np.square does")
        self._check(ps, code_rates)

    def test_no_rates_and_unknown_rate(self):
        assert coded_bers(_SPECIALS, []) == []
        with pytest.raises(ValueError, match="unknown code rate"):
            coded_bers(0.01, [(1, 2), (7, 8)])
