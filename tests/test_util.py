"""The shared numeric helpers."""

import numpy as np
import pytest

from repro.util import (
    db_to_linear,
    dbm_to_mw,
    hermitian,
    is_unitary_columns,
    linear_to_db,
    masked_row_apply,
    mw_to_dbm,
    q_function,
)


class TestDbConversions:
    def test_roundtrip(self):
        for value in (-37.2, 0.0, 15.0):
            assert linear_to_db(db_to_linear(value)) == pytest.approx(value)

    def test_known_points(self):
        assert db_to_linear(0.0) == pytest.approx(1.0)
        assert db_to_linear(3.0) == pytest.approx(2.0, rel=0.01)
        assert db_to_linear(10.0) == pytest.approx(10.0)

    def test_dbm_is_milliwatts(self):
        assert dbm_to_mw(0.0) == pytest.approx(1.0)
        assert dbm_to_mw(30.0) == pytest.approx(1000.0)
        assert mw_to_dbm(1.0) == pytest.approx(0.0)

    def test_zero_power_floored_not_error(self):
        assert np.isfinite(linear_to_db(0.0))
        assert linear_to_db(0.0) <= -300

    def test_array_inputs(self):
        out = db_to_linear(np.array([0.0, 10.0, 20.0]))
        np.testing.assert_allclose(out, [1.0, 10.0, 100.0])


class TestQFunction:
    def test_symmetry(self):
        assert q_function(0.0) == pytest.approx(0.5)
        assert q_function(1.0) + q_function(-1.0) == pytest.approx(1.0)

    def test_known_value(self):
        # Q(1.96) ≈ 0.025 (the 95% two-sided point).
        assert q_function(1.96) == pytest.approx(0.025, abs=0.001)

    def test_tail_vanishes(self):
        assert q_function(8.0) < 1e-14


class TestMatrixHelpers:
    def test_hermitian(self):
        m = np.array([[1 + 1j, 2], [3, 4 - 2j]])
        np.testing.assert_array_equal(hermitian(m), m.conj().T)

    def test_hermitian_batched(self, rng):
        m = rng.standard_normal((5, 3, 2)) + 1j * rng.standard_normal((5, 3, 2))
        out = hermitian(m)
        assert out.shape == (5, 2, 3)
        np.testing.assert_array_equal(out[2], m[2].conj().T)

    def test_unitary_detection(self, rng):
        q, _ = np.linalg.qr(rng.standard_normal((4, 2)) + 1j * rng.standard_normal((4, 2)))
        assert is_unitary_columns(q)
        assert not is_unitary_columns(2.0 * q)


class TestMaskedRowApply:
    """Per-row masked reductions equal reducing each row on its own."""

    @staticmethod
    def _rows(rng, n_rows):
        values = rng.standard_normal((n_rows, 52, 2)) * 10.0 ** rng.uniform(-3, 3, (n_rows, 52, 2))
        mask = rng.random((n_rows, 52, 2)) > 0.3
        mask[-1] = False  # one empty row takes the fill value
        return values, mask

    @pytest.mark.parametrize("n_rows", [1, 2, 7])
    def test_matches_row_by_row_reduction_bit_for_bit(self, rng, n_rows):
        values, mask = self._rows(rng, n_rows)
        out = masked_row_apply(values, mask, lambda g: g.sum(axis=-1), fill=-1.0)
        for b in range(n_rows):
            selected = values[b][mask[b]]
            expected = float(selected[None, :].sum(axis=-1)[0]) if selected.size else -1.0
            assert out[b] == expected

    def test_one_row_equals_its_row_in_a_batch(self, rng):
        values, mask = self._rows(rng, 5)
        mask[-1] = True
        batched = masked_row_apply(values, mask, lambda g: g.mean(axis=-1))
        for b in range(5):
            alone = masked_row_apply(values[b : b + 1], mask[b : b + 1], lambda g: g.mean(axis=-1))
            assert alone[0] == batched[b]
