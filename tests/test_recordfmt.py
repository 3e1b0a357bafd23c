"""Byte equality of the vectorized record formatter with ``%`` formatting."""

from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from qndcert.montecarlo import CHUNK_SHOTS
from qndcert.recordfmt import format_rows
from qndcert.recordio import SUB_BLOCK_ROWS, write_arms


def _reference(rows, first_shot=0):
    """The row-by-row formatting the kernel replaces."""
    line = "%d," + ",".join(["%.17g"] * rows.shape[1]) + "\n"
    shots = range(first_shot, first_shot + rows.shape[0])
    return "".join([line % row
                    for row in zip(shots, *rows.T.tolist())]).encode()


def _assert_formats_like_reference(values, k=1, first_shot=0):
    rows = np.asarray(values, dtype=float).reshape(-1, k)
    assert format_rows(rows, first_shot) == _reference(rows, first_shot)


def _both_signs(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, -values])


def _tie_corpus(rng, per_exponent=400):
    """Doubles whose 18-digit decimal expansion ends in an exact 5, so
    that 17-digit rounding is a tie: o / 2**(k+1) with o odd is one when
    it has decimal exponent 16 - k, since o * 5**k / 2 is then a half."""
    ties = []
    for k in range(1, 23):
        low = -(-2 ** (k + 1) * 10 ** 16 // 10 ** k)
        high = min(2 ** (k + 1) * 10 ** 17 // 10 ** k, 2 ** 53)
        odd = rng.integers(low // 2, (high - 1) // 2, per_exponent) * 2 + 1
        ties.append(odd / 2.0 ** (k + 1))
    # m + 0.25 for m from 2**50, where the spacing of doubles is 0.25
    ties.append(np.arange(2 ** 50, 2 ** 50 + 2000, dtype=float) + 0.25)
    return np.concatenate(ties)


_SHAPES = st.tuples(st.integers(1, 30), st.integers(1, 3))
_NEAR_FAST_RANGE = (st.floats(min_value=1e-7, max_value=1e18)
                    | st.floats(min_value=-1e18, max_value=-1e-7))


class TestAgainstPercentFormatting:
    @settings(max_examples=60, deadline=None, database=None)
    @given(arrays(np.float64, _SHAPES,
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
           st.integers(0, 10 ** 12))
    def test_any_finite_doubles(self, rows, first_shot):
        assert format_rows(rows, first_shot) == _reference(rows, first_shot)

    @settings(max_examples=60, deadline=None, database=None)
    @given(arrays(np.float64, _SHAPES, elements=_NEAR_FAST_RANGE))
    def test_doubles_in_and_near_the_fast_range(self, rows):
        assert format_rows(rows, 0) == _reference(rows)

    def test_powers_of_ten_and_their_neighbours(self):
        # the doubles just below a power of ten are the only ones whose
        # 17-digit rounding could carry into the next decimal exponent
        powers = [float(f"1e{e}") for e in range(-8, 18)]
        values = [np.nextafter(p, direction) for p in powers
                  for direction in (0.0, np.inf)]
        _assert_formats_like_reference(_both_signs(powers + values))

    def test_ties_round_to_even(self):
        ties = _tie_corpus(np.random.default_rng(5))
        for value in ties[::50]:  # 18 significant digits, the last a 5
            digits = Decimal(value).normalize().as_tuple().digits
            assert len(digits) == 18 and digits[-1] == 5
        _assert_formats_like_reference(_both_signs(ties), k=2)

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_values_formatted_one_by_one(self, k):
        fallback = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e-7, 1e-6,
                    1e17, 1.8e308, -1.7976931348623157e308, 0.5, -123.25]
        _assert_formats_like_reference(fallback * k, k=k)

    def test_exponents_across_the_whole_fast_range(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(1, 10, 6000) * 10.0 ** rng.integers(-7, 18, 6000)
        _assert_formats_like_reference(_both_signs(values), k=3)

    @pytest.mark.parametrize("first_shot", [0, 9, 9995, 99_990, 999_999,
                                            10 ** 12 - 3])
    def test_shot_column_crosses_digit_counts(self, first_shot):
        rows = np.random.default_rng(first_shot).normal(0, 3, (12, 2))
        assert format_rows(rows, first_shot) == _reference(rows, first_shot)


# around the end of the first and of the second piece
@pytest.mark.parametrize("n_shots", [
    1, *(pieces * SUB_BLOCK_ROWS + step for pieces in (1, 2)
         for step in (-1, 0, 1)),
    CHUNK_SHOTS + 1])
def test_files_equal_row_by_row_text_across_blocks(tmp_path, n_shots):
    rng = np.random.default_rng(n_shots)
    rows = rng.normal(0, 3, (n_shots, 3))
    rows[::997, 1] = 1e-5 * rng.normal(size=rows[::997, 1].shape)
    arms = {"with_atoms": rows, "no_atoms": rows[:, ::-1]}
    paths = write_arms(lambda role: [arms[role]], tmp_path / "run", 3)
    for role, arm in arms.items():
        expected = b"shot,p_y,q_y,r_y\n" + _reference(arm)
        assert paths[role].read_bytes() == expected
