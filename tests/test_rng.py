import math
import random
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hyperreg.rng import threshold

ONE = 2**53  # random() returns m / ONE for an integer m in [0, ONE)


def test_random_returns_multiples_of_two_to_minus_53():
    rng = random.Random(2021)
    for _ in range(1000):
        m = rng.random() * ONE
        assert m == int(m) and 0 <= m < ONE


@given(st.fractions(min_value=0, max_value=1), st.integers(0, ONE - 1))
def test_threshold_agrees_with_fraction_comparison(p, m):
    assert (m / ONE < threshold(p)) == (Fraction(m, ONE) < p)


@given(st.fractions(min_value=0, max_value=1), st.integers(-2, 2))
def test_threshold_agrees_next_to_the_cut(p, offset):
    m = min(max(math.ceil(p * ONE) + offset, 0), ONE - 1)
    assert (m / ONE < threshold(p)) == (Fraction(m, ONE) < p)


@pytest.mark.parametrize(
    "p, last_kept",
    [
        (Fraction(0), None),
        (Fraction(1), ONE - 1),
        (Fraction(12345, ONE), 12344),
        (Fraction(1, 3), ONE // 3),
        (Fraction(ONE - 1, ONE), ONE - 2),
    ],
)
def test_threshold_edge_cases(p, last_kept):
    t = threshold(p)
    assert t == Fraction(math.ceil(p * ONE), ONE)
    if last_kept is None:
        assert not 0 / ONE < t
        return
    assert last_kept / ONE < t and Fraction(last_kept, ONE) < p
    if last_kept + 1 < ONE:
        assert not (last_kept + 1) / ONE < t and not Fraction(last_kept + 1, ONE) < p
