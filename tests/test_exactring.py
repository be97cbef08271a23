"""The exact dyadic value: canonical form, equality, serialization."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from postsel import DyadicRational

ints = st.integers(min_value=-(1 << 40), max_value=1 << 40)
exps = st.integers(min_value=0, max_value=40)

dyadics = st.builds(DyadicRational, ints, exps)


def test_dyadic_canonical_form():
    assert DyadicRational(4, 3) == DyadicRational(1, 1)
    assert DyadicRational(0, 7) == DyadicRational(0, 0)
    assert DyadicRational(6, 1) == DyadicRational(3, 0)


def test_dyadic_str_is_n_slash_two_caret_k():
    assert str(DyadicRational(9, 4)) == "9/2^4"
    assert str(DyadicRational(1, 0)) == "1/2^0"
    assert str(DyadicRational(0, 0)) == "0/2^0"
    assert str(DyadicRational(-3, 2)) == "-3/2^2"


def test_dyadic_strips_trailing_zero_bits_only_down_to_an_integer():
    assert (DyadicRational(-40, 5).n, DyadicRational(-40, 5).k) == (-5, 2)
    assert (DyadicRational(1 << 70, 3).n, DyadicRational(1 << 70, 3).k) == (1 << 67, 0)
    big = DyadicRational(np.int64(12), np.uint8(3))  # numpy integers are integers
    assert (big.n, big.k) == (3, 1) and type(big.n) is type(big.k) is int


def test_dyadic_rejects_negative_exponent():
    with pytest.raises(ValueError):
        DyadicRational(1, -1)


@pytest.mark.parametrize("n, k", [(1, 2.5), (3.0, 2), (True, 0), (1, -1)])
def test_dyadic_rejects_non_integers_bools_and_negative_exponents(n, k):
    with pytest.raises(ValueError):
        DyadicRational(n, k)


@given(dyadics)
def test_dyadic_canonical_representative_is_unique(x):
    """Canonical form: k == 0 (an integer) or the numerator is odd."""
    if x.n == 0:
        assert x.k == 0
    else:
        assert x.k == 0 or x.n % 2 == 1


@given(dyadics)
def test_dyadic_equality_is_value_equality(x):
    """Structural equality of canonical forms is value equality."""
    doubled = DyadicRational(x.n * 4, x.k + 2)
    assert doubled == x
    assert hash(doubled) == hash(x)


@given(ints, exps, ints, exps)
def test_dyadic_equality_matches_fraction(a, i, b, j):
    x, y = DyadicRational(a, i), DyadicRational(b, j)
    assert (x == y) == (Fraction(a, 2**i) == Fraction(b, 2**j))
    assert x.as_fraction() == Fraction(a, 2**i)
    assert x.is_zero() == (a == 0)
