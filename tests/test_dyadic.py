from fractions import Fraction

import pytest

from collatz_paradox.dyadic import Dyadic


def test_exact_equality_ignores_representation():
    assert Dyadic(1, 1) == Dyadic(2, 2)
    assert Dyadic(0, 5) == Dyadic(0, 0)
    assert Dyadic(3, 2) != Dyadic(3, 3)


def test_ordering_is_cross_multiplied():
    assert Dyadic(3, 2) < Dyadic(7, 3)          # 3/4 < 7/8
    assert Dyadic(7, 3) > Dyadic(3, 2)
    assert Dyadic(5, 3) <= Dyadic(10, 4)
    assert Dyadic(243, 8) < 1                   # 243/256
    assert Dyadic(257, 8) > 1
    assert Dyadic(347, 8) == Fraction(347, 256)


def test_canonical_strips_twos_only():
    c = Dyadic(12, 4).canonical()
    assert (c.num, c.exp2) == (3, 2)
    assert Dyadic(5, 0).canonical().exp2 == 0
    assert Dyadic(0, 7).canonical() == Dyadic(0, 0)


def test_integer_pair_lowest_terms():
    assert Dyadic(347, 8).as_integer_pair() == (347, 256)
    assert Dyadic(373, 8).canonical().as_integer_pair() == (373, 256)
    assert Dyadic(746, 8).as_integer_pair() == (373, 128)


def test_negative_exponent_rejected():
    with pytest.raises(ValueError):
        Dyadic(1, -1)


def test_decimal_rendering_nearest():
    assert Dyadic(347, 8).decimal(2) == "1.36"     # 1.3554...
    assert Dyadic(243, 8).decimal(3) == "0.949"
    assert Dyadic(-1, 1).decimal(1) == "-0.5"
    assert Dyadic(1, 1).decimal(0) == "1"          # 0.5 rounds away from zero
