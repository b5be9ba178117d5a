import pytest

from collatz_paradox.vectors import ParityVector


def test_construction_and_counts():
    v = ParityVector([1, 1, 0, 0, 0, 1])
    assert len(v) == 6 and v.q == 3
    with pytest.raises(ValueError):
        ParityVector([])
    with pytest.raises(ValueError):
        ParityVector([0, 2])


def test_run_length_display():
    assert ParityVector([1, 1, 0, 0, 0, 1]).run_length() == "1^2 0^3 1"
    assert ParityVector([0, 1, 1, 0]).run_length() == "0 1^2 0"
    assert repr(ParityVector([1])) == "⟨1⟩"


def test_immutability_and_hash():
    v = ParityVector([0, 1])
    with pytest.raises(AttributeError):
        v.q = 7
    assert len({ParityVector([0, 1]), ParityVector([0, 1]), ParityVector([1, 0])}) == 2
