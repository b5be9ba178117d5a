import pytest

from collatz_paradox.bounds import is_paradoxical
from collatz_paradox.dynamics import BudgetExhausted, Formalism, trajectory
from collatz_paradox.search import (INFINITE, ParadoxHit, coeff_stopping_time,
                                    delay, enumerate_paradoxes, max_excursion,
                                    naive_paradoxes, scan_paradoxes,
                                    stopping_time, verify_cst)


def test_stopping_time():
    assert stopping_time(7) == 7
    assert stopping_time(2) == 1
    assert stopping_time(27) == 59
    assert stopping_time(1) == INFINITE
    with pytest.raises(BudgetExhausted):
        stopping_time(27, budget=10)


def test_coeff_stopping_time():
    assert coeff_stopping_time(7) == 7
    assert coeff_stopping_time(1) == 2
    for n in (2, 4, 6, 1000):
        assert coeff_stopping_time(n) == 1
    assert coeff_stopping_time(27) == 59


def test_stopping_time_dominates_coefficient_version():
    for n in range(2, 3000):
        assert stopping_time(n) >= coeff_stopping_time(n)


def test_delay():
    assert delay(1) == 0
    assert delay(7) == 11
    assert delay(27) == 70
    assert delay(27, Formalism.CLASSIC) == 111
    with pytest.raises(BudgetExhausted):
        delay(27, budget=5)


def test_classic_delay_decomposition():
    for n in range(2, 10001):
        j = delay(n)
        assert delay(n, Formalism.CLASSIC) == j + trajectory(n, j).q


def test_max_excursion():
    assert max_excursion(27) == 4616
    assert max_excursion(27, Formalism.CLASSIC) == 9232
    assert max_excursion(2**12) == 2**12
    assert max_excursion(1) == 1


def test_hit_reconstruction_is_exact():
    h = ParadoxHit.from_walk(7, 8, Formalism.SHORTCUT)
    assert h.csv_row() == "7,8,5,243,256,347,256,1,1,0,shortcut"
    assert (h.q, h.e, h.d) == (5, 8, 1)
    h18 = ParadoxHit.from_walk(18, 8, Formalism.SHORTCUT)
    assert h18.d == 2 and not h18.start_odd and not h18.end_odd


def test_enumerate_small_window():
    hits = enumerate_paradoxes(3, 30)
    assert [(h.n, h.j) for h in hits] == [(7, 8), (9, 8), (18, 8), (19, 8), (25, 8)]
    assert all(not (h.start_odd and h.end_odd) for h in hits)
    assert [h.d for h in hits] == [1, 1, 2, 1, 1]


def test_every_hit_reverifies():
    for f in (Formalism.SHORTCUT, Formalism.CLASSIC):
        for h in enumerate_paradoxes(3, 2000, f):
            assert is_paradoxical(trajectory(h.n, h.j, f))


def test_multiple_hits_from_one_start():
    js = [h.j for h in enumerate_paradoxes(859, 859)]
    assert js == [46, 65, 73]
    ends = [trajectory(859, j).last() for j in js]
    assert ends == [890, 911, 866]


def test_enumeration_range_validation():
    with pytest.raises(ValueError):
        enumerate_paradoxes(1, 100)
    with pytest.raises(ValueError):
        enumerate_paradoxes(10, 5)


def test_naive_oracle_equivalence_small():
    for f in (Formalism.SHORTCUT, Formalism.CLASSIC):
        naive = naive_paradoxes(3, 800, 100, f)
        fast = [(n, j) for n, j in scan_paradoxes(3, 800, f) if j <= 100]
        assert naive == fast


def test_classic_walks_stop_at_one():
    # under the classic map, walks must not run into the 1-4-2 cycle: starts 3
    # and 4 would otherwise pick up artificial hits (e.g. 3 -> ... -> 1 -> 4)
    assert enumerate_paradoxes(3, 6, Formalism.CLASSIC) == []


def test_verify_cst():
    rep = verify_cst(2, 50000)
    assert rep.ok and rep.max_gap == 0 and rep.checked == 49999
    with pytest.raises(ValueError):
        verify_cst(1, 10)
    rep = verify_cst(2, 2)
    assert rep.ok and rep.checked == 1
