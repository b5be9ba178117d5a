from fractions import Fraction

import pytest

from collatz_paradox import numtheory
from collatz_paradox.dynamics import orbit, trajectory
from collatz_paradox.numtheory import (convergents, heuristic_j_cap, heuristic_threshold_str,
                                       partial_quotients, ratio_below_log2_log3,
                                       rhin_gap_ok)
from collatz_paradox.precision import div_scaled, ln2_scaled, ln3_scaled

KNOWN_PREFIX = [(0, 1), (1, 1), (1, 2), (2, 3), (5, 8), (12, 19), (41, 65)]


def test_convergent_prefix():
    cs = convergents(7)
    assert [(c.p, c.q) for c in cs] == KNOWN_PREFIX
    assert [c.side for c in cs[:4]] == ["below", "above", "below", "above"]


def test_partial_quotients_prefix():
    assert partial_quotients(4) == [1, 1, 1, 2]
    assert partial_quotients(10) == [1, 1, 1, 2, 2, 3, 1, 5, 2, 23]


def test_convergent_recurrence_and_sides():
    cs = convergents(24)
    a = partial_quotients(23)
    for i in range(2, len(cs)):
        assert cs[i].p == a[i - 1] * cs[i - 1].p + cs[i - 2].p
        assert cs[i].q == a[i - 1] * cs[i - 1].q + cs[i - 2].q
        assert ratio_below_log2_log3(cs[i].p, cs[i].q) == (cs[i].index % 2 == 0)


def test_convergent_quality():
    """|log2/log3 - p/q| < 1/q^2: cross-multiplied into exact powers while the
    exponents stay sane (the power sizes grow with q^2), certified intervals
    decide the deep ones."""
    for c in convergents(9)[1:]:   # q <= 485, so exponents stay below 240k
        if c.index % 2 == 0:   # p/q < x: need x < (pq+1)/q^2, i.e. 2^(q^2) < 3^(pq+1)
            assert pow(2, c.q * c.q) < pow(3, c.p * c.q + 1)
        else:                  # x < p/q: need (pq-1)/q^2 < x, i.e. 3^(pq-1) < 2^(q^2)
            assert pow(3, c.p * c.q - 1) < pow(2, c.q * c.q)
    deep = convergents(30)
    for c in deep[9:]:
        if c.index % 2 == 0:
            assert not ratio_below_log2_log3(c.p * c.q + 1, c.q * c.q)
        else:
            assert ratio_below_log2_log3(c.p * c.q - 1, c.q * c.q)


def test_convergents_count_validation():
    with pytest.raises(ValueError):
        convergents(0)
    with pytest.raises(ValueError):
        convergents(61)


def _in_s(n, a, b):
    # S(n) = {(a, b) : 1 - 1/(4n) < 3^a/2^b < 1}, by exact comparison
    return 1 - Fraction(1, 4 * n) < Fraction(3**a, 2**b) < 1


def test_convergent_pairs_give_the_direct_paradox():
    # The paper ties paradoxes to divergence through pairs (a, b) in S(n):
    # a walk from n that reaches a odd steps at some j >= b gives the
    # paradoxical length-j trajectory from n itself.  Start 1 with (5, 8)
    # is that direct case.
    pairs = {(c.p, c.q) for c in convergents(8)}
    assert {(5, 8), (1, 2), (41, 65)} <= pairs
    assert _in_s(1, 5, 8)                 # 3/4 < 243/256 < 1
    assert not _in_s(1, 1, 2)             # 3/4 is not > 3/4
    assert _in_s(7, 41, 65)
    j = next(j for j, (_, q, _) in enumerate(orbit(1), 1) if q == 5)
    assert j == 9   # at least b = 8, so no lift: the trajectory starts at 1
    t = trajectory(1, 9)
    assert t.is_paradoxical()
    assert Fraction(3**t.q, 1 << t.e) == Fraction(243, 512)
    assert t.last() == 2


def test_rhin_gap():
    assert rhin_gap_ok(8, 5)
    for (j, q) in [(8, 5), (27, 17), (46, 29), (54, 34), (65, 41), (73, 46), (92, 58)]:
        assert rhin_gap_ok(j, q)
    assert rhin_gap_ok(2, 1)
    with pytest.raises(ValueError):
        rhin_gap_ok(1, 1)


def test_rhin_gap_decided_at_the_second_precision(monkeypatch):
    # j = 2^140 and q on either side of j log2/log3: at 128 bits the interval
    # for j log2 - q log3 is about 2^12 wide and straddles 0; 256 bits decide.
    j = 1 << 140
    r_lo, r_hi = div_scaled(ln2_scaled(300), ln3_scaled(300), 300)
    q = (j * r_lo) >> 300
    assert q == (j * r_hi) >> 300   # q = floor(j log2/log3), certified
    precs = []
    monkeypatch.setattr(numtheory, "ln2_scaled",
                        lambda prec: precs.append(prec) or ln2_scaled(prec))
    for qq in (q, q + 1):
        precs.clear()
        assert rhin_gap_ok(j, qq)
        assert precs == [128, 256]


def test_heuristic_cap():
    assert heuristic_j_cap(42, 3) == 17396
    cap = heuristic_j_cap(37, "2.6")
    assert cap == 12867
    assert cap < 17396
    assert heuristic_j_cap(20, 2) < cap
    assert heuristic_j_cap(Fraction(1, 100), Fraction(1, 100)) == 0
    # each factor must be positive, not only their product
    for alpha, beta in ((0, 3), (-42, -3), (42, -3), ("-0.5", "-2")):
        with pytest.raises(ValueError, match="alpha and beta must be positive"):
            heuristic_j_cap(alpha, beta)


def test_heuristic_cap_monotone_in_product():
    caps = [heuristic_j_cap(a, 2) for a in (10, 20, 40)]
    assert caps == sorted(caps)


def test_threshold_constant_rendering():
    assert heuristic_threshold_str() == "4.754"
