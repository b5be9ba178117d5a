from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatz_paradox import numtheory
from collatz_paradox.dynamics import BudgetExhausted, step, trajectory
from collatz_paradox.numtheory import (ApproxPair, DivergenceWitness, approx_pairs,
                                       convergents, divergent_to_paradox, heuristic_j_cap,
                                       heuristic_threshold_str, pair_in_s,
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


def test_approx_pairs():
    ps = approx_pairs(Fraction(1, 4), 3)
    assert (ps[0].a, ps[0].b) == (5, 8)
    assert all(p.validate(Fraction(1, 4)) for p in ps)
    assert all(p.b >= p.a + 1 for p in ps)
    ps = approx_pairs(Fraction(1, 2), 1)
    assert (ps[0].a, ps[0].b) == (1, 2)
    with pytest.raises(ValueError):
        approx_pairs(Fraction(3, 2), 1)


def test_pair_in_s():
    assert pair_in_s(1, ApproxPair(5, 8))           # 3/4 < 243/256 < 1
    assert not pair_in_s(1, ApproxPair(1, 2))       # 3/4 is not > 3/4
    assert pair_in_s(7, ApproxPair(41, 65))


def test_divergent_construction_direct_case():
    w = divergent_to_paradox(1, ApproxPair(5, 8))
    assert w.in_s and not w.lifted
    assert w.j_reached == 9 and w.start == 1 and w.length == 9
    assert w.trajectory.is_paradoxical()
    t = w.trajectory
    assert Fraction(3**t.q, 1 << t.e) == Fraction(243, 512)
    assert w.trajectory.last() == 2
    assert not w.cst_counterexample


def test_divergent_construction_lift_mechanism():
    # no pair in S can trigger the lift for start 1 (b >= a+1 there forces the
    # ratio down to 3/4 or below), so the lift branch is exercised mechanically
    w = divergent_to_paradox(1, ApproxPair(1, 2), require_in_s=False)
    assert w.lifted and w.start == 2 and w.length == 2
    assert w.trajectory.is_paradoxical()
    with pytest.raises(ValueError):
        divergent_to_paradox(1, ApproxPair(1, 2))


def test_divergent_construction_mechanism_on_converging_start():
    w = divergent_to_paradox(3, ApproxPair(5, 8))
    assert w.in_s and w.j_reached == 10
    assert not w.trajectory.is_paradoxical()
    assert not w.cst_counterexample


def test_divergent_budget():
    with pytest.raises(BudgetExhausted):
        divergent_to_paradox(1, ApproxPair(50, 80), require_in_s=False, budget=20)


def _old_divergent_to_paradox(n, pair, budget):
    # the construction with its walk to a odd steps as it was first written,
    # one hand-written step loop, for pairs taken as they come (outside S too)
    a, b = pair.a, pair.b
    in_s = pair_in_s(n, pair)
    cur = n
    q = 0
    j = 0
    min_seen = n
    while q < a:
        if j >= budget:
            raise BudgetExhausted(n, budget, what="odd-step count never reached a")
        odd = cur & 1
        cur = step(cur)
        j += 1
        q += odd
        if cur < min_seen:
            min_seen = cur
    if j >= b:
        built = trajectory(n, j)
        cst = n != 1 and min_seen >= n and built.is_paradoxical()
        return DivergenceWitness(n, pair, in_s, j, n, j, False, built, cst)
    m = n << (b - j)
    return DivergenceWitness(n, pair, in_s, j, m, b, True, trajectory(m, b), False)


def _outcome(f, *args, **kwargs):
    try:
        return f(*args, **kwargs)
    except BudgetExhausted as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**5), a=st.integers(1, 80), b=st.integers(1, 160),
       budget=st.one_of(st.integers(0, 40), st.integers(0, 400)))
def test_divergent_walk_equals_its_old_step_loop(n, a, b, budget):
    pair = ApproxPair(a, b)
    assert (_outcome(divergent_to_paradox, n, pair, require_in_s=False, budget=budget)
            == _outcome(_old_divergent_to_paradox, n, pair, budget))


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
    with pytest.raises(ValueError):
        heuristic_j_cap(0, 3)


def test_heuristic_cap_monotone_in_product():
    caps = [heuristic_j_cap(a, 2) for a in (10, 20, 40)]
    assert caps == sorted(caps)


def test_threshold_constant_rendering():
    assert heuristic_threshold_str() == "4.754"
