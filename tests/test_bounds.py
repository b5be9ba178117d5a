import dataclasses
import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from collatz_paradox.bounds import (coefficient_ceiling_q, en_ratio_bounds,
                                    floor_log_ratio, harmonic_cap_holds,
                                    harmonic_mean_odd_terms, mean_remainder,
                                    mean_remainders,
                                    remainder_bounds, smallest_harmonic_cap_j)
from collatz_paradox.dynamics import Formalism, trajectory
from collatz_paradox.precision import div_scaled, ln2_scaled, ln3_scaled
from collatz_paradox.search import naive_paradoxes, scan_paradoxes


def test_floor_log_ratio_values():
    assert floor_log_ratio(1) == 0
    assert floor_log_ratio(2) == 1
    assert floor_log_ratio(8) == 5
    assert floor_log_ratio(1539) == 971
    assert floor_log_ratio(301994) == 190537


def test_floor_log_ratio_against_certified_interval():
    """floor(j * log2/log3) from a 200-bit certified interval must be decided
    for every j up to 10^6 and must agree with the exact power method
    (exhaustively where the powers are cheap, on adversarial and random j
    beyond that)."""
    prec = 200
    lo, hi = div_scaled(ln2_scaled(prec), ln3_scaled(prec), prec)
    for j in range(1, 3001):
        q = floor_log_ratio(j)
        assert (j * lo) >> prec == (j * hi) >> prec == q, j
    undecided = [j for j in range(1, 10**6 + 1) if (j * lo) >> prec != (j * hi) >> prec]
    assert not undecided
    rng = random.Random(3)
    hard = [2, 3, 5, 8, 19, 65, 84, 485, 1054, 24727, 50508, 125743, 176251, 301994]
    for j in hard + [rng.randrange(1, 10**6) for _ in range(25)]:
        assert (j * lo) >> prec == floor_log_ratio(j), j


def test_remainder_bounds_exact_values():
    rb = remainder_bounds(8, 5)
    assert rb.lower == Fraction(211, 256)
    assert rb.upper == Fraction(211, 32)
    rb0 = remainder_bounds(6, 0)
    assert rb0.lower == 0 == rb0.upper and rb0.upper_class == 0
    with pytest.raises(ValueError):
        remainder_bounds(4, 5)


def test_remainder_bounds_classes_attained():
    for j, q in ((8, 5), (6, 6), (10, 3)):
        rb = remainder_bounds(j, q)
        n_up = rb.upper_class or (1 << j)
        n_lo = rb.lower_class or (1 << j)
        assert trajectory(n_up, j).remainder() == rb.upper
        assert trajectory(n_lo, j).remainder() == rb.lower
        if q == j:
            assert rb.lower == rb.upper == Fraction(3**q - 2**q, 2**q)


def test_mean_remainder():
    assert mean_remainders(1) == [Fraction(1, 4)]
    assert mean_remainders(2) == [Fraction(1, 4), Fraction(1, 2)]
    assert mean_remainders(12)[-1] == mean_remainder(12) == 3
    for j in (-1, 0, 23):
        with pytest.raises(ValueError):
            mean_remainders(j)


def _mean_remainder_by_walks(j: int) -> Fraction:
    # one compressed-map walk of j steps per n = 1..2**j
    total_num = 0
    for n in range(1, (1 << j) + 1):
        cur = n
        num = 0
        for e in range(j):
            if cur & 1:
                num = 3 * num + (1 << e)
                cur = (3 * cur + 1) >> 1
            else:
                cur >>= 1
        total_num += num
    return Fraction(total_num, 1 << (2 * j))


def test_mean_remainder_equals_one_walk_per_residue():
    walks = [_mean_remainder_by_walks(i) for i in range(1, 15)]
    assert mean_remainders(14) == walks   # one tree for every length
    for j in range(1, 9):                 # length j from the children of level j - 1
        assert mean_remainders(j) == walks[:j], j


def test_mean_remainder_memory_is_bounded():
    tracemalloc.start()
    try:
        assert mean_remainders(18) == [Fraction(i, 4) for i in range(1, 19)]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_property_extremal_fails_on_one_wrong_bound_at_length_14(monkeypatch):
    from collatz_paradox import bounds, checks

    real = bounds.remainder_bounds

    def wrong(j, q):   # the upper bound at (14, 9) lowered by 2**-14
        rb = real(j, q)
        if (j, q) == (14, 9):
            rb = dataclasses.replace(rb, upper=rb.upper - Fraction(1, 1 << 14))
        return rb

    assert checks.Scoreboard(threads=1).property_extremal().ok
    monkeypatch.setattr(bounds, "remainder_bounds", wrong)
    result = checks.Scoreboard(threads=1).property_extremal()
    assert not result.ok and result.detail != "violations=0"


def test_paradox_witness_published_examples():
    t = trajectory(7, 8)
    assert t.is_paradoxical() and t.last() - t.start == 1
    assert Fraction(3**t.q, 1 << t.e) == Fraction(243, 256)
    assert t.remainder() == Fraction(347, 256)
    assert trajectory(1, 2).is_paradoxical()       # last == first counts
    assert not trajectory(7, 7).is_paradoxical()


def test_en_ratio_bounds_on_seven():
    er = en_ratio_bounds(trajectory(7, 8))
    assert er.ratio == Fraction(347, 1792)
    assert er.lower == Fraction(13, 256)
    assert er.lower_holds and er.upper_holds


def test_en_ratio_for_27_45():
    r = en_ratio_bounds(trajectory(27, 45)).ratio
    assert Fraction(1296, 100) <= r < Fraction(1297, 100)


def test_en_ratio_upper_holds_regardless():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randrange(2, 10**6)
        j = rng.randrange(1, 60)
        t = trajectory(n, j)
        if t.q >= 1:
            assert en_ratio_bounds(t).upper_holds


def test_en_ratio_requires_an_odd_term():
    with pytest.raises(ValueError):
        en_ratio_bounds(trajectory(2, 1))


def _ones_ratio_window(t):
    # the window as the scoreboard's hit-window check reads it
    er = en_ratio_bounds(t)
    return t.coefficient_lt_one() and er.upper >= er.lower


def _ones_ratio_window_by_powers(t):
    # 3**q < 2**e <= (3 + 1/h)**q, with the harmonic mean h as a Fraction
    h = harmonic_mean_odd_terms(t)
    return 3**t.q < 1 << t.e <= (3 + 1 / h) ** t.q


def test_ones_ratio_window():
    for t in (trajectory(7, 8), trajectory(1, 2)):
        assert _ones_ratio_window(t) and _ones_ratio_window_by_powers(t)
    t = trajectory(7, 7)      # coefficient still >= 1
    assert not _ones_ratio_window(t) and not _ones_ratio_window_by_powers(t)


@pytest.mark.parametrize("formalism", list(Formalism))
def test_ones_ratio_window_is_read_from_the_en_ratio_bounds(formalism):
    # every paradox up to 5000 (inside the window) and random trajectories
    rng = random.Random(7)
    walks = scan_paradoxes(3, 5000, formalism)
    walks += [(rng.randrange(1, 10**6), rng.randrange(1, 80)) for _ in range(300)]
    inside = 0
    for n, j in walks:
        t = trajectory(n, j, formalism)
        if t.q >= 1:
            window = _ones_ratio_window(t)
            assert window == _ones_ratio_window_by_powers(t), (n, j)
            inside += window
    assert inside >= 593


def test_harmonic_mean():
    h = harmonic_mean_odd_terms(trajectory(7, 8))
    s = sum(Fraction(1, m) for m in (7, 11, 17, 13, 5))
    assert h == Fraction(5) / s


def _old_harmonic_mean_odd_terms(traj):
    # the mean as it was first computed: a Fraction sum, one reduction per term
    odds = traj.odd_terms()
    return Fraction(len(odds), 1) / sum(Fraction(1, m) for m in odds)


@settings(max_examples=200, deadline=None)
@given(n=st.one_of(st.integers(1, 10**5), st.integers(1, 1 << 70)),
       j=st.integers(1, 200), formalism=st.sampled_from(Formalism))
def test_harmonic_mean_equals_the_fraction_sum(n, j, formalism):
    traj = trajectory(n, j, formalism)
    if not traj.odd_terms():
        with pytest.raises(ValueError):
            harmonic_mean_odd_terms(traj)
        return
    h = harmonic_mean_odd_terms(traj)
    assert h == _old_harmonic_mean_odd_terms(traj)


def test_harmonic_cap():
    assert not harmonic_cap_holds(3, 1)
    assert harmonic_cap_holds(2, 1)
    assert not harmonic_cap_holds(2, 3)
    # monotone in m
    for j in (17, 46, 100):
        vals = [harmonic_cap_holds(j, m) for m in (1, 2, 5, 20, 1000)]
        assert vals == sorted(vals, reverse=True)


def test_bound_chain_scalars():
    assert smallest_harmonic_cap_j(113383) == 1539
    assert coefficient_ceiling_q(1539, 113383) == 971
    # exact confirmation on both sides of the boundary
    assert harmonic_cap_holds(1539, 113383)
    assert not harmonic_cap_holds(1538, 113383)
    assert all(not harmonic_cap_holds(j, 113383) for j in range(2, 200))


def test_smallest_harmonic_cap_j_matches_exact_scan():
    # at prec=8 both certified intervals straddle often, so the exact
    # fallbacks decide many j
    for m in list(range(1, 201)) + [10**4, 113383]:
        j = 2
        while not harmonic_cap_holds(j, m):
            j += 1
        assert smallest_harmonic_cap_j(m) == j == smallest_harmonic_cap_j(m, prec=8), m


def test_small_lengths_have_only_trivial_paradoxes():
    # The paper's classification for j in 2, 3, 4, 6, 7, 9: H(j) < 3 puts the
    # odd term 1 into every paradox of length j (H(3) < 1 rules out all), so
    # its last term is at most 2 and its start is 1 or 2.
    expected = {2: {1, 2}, 3: set(), 4: {1, 2}, 6: {1, 2}, 7: {1}, 9: {1}}
    for j, starts in expected.items():
        assert not harmonic_cap_holds(j, 3)
        assert harmonic_cap_holds(j, 1) == (j != 3)
        assert {n for n in (1, 2) if trajectory(n, j).is_paradoxical()} == starts
    assert [p for p in naive_paradoxes(3, 10**4, 9) if p[1] in expected] == []


def test_classic_trajectory_bounds_also_hold():
    t = trajectory(7, 13, Formalism.CLASSIC)
    if t.q >= 1:
        assert en_ratio_bounds(t).upper_holds
