import collections
import random
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from collatz_paradox.dynamics import (BudgetExhausted, Formalism, orbit, residue_levels,
                                      step, trajectory)


def parity_vector(n, j, formalism=Formalism.SHORTCUT):
    # parities of the first j iterates
    return tuple(m & 1 for m in trajectory(n, j, formalism).iterates[:-1])


def test_step_both_formalisms():
    assert step(7, Formalism.SHORTCUT) == 11
    assert step(2, Formalism.SHORTCUT) == 1
    assert step(7, Formalism.CLASSIC) == 22
    assert step(22, Formalism.CLASSIC) == 11
    with pytest.raises(ValueError):
        step(0)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 10**5), j=st.integers(0, 300), formalism=st.sampled_from(Formalism))
def test_orbit_yields_the_trajectory_with_its_counts(n, j, formalism):
    walk = list(islice(orbit(n, formalism), j))
    t = trajectory(n, j, formalism)
    assert [cur for cur, _, _ in walk] == list(t.iterates[1:])
    assert (walk[-1][1:] if walk else (0, 0)) == (t.q, t.e)
    for i, (_, q, e) in enumerate(walk, 1):   # a classic odd step halves nothing
        assert e == (i if formalism is Formalism.SHORTCUT else i - q)


def test_orbit_needs_a_positive_start():
    assert next(orbit(1, Formalism.CLASSIC)) == (4, 1, 0)
    with pytest.raises(ValueError):
        next(orbit(0))


def test_advance_form_single_steps():
    odd = trajectory(1, 1)
    assert (odd.q, odd.e) == (1, 1) and odd.remainder() == Fraction(1, 2)
    even = trajectory(2, 1)
    assert (even.q, even.e) == (0, 1) and even.remainder() == 0
    codd = trajectory(1, 1, Formalism.CLASSIC)
    assert (codd.q, codd.e) == (1, 0) and codd.remainder() == 1


def test_form_after_eight_steps_from_seven():
    t = trajectory(7, 8)
    assert (t.q, t.e) == (5, 8)
    assert t.remainder() == Fraction(347, 256)
    assert Fraction(3**t.q, 1 << t.e) == Fraction(243, 256)


def test_known_iterate_sequences():
    assert trajectory(7, 8).iterates == (7, 11, 17, 26, 13, 20, 10, 5, 8)
    assert trajectory(18, 8).iterates == (18, 9, 14, 7, 11, 17, 26, 13, 20)
    t = trajectory(1, 2)
    assert t.iterates == (1, 2, 1)
    assert Fraction(3**t.q, 1 << t.e) == Fraction(3, 4)
    assert t.remainder() == Fraction(1, 4)


def test_classic_trajectory_and_form():
    t = trajectory(7, 11, Formalism.CLASSIC)
    assert t.iterates[:6] == (7, 22, 11, 34, 17, 52)
    assert t.check_identity()
    assert t.e + t.q == 11


def test_parity_vector_examples():
    v = parity_vector(7, 8)
    assert v == (1, 1, 1, 0, 1, 0, 0, 1)
    assert sum(v) == 5
    assert parity_vector(96, 5) == (0, 0, 0, 0, 0)
    assert parity_vector(5, 1) == (1,)
    c = parity_vector(7, 6, Formalism.CLASSIC)      # 7 22 11 34 17 52
    assert c == (1, 0, 1, 0, 1, 0) and sum(c) == trajectory(7, 6, Formalism.CLASSIC).q


def test_parity_vector_matches_single_steps():
    for f in Formalism:
        for n in range(1, 300):
            bits, cur = [], n
            for _ in range(17):
                bits.append(cur & 1)
                cur = step(cur, f)
            for j in (1, 5, 17):
                assert parity_vector(n, j, f) == tuple(bits[:j])


def test_parity_vector_period_is_two_power():
    for j in range(1, 11):
        for n in range(1, 2**j + 1):
            assert parity_vector(n, j) == parity_vector(n + 2**j, j)
    rng = random.Random(7)
    for j in range(11, 21):
        for n in [rng.randrange(1, 2**j) for _ in range(40)]:
            assert parity_vector(n, j) == parity_vector(n + 2**j, j)


def test_parity_vector_bijection_on_one_period():
    for j in list(range(1, 11)) + [12, 16]:
        seen = {parity_vector(n, j) for n in range(1, 2**j + 1)}
        assert len(seen) == 2**j


def test_formalisms_visit_the_same_odd_values():
    for n in range(1, 501):
        odds = []
        cur = n
        while cur != 1:
            if cur & 1:
                odds.append(cur)
            cur = step(cur, Formalism.SHORTCUT)
        odds_c = []
        cur = n
        while cur != 1:
            if cur & 1:
                odds_c.append(cur)
            cur = step(cur, Formalism.CLASSIC)
        assert odds == odds_c


def test_linear_form_identity_random_sample():
    rng = random.Random(20260810)
    for _ in range(2000):
        n = rng.randrange(1, 10**12)
        j = rng.randrange(0, 90)
        f = Formalism.SHORTCUT if rng.random() < 0.5 else Formalism.CLASSIC
        t = trajectory(n, j, f)
        assert t.check_identity()
        assert (1 << t.e) % t.remainder().denominator == 0
        if f is Formalism.SHORTCUT:
            assert t.e == j
        else:
            assert t.e == j - t.q


def test_streaming_matches_batch():
    t = trajectory(27, 40)
    for k in range(41):
        prefix = trajectory(27, k)
        assert prefix.iterates == t.iterates[:k + 1]
        assert prefix.check_identity()


def test_trajectory_argument_validation():
    with pytest.raises(ValueError):
        trajectory(0, 5)
    with pytest.raises(ValueError):
        trajectory(5, -1)
    with pytest.raises(ValueError):
        trajectory(5, 0).is_paradoxical()


def test_budget_exception_fields():
    exc = BudgetExhausted(27, 10)
    assert exc.n == 27 and exc.budget == 10


def test_residue_levels_equal_the_trajectories_of_one_period():
    # 2**10 nodes per slab: j = 11 and 12 also cover the subtree expansion
    for j in (11, 12):
        levels = collections.defaultdict(list)
        for i, nodes in residue_levels(j):
            levels[i] += nodes
        assert sorted(levels) == list(range(1, j + 1)), j
        for i, forms in levels.items():
            forms.sort()
            assert [r for r, _, _ in forms] == list(range(1 << i)), (i, j)
            for n in range(1, (1 << i) + 1):
                t = trajectory(n, i)
                assert forms[n % (1 << i)] == (n % (1 << i), t.q, t.e_num), (n, i, j)
    sizes = collections.Counter()
    for i, nodes in residue_levels(18):
        sizes[i] += len(nodes)
    assert sizes == {i: 1 << i for i in range(1, 19)}
    assert list(residue_levels(0)) == []
    with pytest.raises(ValueError):
        residue_levels(-1)
