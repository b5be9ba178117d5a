import functools
import math
import os
import subprocess
import sys
import types
from array import array
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import collatz_paradox
from collatz_paradox import search
from collatz_paradox.bounds import remainder_bounds
from collatz_paradox.census import _decimal, _passes_through
from collatz_paradox.dynamics import BudgetExhausted, Formalism, step, trajectory
from collatz_paradox.runner import SearchConfig, run_search
from collatz_paradox.search import (INFINITE, ParadoxHit, coeff_stopping_time,
                                    delay, fill_excursion_memo, max_excursion,
                                    naive_paradoxes, scan_paradoxes,
                                    stopping_time, verify_cst)

MEMO_FULL = 1 << 20


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
    assert max_excursion(2**12) == 2**12
    assert max_excursion(1) == 1


# The reference walks as they were before they read dynamics.orbit: one
# hand-written step loop each, with the same budget rules.


def _old_stopping_time(n, budget):
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return INFINITE
    cur = n
    j = 0
    while cur >= n:
        cur = (3 * cur + 1) >> 1 if cur & 1 else cur >> 1
        j += 1
        if j > budget:
            raise BudgetExhausted(n, budget, what="no descent below the start")
    return j


def _old_coeff_stopping_time(n, budget):
    if n < 1:
        raise ValueError("n must be >= 1")
    bl3 = search._bl3_table(80)
    cur = n
    q = 0
    j = 0
    while True:
        if cur & 1:
            cur = (3 * cur + 1) >> 1
            q += 1
            if q >= len(bl3):
                bl3 = search._bl3_table(2 * q)
        else:
            cur >>= 1
        j += 1
        if bl3[q] <= j:
            return j
        if j > budget:
            raise BudgetExhausted(n, budget, what="coefficient never dropped below 1")


def _old_delay(n, formalism, budget):
    if n < 1:
        raise ValueError("n must be >= 1")
    shortcut = formalism is Formalism.SHORTCUT
    cur = n
    j = 0
    while cur != 1:
        if cur & 1:
            cur = (3 * cur + 1) >> 1 if shortcut else 3 * cur + 1
        else:
            cur >>= 1
        j += 1
        if j > budget:
            raise BudgetExhausted(n, budget, what="never reached 1")
    return j


def _old_max_excursion(n, budget):
    if n < 1:
        raise ValueError("n must be >= 1")
    cur = n
    best = n
    j = 0
    while cur != 1:
        if cur & 1:
            cur = (3 * cur + 1) >> 1
            if cur > best:
                best = cur
        else:
            cur >>= 1
        j += 1
        if j > budget:
            raise BudgetExhausted(n, budget, what="never reached 1")
    return best


def _old_naive_paradoxes(n_lo, n_hi, j_max, formalism):
    shortcut = formalism is Formalism.SHORTCUT
    out = []
    for n in range(n_lo, n_hi + 1):
        cur = n
        q = 0
        e = 0
        for j in range(1, j_max + 1):
            if cur == 1:
                break
            if cur % 2 == 1:
                q += 1
                if shortcut:
                    cur = (3 * cur + 1) // 2
                    e += 1
                else:
                    cur = 3 * cur + 1
            else:
                cur = cur // 2
                e += 1
            if 3**q < 2**e and cur >= n:
                out.append((n, j))
    return out


def _old_passes_through(hit, value):
    cur = hit.n
    for _ in range(hit.j):
        if cur == value:
            return True
        cur = step(cur, hit.formalism)
    return cur == value


def _outcome(f, *args):
    """f(*args), or the type and message of the error it raises."""
    try:
        return f(*args)
    except (BudgetExhausted, ValueError) as exc:
        return type(exc), str(exc)


_STARTS = st.integers(1, 10**5)
_BUDGETS = st.one_of(st.integers(0, 40), st.integers(0, 400))   # low ones raise


@settings(max_examples=300, deadline=None)
@given(n=_STARTS, budget=_BUDGETS, formalism=st.sampled_from(Formalism))
def test_scalar_oracles_equal_their_old_step_loops(n, budget, formalism):
    for new, old, args in ((stopping_time, _old_stopping_time, (n, budget)),
                           (coeff_stopping_time, _old_coeff_stopping_time, (n, budget)),
                           (delay, _old_delay, (n, formalism, budget)),
                           (max_excursion, _old_max_excursion, (n, budget))):
        assert _outcome(new, *args) == _outcome(old, *args), (new.__name__, args)


def test_scalar_oracles_raise_like_their_old_step_loops():
    for new, old, args in ((stopping_time, _old_stopping_time, (27, 59)),
                           (stopping_time, _old_stopping_time, (27, 58)),
                           (coeff_stopping_time, _old_coeff_stopping_time, (27, 58)),
                           (coeff_stopping_time, _old_coeff_stopping_time, (27, 57)),
                           (delay, _old_delay, (27, Formalism.CLASSIC, 110)),
                           (delay, _old_delay, (1, Formalism.SHORTCUT, 0)),
                           (max_excursion, _old_max_excursion, (1, 0)),
                           (max_excursion, _old_max_excursion, (27, 69)),
                           (stopping_time, _old_stopping_time, (0, 5))):
        assert _outcome(new, *args) == _outcome(old, *args), (new.__name__, args)
    assert _outcome(coeff_stopping_time, 27, 57)[0] is BudgetExhausted
    assert coeff_stopping_time(27, 58) == 59   # the exit is tested before the budget


@settings(max_examples=200, deadline=None)
@given(lo=_STARTS, width=st.integers(0, 20), j_max=st.integers(0, 200),
       formalism=st.sampled_from(Formalism))
def test_naive_oracle_equals_its_old_step_loop(lo, width, j_max, formalism):
    assert (naive_paradoxes(lo, lo + width, j_max, formalism)
            == _old_naive_paradoxes(lo, lo + width, j_max, formalism))


@settings(max_examples=200, deadline=None)
@given(n=_STARTS, j=st.integers(0, 200), formalism=st.sampled_from(Formalism),
       data=st.data())
def test_passes_through_equals_its_old_step_loop(n, j, formalism, data):
    hit = types.SimpleNamespace(n=n, j=j, formalism=formalism)
    iterates = trajectory(n, j, formalism).iterates
    value = data.draw(st.one_of(st.sampled_from(iterates), st.integers(0, 10**6)))
    assert _passes_through(hit, value) is _old_passes_through(hit, value)


def test_hit_reconstruction_is_exact():
    h = ParadoxHit.from_walk(7, 8, Formalism.SHORTCUT)
    assert h.csv_row() == "7,8,5,243,256,347,256,1,1,0,shortcut"
    assert (h.q, h.e, h.d) == (5, 8, 1)
    h18 = ParadoxHit.from_walk(18, 8, Formalism.SHORTCUT)
    assert h18.d == 2 and not h18.start_odd and not h18.end_odd


def test_enumerate_small_window():
    hits = run_search(SearchConfig(3, 30)).hits()
    assert [(h.n, h.j) for h in hits] == [(7, 8), (9, 8), (18, 8), (19, 8), (25, 8)]
    assert all(not (h.start_odd and h.end_odd) for h in hits)
    assert [h.d for h in hits] == [1, 1, 2, 1, 1]


def test_every_hit_reverifies():
    for f in (Formalism.SHORTCUT, Formalism.CLASSIC):
        for h in run_search(SearchConfig(3, 2000, f)).hits():
            assert trajectory(h.n, h.j, f).is_paradoxical()


def test_multiple_hits_from_one_start():
    js = [j for _, j in scan_paradoxes(859, 859)]
    assert js == [46, 65, 73]
    ends = [trajectory(859, j).last() for j in js]
    assert ends == [890, 911, 866]


def test_enumeration_range_validation():
    with pytest.raises(ValueError):
        scan_paradoxes(1, 100)
    with pytest.raises(ValueError):
        scan_paradoxes(10, 5)


def test_naive_oracle_equivalence_small():
    for f in (Formalism.SHORTCUT, Formalism.CLASSIC):
        naive = naive_paradoxes(3, 800, 100, f)
        fast = [(n, j) for n, j in scan_paradoxes(3, 800, f) if j <= 100]
        assert naive == fast


def _naive_paradoxes_from_scratch(n_lo, n_hi, j_max, formalism):
    # The oracle's definition: every (n, j) recomputed from n, O(N * j_max**2)
    out = []
    for n in range(n_lo, n_hi + 1):
        for j in range(1, j_max + 1):
            cur = n
            q = 0
            e = 0
            reached_one = False
            for _ in range(j):
                if cur == 1:
                    reached_one = True
                    break
                if cur % 2 == 1:
                    q += 1
                    cur = (3 * cur + 1) // 2 if formalism is Formalism.SHORTCUT else 3 * cur + 1
                    if formalism is Formalism.SHORTCUT:
                        e += 1
                else:
                    cur = cur // 2
                    e += 1
            if reached_one:
                break
            if 3**q < 2**e and cur >= n:
                out.append((n, j))
    return out


@pytest.mark.parametrize("formalism", list(Formalism))
def test_one_walk_oracle_equals_the_from_scratch_definition(formalism):
    want = _naive_paradoxes_from_scratch(3, 2000, 100, formalism)
    assert len(want) > 100
    assert naive_paradoxes(3, 2000, 100, formalism) == want
    for lo, hi, j_max in ((1, 40, 30), (27, 27, 200), (7, 9, 8)):
        assert naive_paradoxes(lo, hi, j_max, formalism) == _naive_paradoxes_from_scratch(
            lo, hi, j_max, formalism)


HIT_REGION = (3, 9229)   # every paradox of either map starts in here


@pytest.mark.parametrize("formalism", list(Formalism))
def test_scan_matches_naive_oracle_on_the_hit_region(formalism):
    lo, hi = HIT_REGION
    j_max = max(delay(n, formalism) for n in range(lo, hi + 1)) + 1
    assert scan_paradoxes(lo, hi, formalism) == naive_paradoxes(lo, hi, j_max, formalism)


def test_shortcut_hits_are_the_classic_hits_after_a_halving():
    # A classic iterate right after a halving is the compressed iterate whose
    # index is the halving count, with the same q and e, so the same test.
    classic = scan_paradoxes(3, 10**4, Formalism.CLASSIC)
    mapped = []
    for n, j in classic:
        t = trajectory(n, j, Formalism.CLASSIC)
        if t.iterates[-2] % 2 == 0:
            mapped.append((n, t.e))
    shortcut = scan_paradoxes(3, 10**4, Formalism.SHORTCUT)
    assert len(shortcut) < len(classic)
    assert mapped == shortcut


def _windows(lo: int, hi: int, width: int = 8):
    return st.tuples(st.integers(lo, hi), st.integers(0, width)).map(
        lambda t: (t[0], t[0] + t[1]))


@settings(max_examples=80, deadline=None)
@given(window=st.one_of(
           _windows(3, 9229, width=64),                             # every known hit
           _windows(3, 400, width=40),                              # straddles every nmax
           _windows(3, MEMO_FULL - 9),                              # sparse: 2**16 floor
           _windows(MEMO_FULL - 8, MEMO_FULL).filter(lambda w: w[1] > MEMO_FULL),
           _windows(MEMO_FULL + 1, 1 << 40),                        # far beyond it
           _windows(1 << 64, (1 << 64) + (1 << 40))),               # beyond int64
       formalism=st.sampled_from(Formalism))
def test_scan_matches_naive_oracle(window, formalism):
    lo, hi = window
    j_max = max(delay(n, formalism) for n in range(lo, hi + 1)) + 1
    assert scan_paradoxes(lo, hi, formalism) == naive_paradoxes(lo, hi, j_max, formalism)


@settings(max_examples=60, deadline=None)
@given(window=st.one_of(
           _windows(3, 9229, width=64),
           _windows(3, MEMO_FULL - 9),
           _windows(MEMO_FULL - 8, MEMO_FULL).filter(lambda w: w[1] > MEMO_FULL)),
       formalism=st.sampled_from(Formalism))
def test_blocks_of_a_dense_search_match_naive_oracle(window, formalism):
    # Blocks of the search 3..2**20 + 8, whose memo floor lies past every
    # start: each walk may end at any halving below its start, reading
    # entries that saturate at 2**32 - 1.
    lo, hi = window
    j_max = max(delay(n, formalism) for n in range(lo, hi + 1)) + 1
    fast = scan_paradoxes(lo, hi, formalism, search_range=(3, MEMO_FULL + 8))
    assert fast == naive_paradoxes(lo, hi, j_max, formalism)


def test_excursion_memo_matches_max_excursion():
    memo = array("q", bytes(8)) * 5001
    fill_excursion_memo(memo, 0, 3001)
    fill_excursion_memo(memo, 3001, 5001)   # filling in two parts gives the same entries
    assert memo[0] == 0
    assert list(memo[1:]) == [max_excursion(m) for m in range(1, 5001)]


@settings(max_examples=200, deadline=None)
@given(m=st.integers(1, MEMO_FULL))
def test_process_memo_matches_max_excursion(m):
    # the memo of the search 3..2**20, its entries saturated at 2**32 - 1
    memo, size = search._memo_for_range(3, MEMO_FULL, search._memo_floor(3, MEMO_FULL))
    assert size == MEMO_FULL + 1 and memo[m] == min(max_excursion(m), search._MEMO_MAX)


def test_memo_fill_saturates_at_2_32():
    # 4-byte words, against exact peaks: each start walks to its first
    # iterate below it, whose exact peak is known by then
    n_hi = 1 << 18
    memo = array("I", bytes(4)) * n_hi
    fill_excursion_memo(memo, 0, n_hi)
    exact = array("q", bytes(8)) * n_hi
    for n in range(1, n_hi):
        cur = peak = n
        while cur >= n and n > 2:
            cur = (3 * cur + 1) >> 1 if cur & 1 else cur >> 1
            peak = max(peak, cur)
        exact[n] = max(peak, exact[cur]) if n > 2 else n
    saturated = [n for n in range(n_hi) if exact[n] > search._MEMO_MAX]
    assert saturated[0] == 159487 and exact[159487] == 8601188876
    assert [exact[n] for n in saturated] == [max_excursion(n) for n in saturated]
    assert list(memo) == [min(x, search._MEMO_MAX) for x in exact]
    assert search._MEMO_MAX == (1 << 32) - 1 == memo[159487]


def test_the_walk_floor_depends_on_the_search_alone():
    floor = search._memo_floor
    assert floor(3, 10**6) == 10**6 + 1           # the census: one memo entry a start
    assert floor(4615, 10**7) == 10**7 + 1
    assert floor(1 << 19, (1 << 20) + 1) == (1 << 20) + 2
    assert floor(3, 10**15) == 1 << 24            # past the cap, walks end below it
    assert floor(2**23, 2**23 + 1000) == 1 << 16  # 2**23 entries for 1001 starts: no
    assert floor(5000, 9999) == 10000
    assert floor(5001, 9999) == 1 << 16           # fewer starts than half the entries
    assert floor(593279152, 10**9) == 1 << 24
    assert floor(593279153, 10**10) == 1 << 16    # it builds no memo at all


def test_memo_is_lazy_and_sized_by_the_range():
    # a fresh process: the memo is built by scans only, never at import or by
    # the record scans; a sparse search gets only 2**16 entries, one from
    # 2 * _MEMO_FAR_PEAK + 1 up none, and a block only the entries it reads;
    # the jump rows are built by the first record scan or paradox scan
    code = "\n".join([
        "from collatz_paradox import records, search",
        "assert search._memo is None and search._jump_table is None",
        "records.compute_records(5000, records.RecordKind.MAX_EXCURSION_T)",
        "assert search._memo is None and len(search._jump_table[0]) == 1 << search.JUMP_K",
        "filled = lambda: search._memo[search._MEMO_FULL]   # the filled length",
        "search.scan_paradoxes(3, 5000, search.Formalism.CLASSIC)",
        "assert filled() == 5001",
        "assert len(search._jump_table[0]) == 1 << search.JUMP_K",
        "search.scan_paradoxes(2**40, 2**40 + 10)",
        "assert filled() == 5001",
        "assert len(search._jump_table[0]) == 1 << search.JUMP_K",
        "far = 2 * search._MEMO_FAR_PEAK + 1",
        "search.scan_paradoxes(far, far + 10, search.Formalism.CLASSIC)",
        "assert filled() == 5001",
        "search.scan_paradoxes(3, 5000)",
        "assert filled() == 5001",
        "search.scan_paradoxes(far - 1, far + 10)",
        "assert filled() == 1 << 16",
        "search.scan_paradoxes(100000, 100010)",
        "assert filled() == 1 << 16",
        "search.scan_paradoxes(2**23, 2**23 + 1000)",
        "assert filled() == 1 << 16",
        "memo, floor = search._memo_for_range(2**32 - 5, 2**32 + 5, 1 << 24)",
        "assert floor == 1 << 16 and filled() == 1 << 16",
        "search.scan_paradoxes(50000, 100010)",
        "assert filled() == 100011",
        "search.scan_paradoxes(999000, 10**6, search_range=(3, 10**6))",
        "assert filled() == 10**6 + 1",
        "assert len(search._jump_table[0]) == 1 << search.JUMP_K",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(collatz_paradox.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


def _compressed_steps(x: int, k: int) -> tuple[list[int], int]:
    ys, q = [], 0
    for _ in range(k):
        if x & 1:
            x = (3 * x + 1) >> 1
            q += 1
        else:
            x >>= 1
        ys.append(x)
    return ys, q


def _jump_rows_by_walks(k: int) -> tuple[list[tuple], list[tuple[int, int]], list]:
    # The table as it was first built: every row by its own K-step walk of r.
    # Also each row's no-hit thresholds on either map: x = r mod 2**K has a
    # hit in its first K steps iff x is at or below its map's threshold; and
    # the stopping-time class of each row, (tau, r mod 2**tau, 3**q, c, q,
    # tau_thr, gmax, hmax) at its first step tau with 3**q < 2**tau, or None.
    rows, thresholds, owners = [], [], []
    for r in range(1 << k):
        y, q, c = r, 0, 0
        gs, hs = [], []
        nmax_s = nmax_c = 0
        owner = None
        for i in range(1, k + 1):
            if y & 1:
                y = (3 * y + 1) >> 1
                c = 3 * c + (1 << (i - 1))
                q += 1
                if (1 << (i - 1)) > 3**q:
                    nmax_c = max(nmax_c, c // ((1 << (i - 1)) - 3**q))
            else:
                y >>= 1
            gs.append(3**q << (k - i))
            hs.append(c << (k - i))
            if (1 << i) > 3**q:
                nmax_s = max(nmax_s, c // ((1 << i) - 3**q))
                if owner is None:
                    owner = (i, r % (1 << i), 3**q, c, q, c // ((1 << i) - 3**q),
                             max(gs), max(hs))
        rows.append((3**q, c, q, min(gs), max(gs), max(hs)))
        thresholds.append((nmax_s, max(nmax_s, nmax_c)))
        owners.append(owner)
    return rows, thresholds, owners


def _class_of(r: int, classes: list[tuple]) -> tuple | None:
    """The one stopping-time class of the build that holds residue r, or None."""
    owners = [cls for cls in classes if r % (1 << cls[0]) == cls[1]]
    assert len(owners) <= 1, r
    return owners[0] if owners else None


def test_prefix_tree_build_equals_one_walk_per_row():
    def check(built, k):
        rows, classes, walked = built
        walked_rows, _, owners = _jump_rows_by_walks(k)
        assert rows == walked_rows, k
        assert [_class_of(r, classes) for r in range(1 << k)] == owners, k
        assert classes == sorted({cls for cls in owners if cls}), k
        assert walked == [(r, a, c, dq, gmax, hmax)
                          for r, (a, c, dq, _, gmax, hmax) in enumerate(rows)
                          if owners[r] is None], k
    check(search._jump_tables(), search.JUMP_K)
    for k in (1, 2, 3, 8):   # the tree at other depths
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(search, "JUMP_K", k)
            check(search._build_jump_rows(), k)


def test_no_hit_bounds_are_the_closed_form_and_the_greatest_row_thresholds():
    # x <= E * 2**i / (2**(i-c) - 3**q) for a hit at step i after q odd steps
    # (c = 1: the classic 3x + 1 before it), E at most the extremal remainder
    k = search.JUMP_K
    closed = [max(math.floor(remainder_bounds(i, q).upper * 2**i / (2**(i - c) - 3**q))
                  for i in range(1, k + 1) for q in range(i + 1) for c in cs
                  if 3**q < 2**(i - c))
              for cs in ((0,), (0, 1))]
    thresholds = _jump_rows_by_walks(k)[1]
    greatest = [max(t[m] for t in thresholds) for m in (0, 1)]
    assert [search._NO_HIT_SHORTCUT, search._NO_HIT_CLASSIC] == closed == greatest == [129, 259]


def test_jump_rows_are_exact_k_step_maps_with_two_sided_bounds():
    k = search.JUMP_K
    rows, classes, _ = search._jump_tables()
    assert len(rows) == 1 << k
    for r, (a, c, dq, gmin, gmax, hmax) in enumerate(rows):
        owner = _class_of(r, classes)
        for t in (0, 1, 2, 12345, (1 << 40) + 7, (1 << 64) // (1 << k) + 3, 1 << 90):
            x = (t << k) + r
            ys, q = _compressed_steps(x, k)
            assert (a * x + c) >> k == ys[-1] and dq == q
            for y in ys:
                assert gmin * x <= y << k <= gmax * x + hmax
            if owner:   # the class's own bound on the steps up to its tau
                tau, *_, cls_gmax, cls_hmax = owner
                for y in ys[:tau]:
                    assert y << k <= cls_gmax * x + cls_hmax


def _first_k_steps(x: int, k: int) -> tuple[list[bool], list[bool], int | None]:
    """Per step i = 1..k: is it a hit on the shortcut map, on the classic map
    (also testing the 3x + 1 of an odd step), and the first i with
    3**q_i < 2**i (None if there is none)."""
    hit_s, hit_c, tau = [], [], None
    y, q = x, 0
    for i in range(1, k + 1):
        odd = y & 1
        y, q = ((3 * y + 1) >> 1, q + 1) if odd else (y >> 1, q)
        hit = y >= x and 3**q < 2**i
        hit_s.append(hit)
        hit_c.append(hit or bool(odd and 2 * y >= x and 3**q < 2**(i - 1)))
        if tau is None and 3**q < 2**i:
            tau = i
    return hit_s, hit_c, tau


def test_jump_row_thresholds_match_brute_force():
    k = search.JUMP_K
    thresholds = _jump_rows_by_walks(k)[1]
    classes = search._jump_tables()[1]
    with_hits = ([], [])
    for r in range(1 << k):
        # each row's tau and tau_thr are those of the class that holds it
        owner = _class_of(r, classes)
        tau, tau_thr = (owner[0], owner[5]) if owner else (0, INFINITE)
        nmax_s, nmax_c = thresholds[r]
        for x in range(r or 1 << k, (3 << k) + 1, 1 << k):   # every x = r in 1..3 * 2**K
            hit_s, hit_c, tau_x = _first_k_steps(x, k)
            assert (x <= nmax_s) == any(hit_s), (r, x)
            assert (x <= nmax_c) == any(hit_c), (r, x)
            for found, hit in zip(with_hits, (hit_s, hit_c)):
                if any(hit):
                    found.append(x)
            assert tau == (tau_x or 0)
            if not tau:
                assert tau_thr == INFINITE
            elif x > tau_thr:
                assert stopping_time(x) == coeff_stopping_time(x) == tau, (r, x)
            else:
                assert trajectory(x, tau).last() >= x, (r, x)
    # no start above its map's bound has a hit in its first K steps
    assert max(with_hits[0]) == 25 <= search._NO_HIT_SHORTCUT
    assert max(with_hits[1]) == 51 <= search._NO_HIT_CLASSIC


def _plain_walk(n: int, formalism: Formalism, memo: array) -> tuple[list, int]:
    # One step at a time on the given map, with no jumps: the hits, and the
    # step count at the exit (the first halving onto cur below both n and the
    # memo's end whose compressed-map excursion is below n, 2 * it on the
    # classic map).
    shortcut = formalism is Formalism.SHORTCUT
    factor = 1 if shortcut else 2
    lim = min(n, len(memo))
    hits = []
    cur, q, e, j = n, 0, 0, 0
    while True:
        j += 1
        if cur & 1:
            cur = (3 * cur + 1) >> 1 if shortcut else 3 * cur + 1
            q += 1
            e += shortcut
        else:
            cur >>= 1
            e += 1
            if cur < lim and factor * memo[cur] < n:
                return hits, j
        if cur >= n and 3**q < 2**e:
            hits.append((n, j))


def _assert_budget_parity(lo: int, hi: int, formalism: Formalism, memo: array) -> None:
    # At budgets 1..60, the scan of lo..hi and of each window of 8 starts in
    # it (so that the first start over the budget is not always the same one)
    # raises at the first start whose plain walk is longer than the budget,
    # or gives the plain walks' pairs.
    walks = {n: _plain_walk(n, formalism, memo) for n in range(lo, hi + 1)}
    windows = [(lo, hi)] + [(w, min(w + 7, hi)) for w in range(lo, hi + 1, 8)]
    for w_lo, w_hi in windows:
        for budget in range(1, 61):
            over = [n for n in range(w_lo, w_hi + 1) if walks[n][1] > budget]
            if over:
                want = BudgetExhausted(over[0], budget,
                                       what="walk did not end within the step budget")
                with pytest.raises(BudgetExhausted) as got:
                    scan_paradoxes(w_lo, w_hi, formalism, budget)
                assert str(got.value) == str(want)
            else:
                assert scan_paradoxes(w_lo, w_hi, formalism, budget) == [
                    pair for n in range(w_lo, w_hi + 1) for pair in walks[n][0]]


@pytest.mark.parametrize("formalism", list(Formalism))
@pytest.mark.parametrize("lo, hi", [(3, 400), (150, 550), (5000, 5400)])
def test_budget_parity_with_a_plain_walk_inside_the_memo(lo, hi, formalism):
    memo = array("q", bytes(8)) * (hi + 1)
    fill_excursion_memo(memo, 0, hi + 1)
    _assert_budget_parity(lo, hi, formalism, memo)


@functools.lru_cache(maxsize=None)
def _fresh_memo(size: int):
    memo = array("q", bytes(8)) * size
    fill_excursion_memo(memo, 0, size)
    return lambda *block: (memo, size)


@pytest.mark.parametrize("formalism", list(Formalism))
@pytest.mark.parametrize("lo, hi", [(130, 1540), (5240, 5360)])
def test_budget_parity_with_a_plain_walk_past_a_small_memo(lo, hi, formalism):
    # Past a 64-entry memo a start jumps its first K steps only where every
    # iterate inside the jump stays at or above the floor: a jump that skipped
    # an exit would end the walk later, with the same pairs but another length.
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_memo_for_range", _fresh_memo(64))
        _assert_budget_parity(lo, hi, formalism, _fresh_memo(64)(0, 0)[0])


@settings(max_examples=60, deadline=None)
@given(window=_windows(3, 9229, width=64), formalism=st.sampled_from(Formalism))
def test_jumps_among_real_hits_match_naive_oracle(window, formalism):
    # A 64-entry memo puts every start >= 64 "far out", so the walks jump
    # through the range where the known hits lie.
    lo, hi = window
    j_max = max(delay(n, formalism) for n in range(lo, hi + 1)) + 1
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(search, "_memo_for_range", _fresh_memo(64))
        fast = scan_paradoxes(lo, hi, formalism)
    assert fast == naive_paradoxes(lo, hi, j_max, formalism)


def _walk_length(n: int, formalism: Formalism) -> int:
    # Step by step on the given map, ending at the first halving onto
    # cur < 2**16 whose compressed-map excursion is below n (2 * it, classic).
    shortcut = formalism is Formalism.SHORTCUT
    factor = 1 if shortcut else 2
    cur, j = n, 0
    while True:
        j += 1
        if cur & 1:
            cur = (3 * cur + 1) >> 1 if shortcut else 3 * cur + 1
            continue
        cur >>= 1
        if cur < 1 << 16 and factor * max_excursion(cur) < n:
            return j


@pytest.mark.parametrize("formalism", list(Formalism))
@pytest.mark.parametrize("n", [10**9 + 1, 1410123942, 2**64 + 1, 2**64 + 27, 28 * 10**18 - 1])
def test_budget_pins_the_walk_length_beyond_the_memo(n, formalism):
    length = _walk_length(n, formalism)
    assert scan_paradoxes(n, n, formalism, budget=length) == []
    with pytest.raises(BudgetExhausted, match=rf"\(n = {n}, budget = {length - 1}\)"):
        scan_paradoxes(n, n, formalism, budget=length - 1)


def test_far_memo_peak_is_the_greatest_excursion_below_2_16():
    memo, size = _fresh_memo(1 << 16)(0, 0)
    assert max(memo) == search._MEMO_FAR_PEAK == memo[60975]
    assert 2 * search._MEMO_FAR_PEAK + 1 == 593279153


def test_far_windows_read_an_empty_memo_as_a_filled_one():
    # A fresh process, whose far scans fill no memo entry: each window gives
    # the same pairs and the same budget error as with a filled 2**16 memo.
    code = "\n".join([
        "from array import array",
        "from hypothesis import given, settings, strategies as st",
        "from collatz_paradox import search",
        "from collatz_paradox.dynamics import BudgetExhausted, Formalism",
        "far = 2 * search._MEMO_FAR_PEAK + 1",
        "filled = array('q', bytes(8)) * (1 << 16)",
        "search.fill_excursion_memo(filled, 0, 1 << 16)",
        "process_memo = search._memo_for_range",
        "def outcome(lo, hi, formalism, budget, memo_for_range):",
        "    search._memo_for_range = memo_for_range",
        "    try:",
        "        return search.scan_paradoxes(lo, hi, formalism, budget)",
        "    except BudgetExhausted as exc:",
        "        return exc.n, exc.budget",
        "    finally:",
        "        search._memo_for_range = process_memo",
        "@settings(max_examples=150, deadline=None, database=None)",
        "@given(lo=st.one_of(st.integers(far, far + 10**6), st.integers(far, 1 << 70)),",
        "       width=st.integers(0, 16), formalism=st.sampled_from(Formalism),",
        "       budget=st.one_of(st.integers(1, 400), st.just(search.DEFAULT_BUDGET)))",
        "def same(lo, width, formalism, budget):",
        "    empty = outcome(lo, lo + width, formalism, budget, process_memo)",
        "    assert empty == outcome(lo, lo + width, formalism, budget,",
        "                            lambda n_lo, n_hi, floor: (filled, 1 << 16))",
        "same()",
        "assert search._memo[search._MEMO_FULL] == 0 and not any(search._memo[:1 << 16])",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(collatz_paradox.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True, timeout=300)


def test_budget_does_not_depend_on_what_the_process_scanned_before():
    # A sparse search past the cap ends its walks below 2**16 even once the
    # memo is longer: 16789897 walks 119 steps down to 2**16, 17 down to 2**20.
    search._memo_for_range(3, MEMO_FULL, search._memo_floor(3, MEMO_FULL))
    n = 16789897
    assert _walk_length(n, Formalism.SHORTCUT) == 119
    assert scan_paradoxes(n, n, budget=119) == []
    with pytest.raises(BudgetExhausted, match=rf"\(n = {n}, budget = 118\)"):
        scan_paradoxes(n, n, budget=118)


def test_census_submodule_is_reachable_from_the_package():
    rows, summary = collatz_paradox.census.census(run_search(SearchConfig(3, 30)).hits())
    assert [(r.key(), r.count) for r in rows] == [((8, 5), 5)]
    assert summary.distinct_starts == 5


def test_package_exports_are_one_list_of_names():
    exported = collatz_paradox.__all__
    assert len(exported) == len(set(exported)) == 53
    for name in exported:   # each name loads its module on first use
        getattr(collatz_paradox, name)
    with pytest.raises(AttributeError, match="no attribute 'cli_main'"):
        collatz_paradox.cli_main
    assert set(exported) <= set(dir(collatz_paradox))
    public = {name for name, value in vars(collatz_paradox).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert set(exported) == public   # every public name, and no module
    assert isinstance(collatz_paradox.census, types.ModuleType)
    # and in a fresh process, before anything has imported the module
    code = "import collatz_paradox, types; assert isinstance(collatz_paradox.census, types.ModuleType)"
    env = {**os.environ, "PYTHONPATH": str(Path(collatz_paradox.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code], env=env, check=True)


@pytest.mark.parametrize("formalism", list(Formalism))
def test_passes_through_equals_membership_in_the_iterates(formalism):
    hits = run_search(SearchConfig(3, 5000, formalism)).hits()
    assert hits
    for h in hits:
        iterates = trajectory(h.n, h.j, formalism).iterates
        for value in (11, 103, 0, h.n, iterates[-1]):
            assert _passes_through(h, value) is (value in iterates), (h.n, h.j, value)


def test_census_decimal_rendering_nearest():
    assert _decimal(Fraction(347, 256), 2) == "1.36"     # 1.3554...
    assert _decimal(Fraction(243, 256), 3) == "0.949"
    assert _decimal(Fraction(-1, 2), 1) == "-0.5"
    assert _decimal(Fraction(1, 2), 0) == "1"            # 0.5 rounds away from zero


def test_classic_walks_stop_at_one():
    # under the classic map, walks must not run into the 1-4-2 cycle: starts 3
    # and 4 would otherwise pick up artificial hits (e.g. 3 -> ... -> 1 -> 4)
    assert scan_paradoxes(3, 6, Formalism.CLASSIC) == []


def test_verify_cst():
    rep = verify_cst(2, 50000)
    assert rep.ok and rep.max_gap == 0 and rep.checked == 49999
    with pytest.raises(ValueError):
        verify_cst(1, 10)
    rep = verify_cst(2, 2)
    assert rep.ok and rep.checked == 1


@settings(max_examples=60, deadline=None)
@given(window=st.one_of(_windows(2, 5000, width=64), _windows(2, 1 << 40),
                        _windows(1 << 64, (1 << 64) + (1 << 40)),
                        _windows(2, 2000, width=300)))   # every residue class mod 2**K
def test_verify_cst_matches_scalar_oracles(window):
    lo, hi = window
    bad = [(n, coeff_stopping_time(n), stopping_time(n)) for n in range(lo, hi + 1)
           if coeff_stopping_time(n) != stopping_time(n)]
    rep = verify_cst(lo, hi)
    assert rep.checked == hi - lo + 1
    assert rep.counterexamples == bad
    assert rep.max_gap == max((t - tau for _, tau, t in bad), default=0)


@pytest.mark.parametrize("lo, hi", [(2, 2000), (1000, 1300)])
def test_cst_budget_parity_with_the_scalar_oracle(lo, hi):
    # the sieve skips only starts that descend within K steps, so the first
    # start over the budget, and its message, are those of stopping_time
    for budget in range(1, 61):
        over = next((n for n in range(lo, hi + 1) if stopping_time(n) > budget), None)
        if over is None:
            assert verify_cst(lo, hi, budget).ok
            continue
        with pytest.raises(BudgetExhausted) as want:
            stopping_time(over, budget)
        with pytest.raises(BudgetExhausted) as got:
            verify_cst(lo, hi, budget)
        assert str(got.value) == str(want.value)
