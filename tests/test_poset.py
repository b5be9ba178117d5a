import enum
from itertools import combinations, product

import pytest

from collatz_paradox import checks, poset
from collatz_paradox.dynamics import trajectory
from collatz_paradox.poset import (WORD_CAP, HasseDiagram, MonotonicityReport,
                                   all_vectors, check_remainder_monotonicity, covers,
                                   hasse, run_length, up_sets)


def V(bits: str) -> tuple[int, ...]:
    return tuple(int(c) for c in bits)


def word(v: tuple[int, ...]) -> str:
    return "".join(map(str, v))


def sources(d) -> list[tuple[int, ...]]:
    has_in = {b for _, b in d.edges}
    return [v for i, v in enumerate(d.nodes) if i not in has_in]


def sinks(d) -> list[tuple[int, ...]]:
    has_out = {a for a, _ in d.edges}
    return [v for i, v in enumerate(d.nodes) if i not in has_out]


def edges_rise_in_lex_order(d) -> bool:
    # so the cover graph has no cycle
    return all(d.nodes[a] < d.nodes[b] for a, b in d.edges)


class Rel(enum.Enum):
    LESS = "less"
    EQUAL = "equal"
    GREATER = "greater"
    INCOMPARABLE = "incomparable"


def _compare(v: tuple[int, ...], w: tuple[int, ...]) -> Rel:
    # the order between two words as up_sets decides it
    try:
        up_v, up_w = up_sets([v, w])
    except ValueError:   # words of different shapes, which are incomparable
        return Rel.INCOMPARABLE
    below, above = bool(up_v & 2), bool(up_w & 1)
    if below and above:
        return Rel.EQUAL
    if below:
        return Rel.LESS
    if above:
        return Rel.GREATER
    return Rel.INCOMPARABLE


def _strictly_less(nodes) -> list[list[bool]]:
    # less[i][k]: nodes[i] strictly precedes nodes[k], read from up_sets
    ups = up_sets(nodes)
    return [[i != k and bool(ups[i] >> k & 1) for k in range(len(nodes))]
            for i in range(len(nodes))]


def test_compare_published_examples():
    assert _compare(V("0110"), V("1001")) is Rel.INCOMPARABLE
    assert _compare(V("0011"), V("1100")) is Rel.LESS
    assert _compare(V("1100"), V("0011")) is Rel.GREATER
    assert _compare(V("01110"), V("10101")) is Rel.INCOMPARABLE
    assert _compare(V("01110"), V("11001")) is Rel.INCOMPARABLE
    assert _compare(V("01110"), V("10011")) is Rel.INCOMPARABLE
    assert _compare(V("0110"), V("0110")) is Rel.EQUAL


def _compare_by_walk(v: tuple[int, ...], w: tuple[int, ...]) -> Rel:
    # running prefix sums of both words, built on every call
    if len(v) != len(w) or sum(v) != sum(w):
        return Rel.INCOMPARABLE
    if v == w:
        return Rel.EQUAL
    le = ge = True
    a = b = 0
    for x, y in zip(v[:-1], w[:-1]):
        a += x
        b += y
        if a > b:
            le = False
        elif a < b:
            ge = False
    if le:
        return Rel.LESS
    if ge:
        return Rel.GREATER
    return Rel.INCOMPARABLE


def test_compare_equals_the_prefix_sum_walk():
    words = [bits for j in range(1, 9) for bits in product((0, 1), repeat=j)]
    for v in words:
        for w in words:
            assert _compare(v, w) is _compare_by_walk(v, w), (v, w)


def _assert_up_sets_equal_the_walk(nodes):
    ups = up_sets(nodes)
    assert len(ups) == len(nodes)
    for i, v in enumerate(nodes):
        for k, w in enumerate(nodes):
            below = _compare_by_walk(v, w) in (Rel.LESS, Rel.EQUAL)
            assert bool(ups[i] >> k & 1) is below, (v, w)


def test_up_sets_equal_compare_on_every_pair():
    for j in range(1, 9):
        for q in range(j + 1):
            _assert_up_sets_equal_the_walk(all_vectors(j, q))


def test_up_sets_do_not_lean_on_lexicographic_order():
    # the classic-realisable words (no 11), in an order that is not lexicographic
    for j in range(2, 9):
        for q in range(j + 1):
            nodes = [v for v in all_vectors(j, q) if "11" not in word(v)]
            _assert_up_sets_equal_the_walk(nodes[1::2] + nodes[::-2])


def test_up_sets_edge_cases():
    assert up_sets([]) == []
    with pytest.raises(ValueError, match="one length and one weight"):
        up_sets([V("01"), V("11")])


def test_compare_rejects_mismatched_shapes():
    assert _compare(V("01"), V("011")) is Rel.INCOMPARABLE
    assert _compare(V("01"), V("11")) is Rel.INCOMPARABLE
    assert _compare_by_walk(V("01"), V("011")) is Rel.INCOMPARABLE
    assert _compare_by_walk(V("01"), V("11")) is Rel.INCOMPARABLE
    with pytest.raises(ValueError, match="one length and one weight"):
        up_sets([V("01"), V("011")])


def test_covers():
    assert covers(V("001")) == {V("010")}
    assert covers(V("0110")) == {V("1010")}
    assert covers(V("1100")) == set()          # maximal: no "01" present
    assert covers(V("0101")) == {V("1001"), V("0110")}


def test_hasse_total_order_length3():
    d = hasse(3, 1)
    assert d.node_count == 3 and d.edge_count == 2
    labels = [word(v) for v in d.nodes]
    assert labels == ["001", "010", "100"]
    assert sources(d) == [V("001")] and sinks(d) == [V("100")]


def test_hasse_length4_weight2():
    d = hasse(4, 2)
    assert d.node_count == 6
    assert _compare(V("0110"), V("1001")) is Rel.INCOMPARABLE
    assert edges_rise_in_lex_order(d)
    assert sources(d) == [V("0011")] and sinks(d) == [V("1100")]


def test_hasse_trivial_and_cap():
    assert hasse(5, 0).node_count == 1
    with pytest.raises(ValueError):
        hasse(WORD_CAP + 1, 2)


def test_unique_extremes_everywhere():
    for j in range(1, 8):
        for q in range(j + 1):
            d = hasse(j, q)
            assert edges_rise_in_lex_order(d)
            lo = "0" * (j - q) + "1" * q
            hi = "1" * q + "0" * (j - q)
            assert [word(v) for v in sources(d)] == [lo]
            assert [word(v) for v in sinks(d)] == [hi]


def test_partial_order_axioms_exhaustive():
    for j in range(1, 9):
        for q in range(j + 1):
            nodes = all_vectors(j, q)
            less = _strictly_less(nodes)
            for i, a in enumerate(nodes):
                for k, b in enumerate(nodes):
                    if less[i][k]:
                        assert not less[k][i]          # antisymmetry
                        assert _compare(b, a) is Rel.GREATER
            n = len(nodes)
            for i in range(n):
                for k in range(n):
                    if not less[i][k]:
                        continue
                    for m in range(n):
                        if less[k][m]:
                            assert less[i][m]          # transitivity


def test_less_is_consistent_with_lex_order():
    for j in range(1, 9):
        for q in range(j + 1):
            nodes = all_vectors(j, q)
            less = _strictly_less(nodes)
            for i, k in combinations(range(len(nodes)), 2):
                if less[i][k]:
                    assert nodes[i] < nodes[k]


def test_hasse_edges_are_the_transitive_reduction():
    # not stated by the source material; asserted on small cases instead
    for j in range(2, 7):
        for q in range(j + 1):
            d = hasse(j, q)
            nodes = d.nodes
            less = _strictly_less(nodes)
            strictly_less = {(i, k) for i in range(len(nodes))
                             for k in range(len(nodes)) if less[i][k]}
            covering = {(i, k) for (i, k) in strictly_less
                        if not any((i, m) in strictly_less and (m, k) in strictly_less
                                   for m in range(len(nodes)))}
            assert set(d.edges) == covering


def test_remainder_monotonicity_small():
    for j in (1, 4, 8):
        rep = check_remainder_monotonicity(j)
        assert rep.ok
    assert check_remainder_monotonicity(1).pairs_checked == 0


def _residue_words(j):
    # parity word -> e_num, read off one trajectory per residue mod 2**j
    out = {}
    for n in range(1, 2**j + 1):
        t = trajectory(n, j)
        out[tuple(m & 1 for m in t.iterates[:-1])] = t.e_num
    return out


def test_word_fold_equals_the_trajectory_remainder():
    # each residue's word folds to its trajectory's e_num, and the residues of
    # one period give every word: the check that reads words misses no residue
    for j in range(1, 11):
        by_word = _residue_words(j)
        assert len(by_word) == 2**j
        for v, num in by_word.items():
            assert poset._remainder_numerator(v) == num, (j, v)


def _monotonicity_by_pair_loop(j, numerator):
    # one prefix-sum walk per ordered pair of one weight, in member order
    checked = 0
    violations = []
    for q in range(j + 1):
        members = all_vectors(j, q)
        for v in members:
            for w in members:
                if _compare_by_walk(v, w) is Rel.LESS:
                    checked += 1
                    if not numerator[v] > numerator[w]:
                        violations.append((v, w))
    return MonotonicityReport(j, checked, violations)


def test_monotonicity_report_equals_the_pair_loop():
    for j in range(1, 11):
        fast = check_remainder_monotonicity(j)
        slow = _monotonicity_by_pair_loop(j, _residue_words(j))
        assert (fast.pairs_checked, fast.violations) == (slow.pairs_checked, slow.violations)
        assert fast.ok


def test_monotonicity_shortcut_pair_counts():
    counts = [check_remainder_monotonicity(j).pairs_checked for j in range(1, 11)]
    assert counts == [0, 1, 6, 26, 100, 365, 1302, 4606, 16284, 57762]
    assert sum(counts) == 80452


def test_monotonicity_violations_are_listed_like_the_pair_loop(monkeypatch):
    # a wrong remainder numerator on every word that starts 00 (the residues
    # 0 mod 4), tied on all of them, so that both implementations must
    # enumerate violations
    real = poset._remainder_numerator

    def bent(v):
        return 0 if v[:2] == (0, 0) else real(v)

    monkeypatch.setattr(poset, "_remainder_numerator", bent)
    for j in (5, 6, 8):
        fast = check_remainder_monotonicity(j)
        slow = _monotonicity_by_pair_loop(j, {v: bent(v) for q in range(j + 1)
                                              for v in all_vectors(j, q)})
        assert fast.violations
        assert (fast.pairs_checked, fast.violations) == (slow.pairs_checked, slow.violations)


def test_closure_check_fails_without_one_cover(monkeypatch):
    real = poset.covers
    dropped = V("010101")

    def fewer(v):
        out = real(v)
        if v == dropped:
            out.discard(V("011001"))
        return out

    assert V("011001") in real(dropped)
    monkeypatch.setattr(poset, "covers", fewer)
    assert not checks._closure_equals_compare(6)
    assert checks._closure_equals_compare(5)


def test_closure_check_fails_on_an_edge_that_does_not_rise(monkeypatch):
    # the true covers 001 -> 010 -> 100, the second against node order: its
    # closure is right, but the one-pass reach cannot rely on it
    built = HasseDiagram(3, 1, [V("100"), V("001"), V("010")], [(1, 2), (2, 0)])
    real = poset.hasse
    monkeypatch.setattr(poset, "hasse", lambda j, q: built if q == 1 else real(j, q))
    assert not checks._closure_equals_compare(3)
    monkeypatch.setattr(poset, "hasse", real)
    assert checks._closure_equals_compare(3)


def test_remainder_monotonicity_counts_every_pair_past_j_10():
    rep = check_remainder_monotonicity(12)
    assert rep.ok and rep.pairs_checked == 738804


def test_remainder_monotonicity_refuses_words_past_the_cap():
    assert WORD_CAP == 16
    with pytest.raises(ValueError, match="j > 16"):
        check_remainder_monotonicity(17)


def test_dot_export():
    d = hasse(3, 1)
    dot = d.to_dot()
    assert dot.startswith("digraph")
    assert '"0^2 1"' in dot and '"1 0^2"' in dot
    assert dot.count("->") == 2


def test_run_length_display():
    assert run_length((1, 1, 0, 0, 0, 1)) == "1^2 0^3 1"
    assert run_length((0, 1, 1, 0)) == "0 1^2 0"
    assert run_length((1,)) == "1"
