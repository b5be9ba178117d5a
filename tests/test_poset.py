from itertools import combinations, product

import pytest

from collatz_paradox.dynamics import Formalism
from collatz_paradox.poset import (HASSE_DEFAULT_CAP, PosetRelation, all_vectors,
                                   check_remainder_monotonicity, compare, covers,
                                   hasse)
from collatz_paradox.vectors import ParityVector


def V(bits: str) -> ParityVector:
    return ParityVector(int(c) for c in bits)


def word(v: ParityVector) -> str:
    return "".join(map(str, v.bits))


def sources(d) -> list[ParityVector]:
    has_in = {b for _, b in d.edges}
    return [v for i, v in enumerate(d.nodes) if i not in has_in]


def sinks(d) -> list[ParityVector]:
    has_out = {a for a, _ in d.edges}
    return [v for i, v in enumerate(d.nodes) if i not in has_out]


def edges_rise_in_lex_order(d) -> bool:
    # so the cover graph has no cycle
    return all(d.nodes[a].bits < d.nodes[b].bits for a, b in d.edges)


def test_compare_published_examples():
    assert compare(V("0110"), V("1001")) is PosetRelation.INCOMPARABLE
    assert compare(V("0011"), V("1100")) is PosetRelation.LESS
    assert compare(V("1100"), V("0011")) is PosetRelation.GREATER
    assert compare(V("01110"), V("10101")) is PosetRelation.INCOMPARABLE
    assert compare(V("01110"), V("11001")) is PosetRelation.INCOMPARABLE
    assert compare(V("01110"), V("10011")) is PosetRelation.INCOMPARABLE
    assert compare(V("0110"), V("0110")) is PosetRelation.EQUAL


def _compare_by_walk(v: ParityVector, w: ParityVector) -> PosetRelation:
    # running prefix sums of both words, built on every call
    if len(v) != len(w) or v.q != w.q:
        return PosetRelation.INCOMPARABLE
    if v.bits == w.bits:
        return PosetRelation.EQUAL
    le = ge = True
    a = b = 0
    for x, y in zip(v.bits[:-1], w.bits[:-1]):
        a += x
        b += y
        if a > b:
            le = False
        elif a < b:
            ge = False
    if le:
        return PosetRelation.LESS
    if ge:
        return PosetRelation.GREATER
    return PosetRelation.INCOMPARABLE


def test_compare_equals_the_prefix_sum_walk():
    words = [ParityVector(bits) for j in range(1, 9) for bits in product((0, 1), repeat=j)]
    for v in words:
        for w in words:
            assert compare(v, w) is _compare_by_walk(v, w), (v, w)


def test_compare_rejects_mismatched_shapes():
    assert compare(V("01"), V("011")) is PosetRelation.INCOMPARABLE
    assert compare(V("01"), V("11")) is PosetRelation.INCOMPARABLE


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
    assert compare(V("0110"), V("1001")) is PosetRelation.INCOMPARABLE
    assert edges_rise_in_lex_order(d)
    assert sources(d) == [V("0011")] and sinks(d) == [V("1100")]


def test_hasse_trivial_and_cap():
    assert hasse(5, 0).node_count == 1
    with pytest.raises(ValueError):
        hasse(HASSE_DEFAULT_CAP + 1, 2)


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
            less = [[compare(a, b) is PosetRelation.LESS for b in nodes] for a in nodes]
            for i, a in enumerate(nodes):
                for k, b in enumerate(nodes):
                    if less[i][k]:
                        assert not less[k][i]          # antisymmetry
                        assert compare(b, a) is PosetRelation.GREATER
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
            for a, b in combinations(all_vectors(j, q), 2):
                if compare(a, b) is PosetRelation.LESS:
                    assert a.bits < b.bits


def test_hasse_edges_are_the_transitive_reduction():
    # not stated by the source material; asserted on small cases instead
    for j in range(2, 7):
        for q in range(j + 1):
            d = hasse(j, q)
            nodes = d.nodes
            strictly_less = {(i, k) for i, a in enumerate(nodes)
                             for k, b in enumerate(nodes)
                             if compare(a, b) is PosetRelation.LESS}
            covering = {(i, k) for (i, k) in strictly_less
                        if not any((i, m) in strictly_less and (m, k) in strictly_less
                                   for m in range(len(nodes)))}
            assert set(d.edges) == covering


def test_remainder_monotonicity_small():
    for j in (1, 4, 8):
        rep = check_remainder_monotonicity(j)
        assert rep.ok
    assert check_remainder_monotonicity(1).pairs_checked == 0


def test_remainder_monotonicity_cover_mode():
    rep = check_remainder_monotonicity(12)
    assert rep.ok and rep.pairs_checked > 0


def test_remainder_monotonicity_classic_map():
    # pairwise mode holds on the classic map, and checks each pair of parity
    # vectors once however many residues realise it; cover mode is refused
    # there before any walk, since a cover may contain 11 (no classic
    # trajectory has it)
    for j, pairs in ((4, 9), (10, 2139)):
        rep = check_remainder_monotonicity(j, Formalism.CLASSIC)
        assert rep.ok and rep.pairs_checked == pairs
    with pytest.raises(ValueError, match="contain 11"):
        check_remainder_monotonicity(11, Formalism.CLASSIC)


def test_dot_export():
    d = hasse(3, 1)
    dot = d.to_dot()
    assert dot.startswith("digraph")
    assert '"0^2 1"' in dot and '"1 0^2"' in dot
    assert dot.count("->") == 2
