"""Unordered majorization on parity vectors: the words of 0/1 bits, as
tuples, that give the parities of the first j iterates of a trajectory.

The generating relation swaps one adjacent "01" into "10"; its transitive
closure coincides with prefix-sum dominance between words of equal length and
equal weight.  Both views are implemented: `up_sets` decides the order, giving
every member's whole up-set in one (length, weight) class as an int bitmask,
`covers` yields the generator edges, and `hasse` materializes the diagram for
one class.  `check_remainder_monotonicity` tests, on the words alone, that the
order makes the compressed map's remainder strictly decreasing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import accumulate, combinations, groupby

WORD_CAP = 16   # longest words of hasse and the monotonicity check (C(j, q), 2**j explode)


def _prefix_sums(v: tuple[int, ...]) -> tuple[int, ...]:
    """The proper prefix sums of v: the ones among its first i + 1 bits, i < len(v) - 1."""
    return tuple(accumulate(v[:-1]))


def covers(v: tuple[int, ...]) -> set[tuple[int, ...]]:
    """Upper covers: every word obtained by one adjacent 01 -> 10 swap."""
    out = set()
    for i in range(len(v) - 1):
        if v[i] == 0 and v[i + 1] == 1:
            out.add(v[:i] + (1, 0) + v[i + 2:])
    return out


def up_sets(vectors: list[tuple[int, ...]]) -> list[int]:
    """Up-set of every member of one (length, weight) class, as a bitmask.

    This is the order: bit k of the i-th mask is set exactly when vectors[i]
    precedes or equals vectors[k], that is when every proper prefix sum of
    vectors[i] is <= that of vectors[k].  Words of different length or weight
    are never comparable, so they are refused.  For each prefix position one
    mask per value s holds the members whose sum there is >= s (a suffix OR
    over s); an up-set is the AND of its member's masks over the positions.
    That is about N * j big-int ANDs for N members, not N**2 pair comparisons.
    """
    if not vectors:
        return []
    j, q = len(vectors[0]), sum(vectors[0])
    if any(len(v) != j or sum(v) != q for v in vectors):
        raise ValueError("up_sets needs vectors of one length and one weight")
    ups = [(1 << len(vectors)) - 1] * len(vectors)
    for column in zip(*map(_prefix_sums, vectors)):
        at_least = [0] * (q + 2)
        for k, s in enumerate(column):
            at_least[s] |= 1 << k
        for s in range(q, -1, -1):
            at_least[s] |= at_least[s + 1]
        ups = [u & at_least[s] for u, s in zip(ups, column)]
    return ups


def all_vectors(j: int, q: int) -> list[tuple[int, ...]]:
    """All words of length j with q ones, in lexicographic order."""
    if not 0 <= q <= j:
        raise ValueError("need 0 <= q <= j")
    out = []
    for ones in combinations(range(j), q):
        bits = [0] * j
        for i in ones:
            bits[i] = 1
        out.append(tuple(bits))
    out.sort()
    return out


def run_length(v: tuple[int, ...]) -> str:
    """Compact display: runs abbreviated with ^, e.g. "1^2 0^3 1"."""
    parts = []
    for bit, run in groupby(v):
        n = len(list(run))
        parts.append(f"{bit}^{n}" if n > 1 else f"{bit}")
    return " ".join(parts)


@dataclass
class HasseDiagram:
    """Cover graph of one (length, weight) class."""

    j: int
    q: int
    nodes: list[tuple[int, ...]]
    edges: list[tuple[int, int]] = field(default_factory=list)  # (lower, upper) node indices

    @property
    def node_count(self) -> int:
        return len(self.nodes)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def successors(self) -> list[list[int]]:
        succ: list[list[int]] = [[] for _ in self.nodes]
        for a, b in self.edges:
            succ[a].append(b)
        return succ

    def to_dot(self, name: str = "hasse") -> str:
        """Graph-description text: one node per vector, one edge per cover."""
        lines = [f'digraph {name} {{']
        lines.append('  rankdir=BT;')
        for i, v in enumerate(self.nodes):
            lines.append(f'  n{i} [label="{run_length(v)}"];')
        for a, b in sorted(self.edges):
            lines.append(f'  n{a} -> n{b};')
        lines.append("}")
        return "\n".join(lines) + "\n"


def hasse(j: int, q: int) -> HasseDiagram:
    """Hasse diagram over all C(j, q) vectors; j at most WORD_CAP."""
    if j > WORD_CAP:
        raise ValueError(f"length {j} exceeds cap {WORD_CAP}")
    nodes = all_vectors(j, q)
    index = {v: i for i, v in enumerate(nodes)}
    edges = []
    for i, v in enumerate(nodes):
        for w in covers(v):
            edges.append((i, index[w]))
    return HasseDiagram(j, q, nodes, sorted(edges))


def _remainder_numerator(v: tuple[int, ...]) -> int:
    """The compressed map's remainder numerator after the steps whose parities v
    gives, the `e_num` of `trajectory`: sum of 3**(q - k) * 2**i_k over the
    1-positions i_1 < ... < i_q of v."""
    c = 0
    for i, bit in enumerate(v):
        if bit:
            c = 3 * c + (1 << i)
    return c


@dataclass
class MonotonicityReport:
    j: int
    pairs_checked: int
    violations: list[tuple[tuple[int, ...], tuple[int, ...]]]  # words v < w, E(v) <= E(w)

    @property
    def ok(self) -> bool:
        return not self.violations


def check_remainder_monotonicity(j: int) -> MonotonicityReport:
    """Strictly preceding parity vectors must have strictly larger remainders
    on the compressed map, for every word of length j and so for every residue
    mod 2**j: r -> (parities of r's first j steps) is a bijection of the
    residues onto the words (R. Terras, 1976).  The words of one weight,
    `all_vectors(j, q)`, share the denominator 2**j, so numerators compare
    them.  Every comparable pair is read from the `up_sets` and a mask of the
    members whose numerator is not smaller; the violations, word pairs, come
    out in the order of a nested loop over the members.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if j > WORD_CAP:
        raise ValueError(f"j > {WORD_CAP} not supported (2**j words)")
    violations = []
    checked = 0
    for q in range(j + 1):
        members = all_vectors(j, q)
        ups = up_sets(members)
        nums = [_remainder_numerator(v) for v in members]
        # at_least[num]: the members whose numerator is >= num (the last write
        # for num comes after every member whose numerator is >= num)
        mask, at_least = 0, {}
        for num, k in sorted(zip(nums, range(len(nums))), reverse=True):
            mask = at_least[num] = mask | 1 << k
        for k, (v, num) in enumerate(zip(members, nums)):
            strict = ups[k] & ~(1 << k)
            checked += strict.bit_count()
            bad = strict & at_least[num]
            while bad:   # ascending member order, as a pair loop would give
                low = bad & -bad
                violations.append((v, members[low.bit_length() - 1]))
                bad ^= low
    return MonotonicityReport(j, checked, violations)
