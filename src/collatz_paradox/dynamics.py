"""Collatz dynamics with an exactly maintained linear decomposition.

Two formalisms are supported: the compressed map n -> (3n+1)/2 or n/2
("shortcut") and the classic map n -> 3n+1 or n/2.  A trajectory keeps its
iterates and the exact decomposition of the last one,

    iterate_j = (3**q / 2**e) * n + E

where q counts odd steps, e counts halvings and E = e_num / 2**e is carried
as its integer numerator, so that every update is a shift/add.  All
arithmetic is on unbounded integers; nothing here ever rounds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction


class BudgetExhausted(RuntimeError):
    """An iteration budget ran out before the walk settled.

    For any start above 2 this would be a major discovery, so callers treat
    it as an error rather than a soft result.
    """

    def __init__(self, n: int, budget: int, what: str = "iteration budget exhausted"):
        super().__init__(f"{what} (n = {n}, budget = {budget})")
        self.n = n
        self.budget = budget


class Formalism(enum.Enum):
    SHORTCUT = "shortcut"  # odd n -> (3n+1)/2
    CLASSIC = "classic"    # odd n -> 3n+1

    @classmethod
    def parse(cls, name: str) -> "Formalism":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown formalism {name!r} (use shortcut|classic)") from None


def step(n: int, formalism: Formalism = Formalism.SHORTCUT) -> int:
    """One application of the map; n must be a positive integer."""
    if n < 1:
        raise ValueError("domain is positive integers")
    if n & 1:
        return (3 * n + 1) >> 1 if formalism is Formalism.SHORTCUT else 3 * n + 1
    return n >> 1


def orbit(n: int, formalism: Formalism = Formalism.SHORTCUT):
    """Yield (iterate, q, e) after each step of `step` from n, without end: the
    reference walk.  q counts the odd steps and e the halvings (a classic odd
    step 3n + 1 halves nothing); n must be a positive integer."""
    shortcut = formalism is Formalism.SHORTCUT
    q = e = 0
    while True:
        odd = n & 1
        n = step(n, formalism)
        q += odd
        if shortcut or not odd:
            e += 1
        yield n, q, e


@dataclass(frozen=True)
class Trajectory:
    """Iterates of one finite trajectory and its final linear form.

    After j steps, iterate_j = (3**q / 2**e) * start + e_num / 2**e.
    """

    start: int
    formalism: Formalism
    iterates: tuple[int, ...]
    q: int
    e: int
    e_num: int

    @property
    def j(self) -> int:
        return len(self.iterates) - 1

    def coefficient_lt_one(self) -> bool:
        # 3**q < 2**e iff bit_length(3**q) <= e (equality of the powers is impossible)
        return (3**self.q).bit_length() <= self.e

    def remainder(self) -> Fraction:
        return Fraction(self.e_num, 1 << self.e)

    def last(self) -> int:
        return self.iterates[-1]

    def is_paradoxical(self) -> bool:
        """Coefficient 3**q / 2**e below 1 and last term at least the first."""
        if self.j < 1:
            raise ValueError("trajectory must have at least one step")
        return self.coefficient_lt_one() and self.last() >= self.start

    def odd_terms(self) -> list[int]:
        """The odd iterates among the first j terms (the last one excluded)."""
        return [m for m in self.iterates[:-1] if m & 1]

    def check_identity(self) -> bool:
        """iterate_j * 2**e == 3**q * n + e_num, as unbounded integers."""
        return self.last() << self.e == 3**self.q * self.start + self.e_num


def trajectory(n: int, j: int, formalism: Formalism = Formalism.SHORTCUT) -> Trajectory:
    """Trajectory of j steps from n (j+1 iterates and the final form).

    Shortcut: an odd step maps E to (3E+1)/2, an even one to E/2.  Classic: an
    odd step maps E to 3E+1 (no halving), an even one to E/2.  Carried as
    E = e_num / 2**e, an odd step sets e_num to 3*e_num + 2**e (before any
    halving) and a halving only raises e.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    if j < 0:
        raise ValueError("j must be >= 0")
    shortcut = formalism is Formalism.SHORTCUT
    iterates = [n]
    cur = n
    q = e = num = 0
    for _ in range(j):
        if cur & 1:
            num = 3 * num + (1 << e)
            q += 1
            if shortcut:
                cur = (3 * cur + 1) >> 1
                e += 1
            else:
                cur = 3 * cur + 1
        else:
            cur >>= 1
            e += 1
        iterates.append(cur)
    return Trajectory(n, formalism, tuple(iterates), q, e, num)


_TREE_LEVELS = 10   # levels built at once by residue_levels: at most 2**10 nodes a slab


def residue_levels(j: int):
    """Yield (i, nodes) for the levels i = 1..j of a prefix tree over the
    residues: each level's nodes (r, q, c), one per residue r mod 2**i, come
    in one or more lists, in no set order, so one pass serves every length.

    On the compressed map every x = r (mod 2**i) has the same first i
    parities, so T**i(x) = (3**q * x + c) / 2**i with q odd steps and c the
    remainder numerator, the `e_num` of `trajectory(x, i)` (R. Terras, "A
    stopping time problem on the positive integers", 1976).

    The node of r mod 2**i holds the form of the first i steps, and step
    i + 1 is odd iff (3**q * r + c) >> i & 1, so the node's two children r and
    r + 2**i (mod 2**(i+1)) take one odd and one even step: about 2**(j+1)
    node updates in all, not j * 2**j steps.  Memory stays bounded: the tree
    is built _TREE_LEVELS levels at a time, and each node of such a slab is
    expanded into its own subtree before the next, so no more than about
    2**10 nodes per slab are alive at once.  A level below the first slab
    thus comes as many lists, one per subtree.
    """
    if j < 0:
        raise ValueError("j must be >= 0")
    pow3 = [3**q for q in range(j + 1)]

    def subtree(node, i):
        stop = min(i + _TREE_LEVELS, j)
        nodes = [node]
        for i in range(i, stop):
            bit = 1 << i
            children = []
            for r, q, c in nodes:
                if (pow3[q] * r + c) >> i & 1:
                    children.append((r, q + 1, 3 * c + bit))
                    children.append((r | bit, q, c))
                else:
                    children.append((r, q, c))
                    children.append((r | bit, q + 1, 3 * c + bit))
            nodes = children
            yield i + 1, nodes
        if stop < j:
            for child in nodes:
                yield from subtree(child, stop)

    return subtree((0, 0, 0), 0)
