"""Extremal, average and necessary-condition bounds for paradoxical behavior.

Everything that decides an inequality does so with unbounded integers;
cross-multiplied power comparisons replace logarithms throughout.  The only
exception is the long harmonic-cap scan, which uses certified interval
arithmetic to skip the easy cases and falls back to the exact comparison
whenever the interval straddles (the result is still a proof, just cheaper).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

from .dynamics import Trajectory, residue_levels
from .precision import div_scaled, ln2_scaled, ln3_scaled, log2_ratio_scaled

# ---------------------------------------------------------------------------
# Exact floor(j * log2/log3) and friends
# ---------------------------------------------------------------------------


def floor_log_ratio(j: int) -> int:
    """Largest q with 3**q <= 2**j, by big-integer comparison only.

    3**q < 2**j iff bit_length(3**q) <= j (the powers are never equal), so a
    float seed is corrected by exact bit-length tests.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    q = max(0, int(j * 0.6309297535714574) - 2)
    while pow(3, q + 1).bit_length() <= j:
        q += 1
    while q > 0 and pow(3, q).bit_length() > j:
        q -= 1
    return q


# ---------------------------------------------------------------------------
# Extremal remainders (per length j and weight q)
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemainderBounds:
    j: int
    q: int
    lower: Fraction          # (3^q - 2^q) / 2^j
    upper: Fraction          # (3^q - 2^q) / 2^q
    lower_class: int         # residue mod 2^j attaining the lower bound
    upper_class: int         # residue mod 2^j attaining the upper bound


def remainder_bounds(j: int, q: int) -> RemainderBounds:
    """Exact extremal remainders and the residues mod 2**j attaining them.

    The upper bound belongs to the all-ones tail word (n = -2**(j-q)), the
    lower one to the all-ones head word (n = (2/3)**q - 1, via the modular
    inverse of 3**q).
    """
    if j < 1 or q < 0 or q > j:
        raise ValueError("need j >= 1 and 0 <= q <= j")
    mod = 1 << j
    if q == 0:
        zero = Fraction(0)
        return RemainderBounds(j, 0, zero, zero, 0, 0)
    spread = 3**q - 2**q
    upper_class = (mod - (1 << (j - q))) % mod
    inv3q = pow(3**q, -1, mod)
    lower_class = ((1 << q) * inv3q - 1) % mod
    return RemainderBounds(j, q, Fraction(spread, 1 << j), Fraction(spread, 1 << q),
                           lower_class, upper_class)


def mean_remainders(j: int) -> list[Fraction]:
    """Arithmetic means of the compressed-map remainders over one full period
    n = 1..2**i, for every length i = 1..j (entry i - 1), from one prefix tree.

    Every residue's remainder numerator c (E = c / 2**i) is added.  The
    lengths below j add the nodes of `residue_levels(j - 1)`.  Length j adds,
    for each node (r, q, c) of level j - 1 (the root when j = 1), the
    numerators of its two children, c and 3c + 2**(j-1), without building
    those 2**j nodes: about 2**j node updates in all, with about 2**10 nodes
    alive at once.  No recurrence on the sums is used: the j/4 claim is what
    this checks.
    """
    if j < 1:
        raise ValueError("j must be >= 1")
    if j > 22:
        raise ValueError("j > 22 enumerates too many residues")
    top = 1 << (j - 1)
    sums = [0] * (j + 1)   # sums[i] over 2**(2i)
    for i, nodes in itertools.chain([(0, [(0, 0, 0)])], residue_levels(j - 1)):
        sums[i] += sum(c for _, _, c in nodes)
        if i == j - 1:
            sums[j] += sum(c + 3 * c + top for _, _, c in nodes)
    return [Fraction(sums[i], 1 << (2 * i)) for i in range(1, j + 1)]


def mean_remainder(j: int) -> Fraction:
    """The mean remainder at length j: the last entry of `mean_remainders(j)`."""
    return mean_remainders(j)[-1]


# ---------------------------------------------------------------------------
# The harmonic mean and the E/n window
# ---------------------------------------------------------------------------


def harmonic_mean_odd_terms(traj: Trajectory) -> Fraction:
    """Harmonic mean of the odd terms among the first j iterates (exact), as
    k*D / (D/m_1 + ... + D/m_k) with D their product: one integer sum."""
    odds = traj.odd_terms()
    if not odds:
        raise ValueError("trajectory has no odd terms before the last")
    d = math.prod(odds)
    return Fraction(len(odds) * d, sum(d // m for m in odds))


@dataclass(frozen=True)
class EnRatioBounds:
    """The E/n window of a trajectory and, with it, its ones-ratio window.

    A paradoxical trajectory has a coefficient below 1 (3**q < 2**e) and
    ratio >= lower.  Since ratio <= upper always holds, it also satisfies
    upper >= lower, which is 2**e <= (3 + 1/h)**q.  So the ones-ratio window,
    the necessary window for the odd-step density, is
    `traj.coefficient_lt_one() and upper >= lower`.
    """

    ratio: Fraction          # E / n
    lower: Fraction          # (2^e - 3^q) / 2^e  = 1 - C
    upper: Fraction          # ((3 + 1/h)^q - 3^q) / 2^e
    lower_holds: bool        # expected for paradoxical trajectories only
    upper_holds: bool        # expected for every trajectory with q >= 1


def en_ratio_bounds(traj: Trajectory) -> EnRatioBounds:
    """Both sides of the E/n window, cleared of h = hn/hd by cross-multiplication
    (see EnRatioBounds for the ones-ratio window read from them)."""
    q, e = traj.q, traj.e
    if q < 1:
        raise ValueError("trajectory needs at least one odd term")
    h = harmonic_mean_odd_terms(traj)
    ratio = Fraction(traj.e_num, traj.start << e)
    lower = Fraction((1 << e) - 3**q, 1 << e)
    hn, hd = h.numerator, h.denominator
    upper = Fraction((3 * hn + hd) ** q - 3**q * hn**q, hn**q << e)
    return EnRatioBounds(ratio, lower, upper, ratio >= lower, ratio <= upper)


# ---------------------------------------------------------------------------
# Harmonic cap H(j) and the bound-chain scans
# ---------------------------------------------------------------------------


def harmonic_cap_holds(j: int, m: int) -> bool:
    """Whether H(j) >= m, i.e. a length-j paradox could have all odd terms >= m.

    With q = floor_log_ratio(j) this is exactly 2**j * m**q <= (3m+1)**q.
    """
    if j < 2:
        raise ValueError("j must be >= 2 (j = 1 has q = 0)")
    if m < 1:
        raise ValueError("m must be >= 1")
    q = floor_log_ratio(j)
    return (m**q << j) <= (3 * m + 1) ** q


# Where the scan gives up: past the largest j the bound chain needs (j1 = 301994).
HARMONIC_CAP_J_LIMIT = 400_000


def smallest_harmonic_cap_j(m: int, prec: int = 192) -> int:
    """Least j > 1 with H(j) >= m, for j <= HARMONIC_CAP_J_LIMIT.

    The condition is j <= q * log2(3 + 1/m) with q = floor(j * log2/log3).
    Certified intervals for both logs decide almost every j; any straddled
    case falls back to the exact computation, so the returned value carries a
    full proof.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    lo, hi = log2_ratio_scaled(3 * m + 1, m, prec)
    r_lo, r_hi = div_scaled(ln2_scaled(prec), ln3_scaled(prec), prec)
    for j in range(2, HARMONIC_CAP_J_LIMIT + 1):
        q = (j * r_lo) >> prec
        if q != (j * r_hi) >> prec:
            q = floor_log_ratio(j)
        if q == 0:
            continue
        js = j << prec
        if js <= q * lo:
            return j
        if js > q * hi:
            continue
        if harmonic_cap_holds(j, m):   # straddle: decide exactly
            return j
    raise ValueError(f"no j <= {HARMONIC_CAP_J_LIMIT} with H(j) >= {m}")


def coefficient_ceiling_q(j: int, m: int) -> int:
    """Smallest q with (3m+1)**q >= 2**j * m**q (an exact ceiling, no logs)."""
    if j < 1 or m < 1:
        raise ValueError("need j >= 1 and m >= 1")

    def ok(q: int) -> bool:
        return (3 * m + 1) ** q >= (m**q << j)

    q = max(1, int(j * 0.63) - 4)
    while not ok(q):
        q += 1
    while q > 1 and ok(q - 1):
        q -= 1
    return q

