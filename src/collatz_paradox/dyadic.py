"""Exact dyadic rationals m / 2**e.

Remainders and coefficients of Collatz linear forms are always dyadic, so a
(numerator, power-of-two exponent) pair is all we need.  Values are *not*
required to be stored canonically: the trajectory code keeps the exponent
equal to the running halving count so that updates are shift/add only.
"""

from __future__ import annotations

from fractions import Fraction


class Dyadic:
    """An exact rational num / 2**exp2 with exp2 >= 0."""

    __slots__ = ("num", "exp2")

    def __init__(self, num: int, exp2: int = 0):
        if exp2 < 0:
            raise ValueError("exp2 must be >= 0")
        self.num = num
        self.exp2 = exp2

    def canonical(self) -> "Dyadic":
        """Strip common factors of 2 (0 canonicalizes to 0/2**0)."""
        num, e = self.num, self.exp2
        if num == 0:
            return Dyadic(0, 0)
        while e > 0 and num % 2 == 0:
            num //= 2
            e -= 1
        return Dyadic(num, e)

    def as_fraction(self) -> Fraction:
        return Fraction(self.num, 1 << self.exp2)

    def as_integer_pair(self) -> tuple[int, int]:
        """(numerator, denominator) in lowest terms."""
        c = self.canonical()
        return c.num, 1 << c.exp2

    # Comparisons cross-multiply by powers of two, always exact.
    def _cmp_key(self, other: "Dyadic") -> tuple[int, int]:
        return self.num << other.exp2, other.num << self.exp2

    def __eq__(self, other) -> bool:
        if isinstance(other, Dyadic):
            a, b = self._cmp_key(other)
            return a == b
        if isinstance(other, int):
            return self.num == other << self.exp2
        if isinstance(other, Fraction):
            return self.as_fraction() == other
        return NotImplemented

    def __lt__(self, other) -> bool:
        if isinstance(other, Dyadic):
            a, b = self._cmp_key(other)
            return a < b
        if isinstance(other, int):
            return self.num < other << self.exp2
        if isinstance(other, Fraction):
            return self.as_fraction() < other
        return NotImplemented

    def __le__(self, other) -> bool:
        return self == other or self < other

    def __gt__(self, other) -> bool:
        if isinstance(other, (Dyadic, int, Fraction)):
            return not self <= other
        return NotImplemented

    def __ge__(self, other) -> bool:
        if isinstance(other, (Dyadic, int, Fraction)):
            return not self < other
        return NotImplemented

    def __hash__(self):
        return hash(self.as_fraction())

    def __repr__(self) -> str:
        n, d = self.as_integer_pair()
        return f"Dyadic({n}/{d})"

    def decimal(self, places: int = 2) -> str:
        """Decimal rendering (nearest, ties away from zero); display only."""
        scale = 10**places
        half = 1 << self.exp2
        v = (abs(self.num) * scale * 2 + half) // (2 * half)
        sign = "-" if self.num < 0 else ""
        whole, frac = divmod(v, scale)
        if places == 0:
            return f"{sign}{whole}"
        return f"{sign}{whole}.{frac:0{places}d}"
