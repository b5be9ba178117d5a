"""Diophantine side: convergents of log2/log3, effective gap bounds and the
heuristic length cap.

Comparisons of the form 3**p vs 2**q are done on materialized integers while
the exponents stay affordable; past that the same walks continue on certified
interval logarithms (still a proof, refined until decided).  Generated
convergents with small exponents are always re-verified against exact powers.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .precision import (
    Undecided,
    certified_sign,
    div_scaled,
    ln2_scaled,
    ln3_scaled,
    ln_scaled,
    mul_frac_scaled,
)

MAX_CONVERGENTS = 60
EXACT_EXPONENT_CAP = 200_000


def _as_fraction(x) -> Fraction:
    """Exact rational from int/Fraction/str/float (floats via their str form)."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        return Fraction(str(x))
    return Fraction(x)


def ratio_below_log2_log3(p: int, q: int) -> bool:
    """Whether p/q < log2/log3, i.e. 3**p < 2**q.

    Exact powers up to a size cap, certified intervals beyond (the interval
    route refines until the strict inequality is decided).
    """
    if q <= 0:
        raise ValueError("q must be positive")
    if p <= 0:
        return True
    if max(p, q) <= EXACT_EXPONENT_CAP:
        return pow(3, p).bit_length() <= q   # 3^p < 2^q, equality impossible
    return certified_sign(lambda prec: (
        q * ln2_scaled(prec)[0] - p * ln3_scaled(prec)[1],
        q * ln2_scaled(prec)[1] - p * ln3_scaled(prec)[0],
    )) > 0


@dataclass(frozen=True)
class Convergent:
    index: int
    p: int
    q: int

    @property
    def side(self) -> str:
        """Even-index convergents sit below log2/log3, odd ones above."""
        return "below" if self.index % 2 == 0 else "above"


def _cf_digits_and_convergents(count: int) -> tuple[list[int], list[Convergent]]:
    # continued-fraction digit extraction for x = log2/log3 via the comparator
    convs = [Convergent(0, 0, 1)]
    digits: list[int] = []
    pp, qq = 1, 0      # h_{-1}
    p, q = 0, 1        # h_0
    n = 1
    while len(convs) < count:
        # semiconvergents (t*p + pp)/(t*q + qq) sit on h_{n-2}'s side exactly
        # for t <= a_n; h_{n-2} has index n-2, which is below iff n is even
        prev_below = n % 2 == 0

        def on_prev_side(t: int) -> bool:
            num, den = t * p + pp, t * q + qq
            return ratio_below_log2_log3(num, den) == prev_below

        t = 1
        while on_prev_side(2 * t):
            t *= 2
        lo, hi = t, 2 * t   # on_prev_side holds at lo (a_n >= 1), fails at hi
        if t == 1 and not on_prev_side(1):
            raise AssertionError("continued-fraction step lost its invariant")
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if on_prev_side(mid):
                lo = mid
            else:
                hi = mid
        a = lo
        digits.append(a)
        p, pp = a * p + pp, p
        q, qq = a * q + qq, q
        convs.append(Convergent(n, p, q))
        n += 1
    return digits, convs


def convergents(count: int) -> list[Convergent]:
    """First `count` continued-fraction convergents of log2/log3.

    The list starts 0/1, 1/1, 1/2, 2/3, 5/8, 12/19, 41/65, ...
    """
    if not 1 <= count <= MAX_CONVERGENTS:
        raise ValueError(f"count must be in 1..{MAX_CONVERGENTS}")
    return _cf_digits_and_convergents(count)[1][:count]


def partial_quotients(count: int) -> list[int]:
    """First `count` partial quotients of log2/log3 (starts 1, 1, 1, 2, ...)."""
    if not 1 <= count <= MAX_CONVERGENTS:
        raise ValueError(f"count must be in 1..{MAX_CONVERGENTS}")
    return _cf_digits_and_convergents(count + 1)[0][:count]


# ---------------------------------------------------------------------------
# Effective gap bound and the heuristic length cap
# ---------------------------------------------------------------------------

RHIN_EXPONENT = Fraction(133, 10)


def rhin_gap_ok(j: int, q: int) -> bool:
    """Certified check of |j ln2 - q ln3| >= max(j, q)**-13.3.

    The margin ln|j ln2 - q ln3| + 13.3 ln max(j, q) is refined from 128 bits
    until its sign is certain; an interval for j ln2 - q ln3 that still
    straddles 0 gives a margin that contains 0.  Raises Undecided at the cap
    instead of guessing (the inequality is never decided by rounding).
    """
    h = max(abs(j), abs(q))
    if h < 2:
        raise ValueError("need max(|j|, |q|) >= 2")

    def margin(prec: int) -> tuple[int, int]:
        l2 = ln2_scaled(prec)
        l3 = ln3_scaled(prec)
        lam_lo = j * l2[0] - q * l3[1]
        lam_hi = j * l2[1] - q * l3[0]
        if lam_lo <= 0 <= lam_hi:
            return -1, 1
        if lam_hi < 0:
            lam_lo, lam_hi = -lam_hi, -lam_lo
        ln_lam = _ln_of_bounds((lam_lo, lam_hi), prec)
        ln_h = mul_frac_scaled(ln_scaled(h, 1, prec), RHIN_EXPONENT)
        return ln_lam[0] + ln_h[0], ln_lam[1] + ln_h[1]

    return certified_sign(margin, start_prec=128) > 0


def _ln_of_bounds(bounds: tuple[int, int], prec: int) -> tuple[int, int]:
    lo, hi = bounds
    if lo <= 0:
        raise ValueError("ln of a non-positive interval")
    return ln_scaled(lo, 1 << prec, prec)[0], ln_scaled(hi, 1 << prec, prec)[1]


def _ln_heuristic_threshold(prec: int) -> tuple[int, int]:
    """ln(3 ln3 / ln2) = ln3 + ln(ln3) - ln(ln2)."""
    l3 = ln3_scaled(prec)
    l2 = ln2_scaled(prec)
    lnl3 = _ln_of_bounds(l3, prec)
    lnl2 = _ln_of_bounds(l2, prec)
    return l3[0] + lnl3[0] - lnl2[1], l3[1] + lnl3[1] - lnl2[0]


def heuristic_threshold_str() -> str:
    """The constant 3 ln3/ln2 = 4.754... to 3 decimals, truncated (display only)."""
    prec = 128
    lo, hi = mul_frac_scaled(div_scaled(ln3_scaled(prec), ln2_scaled(prec), prec), Fraction(3))
    v_lo = lo * 1000 >> prec
    if v_lo != hi * 1000 >> prec:
        raise Undecided("3 ln3/ln2 to 3 decimals not certified at 128 bits")
    whole, frac = divmod(v_lo, 1000)
    return f"{whole}.{frac:03d}"


def heuristic_j_cap(alpha, beta) -> int:
    """Largest j compatible with j**14.3 * exp(-j/(alpha*beta)) > 3 ln3/ln2.

    alpha and beta are taken as exact rationals (decimal strings and floats
    are converted through their decimal form), and each must be positive.
    The left side has its maximum at j* = 14.3*alpha*beta and is strictly
    decreasing beyond, so the last admissible j is isolated by certified
    bracketing; returns 0 when no j >= 2 qualifies.
    """
    a, b = _as_fraction(alpha), _as_fraction(beta)
    if a <= 0 or b <= 0:
        raise ValueError("alpha and beta must be positive")
    ab = a * b
    coeff = Fraction(143, 10)

    def margin(jv: int, prec: int) -> tuple[int, int]:
        lnj = mul_frac_scaled(ln_scaled(jv, 1, prec), coeff)
        lin = Fraction(jv) / ab
        lin_lo = (lin.numerator << prec) // lin.denominator
        lin_hi = lin_lo + 1
        thr = _ln_heuristic_threshold(prec)
        return lnj[0] - lin_hi - thr[1], lnj[1] - lin_lo - thr[0]

    def holds(jv: int) -> bool:
        return certified_sign(lambda prec: margin(jv, prec), prec_cap=1 << 14) > 0

    j_star = -((-143 * ab.numerator) // (10 * ab.denominator))  # ceil(14.3 ab)
    j_star = max(j_star, 2)
    if not holds(j_star):
        return 0
    hi = j_star
    while holds(hi):
        hi *= 2
    lo = max(j_star, hi // 2)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return lo
