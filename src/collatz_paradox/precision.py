"""Certified interval evaluation of logarithms.

Transcendental comparisons in this package are decided by interval
refinement: every routine here returns integer bounds (lo, hi) such that the
true value lies in [lo / 2**prec, hi / 2**prec], with all rounding directed
outward.  Callers refine the working precision until an inequality is decided
and raise `Undecided` at a hard cap instead of guessing.

Natural logs are evaluated through ln x = k ln 2 + 2 atanh(u) with
u = (x / 2**k - 1) / (x / 2**k + 1), which keeps |u| <= 1/3 so the series
gains more than three bits per term.  Everything is scaled-integer
arithmetic; no floats are involved anywhere.
"""

from __future__ import annotations

from fractions import Fraction

DEFAULT_START_PREC = 96
DEFAULT_PREC_CAP = 1 << 15


class Undecided(ArithmeticError):
    """A comparison could not be certified within the precision cap."""


def _div_ceil(a: int, b: int) -> int:
    return -((-a) // b)


def _atanh_scaled(a: int, b: int, prec: int) -> tuple[int, int]:
    """Bounds on atanh(a/b) * 2**prec for |a/b| <= 1/3, b > 0."""
    if a == 0:
        return 0, 0
    neg = a < 0
    a = abs(a)
    if 3 * a > b:
        raise ValueError("series argument must satisfy |a/b| <= 1/3")
    a2, b2 = a * a, b * b
    num = a << prec       # a^(2i+1) * 2^prec, growing
    den = b
    lo = 0
    terms = 0
    i = 0
    while True:
        t = num // (den * (2 * i + 1))
        if t == 0:
            break
        lo += t
        terms += 1
        num *= a2
        den *= b2
        i += 1
    # each kept term floored (< 1 ulp each); dropped tail < 1 ulp total
    hi = lo + terms + 2
    if neg:
        return -hi, -lo
    return lo, hi


_LN2_CACHE: dict[int, tuple[int, int]] = {}


def ln2_scaled(prec: int) -> tuple[int, int]:
    """Bounds on ln(2) * 2**prec  (ln 2 = 2 atanh(1/3))."""
    if prec not in _LN2_CACHE:
        lo, hi = _atanh_scaled(1, 3, prec)
        _LN2_CACHE[prec] = (2 * lo, 2 * hi)
    return _LN2_CACHE[prec]


def ln_scaled(p: int, q: int, prec: int) -> tuple[int, int]:
    """Bounds on ln(p/q) * 2**prec for positive integers p, q."""
    if p <= 0 or q <= 0:
        raise ValueError("ln argument must be positive")
    k = p.bit_length() - q.bit_length()   # p/q in 2**k * [1/2, 2)
    if k >= 0:
        a, b = p - (q << k), p + (q << k)
    else:
        a, b = (p << -k) - q, (p << -k) + q
    s_lo, s_hi = _atanh_scaled(a, b, prec)
    l2_lo, l2_hi = ln2_scaled(prec)
    if k >= 0:
        return k * l2_lo + 2 * s_lo, k * l2_hi + 2 * s_hi
    return k * l2_hi + 2 * s_lo, k * l2_lo + 2 * s_hi


def ln3_scaled(prec: int) -> tuple[int, int]:
    return ln_scaled(3, 1, prec)


def div_scaled(a: tuple[int, int], b: tuple[int, int], prec: int) -> tuple[int, int]:
    """Bounds on (a/b) * 2**prec given scaled bounds a, b with b > 0."""
    alo, ahi = a
    blo, bhi = b
    if blo <= 0:
        raise ValueError("divisor interval must be strictly positive")
    lo = (alo << prec) // (bhi if alo >= 0 else blo)   # // floors toward -inf
    hi = _div_ceil(ahi << prec, blo if ahi >= 0 else bhi)
    return lo, hi


def mul_frac_scaled(a: tuple[int, int], f: Fraction) -> tuple[int, int]:
    """Bounds on (a * f) at the same scale, f an exact positive rational."""
    if f < 0:
        raise ValueError("only positive rational scaling is supported")
    alo, ahi = a
    return alo * f.numerator // f.denominator, _div_ceil(ahi * f.numerator, f.denominator)


def log2_ratio_scaled(p: int, q: int, prec: int) -> tuple[int, int]:
    """Bounds on log2(p/q) * 2**prec.

    Evaluated as ln(p/q)/ln(2) with a few guard bits so the division does not
    eat into the requested precision.
    """
    w = prec + 16
    lo, hi = div_scaled(ln_scaled(p, q, w), ln2_scaled(w), w)
    return lo >> (w - prec), _div_ceil(hi, 1 << (w - prec))


def certified_sign(make_bounds, start_prec: int = DEFAULT_START_PREC,
                   prec_cap: int = DEFAULT_PREC_CAP) -> int:
    """Sign of a nonzero quantity given a (prec -> (lo, hi)) bound factory.

    Doubles precision until the interval excludes zero; raises Undecided at
    the cap rather than guessing (the quantity may genuinely be zero).
    """
    prec = start_prec
    while prec <= prec_cap:
        lo, hi = make_bounds(prec)
        if lo > 0:
            return 1
        if hi < 0:
            return -1
        prec *= 2
    raise Undecided(f"sign not certified within {prec_cap} bits")
