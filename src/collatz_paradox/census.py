"""Aggregation of paradox hits into the per-(j, q) census and its summary.

For the classic map the census keys on (halvings, odd steps), which lines the
rows up with the compressed-map table: an odd-to-odd trajectory performs the
same halvings under either map.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .dynamics import Formalism, orbit
from .search import ParadoxHit


@dataclass
class CensusRow:
    j: int                  # halvings for classic, = step count for shortcut
    q: int
    count: int
    count_odd_odd: int
    n_min: int
    n_max: int
    e_min: Fraction
    e_max: Fraction
    d_min: int
    d_max: int

    def coefficient(self) -> Fraction:
        return Fraction(3**self.q, 1 << self.j)

    def key(self) -> tuple[int, int]:
        return (self.j, self.q)


@dataclass
class CensusSummary:
    formalism: Formalism
    total: int
    near_cycles: int            # hits with d = 1
    even_even: int              # even start and even end
    distinct_starts: int
    overlap_witness_ok: bool | None   # every hit passes through 11 (length-8 rows) or 103
    d_max: int
    d_max_start: int | None
    d_max_end: int | None


def census(hits: list[ParadoxHit]) -> tuple[list[CensusRow], CensusSummary]:
    """Group hits by (halvings, odd steps) and compute the summary statistics.

    The overlap witness (11 on the length-8 rows, 103 elsewhere) is evaluated
    for the compressed map only; it is a property of that census.
    """
    if not hits:
        raise ValueError("census of an empty hit list")
    formalisms = {h.formalism for h in hits}
    if len(formalisms) > 1:
        raise ValueError("census requires hits from a single formalism")
    formalism = formalisms.pop()

    rows: dict[tuple[int, int], CensusRow] = {}
    for h in hits:
        key = (h.e, h.q)
        er = h.remainder
        row = rows.get(key)
        if row is None:
            rows[key] = CensusRow(h.e, h.q, 1, int(h.start_odd and h.end_odd),
                                  h.n, h.n, er, er, h.d, h.d)
            continue
        row.count += 1
        row.count_odd_odd += int(h.start_odd and h.end_odd)
        row.n_min = min(row.n_min, h.n)
        row.n_max = max(row.n_max, h.n)
        row.e_min = min(row.e_min, er)
        row.e_max = max(row.e_max, er)
        row.d_min = min(row.d_min, h.d)
        row.d_max = max(row.d_max, h.d)

    overlap_ok: bool | None = None
    if formalism is Formalism.SHORTCUT:
        overlap_ok = all(_passes_through(h, 11 if h.j == 8 else 103) for h in hits)

    top = max(hits, key=lambda h: h.d)
    summary = CensusSummary(
        formalism=formalism,
        total=len(hits),
        near_cycles=sum(1 for h in hits if h.d == 1),
        even_even=sum(1 for h in hits if not h.start_odd and not h.end_odd),
        distinct_starts=len({h.n for h in hits}),
        overlap_witness_ok=overlap_ok,
        d_max=top.d,
        d_max_start=top.n,
        d_max_end=top.n + top.d,
    )
    return [rows[k] for k in sorted(rows)], summary


def _passes_through(hit: ParadoxHit, value: int) -> bool:
    """Whether value is one of the hit's j + 1 iterates, walked along its orbit."""
    iterates = (cur for cur, _, _ in islice(orbit(hit.n, hit.formalism), hit.j))
    return value == hit.n or value in iterates


def _decimal(x: Fraction, places: int) -> str:
    """Decimal rendering of x, nearest with ties away from zero; display only."""
    scale = 10**places
    v = (2 * abs(x.numerator) * scale + x.denominator) // (2 * x.denominator)
    whole, frac = divmod(v, scale)
    sign = "-" if x < 0 else ""
    return f"{sign}{whole}.{frac:0{places}d}" if places else f"{sign}{whole}"


def render_census(rows: list[CensusRow], summary: CensusSummary, decimals: int = 2) -> str:
    """Plain-text census table.

    Decimal columns are nearest-rounded renderings of exact rationals and are
    presentation only; the exact values live in the hit CSV.
    """
    out = []
    out.append(f"formalism: {summary.formalism.value}")
    head = f"{'(j,q)':>12} {'C':>8} {'N':>5} {'N_odd':>5} {'n':>15} {'E':>19} {'d':>11}"
    out.append(head)
    for r in rows:
        c = _decimal(r.coefficient(), 3)
        e_lo = _decimal(r.e_min, decimals)
        e_hi = _decimal(r.e_max, decimals)
        out.append(f"{f'({r.j},{r.q})':>12} {c:>8} {r.count:>5} {r.count_odd_odd:>5} "
                   f"{f'{r.n_min} - {r.n_max}':>15} {f'{e_lo} - {e_hi}':>19} "
                   f"{f'{r.d_min} - {r.d_max}':>11}")
    out.append(f"hits: {summary.total}   near-cycles (d=1): {summary.near_cycles}   "
               f"even-even: {summary.even_even}   distinct starts: {summary.distinct_starts}")
    if summary.overlap_witness_ok is not None:
        out.append(f"overlap witness (11 on length-8 rows, 103 elsewhere): "
                   f"{'ok' if summary.overlap_witness_ok else 'VIOLATED'}")
    out.append(f"largest d: {summary.d_max} (start {summary.d_max_start} "
               f"ends {summary.d_max_end})")
    return "\n".join(out) + "\n"
