"""Record tables: local scans, reference-file ingestion and the bound chain.

Two reference tables ship with the package (see data/): maximum-excursion
records for the compressed map, and delay records for the classic map.  Both
files carry a computed exhaustive prefix plus published tail holders whose
values are recomputed locally, so ingestion re-verifies every line it can;
only the completeness of the published tails is taken on trust.  The delay
table additionally records the frontier of the published data (its current
record value and a lower bound on the holder), which is exactly what the
length-bound chain consumes.
"""

from __future__ import annotations

import enum
from array import array
from dataclasses import dataclass
from importlib import resources
from itertools import repeat
from operator import add
from pathlib import Path

from .bounds import coefficient_ceiling_q, smallest_harmonic_cap_j
from .dynamics import Formalism
from .search import JUMP_K, _jump_tables, delay, max_excursion


class RecordKind(enum.Enum):
    DELAY_T = "delay-t"
    DELAY_COL = "delay-col"
    MAX_EXCURSION_T = "max-excursion-t"

    @classmethod
    def parse(cls, name: str) -> "RecordKind":
        try:
            return cls(name.strip().lower())
        except ValueError:
            raise ValueError(f"unknown record kind {name!r}") from None


@dataclass(frozen=True)
class RecordEntry:
    n: int
    value: int


_DATA_FILES = {
    RecordKind.MAX_EXCURSION_T: "max_excursion_t_records.txt",
    RecordKind.DELAY_COL: "delay_col_records.txt",
}


# A delay scan holds one 4-byte memo word per start, so 10**8 starts take about
# 400 MB; a max-excursion scan holds no memo.  That covers the 10**7 prefix of
# the packaged reference tables and refuses a range like 1..10**9 (4 GB) before
# anything is allocated.
RECORDS_N_MAX = 10**8


def compute_records(n_hi: int, kind: RecordKind) -> list[RecordEntry]:
    """Scan 1..n_hi and return every n whose statistic beats all smaller n.

    Most starts are settled without a walk by the stopping-time decomposition
    that search._build_jump_rows builds with its K-step table (K = 12): a
    start n of a class (tau, r) above the class's tau_thr first falls below
    itself at step tau, to y_tau = (3**q * n + c) >> tau (R. Terras, 1976).
    The max-excursion scan keeps no memo (see _excursion_records); the delay
    scans fill a 4-byte memo one class at a time (see _delay_memo).  Only the
    starts of the 226 rows without tau, and those the classes cannot settle,
    are walked, each to its first iterate below the start.  n_hi is capped at
    RECORDS_N_MAX.
    """
    if n_hi < 1:
        raise ValueError("n_hi must be >= 1")
    if n_hi > RECORDS_N_MAX:
        raise ValueError(f"record scans stop at {RECORDS_N_MAX} starts "
                         f"(4 bytes of memo per start for a delay scan); got {n_hi}")
    if kind is RecordKind.MAX_EXCURSION_T:
        return _excursion_records(n_hi)
    if kind in (RecordKind.DELAY_COL, RecordKind.DELAY_T):
        # Both delays walk the compressed map; a classic odd step is 3x + 1
        # followed by a halving, so it counts 2.  The walk meets the same
        # first iterate below n, as the classic iterate 3x + 1 in between
        # exceeds x >= n.
        memo = _delay_memo(n_hi, 2 if kind is RecordKind.DELAY_COL else 1)
        out = [RecordEntry(1, 0)]
        best = 0
        # by blocks, so that the search for a record rescans its block only
        for lo in range(2, n_hi + 1, 1 << 16):
            best = _records_in(memo, lo, min(lo + (1 << 16), n_hi + 1), best, out)
        return out
    raise ValueError(f"unsupported record kind {kind}")


def _plain_end(classes: list[tuple]) -> int:
    """The starts below this are walked plainly: 2**(K+1), or past the
    largest tau_thr if that were higher (it is 24 at K = 12)."""
    return max(2 << JUMP_K, 1 + max(tau_thr for _, _, _, _, _, tau_thr, _, _ in classes))


def _peak_before_descent(n: int, cur: int, peak: int) -> int:
    """The greatest of peak and the compressed-map iterates from cur on,
    before the first one below n."""
    while cur >= n:
        if cur & 1:
            cur = (3 * cur + 1) >> 1
            if cur > peak:
                peak = cur
        else:
            cur >>= 1
    return peak


def _excursion_records(n_hi: int) -> list[RecordEntry]:
    """The max-excursion records of 1..n_hi, with no memo.

    For n >= 3 with first iterate y below n, M(n) = max(P(n), M(y)), where
    P(n) is the greatest iterate from n before that descent.  M(y) is at most
    best, the record of the starts below n, so n is a record iff P(n) > best,
    and then M(n) = P(n).

    Past the plain walks, the scan goes in segments [lo, 2*lo), each against
    best as it stood at lo, over the classes and the rows without tau of
    search._build_jump_rows.  A start n of a class (every start past
    _plain_end is above its class's tau_thr) descends at step tau, so P(n) is
    the greatest of n, y_1, ..., y_tau, and each y_i satisfies
    y_i * 2**K <= gmax*n + hmax with the class's own columns.  So they are
    all <= best for n <= cheap, a threshold per class: such a start is no
    record and is not walked.  A start of a row without tau does not descend
    within K steps, and its row's columns bound its first K iterates the same
    way, so at most cheap it walks on from y_K with the peak at best.  Every
    other start walks from n.  The (n, P(n)) with P(n) > best are sorted, and
    their running maximum gives the records.
    """
    out = [RecordEntry(n, n) for n in (1, 2) if n <= n_hi]
    best = 2
    _, classes, walked = _jump_tables()
    lo = min(n_hi + 1, _plain_end(classes))
    for n in range(3, lo):
        peak = _peak_before_descent(n, n, n)
        if peak > best:
            best = peak
            out.append(RecordEntry(n, peak))
    period = 1 << JUMP_K
    while lo <= n_hi:
        hi = min(n_hi + 1, 2 * lo)
        limit = ((best + 1) << JUMP_K) - 1
        found = []
        for tau, r, _, _, _, _, gmax, hmax in classes:
            step = 1 << tau
            cheap = min(best, (limit - hmax) // gmax)
            above = max(lo + (r - lo) % step, cheap + 1 + (r - cheap - 1) % step)
            for n in range(above, hi, step):
                peak = _peak_before_descent(n, n, n)
                if peak > best:
                    found.append((n, peak))
        for r, a, c, _, gmax, hmax in walked:
            cheap = min(best, (limit - hmax) // gmax)
            first = lo + (r - lo) % period
            above = max(first, cheap + 1 + (r - cheap - 1) % period)
            for n in range(first, min(above, hi), period):
                peak = _peak_before_descent(n, (a * n + c) >> JUMP_K, best)
                if peak > best:
                    found.append((n, peak))
            for n in range(above, hi, period):
                peak = _peak_before_descent(n, n, n)
                if peak > best:
                    found.append((n, peak))
        found.sort()
        for n, peak in found:
            if peak > best:
                best = peak
                out.append(RecordEntry(n, peak))
        lo = hi
    return out


def _delay_below(n: int, cur: int, d: int, odd_cost: int, memo) -> int:
    """d plus the cost of the steps from cur to the first iterate below n,
    plus that iterate's delay from memo."""
    while cur >= n:
        if cur & 1:
            cur = (3 * cur + 1) >> 1
            d += odd_cost
        else:
            cur >>= 1
            d += 1
    return d + memo[cur]


def _delay_memo(n_hi: int, odd_cost: int) -> array:
    """memo[n] = the delay of n for n <= n_hi (memo[0] = 0), 4 bytes per
    start; an odd step counts odd_cost (2 for the classic delay, 1 for the
    compressed one).

    Below _plain_end each start walks to its first iterate below it and adds
    that iterate's delay.  Above, the memo fills in chunks [lo, hi), from the
    classes and the rows without tau of search._build_jump_rows.  A class
    (tau, r, a, c, q, ...) maps its starts n = n0, n0 + 2**tau, ... to
    y_tau = (a*n + c) >> tau, an arithmetic progression with step a, so its
    part of the chunk is one strided slice:
    memo[n] = tau + q*(odd_cost - 1) + memo[y_tau].  hi is the least n at
    which some class's y_tau reaches lo, so every entry read is already
    final.  The starts of the rows (r, a, c, dq, ...) without tau then walk
    in ascending order from y_K, with the cost of their first K steps.
    """
    _, classes, walked = _jump_tables()
    memo = array("i", bytes(4)) * (n_hi + 1)
    lo = min(n_hi + 1, _plain_end(classes))
    for n in range(2, lo):
        memo[n] = _delay_below(n, n, 0, odd_cost, memo)
    extra = odd_cost - 1
    period = 1 << JUMP_K
    while lo <= n_hi:
        hi = n_hi + 1
        for tau, r, a, c, _, _, _, _ in classes:
            n = -(-((lo << tau) - c) // a)     # least n with a*n + c >= lo << tau
            hi = min(hi, n + (r - n) % (1 << tau))
        for tau, r, a, c, q, _, _, _ in classes:
            step = 1 << tau
            n0 = lo + (r - lo) % step
            if n0 < hi:
                y0 = (a * n0 + c) >> tau
                count = (hi - 1 - n0) // step + 1
                memo[n0:hi:step] = array("i", map(add, memo[y0:y0 + count * a:a],
                                                  repeat(tau + extra * q)))
        for base in range(lo - lo % period, hi, period):
            for r, a, c, dq, _, _ in walked:
                n = base + r
                if lo <= n < hi:
                    memo[n] = _delay_below(n, (a * n + c) >> JUMP_K,
                                           JUMP_K + extra * dq, odd_cost, memo)
        lo = hi
    return memo


def _records_in(memo, lo: int, hi: int, best: int, out: list[RecordEntry]) -> int:
    """Append to out each n in [lo, hi) with memo[n] above best and above
    every memo[m], lo <= m < n; return the new best.  The first n holding the
    top of the stretch is its last record, so only the stretch before it is
    searched on."""
    if hi <= lo:
        return best
    top = max(memo[lo:hi])
    if top <= best:
        return best
    n = memo.index(top, lo, hi)
    _records_in(memo, lo, n, best, out)
    out.append(RecordEntry(n, top))
    return top


def recompute_value(n: int, kind: RecordKind) -> int:
    """The statistic of a single n, by direct trajectory under the oracles'
    default step budget (every packaged holder needs fewer than 1000 steps)."""
    if kind is RecordKind.MAX_EXCURSION_T:
        return max_excursion(n)
    if kind is RecordKind.DELAY_COL:
        return delay(n, Formalism.CLASSIC)
    if kind is RecordKind.DELAY_T:
        return delay(n)
    raise ValueError(f"unsupported record kind {kind}")


class IngestError(ValueError):
    pass


@dataclass
class RecordTable:
    kind: RecordKind
    entries: list[RecordEntry]
    source: str
    frontier_value: int | None = None        # record value at the data frontier
    frontier_holder_above: int | None = None  # its holder exceeds this bound

    def smallest_holder_with_value(self, threshold: int, strict: bool = False) -> int:
        """First record holder whose value is >= threshold (> when strict).

        Because the table is a record table, this is the smallest integer of
        all with a statistic that large.  A table with no such entry raises
        ValueError, naming its source.
        """
        for e in self.entries:
            if e.value > threshold or (not strict and e.value == threshold):
                return e.n
        raise ValueError(f"{self.source}: no {self.kind.value} record with value "
                         f"{'>' if strict else '>='} {threshold}")

    def max_record_value(self) -> int:
        v = self.entries[-1].value if self.entries else 0
        if self.frontier_value is not None:
            v = max(v, self.frontier_value)
        return v

    def frontier_holder_bound(self) -> int:
        """Lower bound on the largest start the source data covers."""
        if self.frontier_holder_above is not None:
            return self.frontier_holder_above
        return self.entries[-1].n


def reference_path(kind: RecordKind, refs_dir: str | Path | None = None) -> Path | None:
    """The reference table of kind: the packaged file, or the file of the same
    name in refs_dir; None for a kind without a table."""
    name = _DATA_FILES.get(kind)
    if name is None:
        return None
    if refs_dir is None:
        return Path(str(resources.files("collatz_paradox") / "data" / name))
    return Path(refs_dir) / name


def ingest_reference_records(kind: RecordKind, path: str | Path,
                             prefix_check_to: int = 100_000,
                             local: list[RecordEntry] | None = None) -> RecordTable:
    """Parse a reference record table and cross-check it against local scans.

    - every data line must be "n value" with both columns strictly increasing;
    - the file's records with n <= prefix_check_to must equal the locally
      computed records with n <= prefix_check_to exactly, so a file that ends
      before a local record does not pass (a mismatch is a data-integrity
      error); a caller that already holds compute_records(N, kind) for some
      N >= prefix_check_to passes it as local, and it is read instead of a
      new scan;
    - the statistic of every holder beyond that prefix is recomputed by a
      direct trajectory and must match the stored value.
    """
    path = Path(path)
    entries: list[RecordEntry] = []
    frontier_value = None
    frontier_holder_above = None
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if body.startswith("frontier-value:"):
                    frontier_value = int(body.split(":", 1)[1])
                elif body.startswith("frontier-holder-above:"):
                    frontier_holder_above = int(body.split(":", 1)[1])
                continue
            parts = line.split()
            if len(parts) != 2:
                raise IngestError(f"{path}:{lineno}: expected 'n value', got {line!r}")
            try:
                n, value = int(parts[0]), int(parts[1])
            except ValueError:
                raise IngestError(f"{path}:{lineno}: non-integer field in {line!r}") from None
            if entries and (n <= entries[-1].n or value <= entries[-1].value):
                raise IngestError(f"{path}:{lineno}: columns must strictly increase")
            entries.append(RecordEntry(n, value))
    if not entries:
        raise IngestError(f"{path}: no data lines")

    if prefix_check_to:
        if local is None:
            local = compute_records(prefix_check_to, kind)
        file_prefix = [e for e in entries if e.n <= prefix_check_to]
        local = [e for e in local if e.n <= prefix_check_to]
        if file_prefix != local:
            raise IngestError(
                f"{path}: record prefix up to {prefix_check_to} does not match "
                f"the locally computed records (file {len(file_prefix)} entries, "
                f"local {len(local)})")

    for e in entries:
        if e.n > prefix_check_to:   # prefix entries were already verified wholesale
            got = recompute_value(e.n, kind)
            if got != e.value:
                raise IngestError(
                    f"{path}: stored value for {e.n} is {e.value}, recomputed {got}")

    if frontier_value is not None and entries[-1].value > frontier_value:
        raise IngestError(f"{path}: frontier value below the last entry")
    return RecordTable(kind, entries, str(path), frontier_value, frontier_holder_above)


# ---------------------------------------------------------------------------
# The length-bound chain
# ---------------------------------------------------------------------------


@dataclass
class BoundChainReport:
    """Every quantity of the two-stage length bound, recomputed from data.

    Reads: below n0 the search is exhaustive; a paradox above n0 forces the
    smallest odd term to at least m0 (excursion table), its length to at
    least j0 (harmonic cap) and its odd count to at least q0, so the classic
    delay of its start reaches j0 + q0.  That exceeds every delay the delay
    table covers, pushing the start beyond the table frontier n1, and the
    same two steps once more give m1 and j1.
    """

    n0: int
    m0: int
    j0: int
    q0: int
    delay_needed: int        # j0 + q0
    max_known_delay: int
    n1: int                  # lower bound on the start, from the delay frontier
    m1: int
    j1: int
    consistent: bool

    def lines(self) -> list[str]:
        return [
            f"n0 (exhaustive search bound)         = {self.n0}",
            f"m0 = min holder with excursion >= n0 = {self.m0}",
            f"j0 = least j with H(j) >= m0         = {self.j0}",
            f"q0 = least q with (3+1/m0)^q >= 2^j0 = {self.q0}",
            f"j0 + q0                              = {self.delay_needed}",
            f"largest known classic delay          = {self.max_known_delay}",
            f"n1 (delay-table frontier, >)         = {self.n1}",
            f"m1 = min holder with excursion > n1  = {self.m1}",
            f"j1 = least j with H(j) >= m1         = {self.j1}",
            f"chain consistent (j0+q0 > max delay) = {self.consistent}",
        ]


# The bound below which the paradox search is exhaustive.
N0 = 10**9


def theorem5_bound_chain(mex: RecordTable, delays: RecordTable) -> BoundChainReport:
    """Recompute the bound chain from the ingested max-excursion and classic
    delay tables.

    Every number in the report is derived here: table lookups use the
    ingested tables, and the j/q bounds are exact big-integer computations.
    A delay table whose frontier n1 is not above n0 bounds nothing past n0,
    and raises ValueError.
    """
    if mex.kind is not RecordKind.MAX_EXCURSION_T or delays.kind is not RecordKind.DELAY_COL:
        raise ValueError("the bound chain needs a max-excursion-t and a delay-col table, "
                         f"got {mex.kind.value} and {delays.kind.value}")
    m0 = mex.smallest_holder_with_value(N0)
    j0 = smallest_harmonic_cap_j(m0)
    q0 = coefficient_ceiling_q(j0, m0)
    needed = j0 + q0
    max_delay = delays.max_record_value()
    n1 = delays.frontier_holder_bound()
    if n1 <= N0:
        raise ValueError(f"{delays.source}: delay frontier n1 = {n1} does not exceed n0 = {N0}")
    m1 = mex.smallest_holder_with_value(n1, strict=True)
    j1 = smallest_harmonic_cap_j(m1)
    return BoundChainReport(N0, m0, j0, q0, needed, max_delay, n1, m1, j1,
                            consistent=needed > max_delay)
