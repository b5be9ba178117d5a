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
from pathlib import Path

from .bounds import coefficient_ceiling_q, smallest_harmonic_cap_j
from .dynamics import Formalism
from .search import delay, fill_excursion_memo, max_excursion


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


# The scan memo holds one int64 per start, so 10**8 starts take about 800 MB.
# That covers the 10**7 prefix of the packaged reference tables and refuses a
# range like 1..10**9 (8 GB) before anything is allocated.
RECORDS_N_MAX = 10**8


def compute_records(n_hi: int, kind: RecordKind) -> list[RecordEntry]:
    """Scan 1..n_hi and return every n whose statistic beats all smaller n.

    Uses a below-start memo (the walk stops at the first iterate under its
    start and reuses the already known tail), which keeps the scan at a few
    steps per n instead of a full descent to 1.  n_hi is capped at
    RECORDS_N_MAX.
    """
    if n_hi < 1:
        raise ValueError("n_hi must be >= 1")
    if n_hi > RECORDS_N_MAX:
        raise ValueError(f"record scans stop at {RECORDS_N_MAX} starts "
                         f"(8 bytes of memo per start); got {n_hi}")
    out: list[RecordEntry] = []
    best = -1

    if kind is RecordKind.MAX_EXCURSION_T:
        memo = array("q", bytes(8)) * (n_hi + 1)
        fill_excursion_memo(memo, 0, n_hi + 1)
        for n in range(1, n_hi + 1):
            peak = memo[n]
            if peak > best:
                best = peak
                out.append(RecordEntry(n, peak))
        return out

    if kind in (RecordKind.DELAY_COL, RecordKind.DELAY_T):
        # Both delays walk the compressed map; a classic odd step is 3x + 1
        # followed by a halving, so it counts 2.  The walk meets the same
        # first iterate below n, as the classic iterate 3x + 1 in between
        # exceeds x >= n.
        odd_cost = 2 if kind is RecordKind.DELAY_COL else 1
        memo = array("q", (0, 0))   # memo[m] = delay(m) for 1 <= m < len(memo)
        append = memo.append
        out.append(RecordEntry(1, 0))
        best = 0
        for n in range(2, n_hi + 1):
            cur = n
            d = 0
            while cur >= n:
                if cur & 1:
                    cur = (3 * cur + 1) >> 1
                    d += odd_cost
                else:
                    cur >>= 1
                    d += 1
            d += memo[cur]
            append(d)
            if d > best:
                best = d
                out.append(RecordEntry(n, d))
        return out

    raise ValueError(f"unsupported record kind {kind}")


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
        all with a statistic that large.
        """
        for e in self.entries:
            if e.value > threshold or (not strict and e.value == threshold):
                return e.n
        raise LookupError(f"no entry with value {'>' if strict else '>='} {threshold}")

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
    - the prefix with n <= prefix_check_to must equal the locally computed
      record list exactly (a mismatch is a data-integrity error); a caller
      that already holds compute_records(N, kind) for some N >=
      prefix_check_to passes it as local, and it is read instead of a new scan;
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
        upto = min(prefix_check_to, entries[-1].n)
        if local is None:
            local = compute_records(upto, kind)
        file_prefix = [e for e in entries if e.n <= prefix_check_to]
        local = [e for e in local if e.n <= upto]
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
    m1 = mex.smallest_holder_with_value(n1, strict=True)
    j1 = smallest_harmonic_cap_j(m1)
    return BoundChainReport(N0, m0, j0, q0, needed, max_delay, n1, m1, j1,
                            consistent=needed > max_delay)
