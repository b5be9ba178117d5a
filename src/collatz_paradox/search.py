"""Stopping times, delays, excursions and the paradox enumeration itself.

The enumeration walks every start once, maintaining only (iterate, odd-count,
halving-count); the coefficient test 3**q < 2**e reduces to a table lookup of
bit lengths, so the hot loop does no big-number arithmetic at all.  Exact
coefficients and remainders are reconstructed per hit afterwards (hits are
rare).  Both maps walk the compressed map T: a classic odd step x -> 3x + 1
-> T(x) is one compressed step that counts 2, and the classic iterate
3x + 1 = 2 * T(x) it passes is tested on the way.

A walk from n ends as soon as no later step can be a hit.  A hit needs an
iterate >= n, so once a halving step lands on cur < n whose greatest
compressed-map iterate (its excursion, read from a memo of small starts) is
below n, nothing later reaches n again.  Under the classic map every iterate
is a compressed-map iterate or 3x + 1 = 2 * ((3x + 1) / 2), so there the
test is 2 * excursion < n.  The first 1 always passes the test, so a walk
never runs into the trivial cycle: for starts >= 3 nothing after it reaches
the start again under the compressed map, and for the classic map this
matches the published census convention (continuing into the 1-4-2 cycle
would only ever admit the trivial starts 3 and 4).

Starts beyond the memo must fall below its end before the exit can fire, so
their walks are long.  There the walk takes exact K-step jumps from a table
of 2**K rows (the 2**k-step tables of T. Oliveira e Silva, "Empirical
verification of the 3x+1 and related conjectures", 2010), wherever the row's
bounds prove that no iterate inside the jump is a hit or can end the walk;
see scan_paradoxes.

The first i steps of x are y_i = (3**q_i * x + c_i) / 2**i, so whether step
i is a hit or the first descent is a linear test in x (R. Terras, "A
stopping time problem on the positive integers", 1976).  With the paper's
extremal remainder as the bound on c_i / 2**i, that gives for each m a
constant per map above which no start has a hit in its first m*K steps:
3018 on both maps for 2K steps, and below 2**24 for 4K.  So every start
above them may take up to four K-step jumps in a row before its first single
step (see scan_paradoxes), inside the memo as past it.

The same build yields the stopping-time decomposition: 57 residue classes
mod 2**tau (tau <= K) whose starts above a threshold first fall below
themselves at step tau, and the 226 rows whose starts do not within K steps.
It settles every start from _plain_end (8192) up except those of the 226
rows.  _unsettled lists the rest in ascending order, the starts below
_plain_end and the starts of those rows; verify_cst and the delay memo walk
that list, and the excursion records read the classes and rows directly.

K = 12.  The table is built as a prefix tree over the residues, one step per
level (see _build_jump_rows), in about 10 ms; a process builds it on first
use, and a pool run builds it once, before its workers fork.
"""

from __future__ import annotations

import contextlib
import math
import mmap
import threading
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from itertools import islice

from .dynamics import BudgetExhausted, Formalism, orbit, trajectory

INFINITE = math.inf
DEFAULT_BUDGET = 1_000_000

_BL3: list[int] = [1]   # _BL3[q] = bit_length(3**q)


def _bl3_table(upto: int) -> list[int]:
    p = 3 ** (len(_BL3) - 1)
    while len(_BL3) <= upto:
        p *= 3
        _BL3.append(p.bit_length())
    return _BL3


# ---------------------------------------------------------------------------
# Scalar trajectory statistics
# ---------------------------------------------------------------------------


def stopping_time(n: int, budget: int = DEFAULT_BUDGET) -> int | float:
    """Least j with T**j(n) < n; INFINITE for n = 1 (whose orbit never drops)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return INFINITE   # the orbit of 1 is the cycle (1, 2); it never descends
    for j, (cur, _, _) in enumerate(orbit(n), 1):
        if j > budget:
            raise BudgetExhausted(n, budget, what="no descent below the start")
        if cur < n:
            return j


def coeff_stopping_time(n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Least j with 3**q_j(n) < 2**j (exact powers, computed afresh at each step)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    for j, (_, q, _) in enumerate(orbit(n), 1):
        if 3**q < 1 << j:
            return j
        if j > budget:
            raise BudgetExhausted(n, budget, what="coefficient never dropped below 1")


def delay(n: int, formalism: Formalism = Formalism.SHORTCUT,
          budget: int = DEFAULT_BUDGET) -> int:
    """Least j with iterate = 1."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 0
    for j, (cur, _, _) in enumerate(orbit(n, formalism), 1):
        if j > budget:
            raise BudgetExhausted(n, budget, what="never reached 1")
        if cur == 1:
            return j


def max_excursion(n: int, budget: int = DEFAULT_BUDGET) -> int:
    """Greatest iterate of the compressed-map trajectory down to 1 (attained
    before the trivial cycle for every start)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if n == 1:
        return 1
    best = n
    for j, (cur, _, _) in enumerate(orbit(n), 1):
        if j > budget:
            raise BudgetExhausted(n, budget, what="never reached 1")
        if cur == 1:
            return best
        best = max(best, cur)


def fill_excursion_memo(memo, lo: int, hi: int) -> None:
    """Set memo[n] = min(max_excursion(n), _MEMO_MAX) for lo <= n < hi
    (memo[0] = 0), where memo[m] holds it already for every m < lo.

    Each walk stops at its first iterate below the start and reuses the
    already known excursion of that iterate, so a start costs a few steps
    instead of a full descent to 1.  Entries saturate at _MEMO_MAX = 2**32 - 1,
    so memo is any buffer of 4-byte or wider words of at least hi entries: the
    max of a walk's exact peak and a saturated entry is the saturated max.
    The scans fill the process memo below with it.  The record scans keep no
    excursion memo (see records.compute_records).
    """
    top = _MEMO_MAX
    for n in range(lo, hi):
        if n < 3:
            memo[n] = n
            continue
        cur = n
        peak = n
        while cur >= n:
            if cur & 1:
                cur = (3 * cur + 1) >> 1
                if cur > peak:
                    peak = cur
            else:
                cur >>= 1
        m = memo[cur]
        if m > peak:
            peak = m
        memo[n] = peak if peak < top else top


_MEMO_MAX = (1 << 32) - 1   # the greatest memo word; entries saturate there
_MEMO_FULL = 1 << 24    # the cap: 64 MB of 4-byte words, about 11 s to build
_MEMO_FAR = 1 << 16     # about 0.03 s to build
# The greatest excursion of a start below _MEMO_FAR (that of 60975): a range
# from 2 * _MEMO_FAR_PEAK + 1 up reads no entry of the far memo to any effect.
_MEMO_FAR_PEAK = 296_639_576
# The process memo: an anonymous shared mapping of _MEMO_FULL 4-byte entries
# followed by one slot that holds how many of them are built.  It is made on
# first use; a process forked after that shares it, so the workers of a pool
# grow one memo between them (see memo_shared_by_forks).  Only the pages of
# the entries built are ever touched.
_memo: memoryview | None = None
_memo_lock = threading.Lock()     # guards its growth; a process lock while a pool runs
_tables_lock = threading.Lock()   # guards the creation of the memo and the jump table


def _process_memo() -> memoryview:
    global _memo
    if _memo is None:
        with _tables_lock:
            if _memo is None:
                _memo = memoryview(mmap.mmap(-1, 4 * (_MEMO_FULL + 1))).cast("I")
    return _memo


def _memo_floor(lo: int, hi: int) -> int:
    """The walk floor of a search of [lo, hi]; see _memo_for_range."""
    size = min(hi + 1, _MEMO_FULL)
    if size > 2 * (hi - lo + 1):
        return _MEMO_FAR
    return size


def _memo_for_range(n_lo: int, n_hi: int, floor: int) -> tuple[memoryview, int]:
    """The process-wide excursion memo, grown to cover what the block
    [n_lo, n_hi] of a search with walk floor `floor` reads, and the walk floor
    of the block.

    The floor is set once per search, by _memo_floor from its lo and hi: a
    start below it walks inside the memo (its walk may end at any halving
    below the start), and a start at or above it walks until it falls below
    the floor.  A search gets the memo up to min(hi + 1, 2**24) when that
    many entries are at most twice its starts.  Building an entry takes
    about 0.4 us, and a shortcut start near 10**7 takes 0.6-0.8 us inside
    the memo against 1.8-2.1 us down to 2**16, so the build pays from about
    one start per three entries.  Past 2**24 the starts walk down to 2**24,
    after up to four start jumps: 1.9-2.1 us a start at 10**8 and
    1.9-2.2 at 10**9 (shortcut), against 2.2-2.6 and 2.6-3.0 us down to
    2**16 (2-core VM, in process, the memo built beforehand).  Any other search
    gets 2**16 entries: its walks must fall that far before the exit can
    fire, but a short run far out (one CLI process per window) would
    otherwise pay a build of millions of entries for a few thousand starts.
    A sparse search from 593279153 up builds no entry at all (see below); a
    dense one there gets the 2**24 floor like any other, as its 2**24-entry
    build (6.5-9 s) pays from about 10**7 starts at the figures above.

    Entries saturate at S = _MEMO_MAX = 2**32 - 1 (see fill_excursion_memo),
    which is exact where a scan reads them: it reads an entry only as
    memo[cur] < thr with thr <= n, and for every n <= S that test gives the
    same answer on min(excursion, S) as on the excursion.  No entry below
    2**16 saturates (the greatest is M below), so a block with starts above S
    walks down to 2**16 whatever the search's floor.  88 entries below 2**20
    saturate, the first at 159487; the greatest excursion there is
    45119577824, of 1042431.

    A block from 2*M + 1 = 593279153 up (M = _MEMO_FAR_PEAK, the greatest
    excursion below 2**16) with floor 2**16 fills no entry.  Its walks exit
    at their first halving onto cur < 2**16, whatever the memo holds there:
    the exit test memo[cur] < thr reads either a built entry, a true
    excursion <= M, or an unbuilt one, 0, and thr > M on both maps (thr = n
    on the shortcut map, (n + 1) >> 1 >= M + 1 on the classic one).  So its
    walks, their exits and the step budget are those of a filled memo, and a
    process that scans only such ranges skips the fill (about 0.03 s).

    Any other block fills the memo up to min(n_hi + 1, floor), the entries it
    reads, so the first block of 3..10**15 builds one entry a start, not 2**24.
    The memo grows from the length it holds, under _memo_lock, so the
    processes that share it build each entry once between them.  The
    entries are written before the length, so a process that dies while it
    fills leaves no entry counted as built; the next one refills them.

    The memo only grows, so it may hold more entries than the floor; a scan
    uses the floor, which depends on the search and the block alone, so that
    how long a walk runs before its exit (what the step budget bounds) does
    not depend on what the process scanned before.
    """
    if n_hi > _MEMO_MAX:
        floor = _MEMO_FAR
    memo = _process_memo()
    if floor <= _MEMO_FAR and n_lo > 2 * _MEMO_FAR_PEAK:
        return memo, floor
    size = min(n_hi + 1, floor)
    with _memo_lock:
        filled = memo[_MEMO_FULL]
        if filled < size:
            fill_excursion_memo(memo, filled, size)
            memo[_MEMO_FULL] = size
    return memo, floor


@contextlib.contextmanager
def memo_shared_by_forks(lock) -> Iterator[None]:
    """Make the process memo now, so that every process forked inside the
    block shares it, and guard its growth there with lock, a lock that those
    processes share too (a multiprocessing one).  Build the jump table now
    too, so that the forked processes inherit it and none builds its own:
    one build per run, not one per worker.

    The lock in use before comes back at the end: a worker killed while it
    held lock would leave it held for good."""
    global _memo_lock
    _process_memo()
    _jump_tables()
    saved, _memo_lock = _memo_lock, lock
    try:
        yield
    finally:
        _memo_lock = saved


JUMP_K = 12                      # steps per jump; 2**K rows
_JUMP_MASK = (1 << JUMP_K) - 1


_JUMP_DEPTH = 4                  # a start takes at most this many jumps before its first step


def _no_hit_bounds() -> tuple[tuple[int, ...], tuple[int, ...]]:
    """For m = 1.._JUMP_DEPTH, a b such that no start above b has a hit in
    its first m*K steps, on the shortcut map and on the classic one: the
    greatest (3**q - 2**q) * 2**(i-q) // (2**(i-c) - 3**q) over i <= m*K
    and 3**q < 2**(i-c), with c = 0 on the shortcut map and c in (0, 1) on
    the classic one (see _build_jump_rows).  For fixed i and c the term
    grows with q (its numerator is 2**i * (1.5**q - 1)), so only the
    greatest such q counts."""
    shortcut, classic = [], []
    best = [0, 0]
    qs = [0, 0]
    for i in range(1, _JUMP_DEPTH * JUMP_K + 1):
        for c in (0, 1):
            top = 1 << (i - c)
            while 3 ** (qs[c] + 1) < top:
                qs[c] += 1
            q = qs[c]
            if top > 1:
                best[c] = max(best[c], ((3**q - (1 << q)) << (i - q)) // (top - 3**q))
        if i % JUMP_K == 0:
            shortcut.append(best[0])
            classic.append(max(best))
    return tuple(shortcut), tuple(classic)


# (129, 3018, 86293, 5174656) and (259, 3018, 172586, 10349312) at K = 12
_NO_HIT_SHORTCUT, _NO_HIT_CLASSIC = _no_hit_bounds()
# (rows, classes, walked) of _build_jump_rows; built on first use, or before a pool forks
_jump_table: tuple[list[tuple], list[tuple], list[tuple]] | None = None


def _jump_tables() -> tuple[list[tuple], list[tuple], list[tuple]]:
    """The K-step table and stopping-time decomposition of _build_jump_rows,
    built once per process (or once per run, by memo_shared_by_forks, before
    the pool workers fork)."""
    global _jump_table
    if _jump_table is None:
        built = _build_jump_rows()
        with _tables_lock:
            if _jump_table is None:
                _jump_table = built
    return _jump_table


def _plain_end() -> int:
    """The starts below this are walked plainly: 2**(K+1), or past the
    largest tau_thr if that were higher (it is 24 at K = 12)."""
    classes = _jump_tables()[1]
    return max(2 << JUMP_K, 1 + max(tau_thr for _, _, _, _, _, tau_thr, _, _ in classes))


def _unsettled(lo: int, hi: int) -> Iterator[tuple[int, int, int, int]]:
    """(n, cur, q, j) in ascending n for each start lo <= n < hi that the
    stopping-time decomposition leaves to a walk: cur is the iterate after j
    steps, q of them odd.  A start below _plain_end is itself, (n, n, 0, 0);
    above, only the starts of the rows without tau are left, each at its
    K-th iterate, (n, (a*n + c) >> K, dq, K).  Every other start above
    _plain_end lies above its class's tau_thr and first falls below itself
    at step tau (see _build_jump_rows)."""
    plain = min(hi, max(lo, _plain_end()))
    for n in range(lo, plain):
        yield n, n, 0, 0
    walked = _jump_tables()[2]
    for base in range(plain & ~_JUMP_MASK, hi, 1 << JUMP_K):
        for r, a, c, dq, _, _ in walked:
            n = base + r
            if plain <= n < hi:
                yield n, (a * n + c) >> JUMP_K, dq, JUMP_K


def _build_jump_rows() -> tuple[list[tuple], list[tuple], list[tuple]]:
    """The K-step table and the stopping-time decomposition, as
    (rows, classes, walked).

    Row r < 2**K of the table is (a, c, dq, gmin, gmax, hmax): for every
    x = r mod 2**K, T**K(x) = (a*x + c) >> K with dq odd steps, and each
    iterate y_i (i = 1..K) satisfies gmin*x <= y_i * 2**K <= gmax*x + hmax.

    After i steps y_i = (3**q_i * x + c_i) / 2**i, so y_i * 2**K = g_i*x + h_i
    with g_i = 3**q_i * 2**(K-i) and h_i = c_i * 2**(K-i) >= 0; the row keeps
    their least and greatest g and the greatest h.

    The decomposition is Terras' (1976).  With D = 2**i - 3**q_i > 0,
    y_i >= x iff x <= c_i // D.  Let tau be the first i <= K with D > 0, which
    depends on x mod 2**tau only.  Each such residue class is one entry of
    classes, (tau, r, a, c, q, tau_thr, gmax, hmax), with r = x mod 2**tau,
    a = 3**q and c = c_tau after q = q_tau odd steps, tau_thr = c // D, and
    gmax and hmax the greatest g_i and h_i over i <= tau (scaled by 2**K, as
    the rows' are): every y_i with i <= tau satisfies
    y_i * 2**K <= gmax*x + hmax.  For every x of the class above tau_thr,
    every y_i before tau exceeds x and y_tau = (a*x + c) >> tau < x, so both
    stopping times of x equal tau.  The classes come sorted by (tau, r).  The
    rows with no such i <= K are walked, as (r, a, c, dq, gmax, hmax) from
    their row.  At K = 12 there are 57 classes and 226 walked rows.

    So step i is a paradox hit iff x <= c_i // D, and the classic iterate
    3*y_{i-1} + 1 = 2*y_i of an odd step is one iff
    x <= c_i // (2**(i-1) - 3**q_i).  The remainder c_i / 2**i is at most
    (3**q - 2**q) / 2**q (the paper's extremal remainder), so no start above
    (3**q - 2**q) * 2**(i-q) // (2**(i-c) - 3**q), the greatest over i <= K
    and 3**q < 2**(i-c), has a hit in its first K steps; c = 0 on the
    shortcut map and c in (0, 1) on the classic one.  At K = 12 these bounds
    are 129 and 259, at (i, q) = (8, 5) and (9, 5): the rows' greatest.
    _no_hit_bounds takes the same greatest over i <= m*K for m K-step jumps.

    The build is a prefix tree.  The parity of y_{i-1}, so step i, depends on
    x mod 2**i only (y_{i-1} * 2**(i-1) = 3**q * x + c), so level i holds one
    node per residue mod 2**i with the running columns of its first i steps,
    and extends the node of r mod 2**(i-1) by one step: 2**(K+1) node updates
    in all, not 2**K walks of K steps.  A node that first has D > 0 at level
    i adds its class there.  The powers of 3 and the g_i come from one list
    per level, so equal values in the rows are one int.
    """
    k = JUMP_K
    pow3 = [3**q for q in range(k + 1)]
    classes = []
    # (q, c, gmin, gmax, hmax, timed): timed once the node has its class
    level = [(0, 0, INFINITE, 0, 0, False)]
    for i in range(1, k + 1):
        half = 1 << (i - 1)
        shift = k - i
        g = [p << shift for p in pow3]
        d = [(1 << i) - p for p in pow3]       # the D of step i
        nodes = []
        for r in range(1 << i):
            q, c, gmin, gmax, hmax, timed = level[r & (half - 1)]
            if (pow3[q] * r + c) >> (i - 1) & 1:
                q += 1
                c = 3 * c + half
            # plain comparisons: twice as fast as min() and max() here
            if g[q] < gmin:
                gmin = g[q]
            if g[q] > gmax:
                gmax = g[q]
            if c << shift > hmax:
                hmax = c << shift
            if not timed and d[q] > 0:
                timed = True
                classes.append((i, r, pow3[q], c, q, c // d[q], gmax, hmax))
            nodes.append((q, c, gmin, gmax, hmax, timed))
        level = nodes
    rows = [(pow3[q], c, q, gmin, gmax, hmax) for q, c, gmin, gmax, hmax, _ in level]
    walked = [(r, pow3[q], c, q, gmax, hmax)
              for r, (q, c, _, gmax, hmax, timed) in enumerate(level) if not timed]
    return rows, classes, walked


# ---------------------------------------------------------------------------
# Paradox hits
# ---------------------------------------------------------------------------

HIT_CSV_HEADER = "n,j,q,C_num,C_den,E_num,E_den,d,start_odd,end_odd,formalism"


@dataclass(frozen=True)
class ParadoxHit:
    """One paradoxical trajectory, with its exact linear-form data."""

    n: int
    j: int             # step count
    q: int             # odd steps
    e: int             # halvings (= j for the compressed map)
    e_num: int         # remainder in lowest terms
    e_den: int
    d: int             # last - first
    start_odd: bool
    end_odd: bool
    formalism: Formalism

    @property
    def remainder(self) -> Fraction:
        return Fraction(self.e_num, self.e_den)

    def csv_row(self) -> str:
        # the coefficient 3**q / 2**e is always in lowest terms
        return (f"{self.n},{self.j},{self.q},{3**self.q},{1 << self.e},"
                f"{self.e_num},{self.e_den},{self.d},{int(self.start_odd)},"
                f"{int(self.end_odd)},{self.formalism.value}")

    @classmethod
    def from_walk(cls, n: int, j: int, formalism: Formalism) -> "ParadoxHit":
        """Rebuild the exact trajectory data for a (start, length) pair and
        re-verify the paradox predicate and the linear-form identity."""
        traj = trajectory(n, j, formalism)
        if not traj.is_paradoxical():
            raise AssertionError(f"hit ({n}, {j}) is not paradoxical")
        if not traj.check_identity():
            raise AssertionError(f"hit ({n}, {j}) fails the linear-form identity")
        rem = traj.remainder()
        return cls(n=n, j=j, q=traj.q, e=traj.e, e_num=rem.numerator,
                   e_den=rem.denominator, d=traj.last() - n, start_odd=bool(n & 1),
                   end_odd=bool(traj.last() & 1), formalism=formalism)


def scan_paradoxes(n_lo: int, n_hi: int, formalism: Formalism = Formalism.SHORTCUT,
                   budget: int = DEFAULT_BUDGET,
                   search_range: tuple[int, int] | None = None) -> list[tuple[int, int]]:
    """Raw (n, j) pairs of every paradox with n_lo <= n <= n_hi, sorted.

    search_range is the (lo, hi) of the search this range is a block of; it
    sets the memo's walk floor (see _memo_for_range).  A call without it is
    a search of its own range.

    This is the hot loop.  Both maps walk compressed steps with counts q (odd
    steps) and e (halvings); j = e on the shortcut map and j = e + q on the
    classic map, where a compressed odd step x -> T(x) stands for x -> 3x + 1
    -> T(x).  So the classic map also tests 3x + 1 = 2 * T(x), at step
    j - 1 with one halving fewer: a hit when 2 * T(x) >= n and bl3[q] < e.

    Each walk ends at the first halving step onto some cur < lim (lim = n
    inside the memo; beyond it, the walk floor that _memo_for_range gives
    for this block) whose excursion memo[cur] is below thr, where thr = n on the
    shortcut map and (n + 1) >> 1 on the classic map (2 * memo[cur] < n); see
    the module docstring for why no hit is lost.

    Where a halving lands on lim <= cur < n, which happens only beyond the
    memo, the walk takes K-step jumps (K = JUMP_K) while the row bounds of
    _build_jump_rows put every iterate inside the jump in [lim, thr).  Such an
    iterate is no hit, nor is its 3x + 1, and it cannot end the walk, so the
    jump is exact.

    One start rule: for m = 1, 2, .. up to _JUMP_DEPTH (4), while n is above
    its map's no-hit bound for the first m*K steps (_no_hit_bounds) and the
    budget is >= 2mK, the walk jumps K steps from cur, adding dq to q and K
    to e; past the memo (n >= floor) the jump also needs its row's guard
    gmin*cur >= floor << K, the mid-walk jumps' own.  After each jump the
    walk ends if cur < lim and memo[cur] < thr; otherwise it walks on from
    the last cur.  The jumps skip no hit, no exit and no budget error:
    - Hits: by the bound, none lies in the first m*K steps.
    - Exits: inside the memo (lim = n), if a skipped halving onto y_i had
      memo[y_i] < thr, then every later iterate is at most memo[y_i] < thr
      <= n, so the jump lands on an exit too, with the same pairs and a
      later exit step.  Conversely, an exit at y_kK means the step-by-step
      walk exits at its last halving i <= kK, since the odd steps after it
      rise to y_kK.  Past the memo (lim = floor) the guard keeps every
      iterate inside the jump at or above the floor, where no exit fires.
    - Budget: after m jumps both walks end within m*K compressed steps, so
      at j <= 2mK <= budget, or both walk on from y_mK; neither raises
      before.  At a smaller budget depth m is not taken, as an exit at y_mK
      checks no budget and would hide a step-by-step exit past it.

    The budget caps the steps one walk may take before its exit; a start that
    needs more raises BudgetExhausted.  The check runs at the exit and at
    halvings onto cur >= lim: a walk that is past the budget and has not
    exited needs more steps, whether it got there by steps or by a jump, and
    an endless walk never lands below lim (from there the memoised
    trajectory leads to 1, where the walk exits).
    """
    if n_lo < 3:
        raise ValueError("enumeration starts at 3 (1 and 2 have infinitely many hits)")
    if n_hi < n_lo:
        raise ValueError("empty range")
    bl3 = _bl3_table(4000)   # grows lazily; plenty for every realistic walk
    qcap = len(bl3)
    memo, size = _memo_for_range(n_lo, n_hi, _memo_floor(*(search_range or (n_lo, n_hi))))
    rows = _jump_tables()[0]
    out: list[tuple[int, int]] = []
    append = out.append
    classic = formalism is Formalism.CLASSIC
    half = 1 if classic else 0      # thr = (n + half) >> half
    # the no-hit bound of each start jump m = 1, 2, .. the budget allows
    no_hit = (_NO_HIT_CLASSIC if classic else _NO_HIT_SHORTCUT)[:max(budget, 0) // (2 * JUMP_K)]
    size_k = size << JUMP_K
    for n in range(n_lo, n_hi + 1):
        thr = (n + half) >> half
        lim = n if n < size else size
        cur = n
        q = e = 0
        for bound in no_hit:
            if n <= bound:
                break
            a, c, dq, gmin, _, _ = rows[cur & _JUMP_MASK]
            if n >= size and gmin * cur < size_k:
                break
            cur = (a * cur + c) >> JUMP_K
            q += dq
            e += JUMP_K
            if cur < lim and memo[cur] < thr:
                break
        if cur < lim and memo[cur] < thr:
            continue
        while True:
            if cur & 1:
                cur = (3 * cur + 1) >> 1
                q += 1
                e += 1
                if q == qcap:
                    bl3 = _bl3_table(2 * q)
                    qcap = len(bl3)
                if cur >= thr:
                    if classic and bl3[q] < e:
                        append((n, e + q - 1))
                    if cur >= n and bl3[q] <= e:
                        append((n, e + q if classic else e))
                continue
            cur >>= 1
            e += 1
            if cur < lim:
                if memo[cur] < thr:
                    break
                continue
            if e > budget:   # so j > budget: raised below
                break
            if cur < n:
                lim_k = lim << JUMP_K
                thr_k = thr << JUMP_K
                while True:
                    a, c, dq, gmin, gmax, hmax = rows[cur & _JUMP_MASK]
                    if gmin * cur < lim_k or gmax * cur + hmax >= thr_k:
                        break
                    cur = (a * cur + c) >> JUMP_K
                    q += dq
                    e += JUMP_K
                    if q >= qcap:
                        bl3 = _bl3_table(2 * q)
                        qcap = len(bl3)
            elif bl3[q] <= e:
                append((n, e + q if classic else e))
        if (e + q if classic else e) > budget:
            raise BudgetExhausted(n, budget, what="walk did not end within the step budget")
    return out


def naive_paradoxes(n_lo: int, n_hi: int, j_max: int,
                    formalism: Formalism = Formalism.SHORTCUT) -> list[tuple[int, int]]:
    """Brute-force oracle: walk every n once along its orbit, up to j_max
    steps of the given map (plain 3x+1 steps on the classic one), and after
    each step test both conditions with freshly computed powers.  No memo,
    no jump table, no pruning and no exit but the stop-at-1 domain convention
    (a walk ends before a step from 1, so the start 1 takes none), so it
    shares nothing with the fast path."""
    out = []
    for n in range(max(n_lo, 2), n_hi + 1):
        for j, (cur, q, e) in enumerate(islice(orbit(n, formalism), j_max), 1):
            if 3**q < 2**e and cur >= n:
                out.append((n, j))
            if cur == 1:
                break
    return out


# ---------------------------------------------------------------------------
# Coefficient-stopping-time conjecture verification
# ---------------------------------------------------------------------------


@dataclass
class CstReport:
    lo: int
    hi: int
    checked: int
    counterexamples: list[tuple[int, int, int]]   # (n, tau, t)
    max_gap: int                                  # max over n of t - tau

    @property
    def ok(self) -> bool:
        return not self.counterexamples


def verify_cst(lo: int, hi: int, budget: int = DEFAULT_BUDGET) -> CstReport:
    """Check stopping time == coefficient stopping time for every n in [lo, hi].

    One walk per n: it ends at the stopping time (first descent below n) and
    records on the way the first step where the coefficient drops below 1.

    Most starts need no walk: at a budget >= K (K = JUMP_K) the walk covers
    only the starts of _unsettled, in ascending order, and checked counts
    every start.  This is exact:
    - Each start below _plain_end (8192 at K = 12) walks from itself.
    - Above _plain_end, a start of a stopping-time class (see
      _build_jump_rows) lies above its class's tau_thr (at most 24), so both
      of its stopping times equal its tau <= K: no counterexample, a gap of 0
      and, at a budget >= K, no BudgetExhausted.
    - A start of a row without tau neither descends (each y_i > n, as
      3**q_i > 2**i) nor drops its coefficient below 1 in its first K steps,
      so it walks on from y_K with q = dq and j = K, exactly as from n.
    - At a budget below K every start walks from itself, since a class
      start with tau > budget is over the budget.
    The list is ascending either way, so the counterexamples come in order
    and the first BudgetExhausted is that of the first start over the
    budget.  At K = 12 there are 226 rows without tau of 4096, so about 5.5%
    of the starts from 8192 up are walked.
    """
    if lo < 2:
        raise ValueError("range must start at 2 (the start 1 never descends)")
    if hi < lo:
        raise ValueError("empty range")
    bl3 = _bl3_table(4000)
    qcap = len(bl3)
    bad: list[tuple[int, int, int]] = []
    max_gap = 0
    if budget >= JUMP_K:
        starts = _unsettled(lo, hi + 1)
    else:
        starts = ((n, n, 0, 0) for n in range(lo, hi + 1))
    for n, cur, q, j in starts:
        tau = 0
        while cur >= n:
            if cur & 1:
                cur = (3 * cur + 1) >> 1
                q += 1
                if q == qcap:
                    bl3 = _bl3_table(2 * q)
                    qcap = len(bl3)
            else:
                cur >>= 1
            j += 1
            if tau == 0 and bl3[q] <= j:
                tau = j
            if j > budget:
                raise BudgetExhausted(n, budget, what="no descent below the start")
        if tau == 0:
            tau = j + 1   # cannot happen (descent forces C < 1); flag loudly
        if tau != j:
            bad.append((n, tau, j))
            max_gap = max(max_gap, j - tau)
    return CstReport(lo, hi, hi - lo + 1, bad, max_gap)
