"""The desk-scale reproduction suite: one entry per published claim.

Each check recomputes its values from scratch and compares them against the
frozen expectations; `Scoreboard.run_all` executes the whole scoreboard and
is what the CLI's `check` subcommand and the acceptance tests share.
Searches (one per formalism and worker count) and reference tables (one per
kind) are computed once and reused across checks.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

from . import bounds as B
from . import numtheory as NT
from . import poset as P
from .census import census
from .dynamics import Formalism, residue_levels, trajectory
from .records import (RecordKind, RecordTable, ingest_reference_records, reference_path,
                      theorem5_bound_chain)
from .runner import SearchConfig, SearchResult, hits_csv_text, run_search
from .search import naive_paradoxes, scan_paradoxes, verify_cst

THREAD_COUNTS = (1, 4, 8)

# (j, q) -> (N, N_odd, n_min, n_max, d_min, d_max)
EXPECTED_SHORTCUT_CENSUS = {
    (8, 5): (5, 0, 7, 25, 1, 2),
    (27, 17): (50, 12, 164, 885, 1, 26),
    (46, 29): (231, 56, 91, 4611, 1, 188),
    (54, 34): (2, 0, 432, 864, 1, 2),
    (65, 41): (244, 62, 73, 4547, 7, 292),
    (73, 46): (56, 18, 487, 4614, 1, 63),
    (92, 58): (5, 0, 3567, 4551, 65, 125),
}
EXPECTED_CLASSIC_PAIRS = set(EXPECTED_SHORTCUT_CENSUS) | {(16, 10), (130, 82)}

EXPECTED_CONVERGENTS = [(0, 1), (1, 1), (1, 2), (2, 3), (5, 8), (12, 19), (41, 65)]

LINEAR_FORM_SAMPLES = 100_000
LINEAR_FORM_SEED = 20260810


@dataclass
class CheckResult:
    name: str
    ok: bool
    detail: str
    seconds: float = 0.0   # wall time of the check, set by Scoreboard.run_all


class Scoreboard:
    def __init__(self, threads: int = 4, null_hi: int = 10**6,
                 refs_dir=None, log: Callable[[str], None] | None = None):
        if threads < 1:   # refused before the first check prints its header
            raise ValueError("threads must be >= 1")
        if null_hi < 4615:   # the null window is 4615..null_hi
            raise ValueError(f"null window upper end must be >= 4615, got {null_hi}")
        self.threads = threads
        self.null_hi = null_hi
        self.refs_dir = refs_dir
        self.log = log or (lambda s: None)
        self._searches: dict[tuple[Formalism, int], SearchResult] = {}
        self._tables: dict[RecordKind, RecordTable] = {}

    def search(self, formalism: Formalism, threads: int) -> SearchResult:
        key = (formalism, threads)
        if key not in self._searches:
            self.log(f"  [search 3..10^6 {formalism.value} @{threads} workers]")
            self._searches[key] = run_search(SearchConfig(3, 10**6, formalism),
                                             threads=threads)
        return self._searches[key]

    def table(self, kind: RecordKind) -> RecordTable:
        """The reference table of kind, its prefix checked against a local
        scan to 10^6."""
        if kind not in self._tables:
            self._tables[kind] = ingest_reference_records(
                kind, reference_path(kind, self.refs_dir), prefix_check_to=10**6)
        return self._tables[kind]

    # -- criterion 1 -------------------------------------------------------
    def census_shortcut(self) -> CheckResult:
        res = self.search(Formalism.SHORTCUT, self.threads)
        rows, _ = census(res.hits())
        got = {r.key(): (r.count, r.count_odd_odd, r.n_min, r.n_max, r.d_min, r.d_max)
               for r in rows}
        ok = len(res.hits()) == 593 and got == EXPECTED_SHORTCUT_CENSUS
        return CheckResult("census shortcut 3..10^6 (593 hits, 7 exact rows)", ok,
                           f"hits={len(res.hits())} rows={len(rows)}")

    # -- criterion 2 -------------------------------------------------------
    def summary_shortcut(self) -> CheckResult:
        res = self.search(Formalism.SHORTCUT, self.threads)
        _, s = census(res.hits())
        ok = (s.near_cycles == 20 and s.even_even == 138
              and s.distinct_starts == 550 and s.overlap_witness_ok is True)
        return CheckResult("summary (20 near-cycles, 138 even-even, 550 starts, 11/103)",
                           ok, f"near={s.near_cycles} ee={s.even_even} "
                               f"starts={s.distinct_starts} witness={s.overlap_witness_ok}")

    # -- criterion 3 -------------------------------------------------------
    def census_classic(self) -> CheckResult:
        res = self.search(Formalism.CLASSIC, self.threads)
        hits = res.hits()
        rows, s = census(hits)
        pairs = {r.key() for r in rows}
        top = max(hits, key=lambda h: h.d)
        ok = (len(hits) == 1541
              and min(h.n for h in hits) == 7 and max(h.n for h in hits) == 9229
              and pairs == EXPECTED_CLASSIC_PAIRS
              and s.near_cycles == 36
              and s.d_max == 584 and top.n == 8648 and top.n + top.d == 9232)
        return CheckResult("census classic (1541 hits, +(16,10),(130,82), d<=584)", ok,
                           f"hits={len(hits)} pairs={sorted(pairs)} near={s.near_cycles} "
                           f"dmax={s.d_max}@{top.n}")

    # -- criterion 4 -------------------------------------------------------
    def null_window(self) -> CheckResult:
        self.log(f"  [search 4615..{self.null_hi}]")
        res = run_search(SearchConfig(4615, self.null_hi), threads=self.threads)
        ok = res.complete and not res.pairs
        return CheckResult(f"null window 4615..{self.null_hi} (0 hits)", ok,
                           f"hits={len(res.pairs)}")

    # -- criterion 5 -------------------------------------------------------
    def cst(self) -> CheckResult:
        rep = verify_cst(2, 1_150_000)
        ok = rep.ok and rep.max_gap == 0
        return CheckResult("stopping time = coefficient stopping time on 2..1150000",
                           ok, f"counterexamples={len(rep.counterexamples)} "
                               f"max_gap={rep.max_gap}")

    # -- criterion 6 -------------------------------------------------------
    def bound_chain(self) -> CheckResult:
        rep = theorem5_bound_chain(self.table(RecordKind.MAX_EXCURSION_T),
                                   self.table(RecordKind.DELAY_COL))
        ok = (rep.m0 == 113383 and rep.j0 == 1539 and rep.q0 == 971
              and rep.delay_needed == 2510 and rep.max_known_delay == 2456
              and rep.m1 == 23035537407 and rep.j1 == 301994 and rep.consistent)
        return CheckResult("bound chain (m0 113383, j0 1539, q0 971, m1, j1 301994)",
                           ok, f"j0={rep.j0} q0={rep.q0} m1={rep.m1} j1={rep.j1}")

    # -- criterion 7 -------------------------------------------------------
    def record_prefixes(self) -> CheckResult:
        self.table(RecordKind.DELAY_COL)   # ingestion raises on a prefix mismatch
        *below, last = [e for e in self.table(RecordKind.MAX_EXCURSION_T).entries
                        if e.n <= 113383]
        ok = (last.n == 113383 and last.value >= 10**9
              and max(e.value for e in below) < 10**9)
        return CheckResult("record prefixes to 10^6 + excursion threshold at 113383",
                           ok, f"M({last.n})={last.value}")

    # -- criterion 8 -------------------------------------------------------
    def property_linear_form(self) -> CheckResult:
        rng = random.Random(LINEAR_FORM_SEED)
        bad = 0
        for _ in range(LINEAR_FORM_SAMPLES):
            scale = rng.choice((10**3, 10**6, 10**12, 10**18, 1 << 200))
            n = rng.randrange(1, scale)
            j = rng.randrange(0, 121)
            f = Formalism.SHORTCUT if rng.random() < 0.5 else Formalism.CLASSIC
            t = trajectory(n, j, f)
            if not t.check_identity() or (1 << t.e) % t.remainder().denominator:
                bad += 1
        return CheckResult(f"linear-form identity on {LINEAR_FORM_SAMPLES} random triples",
                           bad == 0, f"violations={bad}")

    def property_monotonicity(self) -> CheckResult:
        reports = [P.check_remainder_monotonicity(j) for j in range(1, 11)]
        ok = all(r.ok for r in reports)
        return CheckResult("remainder monotonicity along the order, j <= 10", ok,
                           f"pairs={sum(r.pairs_checked for r in reports)}")

    def property_extremal(self) -> CheckResult:
        # E = c / 2**i against each bound a/b, cross-multiplied: c*b vs a << i;
        # one pass over the levels i <= 14 of the residue tree
        per_level = {}
        for i in range(1, 15):
            per_level[i] = per_q = []
            for q in range(i + 1):
                rb = B.remainder_bounds(i, q)
                per_q.append((rb.lower.numerator << i, rb.lower.denominator,
                              rb.upper.numerator << i, rb.upper.denominator,
                              rb.lower_class, rb.upper_class))
        bad = 0
        for i, nodes in residue_levels(14):
            per_q = per_level[i]
            for r, q, c in nodes:
                lo_num, lo_den, up_num, up_den, lower_class, upper_class = per_q[q]
                if not (lo_num <= c * lo_den and c * up_den <= up_num):
                    bad += 1
                    continue
                if (c * up_den == up_num) != (r == upper_class):
                    bad += 1
                if (c * lo_den == lo_num) != (r == lower_class):
                    bad += 1
        return CheckResult("extremal remainders and their residue classes, j <= 14",
                           bad == 0, f"violations={bad}")

    def property_mean(self) -> CheckResult:
        means = B.mean_remainders(18)
        bad = [j for j, m in enumerate(means, 1) if m != Fraction(j, 4)]
        return CheckResult("mean remainder equals j/4, j <= 18", not bad, f"bad={bad}")

    def property_poset_equivalence(self) -> CheckResult:
        ok = all(_closure_equals_compare(j) for j in range(1, 11))
        return CheckResult("swap-closure equals prefix-sum criterion, j <= 10", ok, "")

    def property_hit_windows(self) -> CheckResult:
        bad = 0
        checked = 0
        for f in (Formalism.SHORTCUT, Formalism.CLASSIC):
            for h in self.search(f, self.threads).hits():
                t = trajectory(h.n, h.j, f)
                er = B.en_ratio_bounds(t)
                # the ones-ratio window, from the same harmonic mean: its left
                # side 2**e <= (3 + 1/h)**q is upper >= lower
                window = t.coefficient_lt_one() and er.upper >= er.lower
                if not (er.lower_holds and er.upper_holds and window):
                    bad += 1
                checked += 1
        return CheckResult("E/n bounds and ones-ratio window on every hit",
                           bad == 0, f"checked={checked} violations={bad}")

    def property_oracle(self) -> CheckResult:
        ok = True
        for f in (Formalism.SHORTCUT, Formalism.CLASSIC):
            naive = naive_paradoxes(3, 5000, 100, f)
            fast = [(n, j) for n, j in scan_paradoxes(3, 5000, f) if j <= 100]
            ok = ok and naive == fast
        return CheckResult("unpruned oracle equals the enumeration, n <= 5000, j <= 100",
                           ok, "")

    def properties(self) -> CheckResult:
        parts = [self.property_linear_form(), self.property_monotonicity(),
                 self.property_extremal(), self.property_mean(),
                 self.property_poset_equivalence(), self.property_hit_windows(),
                 self.property_oracle()]
        ok = all(p.ok for p in parts)
        detail = "; ".join(f"{p.name.split(',')[0]}: {'ok' if p.ok else 'FAIL'}"
                           for p in parts)
        return CheckResult("property suites", ok, detail)

    # -- criterion 9 -------------------------------------------------------
    def diophantine(self) -> CheckResult:
        convs = [(c.p, c.q) for c in NT.convergents(7)]
        quot = NT.partial_quotients(4)
        cap = NT.heuristic_j_cap(42, 3)
        rhin_ok = all(NT.rhin_gap_ok(j, q) for (j, q) in EXPECTED_SHORTCUT_CENSUS)
        ok = (convs == EXPECTED_CONVERGENTS and quot == [1, 1, 1, 2]
              and cap == 17396 and rhin_ok)
        return CheckResult("convergent list, heuristic cap 17396, gap bound on all rows",
                           ok, f"cap={cap} convergents={convs[:4]}...")

    # -- criterion 10 ------------------------------------------------------
    def determinism(self) -> CheckResult:
        import tempfile
        from pathlib import Path

        texts = {}
        for f in (Formalism.SHORTCUT, Formalism.CLASSIC):
            outs = []
            for th in THREAD_COUNTS:
                outs.append(hits_csv_text(self.search(f, th), timestamp=False))
            texts[f] = outs
        same = all(len(set(v)) == 1 for v in texts.values())

        cfg = SearchConfig(3, 10**6)
        reference = hits_csv_text(self.search(Formalism.SHORTCUT, self.threads),
                                  timestamp=False)
        with tempfile.TemporaryDirectory() as td:
            ck = Path(td) / "checkpoint.txt"
            part = run_search(cfg, threads=self.threads, checkpoint=ck, max_blocks=7)
            resumed = run_search(cfg, threads=self.threads, checkpoint=ck)
            resume_same = (not part.complete and resumed.complete
                           and hits_csv_text(resumed, timestamp=False) == reference)
        ok = same and resume_same
        return CheckResult("byte-identical at 1/4/8 workers and across kill-resume",
                           ok, f"thread_counts_identical={same} resume={resume_same}")

    def run_all(self) -> list[CheckResult]:
        steps = [
            self.census_shortcut,
            self.summary_shortcut,
            self.census_classic,
            self.null_window,
            self.cst,
            self.bound_chain,
            self.record_prefixes,
            self.properties,
            self.diophantine,
            self.determinism,
        ]
        out = []
        for step in steps:
            t0 = time.perf_counter()
            res = step()
            res.seconds = time.perf_counter() - t0
            self.log(("PASS " if res.ok else "FAIL ") + res.name
                     + (f"  [{res.detail}]" if res.detail else ""))
            out.append(res)
        return out


def _closure_equals_compare(j: int) -> bool:
    """Reachability in the cover graph vs the prefix-sum criterion.

    Reachability is a bitmask per node, built in one pass from the last node
    down: reach[i] is the OR of 1 << s | reach[s] over the successors s.  That
    needs every edge to rise in node order (`hasse` sorts the nodes
    lexicographically and a 01 -> 10 swap rises in that order); a diagram
    with an edge that does not rise fails, never passing on a partial closure.
    """
    for q in range(j + 1):
        diagram = P.hasse(j, q)
        if any(b <= a for a, b in diagram.edges):
            return False
        succ = diagram.successors()
        ups = P.up_sets(diagram.nodes)
        reach = [0] * len(diagram.nodes)
        for i in range(len(diagram.nodes) - 1, -1, -1):
            for s in succ[i]:
                reach[i] |= 1 << s | reach[s]
            if reach[i] != ups[i] & ~(1 << i):
                return False
    return True
