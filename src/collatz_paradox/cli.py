"""Command-line surface: searches, verifications, bounds and graph export.

Numeric output that feeds any comparison is exact (integer pairs); decimal
columns are renderings controlled by --decimals.  Identical invocations write
byte-identical files once the timestamp header is suppressed with
--no-timestamp.

Each command imports the modules it runs in its handler, so a search or a
CST check loads none of the bound, Diophantine, poset, record or scoreboard
modules.
"""

from __future__ import annotations

import argparse
import sys
from decimal import Decimal
from fractions import Fraction

from . import __version__
from .dynamics import BudgetExhausted, Formalism
from .precision import Undecided
from .runner import (DEFAULT_BLOCK_SIZE, SearchConfig, hits_csv_text, run_search,
                     write_text)
from .search import DEFAULT_BUDGET, verify_cst

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INCOMPLETE = 10
EXIT_INTERRUPTED = 130   # 128 + SIGINT, as a shell reports a Ctrl-C


def parse_bound(s: str) -> int:
    """Integer bounds in plain, underscore, 10^k or scientific notation."""
    s = s.strip().replace("_", "")
    if "^" in s:
        base, _, exp = s.partition("^")
        power = int(exp)
        if power < 0:
            raise argparse.ArgumentTypeError(f"{s!r} is not an integer")
        return int(base) ** power
    if any(c in s for c in "eE."):
        d = Decimal(s)
        if d != d.to_integral_value():
            raise argparse.ArgumentTypeError(f"{s!r} is not an integer")
        return int(d)
    return int(s)


def parse_count(s: str) -> int:
    """A non-negative integer."""
    v = int(s)
    if v < 0:
        raise argparse.ArgumentTypeError(f"{s!r} is negative")
    return v


def parse_budget(s: str) -> int:
    """A step budget: a positive integer in any notation of parse_bound."""
    v = parse_bound(s)
    if v < 1:
        raise argparse.ArgumentTypeError(f"{s!r} is not a positive integer")
    return v


def parse_range(s: str) -> tuple[int, int]:
    lo, sep, hi = s.partition("..")
    if not sep:
        raise argparse.ArgumentTypeError("range must look like A..B")
    return parse_bound(lo), parse_bound(hi)


def _record_kind(name: str):
    from .records import RecordKind
    return RecordKind.parse(name)


# argparse names a rejected value after its type's __name__; this keeps the
# message RecordKind.parse gave ("invalid parse value").
_record_kind.__name__ = "parse"


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="collatz-paradox",
        description="Exact-arithmetic census and analysis of paradoxical Collatz sequences")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command")

    ps = sub.add_parser("search", help="enumerate paradoxical trajectories in a range")
    ps.add_argument("--range", type=parse_range, required=True, metavar="A..B")
    ps.add_argument("--formalism", type=Formalism.parse, default=Formalism.SHORTCUT,
                    metavar="shortcut|classic")
    ps.add_argument("--threads", type=int, default=1, metavar="N",
                    help="worker processes (results are identical for any N)")
    ps.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET,
                    metavar="K", help="most steps one walk may take before its early "
                                      "exit (a start that needs more is an error)")
    ps.add_argument("--block-size", type=parse_bound, default=DEFAULT_BLOCK_SIZE,
                    metavar="B")
    ps.add_argument("--out", metavar="PATH", help="hit CSV output path")
    ps.add_argument("--census-out", metavar="PATH", help="census table output path")
    ps.add_argument("--checkpoint", metavar="PATH")
    ps.add_argument("--max-blocks", type=int, default=None, metavar="K",
                    help="stop after K new blocks, resumable from --checkpoint (required)")
    ps.add_argument("--no-timestamp", action="store_true",
                    help="omit the timestamp header line from output files")
    ps.add_argument("--decimals", type=parse_count, default=2)

    pc = sub.add_parser("cst", help="verify stopping time = coefficient stopping time")
    pc.add_argument("--range", type=parse_range, required=True, metavar="A..B")
    pc.add_argument("--budget", type=parse_budget, default=DEFAULT_BUDGET,
                    metavar="K", help="per-trajectory step budget")

    pp = sub.add_parser("poset", help="export the Hasse diagram of one (j, q) class")
    pp.add_argument("j", type=int)
    pp.add_argument("q", type=int)
    pp.add_argument("--out", metavar="PATH", help="DOT output path (default: stdout)")

    pb = sub.add_parser("bounds", help="recompute the published bound values")
    bq = pb.add_subparsers(dest="subquery", required=True, metavar="SUBQUERY")
    bq.add_parser("chain", help="the two-stage length-bound chain").add_argument(
        "--refs", metavar="DIR", help="reference-table directory override")
    for name, text, params in (
            ("heuristic", "largest j the heuristic length bound admits",
             (("alpha", Fraction), ("beta", Fraction))),
            ("convergents", "the first COUNT convergents of log2/log3", (("count", int),)),
            ("rhin", "Rhin's gap bound for one (j, q)", (("j", int), ("q", int))),
            ("mean", "mean compressed-map remainder over one period", (("j", int),)),
            ("extremes", "extremal remainders and their residues", (("j", int), ("q", int)))):
        bp = bq.add_parser(name, help=text)
        for dest, kind in params:
            bp.add_argument(dest, type=kind, metavar=dest.upper())

    pr = sub.add_parser("records", help="compute record tables and compare to references")
    pr.add_argument("--kind", type=_record_kind, required=True,
                    metavar="delay-t|delay-col|max-excursion-t")
    pr.add_argument("--range", type=parse_range, required=True, metavar="1..N")
    pr.add_argument("--refs", metavar="DIR")
    pr.add_argument("--out", metavar="PATH")

    pk = sub.add_parser("check", help="run the full reproduction scoreboard")
    pk.add_argument("--threads", type=int, default=4)
    pk.add_argument("--refs", metavar="DIR")
    pk.add_argument("--null-hi", type=parse_bound, default=10**6, metavar="N",
                    help="upper end of the empty-window search (raise to 10^7 "
                         "for the full desk-scale run)")
    return ap


def cmd_search(args) -> int:
    from .census import census, render_census
    if args.max_blocks is not None and args.checkpoint is None:
        print("--max-blocks needs --checkpoint", file=sys.stderr)   # or its blocks are lost
        return EXIT_USAGE
    lo, hi = args.range
    cfg = SearchConfig(lo, hi, args.formalism, args.budget, args.block_size)
    result = run_search(cfg, threads=args.threads, checkpoint=args.checkpoint,
                        max_blocks=args.max_blocks)
    if not result.complete:
        print(f"incomplete: {result.blocks_done}/{result.blocks_total} blocks done"
              + (f" (checkpoint: {args.checkpoint})" if args.checkpoint else ""))
        return EXIT_INCOMPLETE
    hits = result.hits()
    if args.out:
        write_text(args.out, hits_csv_text(result, timestamp=not args.no_timestamp))
    if hits:
        rows, summary = census(hits)
        table = render_census(rows, summary, args.decimals)
        if args.census_out:
            write_text(args.census_out, table)
        print(table, end="")
        print(f"{len(hits)} hits")
    else:
        if args.census_out:
            write_text(args.census_out, f"formalism: {cfg.formalism.value}\nhits: 0\n")
        print("0 hits")
    return EXIT_OK


def cmd_cst(args) -> int:
    lo, hi = args.range
    rep = verify_cst(lo, hi, args.budget)
    print(f"checked {rep.checked} starts in [{rep.lo}, {rep.hi}]")
    print(f"counterexamples: {len(rep.counterexamples)}")
    print(f"max (stopping time - coefficient stopping time): {rep.max_gap}")
    for n, tau, t in rep.counterexamples[:20]:
        print(f"  counterexample n={n}: tau={tau} t={t}")
    return EXIT_OK if rep.ok else EXIT_FAIL


def cmd_poset(args) -> int:
    from .poset import hasse
    diagram = hasse(args.j, args.q)
    dot = diagram.to_dot(f"hasse_{args.j}_{args.q}")
    if args.out:
        write_text(args.out, dot)
    else:
        print(dot, end="")
    print(f"{diagram.node_count} nodes, {diagram.edge_count} edges", file=sys.stderr)
    return EXIT_OK


def cmd_bounds(args) -> int:
    from . import bounds as B
    from . import numtheory as NT
    from .records import (RecordKind, ingest_reference_records, reference_path,
                          theorem5_bound_chain)
    q = args.subquery
    if q == "chain":
        mex, delays = (ingest_reference_records(kind, reference_path(kind, args.refs))
                       for kind in (RecordKind.MAX_EXCURSION_T, RecordKind.DELAY_COL))
        rep = theorem5_bound_chain(mex, delays)
        print("\n".join(rep.lines()))
        return EXIT_OK if rep.consistent else EXIT_FAIL
    if q == "heuristic":
        cap = NT.heuristic_j_cap(args.alpha, args.beta)
        print(f"threshold constant 3*log3/log2 = {NT.heuristic_threshold_str()}...")
        print(f"largest admissible j = {cap} (i.e. j < {cap + 1})")
        return EXIT_OK
    if q == "convergents":
        for c in NT.convergents(args.count):
            print(f"{c.index}: {c.p}/{c.q} ({c.side})")
        return EXIT_OK
    if q == "rhin":
        ok = NT.rhin_gap_ok(args.j, args.q)
        print(f"|{args.j} log2 - {args.q} log3| >= max(j,q)^-13.3: {ok}")
        return EXIT_OK if ok else EXIT_FAIL
    if q == "mean":
        m = B.mean_remainder(args.j)
        print(f"mean remainder over one period at length {args.j}: {m} "
              f"(= j/4: {m == Fraction(args.j, 4)})")
        return EXIT_OK
    rb = B.remainder_bounds(args.j, args.q)   # extremes
    print(f"lower = {rb.lower.numerator}/{rb.lower.denominator} "
          f"attained at n = {rb.lower_class} (mod 2^{rb.j})")
    print(f"upper = {rb.upper.numerator}/{rb.upper.denominator} "
          f"attained at n = {rb.upper_class} (mod 2^{rb.j})")
    return EXIT_OK


def cmd_records(args) -> int:
    from .records import IngestError, compute_records, ingest_reference_records, reference_path
    lo, hi = args.range
    if lo != 1:
        print("record scans start at 1", file=sys.stderr)
        return EXIT_USAGE
    if args.refs is not None and reference_path(args.kind) is None:
        print(f"{args.kind.value} has no reference table for --refs", file=sys.stderr)
        return EXIT_USAGE
    recs = compute_records(hi, args.kind)
    lines = [f"{e.n} {e.value}" for e in recs]
    if args.out:
        write_text(args.out, "\n".join(lines) + "\n")
    else:
        print("\n".join(lines))
    ref_path = reference_path(args.kind, args.refs)
    if ref_path is not None:
        try:
            table = ingest_reference_records(args.kind, ref_path, prefix_check_to=hi,
                                             local=recs)
        except IngestError as exc:
            print(f"reference cross-check FAILED: {exc}", file=sys.stderr)
            return EXIT_FAIL
        print(f"reference cross-check ok ({table.source})", file=sys.stderr)
    return EXIT_OK


def cmd_check(args) -> int:
    from .checks import Scoreboard
    results = Scoreboard(args.threads, args.null_hi, args.refs, print).run_all()
    for r in results:   # timings vary between runs, so they stay off stdout
        print(f"{r.seconds:8.2f} s  {r.name}", file=sys.stderr)
    passed = sum(r.ok for r in results)
    print(f"\n{passed}/{len(results)} checks passed")
    return EXIT_OK if passed == len(results) else EXIT_FAIL


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    handlers = {
        "search": cmd_search,
        "cst": cmd_cst,
        "poset": cmd_poset,
        "bounds": cmd_bounds,
        "records": cmd_records,
        "check": cmd_check,
    }
    if args.command is None:
        ap.print_help()
        return EXIT_USAGE
    try:
        return handlers[args.command](args)
    except (BudgetExhausted, Undecided, ValueError, OSError) as exc:
        # records.IngestError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except KeyboardInterrupt:
        # Each finished block is appended to the search checkpoint and
        # fsynced, so the one on disk holds every block finished before the
        # interrupt; a record torn by it is dropped when the search resumes.
        checkpoint = getattr(args, "checkpoint", None)
        print("interrupted" + (f"; resume from checkpoint {checkpoint}" if checkpoint else ""),
              file=sys.stderr)
        return EXIT_INTERRUPTED


if __name__ == "__main__":
    sys.exit(main())
