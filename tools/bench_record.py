#!/usr/bin/env python3
"""Summarise paired perfbench runs into one committed BENCH file.

    python3 tools/bench_record.py --parent P1.json P2.json ... \\
        --change C1.json C2.json ... --out BENCH_07_residue_table.json \\
        [--parent-commit SHA] [--change-commit SHA]

Each input is a result file that `perfbench/run.py` wrote under
`.perfbench/results/`, from runs of the parent code and of the changed code
on one machine (alternate them; give each run its own --seed so that no
file overwrites another).  The output is

    {machine, commits, e2e: {workload: {metric: {parent, change, delta}}},
     layers: {workload: {metric: {parent, change, delta}}}, runs}

where parent and change are {median, q1, q3, n} over the runs of that side
and delta is change median / parent median - 1.  A side's commit is the
`git_commit` of its runs' metadata, or the one given with --parent-commit or
--change-commit, for runs made from an extracted copy (`git archive`), whose
metadata has none.  Untraced runs (--trace 0)
give the end-to-end metrics, traced runs (--trace 1) the per-layer ones.

The tool refuses its inputs (exit 2) when the files of one side disagree on
the `src_sha256` of their metadata (two different codes mixed on one side),
when the two sides share one, or when the files disagree on the machine
(nproc, Python version, package version).  It also refuses a side with a run
that had failed operations, whose timings measure a wrong answer, and a side
that holds one file twice (by path or as a copy), which would count one run
as two.  It reads perfbench output only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

MACHINE_KEYS = ("nproc", "python", "package_version")
SIDES = ("parent", "change")


class RecordError(ValueError):
    pass


def summary(values: list[float]) -> dict:
    """Median and quartiles (inclusive method: the quartiles of 1, 2, 3, 4, 5
    are 2 and 4), and the count."""
    values = sorted(values)
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def load_side(paths: list[Path], side: str) -> list[dict]:
    texts: dict[str, Path] = {}
    for p in paths:
        text = Path(p).read_text()
        if text in texts:
            raise RecordError(f"{side} file {p} repeats {texts[text]}")
        texts[text] = p
    results = [json.loads(text) for text in texts]
    failed = [str(p) for r, p in zip(results, texts.values()) if r["failed"]]
    if failed:
        raise RecordError(f"{side} runs with failed operations: {', '.join(failed)}")
    digests = sorted({r["meta"]["src_sha256"] for r in results})
    if len(digests) != 1:
        raise RecordError(f"{side} files disagree on src_sha256: {', '.join(digests)}")
    return results


def _metrics(results: list[dict], trace: int) -> dict:
    """{workload: {metric: summary}} over the runs with the given trace flag."""
    values: dict[str, dict[str, list[float]]] = {}
    for r in results:
        if r["meta"]["trace"] != trace:
            continue
        per = values.setdefault(r["meta"]["workload"], {})
        for name, m in r["metrics"].items():
            per.setdefault(name, []).append(m["value"])
    return {w: {name: summary(v) for name, v in sorted(per.items())}
            for w, per in sorted(values.items())}


def _pair(parent: dict, change: dict) -> dict:
    out: dict = {}
    for w in sorted(set(parent) | set(change)):
        out[w] = {}
        for name in sorted(set(parent.get(w, {})) | set(change.get(w, {}))):
            p, c = parent.get(w, {}).get(name), change.get(w, {}).get(name)
            delta = c["median"] / p["median"] - 1 if p and c and p["median"] else None
            out[w][name] = {"parent": p, "change": c, "delta": delta}
    return out


def record(parent_paths: list[Path], change_paths: list[Path],
           commits: dict[str, str | None] | None = None) -> dict:
    sides = {"parent": load_side(parent_paths, "parent"),
             "change": load_side(change_paths, "change")}
    digests = {s: rs[0]["meta"]["src_sha256"] for s, rs in sides.items()}
    if digests["parent"] == digests["change"]:
        raise RecordError("parent and change files have the same src_sha256")
    machines = {tuple(r["meta"][k] for k in MACHINE_KEYS) for rs in sides.values() for r in rs}
    if len(machines) != 1:
        raise RecordError(f"files disagree on the machine {MACHINE_KEYS}: {sorted(machines)}")
    machine = dict(zip(MACHINE_KEYS, machines.pop()))
    machine["src_sha256"] = digests
    commits = commits or {}
    runs = {s: {w: {"runs": sum(1 for r in rs if r["meta"]["workload"] == w),
                    "failed": sum(r["failed"] for r in rs if r["meta"]["workload"] == w),
                    "seeds": sorted(r["meta"]["seed"] for r in rs
                                    if r["meta"]["workload"] == w)}
                for w in sorted({r["meta"]["workload"] for r in rs})}
            for s, rs in sides.items()}
    return {
        "machine": machine,
        "commits": {s: commits.get(s) or sides[s][0]["meta"]["git_commit"] for s in SIDES},
        "e2e": _pair(_metrics(sides["parent"], 0), _metrics(sides["change"], 0)),
        "layers": _pair(_metrics(sides["parent"], 1), _metrics(sides["change"], 1)),
        "runs": runs,
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", nargs="+", type=Path, required=True, metavar="JSON")
    ap.add_argument("--change", nargs="+", type=Path, required=True, metavar="JSON")
    ap.add_argument("--parent-commit", help="commit of the parent runs, if their "
                                            "metadata has none (an extracted copy)")
    ap.add_argument("--change-commit", help="commit of the change runs, if their "
                                            "metadata has none (an extracted copy)")
    ap.add_argument("--out", type=Path, required=True, metavar="BENCH_NN_label.json")
    args = ap.parse_args(argv)
    try:
        doc = record(args.parent, args.change,
                     {"parent": args.parent_commit, "change": args.change_commit})
    except (RecordError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    args.out.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
