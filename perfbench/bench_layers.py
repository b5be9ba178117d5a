"""The traced in-process layer suite behind `--trace 1`.

Every traced run measures every layer, whatever the workload, so each run
reports the full per-layer metric list.  The suite has one part per workload,
on that workload's inputs; the census part scans the 3..262146 prefix of the
census range, which holds every hit of the census.  `trace.overhead_s` is the
traced minus the untraced wall time of the part of the workload being run.
"""

from __future__ import annotations

import hashlib
import importlib
from pathlib import Path
from time import perf_counter

from collatz_paradox import bounds, checks, dynamics, numtheory, poset, records, runner, search
from collatz_paradox.dynamics import Formalism

from bench_child import identity_sweep, run_checks
from bench_inputs import PROPERTY_CHECKS, VERIFY_CHECKS, Sizes, windows
from bench_trace import Tracer

# The package re-exports the function census.census under the module's name.
census = importlib.import_module("collatz_paradox.census")

LAYERS = ("search", "runner", "census", "records", "bounds", "numtheory", "dynamics",
          "poset", "checks")


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


class Suite:
    """One part per workload; each returns its operations as (name, ok)."""

    def __init__(self, sizes: Sizes, seed: int, nproc: int, workdir: Path):
        self.sizes = sizes
        self.seed = seed
        self.nproc = nproc
        self.workdir = workdir
        self.counts: dict[str, int] = {}

    def census(self, tr: Tracer) -> list[tuple[str, bool]]:
        lo, hi = self.sizes.layer_census_range
        ops = []
        single = {}
        for f in (Formalism.SHORTCUT, Formalism.CLASSIC):
            with tr.span(f"suite.census.{f.value}"):
                res = runner.run_search(runner.SearchConfig(lo, hi, f), threads=1)
                hits = res.hits()
                csv = runner.hits_csv_text(res, timestamp=False)
                rows, summary = census.census(hits)
                table = census.render_census(rows, summary)
            single[f] = res
            self.counts[f"search.scan_paradoxes.{f.value}.hits"] = len(hits)
            ok = (_sha(csv), _sha(table)) == self.sizes.layer_census_digests[f.value]
            ops.append((f"census {f.value} {lo}..{hi} at 1 worker", ok))
        with tr.span("suite.census.pool"):
            pooled = runner.run_search(runner.SearchConfig(lo, hi), threads=self.nproc)
        ops.append((f"census shortcut {lo}..{hi} at {self.nproc} workers",
                    pooled.pairs == single[Formalism.SHORTCUT].pairs))
        return ops

    def far_window(self, tr: Tracer) -> list[tuple[str, bool]]:
        ops = []
        self.counts["runner.checkpoint_bytes"] = 0
        for label, lo, hi in windows(self.seed, 0, self.sizes):
            cfg = runner.SearchConfig(lo, hi, block_size=self.sizes.window_block)
            ck = self.workdir / f"{label}.checkpoint"
            ck.unlink(missing_ok=True)
            with tr.span(f"suite.far_window.{label}"):
                with tr.span("suite.resume"):
                    part = runner.run_search(cfg, threads=1, checkpoint=ck,
                                             max_blocks=max(1, len(cfg.blocks()) // 2))
                    resumed = runner.run_search(cfg, threads=1, checkpoint=ck)
                with tr.span("suite.uninterrupted"):
                    plain = runner.run_search(cfg, threads=1)
            self.counts["runner.checkpoint_bytes"] += ck.stat().st_size
            ck.unlink()
            ok = (not part.complete and resumed.complete and plain.complete
                  and not resumed.pairs and not plain.pairs
                  and runner.hits_csv_text(resumed, timestamp=False)
                  == runner.hits_csv_text(plain, timestamp=False))
            ops.append((f"far window {label} {lo}..{hi}", ok))
        return ops

    def verify(self, tr: Tracer) -> list[tuple[str, bool]]:
        with tr.span("suite.verify"):
            results = run_checks(self.sizes.verify_checks)
        return [(name, ok) for name, ok, _ in results]

    def properties(self, tr: Tracer) -> list[tuple[str, bool]]:
        with tr.span("suite.properties.triples"):
            sweep, self.counts["dynamics.trajectory.steps"] = identity_sweep(
                self.seed, 0, self.sizes.triples)
        with tr.span("suite.properties.checks"):
            results = run_checks(self.sizes.property_checks)
        return [(name, ok) for name, ok, _ in [sweep] + results]

    def parts(self) -> dict:
        return {"census": self.census, "far-window": self.far_window,
                "verify": self.verify, "properties": self.properties}


def install(tr: Tracer) -> None:
    """Wrap every public call the per-layer metrics need."""
    def starts(lo, hi, *a, **k):
        return hi - lo + 1

    tr.wrap(search.scan_paradoxes, "search.scan_paradoxes", starts)
    tr.wrap(search.verify_cst, "search.verify_cst", starts)
    tr.wrap(records.compute_records,
            lambda n, kind, *a, **k: f"records.compute_records.{kind.name.lower()}",
            lambda n, *a, **k: n)
    tr.wrap(dynamics.trajectory, "dynamics.trajectory", lambda n, j, *a, **k: j)
    for func in (runner.run_search, runner.hits_csv_text, census.census, census.render_census,
                 records.ingest_reference_records, records.theorem5_bound_chain,
                 bounds.smallest_harmonic_cap_j, bounds.coefficient_ceiling_q,
                 bounds.remainder_bounds, bounds.mean_remainder,
                 numtheory.convergents, numtheory.heuristic_j_cap, numtheory.rhin_gap_ok,
                 poset.check_remainder_monotonicity):
        tr.wrap(func, f"{func.__module__.rsplit('.', 1)[-1]}.{func.__name__}")
    tr.wrap_attr(search.ParadoxHit, "from_walk", "search.from_walk")
    for name in VERIFY_CHECKS + PROPERTY_CHECKS:
        tr.wrap_attr(checks.Scoreboard, name, f"checks.{name}")


def layer_metrics(tr: Tracer, suite: Suite, overhead_s: float) -> dict[str, tuple[float, str]]:
    m: dict[str, tuple[float, str]] = {}
    scan = "search.scan_paradoxes"
    for case, under in (("shortcut", "suite.census.shortcut"), ("classic", "suite.census.classic"),
                        ("int64_window", "suite.far_window.int64_window"),
                        ("bigint_window", "suite.far_window.bigint_window")):
        m[f"{scan}.{case}.starts_per_s"] = (_rate(tr.count(scan, under), tr.total(scan, under)), "1/s")
    m["search.from_walk.hits_per_s"] = (_rate(len(tr.select("search.from_walk")),
                                              tr.total("search.from_walk")), "1/s")
    for name in ("census.census", "census.render_census", "runner.hits_csv_text"):
        m[f"{name}.s"] = (tr.total(name, "suite.census."), "s")
    single_run = sum(tr.total("runner.run_search", f"suite.census.{f}") for f in ("shortcut", "classic"))
    single_scan = sum(tr.total(scan, f"suite.census.{f}") for f in ("shortcut", "classic"))
    m["runner.run_search.pool_speedup"] = (_rate(tr.total("runner.run_search", "suite.census.shortcut"),
                                                 tr.total("runner.run_search", "suite.census.pool")), "x")
    m["runner.run_search.overhead_s"] = (single_run - single_scan, "s")
    m["runner.resume.overhead_s"] = (tr.total("suite.resume") - tr.total("suite.uninterrupted"), "s")
    m["search.verify_cst.starts_per_s"] = (_rate(tr.count("search.verify_cst"),
                                                 tr.total("search.verify_cst")), "1/s")
    for kind in ("max_excursion_t", "delay_col"):
        name = f"records.compute_records.{kind}"
        m[f"{name}.starts_per_s"] = (_rate(tr.count(name), tr.total(name)), "1/s")
    for name in ("records.ingest_reference_records", "records.theorem5_bound_chain",
                 "bounds.coefficient_ceiling_q", "numtheory.convergents",
                 "numtheory.heuristic_j_cap", "numtheory.rhin_gap_ok",
                 "poset.check_remainder_monotonicity", "bounds.remainder_bounds",
                 "bounds.mean_remainder"):
        m[f"{name}.s"] = (tr.total(name), "s")
    caps = [r[2] - r[1] for r in tr.select("bounds.smallest_harmonic_cap_j", "checks.bound_chain")]
    caps += [0.0, 0.0]   # bound_chain asks for m0, then m1; the self-test's tiny sizes skip it
    m["bounds.smallest_harmonic_cap_j.m0.s"] = (caps[0], "s")
    m["bounds.smallest_harmonic_cap_j.m1.s"] = (caps[1], "s")
    traj = "dynamics.trajectory"
    m[f"{traj}.steps_per_s"] = (_rate(tr.count(traj, "suite.properties.triples"),
                                      tr.total(traj, "suite.properties.triples")), "1/s")
    for name in VERIFY_CHECKS + PROPERTY_CHECKS:
        m[f"checks.{name}.s"] = (tr.total(f"checks.{name}"), "s")
    self_times = tr.self_times()
    for layer in LAYERS:
        m[f"{layer}.self.s"] = (self_times.get(layer, 0.0), "s")
    m["trace.overhead_s"] = (overhead_s, "s")
    m[f"{scan}.starts"] = (tr.count(scan), "count")
    for name, value in suite.counts.items():
        m[name] = (value, "count")
    return m


def run_suite(workload: str, sizes: Sizes, seed: int, nproc: int, workdir: Path):
    """Run this workload's part untraced, then every part traced, this
    workload's part first so the two timings are back to back.

    Returns (metrics, operations, spans)."""
    suite = Suite(sizes, seed, nproc, workdir)
    parts = suite.parts()
    t0 = perf_counter()
    ops = parts[workload](Tracer())
    untraced = perf_counter() - t0
    tr = Tracer()
    install(tr)
    try:
        for name in sorted(parts, key=lambda name: name != workload):
            with tr.span(f"suite.part.{name}") as rec:
                ops += parts[name](tr)
            if name == workload:
                traced = rec[2] - rec[1]
    finally:
        tr.restore()
    return layer_metrics(tr, suite, traced - untraced), ops, tr.spans
