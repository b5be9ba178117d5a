"""Census-engine benchmark: drives the `collatz-paradox` package from outside.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from a checkout of the repository; it imports the package from the
checkout's `src/` and writes scratch files under `.perfbench/`.

With `--trace 0` it runs rounds of the workload in child processes (the CLI,
or `bench_child.py` for the scoreboard workloads) until S seconds are used,
at least one round, and reports end-to-end metrics as medians over rounds.
With `--trace 1` it runs the in-process layer suite (`bench_layers.py`) and
reports per-layer metrics.  Every output is checked against a known answer;
a wrong output counts as a failed operation and the run goes on.  The last
line of stdout is the result: {"correct", "attempted", "failed", "metrics"}.
The line before it is `# meta {...}`: nproc, Python and package versions,
git commit (or null outside a git checkout), a digest of `src/`, the seed and
the worker count.  The full result, with spans when traced, is also written
to `.perfbench/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "collatz_paradox"
WORKLOADS = ("census", "far-window", "verify", "properties")
CHILD_TIMEOUT_S = 170
EXIT_INCOMPLETE = 10

sys.path.insert(0, str(HERE))
from bench_inputs import Sizes, windows  # noqa: E402


@dataclass
class Child:
    returncode: int
    output: str
    cpu_s: float
    rss_mb: float


@dataclass
class Round:
    wall_s: float = 0.0
    cpu_s: float = 0.0
    rss_mb: float = 0.0
    starts: int = 0
    ops: list[tuple[str, bool, str]] = field(default_factory=list)

    def run(self, argv: list[str], cwd: Path) -> Child:
        child = run_child(argv, cwd)
        self.cpu_s += child.cpu_s
        self.rss_mb = max(self.rss_mb, child.rss_mb)
        return child

    def check(self, name: str, ok: bool, detail: str) -> None:
        self.ops.append((name, bool(ok), detail))


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), str(HERE),
                                                      env.get("PYTHONPATH")]))
    return env


def run_child(argv: list[str], cwd: Path) -> Child:
    """Run one child to completion and collect its CPU time and peak RSS.

    os.wait4 reports the child's rusage including every descendant it waited
    for, so the pool workers of a CLI search are counted too."""
    log = cwd / "child.log"
    with log.open("w+") as out:
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(), stdout=out,
                                stderr=subprocess.STDOUT, start_new_session=True)
        killer = threading.Timer(CHILD_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:   # interrupted: leave no child or pool worker behind
            os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
            raise
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        text = out.read()
    return Child(proc.returncode, text, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024)


def cli(*args: str) -> list[str]:
    return [sys.executable, "-m", "collatz_paradox.cli", *args]


def sha256_file(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


# ---------------------------------------------------------------------------
# Workload rounds (end to end, child processes)
# ---------------------------------------------------------------------------


def census_round(rnd: Round, sizes: Sizes, seed: int, index: int, work: Path, nproc: int) -> None:
    lo, hi = sizes.census_range
    for f in ("shortcut", "classic"):
        csv, table, ck = work / f"hits_{f}.csv", work / f"census_{f}.txt", work / f"ck_{f}.txt"
        child = rnd.run(cli("search", "--range", f"{lo}..{hi}", "--formalism", f,
                            "--threads", str(nproc), "--checkpoint", ck.name,
                            "--out", csv.name, "--census-out", table.name,
                            "--no-timestamp"), work)
        want_csv, want_table = sizes.census_digests[f]
        got = (sha256_file(csv), sha256_file(table))
        rnd.check(f"search {lo}..{hi} {f} at {nproc} workers",
                  child.returncode == 0 and got == (want_csv, want_table),
                  f"exit={child.returncode} sha256={got}")
        rnd.starts += hi - lo + 1


def far_window_round(rnd: Round, sizes: Sizes, seed: int, index: int, work: Path, nproc: int) -> None:
    for label, lo, hi in windows(seed, index, sizes):
        common = ["search", "--range", f"{lo}..{hi}", "--formalism", "shortcut",
                  "--threads", "1", "--block-size", str(sizes.window_block), "--no-timestamp"]
        blocks = -(-(hi - lo + 1) // sizes.window_block)
        ck = f"{label}.ck"
        part = rnd.run(cli(*common, "--checkpoint", ck, "--max-blocks", str(max(1, blocks // 2)),
                           "--out", f"{label}.part.csv"), work)
        rnd.check(f"{label} interrupted", part.returncode == EXIT_INCOMPLETE
                  and not (work / f"{label}.part.csv").exists(), f"exit={part.returncode}")
        resumed = rnd.run(cli(*common, "--checkpoint", ck, "--out", f"{label}.resumed.csv"), work)
        plain = rnd.run(cli(*common, "--out", f"{label}.plain.csv"), work)
        plain_csv = sha256_file(work / f"{label}.plain.csv")
        rnd.check(f"{label} {lo}..{hi} uninterrupted", plain.returncode == 0
                  and plain.output.strip().endswith("0 hits") and plain_csv is not None,
                  f"exit={plain.returncode} out={plain.output.strip()[-80:]!r}")
        rnd.check(f"{label} {lo}..{hi} resumed", resumed.returncode == 0
                  and resumed.output.strip().endswith("0 hits")
                  and sha256_file(work / f"{label}.resumed.csv") == plain_csv,
                  f"exit={resumed.returncode} out={resumed.output.strip()[-80:]!r}")
        rnd.starts += 2 * (hi - lo + 1)


def scoreboard_round(rnd: Round, argv: list[str], work: Path) -> None:
    """Run bench_child.py; one operation per scoreboard check it reports."""
    child = rnd.run([sys.executable, str(HERE / "bench_child.py"), *argv], work)
    try:
        report = json.loads(child.output.strip().splitlines()[-1])
        results = report["checks"]
    except (ValueError, IndexError, KeyError, TypeError):
        rnd.check("scoreboard child", False,
                  f"exit={child.returncode} out={child.output.strip()[-200:]!r}")
        return
    for name, ok, detail in results:
        rnd.check(name, ok and child.returncode == 0, detail)


def verify_round(rnd: Round, sizes: Sizes, seed: int, index: int, work: Path, nproc: int) -> None:
    scoreboard_round(rnd, ["checks", *sizes.verify_checks], work)
    rnd.starts += sizes.verify_starts


def properties_round(rnd: Round, sizes: Sizes, seed: int, index: int, work: Path, nproc: int) -> None:
    scoreboard_round(rnd, ["properties", str(seed), str(index), str(sizes.triples),
                           *sizes.property_checks], work)
    rnd.starts += sizes.triples


ROUNDS = {"census": census_round, "far-window": far_window_round,
          "verify": verify_round, "properties": properties_round}


def time_imports(count: int, work: Path, times: list[float], ops: list) -> None:
    """Time `count` fresh interpreters that import the CLI module."""
    argv = [sys.executable, "-c", "import collatz_paradox.cli"]
    for _ in range(count):
        t0 = perf_counter()
        child = subprocess.run(argv, cwd=work, env=child_env(), capture_output=True,
                               timeout=CHILD_TIMEOUT_S)
        times.append(perf_counter() - t0)
        ops.append(("import collatz_paradox.cli", child.returncode == 0,
                    child.stderr.decode(errors="replace")[-200:]))


def run_end_to_end(workload: str, sizes: Sizes, seed: int, seconds: float, work: Path,
                   nproc: int) -> tuple[dict, list, dict]:
    """Rounds until `seconds` is used; setup_s imports are timed before the
    first round and after every round, so they sample the whole run."""
    ops: list = []
    time_imports(1, work, [], ops)   # fills the bytecode cache; not timed
    setup_times: list[float] = []
    time_imports(sizes.setup_imports, work, setup_times, ops)
    rounds: list[Round] = []
    t0 = perf_counter()
    while True:
        rdir = work / f"round{len(rounds)}"
        rdir.mkdir()
        rnd = Round()
        start = perf_counter()
        ROUNDS[workload](rnd, sizes, seed, len(rounds), rdir, nproc)
        rnd.wall_s = perf_counter() - start
        shutil.rmtree(rdir)
        rounds.append(rnd)
        ops += rnd.ops
        time_imports(sizes.setup_imports, work, setup_times, ops)
        elapsed = perf_counter() - t0
        if elapsed + statistics.median(r.wall_s for r in rounds) > seconds:
            break
    med = statistics.median
    metrics = {
        "setup_s": (med(setup_times), "s"),
        "wall_s": (med(r.wall_s for r in rounds), "s"),
        "starts_per_s": (med(r.starts / r.wall_s for r in rounds), "1/s"),
        "cpu_s": (med(r.cpu_s for r in rounds), "s"),
        "peak_rss_mb": (med(r.rss_mb for r in rounds), "MB"),
    }
    return metrics, ops, {"setup_s": setup_times,
                          "rounds": [{"wall_s": r.wall_s, "cpu_s": r.cpu_s, "rss_mb": r.rss_mb,
                                      "starts": r.starts} for r in rounds]}


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


def load_package():
    """Import the package from this checkout's src/, never from elsewhere."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        raise SystemExit(f"error: {PACKAGE_DIR} not found; run from a checkout of the repository")
    sys.path.insert(0, str(SRC))
    import collatz_paradox

    if Path(collatz_paradox.__file__).resolve().parent != PACKAGE_DIR.resolve():
        raise SystemExit(f"error: imported collatz_paradox from {collatz_paradox.__file__}")
    return collatz_paradox


def metadata(pkg, args, workers: list[int], nproc: int) -> dict:
    src_digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.rglob("*")):
        if path.is_file() and path.suffix in (".py", ".txt"):
            src_digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    try:
        # the ceiling keeps git from reporting a repository above the checkout
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
                                text=True, timeout=30).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    return {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "nproc": nproc, "workers": workers,
            "python": platform.python_version(), "package_version": pkg.__version__,
            "git_commit": commit, "src_sha256": src_digest.hexdigest()}


def nproc_available() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def main(argv=None, sizes: Sizes | None = None) -> int:
    args = parse_args(argv)
    sizes = sizes or Sizes()
    pkg = load_package()
    nproc = nproc_available()
    scratch = ROOT / ".perfbench"
    work = scratch / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True)
    extra: dict = {}
    try:
        if args.trace:
            from bench_layers import run_suite

            metrics, ops, spans = run_suite(args.workload, sizes, args.seed, nproc, work)
            ops = [(name, ok, "") for name, ok in ops]
            workers = [1, nproc]
            extra["spans"] = spans
        else:
            metrics, ops, extra = run_end_to_end(args.workload, sizes, args.seed,
                                                 args.seconds, work, nproc)
            workers = [nproc if args.workload == "census" else 1]
    finally:
        shutil.rmtree(work, ignore_errors=True)
    meta = metadata(pkg, args, workers, nproc)
    failed = [op for op in ops if not op[1]]
    for name, _, detail in failed:
        print(f"FAILED {name}: {detail}", file=sys.stderr)
    result = {"correct": not failed, "attempted": len(ops), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    results = scratch / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps({"meta": meta, **result, **extra,
                               "operations": ops}) + "\n")
    print("# meta " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
