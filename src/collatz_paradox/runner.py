"""Sharded, resumable execution of the paradox enumeration.

The range splits into fixed-size blocks handed to a process pool, and the
collector merges per-block results in block order, so the output is
identical for any worker count.  The workers share one thing: the excursion
memo of the scan, a shared mapping made before they fork, which they fill
in block order under one lock, so each entry is built once per run.  At
most twice as many blocks as workers are submitted and not yet collected,
and no more workers fork than there are blocks to run.  A block that raises
ends the run; blocks not yet started are cancelled.  After
every finished block the checkpoint file is rewritten atomically
(write-to-temp, fsync, rename); a run killed at any point resumes from the
surviving checkpoint and produces the same bytes as an uninterrupted run.

Checkpoint format (plain text, one key=value per line):

    version=1
    digest=<sha256 of the search parameters>
    lo=3 hi=1000000 ... (one per line, informational)
    done=<block index>          (one line per completed block)
    hit=<block>,<n>,<j>         (one line per hit found in that block)
"""

from __future__ import annotations

import collections
import contextlib
import hashlib
import itertools
import os
import signal
import tempfile
import time
from collections.abc import Sequence
from dataclasses import dataclass, field
from pathlib import Path

from . import search
from .dynamics import Formalism
from .search import DEFAULT_BUDGET, HIT_CSV_HEADER, ParadoxHit, scan_paradoxes

DEFAULT_BLOCK_SIZE = 1 << 16


@dataclass(frozen=True)
class SearchConfig:
    lo: int
    hi: int
    formalism: Formalism = Formalism.SHORTCUT
    budget: int = DEFAULT_BUDGET
    block_size: int = DEFAULT_BLOCK_SIZE

    def __post_init__(self) -> None:
        if self.hi < self.lo:
            raise ValueError("empty range")
        if self.block_size < 1:
            raise ValueError(f"block size must be >= 1, got {self.block_size}")

    def digest(self) -> str:
        key = f"v1|{self.lo}|{self.hi}|{self.formalism.value}|{self.budget}|{self.block_size}"
        return hashlib.sha256(key.encode()).hexdigest()

    def blocks(self) -> Sequence[tuple[int, int, int]]:
        """The (index, lo, hi) blocks covering [lo, hi] inclusively, as a
        sequence that computes each block when it is read."""
        return _Blocks(self)


class _Blocks(Sequence):
    def __init__(self, cfg: SearchConfig):
        self.cfg = cfg

    def __len__(self) -> int:
        return -(-(self.cfg.hi - self.cfg.lo + 1) // self.cfg.block_size)

    def __getitem__(self, idx: int) -> tuple[int, int, int]:
        idx = range(len(self))[idx]   # IndexError past the end; negatives count back
        lo = self.cfg.lo + idx * self.cfg.block_size
        return idx, lo, min(lo + self.cfg.block_size - 1, self.cfg.hi)


@dataclass
class SearchResult:
    config: SearchConfig
    complete: bool
    blocks_total: int
    blocks_done: int
    pairs: list[tuple[int, int]] = field(default_factory=list)   # (n, j), sorted
    _hits: list[ParadoxHit] | None = None

    def hits(self) -> list[ParadoxHit]:
        """Exact hit records, rebuilt and re-verified from the (n, j) pairs."""
        if not self.complete:
            raise ValueError("search did not complete; no final hit list")
        if self._hits is None:
            self._hits = [ParadoxHit.from_walk(n, j, self.config.formalism)
                          for n, j in self.pairs]
        return self._hits


class CheckpointMismatch(ValueError):
    pass


class CheckpointCorrupt(ValueError):
    """A checkpoint file that cannot be read as a version-1 checkpoint."""


def _load_checkpoint(path: Path, cfg: SearchConfig) -> dict[int, list[tuple[int, int]]]:
    """The finished blocks of a checkpoint (none if it does not exist), with
    their sorted hit pairs."""
    if not path.exists():
        return {}
    done: set[int] = set()
    hits: dict[int, list[tuple[int, int]]] = {}
    blocks: list[tuple[int, int]] = []   # (line, block index) of each done= and hit=
    version = digest = None
    with path.open() as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            try:
                if key == "version":
                    version = val
                elif key == "digest":
                    digest = val
                elif key == "done":
                    done.add(int(val))
                    blocks.append((lineno, int(val)))
                elif key == "hit":
                    b, n, j = (int(x) for x in val.split(","))
                    hits.setdefault(b, []).append((n, j))
                    blocks.append((lineno, b))
            except ValueError:
                raise CheckpointCorrupt(f"{path}:{lineno}: cannot parse {line!r}") from None
    if version != "1":
        raise CheckpointCorrupt(f"{path}: checkpoint version {version}, expected 1")
    if digest != cfg.digest():
        raise CheckpointMismatch(f"{path} belongs to a different search configuration")
    count = len(cfg.blocks())
    for lineno, b in blocks:
        if not 0 <= b < count:
            raise CheckpointCorrupt(f"{path}:{lineno}: block {b} is not one of the "
                                    f"{count} blocks of this search")
    return {b: sorted(hits.get(b, [])) for b in done}


def _write_checkpoint(path: Path, cfg: SearchConfig,
                      done: dict[int, list[tuple[int, int]]]) -> None:
    fd, tmp = tempfile.mkstemp(dir=str(path.parent or Path(".")),
                               prefix=path.name, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write("# collatz-paradox search checkpoint\n")
            fh.write("version=1\n")
            fh.write(f"digest={cfg.digest()}\n")
            fh.write(f"lo={cfg.lo}\nhi={cfg.hi}\n")
            fh.write(f"formalism={cfg.formalism.value}\n")
            fh.write(f"budget={cfg.budget}\nblock_size={cfg.block_size}\n")
            for b in sorted(done):
                fh.write(f"done={b}\n")
            for b in sorted(done):
                for n, j in done[b]:
                    fh.write(f"hit={b},{n},{j}\n")
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def _scan_block_task(args: tuple[int, int, Formalism, int]) -> list[tuple[int, int]]:
    # Module-level, so a pool can pickle it by name; scan_paradoxes is looked
    # up when it runs.
    lo, hi, formalism, budget = args
    return scan_paradoxes(lo, hi, formalism, budget)


def _in_order(pool, tasks, window: int):
    """Yield (index, pairs) for the (index, args) tasks in their order, with
    at most `window` of them submitted to the pool and not yet collected."""
    queue = collections.deque()
    for idx, args in tasks:
        if len(queue) == window:
            first, future = queue.popleft()
            yield first, future.result()
        # By its module-level name, so that the pool pickles it as such.
        queue.append((idx, pool.submit(_scan_block_task, args)))
    while queue:
        first, future = queue.popleft()
        yield first, future.result()


def run_search(cfg: SearchConfig, threads: int = 1,
               checkpoint: str | Path | None = None,
               max_blocks: int | None = None) -> SearchResult:
    """Run (or resume) the enumeration over cfg's range.

    threads is the worker-process count; results do not depend on it.
    max_blocks caps how many *new* blocks are processed before returning an
    incomplete result (the checkpoint then holds the partial state), which is
    how both tests and operators force an interruption point.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    if max_blocks is not None and max_blocks < 0:
        raise ValueError(f"max blocks must be >= 0, got {max_blocks}")
    blocks = cfg.blocks()
    path = None if checkpoint is None else Path(checkpoint)
    done = {} if path is None else _load_checkpoint(path, cfg)

    # Blocks are made as they are taken, so only the blocks run ever exist.
    todo = len(blocks) - len(done)
    if max_blocks is not None:
        todo = min(todo, max_blocks)
    pending = itertools.islice((b for b in blocks if b[0] not in done), todo)
    tasks = ((idx, (lo, hi, cfg.formalism, cfg.budget)) for idx, lo, hi in pending)
    # A fork pool starts all of its workers at the first submit.
    workers = min(threads, todo)
    with contextlib.ExitStack() as stack:
        if workers <= 1:
            results = ((idx, _scan_block_task(args)) for idx, args in tasks)
        else:
            # Imported here, so that a serial run loads neither module.  The
            # workers fork, so that they inherit the process memo and the
            # jump table.
            import multiprocessing
            from concurrent import futures
            ctx = multiprocessing.get_context("fork")
            stack.enter_context(search.memo_shared_by_forks(ctx.Lock()))
            # The workers ignore SIGINT, so a Ctrl-C to the process group
            # kills none inside the call queue or holding the memo lock.
            # Leaving the pool, by an error or a Ctrl-C too, cancels the
            # blocks submitted and not yet started.
            pool = futures.ProcessPoolExecutor(
                max_workers=workers, mp_context=ctx, initializer=signal.signal,
                initargs=(signal.SIGINT, signal.SIG_IGN))
            stack.callback(pool.shutdown, cancel_futures=True)
            results = _in_order(pool, tasks, 2 * workers)
        for idx, pairs in results:
            done[idx] = pairs
            if path is not None:
                _write_checkpoint(path, cfg, done)

    complete = len(done) == len(blocks)
    pairs = sorted(p for block in done.values() for p in block) if complete else []
    return SearchResult(cfg, complete, len(blocks), len(done), pairs)


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


def hits_csv_text(result: SearchResult, timestamp: bool = True) -> str:
    cfg = result.config
    lines = ["# collatz-paradox hits",
             f"# range={cfg.lo}..{cfg.hi} formalism={cfg.formalism.value} "
             f"budget={cfg.budget}"]
    if timestamp:
        lines.append("# generated=" + time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()))
    lines.append(HIT_CSV_HEADER)
    lines.extend(h.csv_row() for h in result.hits())
    return "\n".join(lines) + "\n"


def write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    if path.parent and not path.parent.exists():
        path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="\n") as fh:
        fh.write(text)
