"""Sharded, resumable execution of the paradox enumeration.

The range splits into fixed-size blocks handed to a process pool, and the
collector merges per-block results in block order, so the output is
identical for any worker count.  The workers share one thing: the excursion
memo of the scan, a shared mapping made before they fork, which they fill
in block order under one lock, so each entry is built once per run.  At
most twice as many blocks as workers are submitted and not yet collected,
and no more workers fork than there are blocks to run.  A block that raises
ends the run; blocks not yet started are cancelled.

The checkpoint is an append-only journal.  A new one gets its header, is
fsynced, and its directory is fsynced once, all before the first block runs.
Each finished block then appends its record in one write and fsyncs it.  A
run killed at any point resumes from the journal on disk and produces the
same bytes as an uninterrupted run.

Checkpoint format (plain text, one key=value per line):

    version=3
    digest=<sha256 of the search parameters>
    lo=3 hi=1000000 ... (one per line, informational)
    hit=<block>,<n>,<j>         (a block's record: one line per hit found in it,
    done=<block>,<hits>          then its index and its hit count)

A kill can tear the last record.  Its unterminated last line is dropped on
load and cut off before the resume appends; hit lines that a torn record
left complete are repeated when that block runs again, and count once.  A
done block whose distinct hit lines do not number its hit count (a lost or
an added hit line) is refused.  Version 2 files (done=<block>, no count) and
version 1 files (all done= lines before all hit= lines) still resume,
unchecked; they gain version 3 records.
"""

from __future__ import annotations

import collections
import contextlib
import itertools
import os
import signal
import time
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
        if self.lo < 3:
            raise ValueError("enumeration starts at 3 (1 and 2 have infinitely many hits)")
        if self.hi < self.lo:
            raise ValueError("empty range")
        if self.budget < 1:
            raise ValueError(f"budget must be >= 1, got {self.budget}")
        if self.block_size < 1:
            raise ValueError(f"block size must be >= 1, got {self.block_size}")

    def digest(self) -> str:
        # CPython's own sha256, the one hashlib falls back to: hashlib maps
        # OpenSSL's libcrypto (about 3.6 MB of RSS) to hash these 60 bytes.
        try:
            from _sha2 import sha256          # Python 3.12+
        except ImportError:
            try:
                from _sha256 import sha256    # Python 3.10 and 3.11
            except ImportError:
                from hashlib import sha256    # a build without them (FIPS)
        key = f"v1|{self.lo}|{self.hi}|{self.formalism.value}|{self.budget}|{self.block_size}"
        return sha256(key.encode()).hexdigest()

    def blocks(self) -> range:
        """The first start of each block; a block ends block_size - 1 later, or at hi."""
        return range(self.lo, self.hi + 1, self.block_size)


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
    """A checkpoint file that cannot be read as a version 1, 2 or 3 checkpoint."""


def _load_checkpoint(path: Path, cfg: SearchConfig) -> tuple[dict[int, list[tuple[int, int]]], int]:
    """The finished blocks of the checkpoint at path, with their sorted hit
    pairs, and the length in bytes of its complete lines."""
    # (line, key, block index, hit count) of each done= and hit= line; the hit
    # count is None on hit= lines and on the done= lines of versions 1 and 2
    records: list[tuple[int, str, int, int | None]] = []
    hits: dict[int, set[tuple[int, int]]] = {}
    version = digest = None
    length = lineno = 0
    with path.open("rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                break   # the unterminated tail of a torn record
            length += len(raw)
            lineno += 1
            line = raw.decode(errors="replace").strip()
            if not line or line.startswith("#"):
                continue
            key, _, val = line.partition("=")
            try:
                if key == "version":
                    version = val
                elif key == "digest":
                    digest = val
                elif key == "done":
                    b, sep, hit_count = val.partition(",")
                    records.append((lineno, key, int(b), int(hit_count) if sep else None))
                elif key == "hit":
                    b, n, j = (int(x) for x in val.split(","))
                    hits.setdefault(b, set()).add((n, j))
                    records.append((lineno, key, b, None))
            except ValueError:
                raise CheckpointCorrupt(f"{path}:{lineno}: cannot parse {line!r}") from None
    if version is None or digest is None:
        raise CheckpointCorrupt(f"{path}:{lineno + 1}: no version= or digest= line")
    if version not in ("1", "2", "3"):
        raise CheckpointCorrupt(f"{path}: checkpoint version {version}, expected 3")
    if digest != cfg.digest():
        raise CheckpointMismatch(f"{path} belongs to a different search configuration")
    count = len(cfg.blocks())
    done: dict[int, list[tuple[int, int]]] = {}
    for lineno, key, b, hit_count in records:
        if not 0 <= b < count:
            raise CheckpointCorrupt(f"{path}:{lineno}: block {b} is not one of the "
                                    f"{count} blocks of this search")
        if key == "done":
            if b in done:
                raise CheckpointCorrupt(f"{path}:{lineno}: block {b} is done twice")
            done[b] = sorted(hits.get(b, ()))
            if hit_count is not None and hit_count != len(done[b]):
                raise CheckpointCorrupt(f"{path}:{lineno}: block {b} is done with "
                                        f"{hit_count} hits, but {len(done[b])} hit= "
                                        "lines name it")
    return done, length


def _append(journal, text: str) -> None:
    """Write text to the unbuffered journal in full, then fsync it."""
    data = text.encode()
    while data:
        data = data[journal.write(data):]
    os.fsync(journal.fileno())


def _open_journal(path: Path, cfg: SearchConfig):
    """The unbuffered journal at path, open for appending, and its finished
    blocks.  A new journal gets its header, fsynced with its directory; an
    old one loses its torn tail."""
    if path.exists():
        done, length = _load_checkpoint(path, cfg)
        journal = path.open("ab", buffering=0)
        journal.truncate(length)
        return journal, done
    journal = path.open("xb", buffering=0)
    try:
        _append(journal, "# collatz-paradox search checkpoint\n"
                         f"version=3\ndigest={cfg.digest()}\n"
                         f"lo={cfg.lo}\nhi={cfg.hi}\nformalism={cfg.formalism.value}\n"
                         f"budget={cfg.budget}\nblock_size={cfg.block_size}\n")
        directory = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(directory)
        finally:
            os.close(directory)
    except BaseException:
        journal.close()
        raise
    return journal, {}


def _scan_block_task(args: tuple[int, int, Formalism, int, tuple[int, int]]) -> list[tuple[int, int]]:
    # Module-level, so a pool can pickle it by name; scan_paradoxes is looked
    # up when it runs.
    lo, hi, formalism, budget, search_range = args
    return scan_paradoxes(lo, hi, formalism, budget, search_range)


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
    with contextlib.ExitStack() as stack:
        journal, done = None, {}
        if checkpoint is not None:
            journal, done = _open_journal(Path(checkpoint), cfg)
            stack.enter_context(journal)

        # Blocks are made as they are taken, so only the blocks run ever exist.
        todo = len(blocks) - len(done)
        if max_blocks is not None:
            todo = min(todo, max_blocks)
        pending = itertools.islice(((i, lo) for i, lo in enumerate(blocks) if i not in done), todo)
        tasks = ((idx, (lo, min(lo + cfg.block_size - 1, cfg.hi), cfg.formalism, cfg.budget,
                        (cfg.lo, cfg.hi)))
                 for idx, lo in pending)
        # A fork pool starts all of its workers at the first submit.
        workers = min(threads, todo)
        if workers <= 1:
            results = ((idx, _scan_block_task(args)) for idx, args in tasks)
        else:
            # Imported here, so that a serial run loads neither module.  The
            # workers fork, so that they inherit the process memo and the
            # jump table; the journal is unbuffered, so they inherit none of
            # its data.
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
            if journal is not None:
                _append(journal, "".join(f"hit={idx},{n},{j}\n" for n, j in pairs)
                        + f"done={idx},{len(pairs)}\n")

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
