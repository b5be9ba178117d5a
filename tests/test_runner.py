import functools
import hashlib
import importlib.util
import json
import os
import re
import stat
import subprocess
import sys
import textwrap
import time
import types
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import collatz_paradox
from collatz_paradox import runner
from collatz_paradox.cli import EXIT_FAIL, EXIT_INCOMPLETE, main
from collatz_paradox.dynamics import BudgetExhausted, Formalism
from collatz_paradox.runner import CheckpointCorrupt, SearchConfig, hits_csv_text, run_search
from collatz_paradox.search import scan_paradoxes

MEMO_FULL = 1 << 20


def _first_block_fails(args):
    lo = args[0]
    if lo == 3:
        raise RuntimeError("first block failed")
    time.sleep(0.2)
    (Path(os.environ["MARKER_DIR"]) / str(lo)).touch()
    return []


def test_failing_block_ends_the_pool_run_promptly(tmp_path, monkeypatch):
    monkeypatch.setenv("MARKER_DIR", str(tmp_path))
    monkeypatch.setattr(runner, "_scan_block_task", _first_block_fails)
    cfg = SearchConfig(3, 3 + 32 * 16 - 1, block_size=16)
    with pytest.raises(RuntimeError, match="first block failed"):
        run_search(cfg, threads=2)
    # Only the blocks already handed to a worker still run.
    assert len(list(tmp_path.iterdir())) < len(cfg.blocks()) - 1


class _InProcessPool:
    """Stands in for ProcessPoolExecutor: a task runs when its result is
    collected.  Records the worker count and the peak number of tasks
    submitted and not yet collected."""

    made: list["_InProcessPool"] = []

    def __init__(self, max_workers, **_):
        self.max_workers = max_workers
        self.submitted = self.outstanding = self.peak = 0
        self.made.append(self)

    def submit(self, fn, *args):
        assert fn is runner._scan_block_task   # by its module-level name
        self.submitted += 1
        self.outstanding += 1
        self.peak = max(self.peak, self.outstanding)
        return types.SimpleNamespace(result=functools.partial(self._collect, fn, args))

    def _collect(self, fn, args):
        self.outstanding -= 1
        return fn(*args)

    def shutdown(self, cancel_futures=False):
        pass


@pytest.fixture
def in_process_pool(monkeypatch):
    import concurrent.futures
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", _InProcessPool)
    monkeypatch.setattr(_InProcessPool, "made", [])
    return _InProcessPool.made


@pytest.mark.parametrize("threads", [2, 3])
def test_pool_keeps_at_most_two_blocks_per_worker_submitted(in_process_pool, threads):
    cfg = SearchConfig(3, 3 + 40 * 64 - 1, Formalism.CLASSIC, block_size=64)
    pooled = run_search(cfg, threads=threads)
    [pool] = in_process_pool
    assert pool.max_workers == threads and pool.submitted == 40
    assert pool.peak <= 2 * threads
    assert pooled.pairs == run_search(cfg, threads=1).pairs


def test_pool_of_many_blocks_submits_them_as_it_collects(in_process_pool, monkeypatch):
    # 10^12 blocks and the tenth one fails: only a window past it was submitted
    def tenth_fails(args):
        if args[0] >= 3 + 9 * 1000:
            raise RuntimeError("tenth block failed")
        return []

    monkeypatch.setattr(runner, "_scan_block_task", tenth_fails)
    with pytest.raises(RuntimeError, match="tenth block failed"):
        run_search(SearchConfig(3, 10**15, block_size=1000), threads=2)
    [pool] = in_process_pool
    assert pool.submitted <= 10 + 2 * 2


@pytest.mark.parametrize("done, max_blocks, ran, workers", [
    (0, None, 5, 5), (0, 3, 3, 3), (2, None, 3, 3), (2, 1, 1, None), (5, None, 0, None)])
def test_pool_forks_no_more_workers_than_blocks_to_run(in_process_pool, tmp_path,
                                                       done, max_blocks, ran, workers):
    # 5 blocks, `done` of them in the checkpoint; one block or none runs serially
    cfg = SearchConfig(3, 3 + 5 * 64 - 1, block_size=64)
    ck = tmp_path / "ck.txt"
    run_search(cfg, checkpoint=ck, max_blocks=done)
    result = run_search(cfg, threads=8, checkpoint=ck, max_blocks=max_blocks)
    assert [pool.max_workers for pool in in_process_pool] == ([workers] if workers else [])
    assert result.blocks_done == done + ran
    assert run_search(cfg, checkpoint=ck).pairs == run_search(cfg).pairs


def test_journal_fsyncs_once_per_block_and_its_directory_once(tmp_path, monkeypatch):
    events = []
    real_fsync = os.fsync

    def fsync(fd):   # logs the last line that each file fsync makes durable
        events.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                      else ck.read_text().splitlines()[-1])
        real_fsync(fd)

    monkeypatch.setattr(os, "fsync", fsync)
    monkeypatch.setattr(os, "replace", lambda *args: events.append("replace"))
    cfg, ck = SearchConfig(3, 200, block_size=50), tmp_path / "ck.txt"
    run_search(cfg, checkpoint=ck, max_blocks=1)
    assert events == ["block_size=50", "dir", "done=0,5"]   # the header, its directory, a block
    events.clear()
    assert run_search(cfg, checkpoint=ck).complete
    assert events == ["done=1,2", "done=2,1", "done=3,4"]


def _partial_checkpoint(tmp_path) -> tuple[SearchConfig, Path]:
    cfg = SearchConfig(3, 40000, block_size=4096)
    ck = tmp_path / "ck.txt"
    assert not run_search(cfg, checkpoint=ck, max_blocks=2).complete
    return cfg, ck


def test_checkpoint_with_another_version_is_rejected(tmp_path):
    cfg, ck = _partial_checkpoint(tmp_path)
    ck.write_text(ck.read_text().replace("version=3\n", "version=4\n"))
    with pytest.raises(CheckpointCorrupt, match="version 4"):
        run_search(cfg, checkpoint=ck)


@pytest.mark.parametrize("garbled", ["hit=0,7", "done=x", "done=0,x", "done=0,1,2"])
def test_garbled_checkpoint_line_names_file_and_line(tmp_path, garbled):
    cfg, ck = _partial_checkpoint(tmp_path)
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines + [garbled]) + "\n")
    with pytest.raises(CheckpointCorrupt, match=f"{ck}:{len(lines) + 1}: .*{garbled}"):
        run_search(cfg, checkpoint=ck)


@pytest.mark.parametrize("line", ["done=42", "done=-1", "hit=10,5,8"])
def test_checkpoint_block_outside_the_search_names_file_and_line(tmp_path, line):
    # 10 blocks, cut after 9: an index past the count once resumed to
    # "11/10 blocks done" and exit 10 on every run after.
    cfg = SearchConfig(3, 10**5, block_size=10000)
    ck = tmp_path / "ck.txt"
    assert not run_search(cfg, checkpoint=ck, max_blocks=9).complete
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines + [line]) + "\n")
    with pytest.raises(CheckpointCorrupt, match=f"{ck}:{len(lines) + 1}: block "):
        run_search(cfg, checkpoint=ck)


def test_a_block_done_twice_names_file_and_line(tmp_path):
    cfg, ck = _partial_checkpoint(tmp_path)
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines + ["done=0"]) + "\n")
    with pytest.raises(CheckpointCorrupt, match=f"{ck}:{len(lines) + 1}: block 0 is done twice"):
        run_search(cfg, checkpoint=ck)


# 5 blocks, each with hits
_JOURNALED = SearchConfig(3, 200, Formalism.CLASSIC, block_size=40)


def test_a_journal_cut_at_any_byte_resumes_or_is_refused(tmp_path):
    whole = run_search(_JOURNALED)
    full = tmp_path / "full.txt"
    run_search(_JOURNALED, checkpoint=full)
    data, (finished, _) = full.read_bytes(), runner._load_checkpoint(full, _JOURNALED)
    digest_end = data.index(b"\n", data.index(b"digest=")) + 1
    ck = tmp_path / "ck.txt"
    for cut in range(len(data) + 1):
        ck.write_bytes(data[:cut])
        if cut < digest_end:
            with pytest.raises(CheckpointCorrupt):
                run_search(_JOURNALED, checkpoint=ck)
            continue
        resumed = run_search(_JOURNALED, checkpoint=ck)
        assert resumed.complete and resumed.pairs == whole.pairs, cut
        assert runner._load_checkpoint(ck, _JOURNALED)[0] == finished
    for cut, line in ((0, 1), (data.index(b"digest="), 3)):
        ck.write_bytes(data[:cut])
        with pytest.raises(CheckpointCorrupt, match=f"{ck}:{line}: no version= or digest= line"):
            run_search(_JOURNALED, checkpoint=ck)
    # Each done= line counts its block's hits: a journal that lost any one hit
    # line is refused at that block's done= line, one line up.
    lines = data.decode().splitlines(keepends=True)
    done_at = {int(line[5:].split(",")[0]): i for i, line in enumerate(lines, 1)
               if line.startswith("done=")}
    assert len(done_at) == 5
    for i, line in enumerate(lines):
        if line.startswith("hit="):
            b = int(line[4:].split(",")[0])
            ck.write_text("".join(lines[:i] + lines[i + 1:]))
            with pytest.raises(CheckpointCorrupt, match=f"{ck}:{done_at[b] - 1}: block {b} is "
                                                        f"done with {len(finished[b])} hits"):
                run_search(_JOURNALED, checkpoint=ck)


def test_a_resume_appends_to_the_same_file(tmp_path):
    ck = tmp_path / "ck.txt"
    run_search(_JOURNALED, checkpoint=ck, max_blocks=2)
    before, inode = ck.read_bytes(), ck.stat().st_ino
    assert run_search(_JOURNALED, checkpoint=ck).complete
    assert ck.read_bytes().startswith(before) and ck.stat().st_ino == inode


# The layout that version 1 rewrote after every block: the done= lines, then
# the hit= lines, each in block order.
_VERSION_1 = """\
# collatz-paradox search checkpoint
version=1
digest=d4aca12c638f24670cac761a7fa1dd5d016efac6449fd3e1177c222fd0c2d48e
lo=3
hi=200
formalism=classic
budget=1000000
block_size=40
done=0
done=2
hit=0,7,13
hit=0,9,13
hit=0,14,13
hit=0,15,13
hit=0,18,13
hit=0,19,13
hit=0,25,13
hit=0,33,13
hit=0,36,13
hit=0,37,13
hit=0,38,13
hit=0,39,26
hit=2,91,75
hit=2,97,106
hit=2,103,75
hit=2,121,75
"""


def test_a_version_1_checkpoint_resumes(tmp_path):
    ck = tmp_path / "ck.txt"
    ck.write_text(_VERSION_1)
    resumed = run_search(_JOURNALED, checkpoint=ck, max_blocks=0)
    assert resumed.blocks_done == 2
    assert run_search(_JOURNALED, checkpoint=ck).pairs == run_search(_JOURNALED).pairs
    assert ck.read_text().startswith(_VERSION_1)


@settings(max_examples=200, deadline=None)
@given(lo=st.integers(3, 1 << 70), width=st.integers(0, 1 << 40),
       formalism=st.sampled_from(Formalism), budget=st.integers(1, 1 << 40),
       block_size=st.integers(1, 1 << 40))
def test_the_digest_is_the_sha256_of_the_config_key(lo, width, formalism, budget, block_size):
    cfg = SearchConfig(lo, lo + width, formalism, budget, block_size)
    key = f"v1|{cfg.lo}|{cfg.hi}|{cfg.formalism.value}|{cfg.budget}|{cfg.block_size}"
    assert cfg.digest() == hashlib.sha256(key.encode()).hexdigest()


_CHECKPOINTED_SEARCH = """
    import sys
    from collatz_paradox.cli import main
    status = main(["search", "--range", "3..10^5", "--threads", "2",
                   "--checkpoint", sys.argv[1], "--out", sys.argv[2]])
    print(status, "_hashlib" in sys.modules)
"""


@pytest.mark.skipif(not any(importlib.util.find_spec(m) for m in ("_sha2", "_sha256")),
                    reason="this Python has no built-in sha256 module")
def test_a_checkpointed_search_loads_no_openssl(tmp_path):
    # hashlib maps OpenSSL's libcrypto, about 3.6 MB of RSS, to hash one key
    out = _python(_CHECKPOINTED_SEARCH, str(tmp_path / "ck.txt"), str(tmp_path / "hits.csv"))
    assert out.splitlines()[-1] == "0 False"
    assert (tmp_path / "ck.txt").read_text().count("done=") == 2


def test_a_version_2_checkpoint_resumes(tmp_path):
    # version 2: done=<block> with no hit count; its blocks resume unchecked
    ck = tmp_path / "ck.txt"
    run_search(_JOURNALED, checkpoint=ck, max_blocks=2)
    old = re.sub(r"(?m)^done=(\d+),\d+$", r"done=\1",
                 ck.read_text().replace("version=3\n", "version=2\n"))
    ck.write_text(old)
    assert run_search(_JOURNALED, checkpoint=ck, max_blocks=0).blocks_done == 2
    assert run_search(_JOURNALED, checkpoint=ck).pairs == run_search(_JOURNALED).pairs
    text = ck.read_text()
    assert text.startswith(old) and text.endswith("done=4,7\n")


def test_cli_refuses_a_journal_that_lost_a_hit_line(tmp_path, capsys):
    # An uninterrupted run prints 593 hits; with hit=0,7,8 gone the resume
    # once printed 592 hits and exited 0.
    ck = tmp_path / "ck.txt"
    argv = ["search", "--range", "3..20000", "--block-size", "5000", "--checkpoint", str(ck)]
    assert main([*argv, "--max-blocks", "2"]) == EXIT_INCOMPLETE
    lines = ck.read_text().splitlines(keepends=True)
    lost = lines.index("hit=0,7,8\n")
    done_0 = lines.index("done=0,593\n")
    ck.write_text("".join(lines[:lost] + lines[lost + 1:]))
    capsys.readouterr()
    assert main(argv) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"error: {ck}:{done_0}: block 0 is done with 593 hits, but 592 hit= lines name it\n"


@pytest.mark.parametrize("max_blocks", [[], ["--max-blocks", "0"]])
def test_a_checkpoint_in_a_missing_directory_fails_before_any_block(
        tmp_path, monkeypatch, capsys, max_blocks):
    # the journal is created before any block runs, so that a run never
    # scans for a checkpoint it cannot write
    ran = []
    monkeypatch.setattr(runner, "_scan_block_task", ran.append)
    ck = tmp_path / "nodir" / "ck.txt"
    rc = main(["search", "--range", "3..300000", "--checkpoint", str(ck), *max_blocks])
    out, err = capsys.readouterr()
    assert rc == EXIT_FAIL and ran == [] and out == ""
    assert err == f"error: [Errno 2] No such file or directory: {str(ck)!r}\n"


def test_cli_reports_a_corrupt_checkpoint(tmp_path, capsys):
    cfg, ck = _partial_checkpoint(tmp_path)
    ck.write_text(ck.read_text() + "done=x\n")
    rc = main(["search", "--range", "3..40000", "--block-size", "4096",
               "--checkpoint", str(ck)])
    assert rc == EXIT_FAIL
    assert capsys.readouterr().err.startswith(f"error: {ck}:")


@pytest.mark.parametrize("options, message", [
    (["--block-size", "-5"], "block size must be >= 1, got -5"),
    (["--block-size", "0"], "block size must be >= 1, got 0"),
    (["--max-blocks", "-1"], "max blocks must be >= 0, got -1"),
    (["--range", "100..3"], "empty range"),
    (["--range", "1..10"], "enumeration starts at 3 (1 and 2 have infinitely many hits)"),
])
def test_bad_search_settings_are_refused_at_once(options, message, tmp_path, capsys):
    # a negative block size used to grow the block list without bound, 0 meant
    # the default, a negative cap silently dropped the last blocks, an
    # inverted range reported 0 hits, and a range from 1 wrote its checkpoint
    # before it failed
    ck = tmp_path / "ck.txt"
    t0 = time.monotonic()
    assert main(["search", "--range", "3..100", "--checkpoint", str(ck), *options]) == EXIT_FAIL
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not ck.exists()


def test_block_settings_are_checked_by_the_api():
    with pytest.raises(ValueError, match="empty range"):
        SearchConfig(100, 3)
    with pytest.raises(ValueError, match="block size"):
        SearchConfig(3, 100, block_size=0)
    with pytest.raises(ValueError, match="max blocks"):
        run_search(SearchConfig(3, 100), max_blocks=-1)
    assert run_search(SearchConfig(3, 100), max_blocks=0).blocks_done == 0
    for lo in (-1, 1, 2):
        with pytest.raises(ValueError, match="enumeration starts at 3"):
            SearchConfig(lo, 10)
    for budget in (0, -5):
        with pytest.raises(ValueError, match=f"budget must be >= 1, got {budget}"):
            SearchConfig(3, 10, budget=budget)
    assert run_search(SearchConfig(3, 10, budget=10)).complete


def _ranges(lo: int, hi: int, width: int):
    return st.tuples(st.integers(lo, hi), st.integers(0, width)).map(
        lambda t: (t[0], t[0] + t[1]))


def _with_block_size(ranges):
    # (a, b, block size), the block size cutting [a, b] into 1 to 12 blocks
    return st.tuples(ranges, st.integers(1, 12)).map(
        lambda t: (*t[0], -(-(t[0][1] - t[0][0] + 1) // t[1])))


@settings(max_examples=40, deadline=None)
@given(case=_with_block_size(st.one_of(
           _ranges(3, 10**4 - 2000, 2000),                       # where the hits lie
           st.tuples(st.integers(MEMO_FULL - 60, MEMO_FULL),      # straddles 2**20, sparse:
                     st.integers(MEMO_FULL + 1, MEMO_FULL + 60)),  # the 2**16 floor
           _ranges(MEMO_FULL + 1, 1 << 40, 40))),                 # the 2**16 far memo
       threads=st.integers(1, 2), formalism=st.sampled_from(Formalism))
def test_pool_run_equals_a_serial_run(case, threads, formalism):
    lo, hi, block = case
    pooled = run_search(SearchConfig(lo, hi, formalism, block_size=block), threads=threads)
    serial = run_search(SearchConfig(lo, hi, formalism), threads=1)
    assert pooled.pairs == serial.pairs
    assert hits_csv_text(pooled, timestamp=False) == hits_csv_text(serial, timestamp=False)


# A dense search that straddles 2**20, so its memo floor, 2**20 + 4097, lies
# past every start.  At the budget 218 every walk inside that memo ends, but
# the start 626331 takes more steps down to 2**16, where a block scanned as a
# search of its own would walk.
_STRADDLE = SearchConfig(1 << 19, MEMO_FULL + 4096, budget=218, block_size=4096)


def test_a_dense_search_past_2_20_is_the_same_in_pool_serial_and_resumed_runs(tmp_path):
    want = run_search(_STRADDLE)
    assert want.complete and want.pairs == []
    with pytest.raises(BudgetExhausted, match=r"\(n = 626331, budget = 218\)"):
        scan_paradoxes(626331, 626331, budget=218)
    ck = tmp_path / "ck.txt"
    assert run_search(_STRADDLE, checkpoint=ck, max_blocks=60).blocks_done == 60
    runs = [run_search(_STRADDLE, threads=2), run_search(_STRADDLE, threads=2, checkpoint=ck)]
    for got in runs:
        assert hits_csv_text(got, timestamp=False) == hits_csv_text(want, timestamp=False)


def _blocks_as_listed(cfg):
    # The (index, lo, hi) list that the runner once built up front
    out, lo = [], cfg.lo
    while lo <= cfg.hi:
        out.append((len(out), lo, min(lo + cfg.block_size - 1, cfg.hi)))
        lo += cfg.block_size
    return out


@given(case=_with_block_size(_ranges(3, 10**6, 500)))
def test_blocks_are_computed_by_arithmetic(case):
    lo, hi, block = case
    cfg = SearchConfig(lo, hi, block_size=block)
    listed = _blocks_as_listed(cfg)
    starts = cfg.blocks()
    assert [(idx, lo, min(lo + block - 1, hi)) for idx, lo in enumerate(starts)] == listed
    assert len(starts) == len(listed)
    assert starts[-1] == listed[-1][1]
    with pytest.raises(IndexError):
        starts[len(listed)]


_FEW_BLOCKS_OF_MANY = """
    import resource, sys
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
    from collatz_paradox.cli import main
    print(main(sys.argv[1:]))
"""


@pytest.mark.parametrize("threads", ["1", "2"])
def test_max_blocks_bounds_the_blocks_made(threads, tmp_path):
    # 10^12 blocks: listing them all would outgrow a 1 GiB address space
    # long before the timeout, so only the blocks taken may be made.
    ck = tmp_path / "ck.txt"
    out = _python(_FEW_BLOCKS_OF_MANY, "search", "--range", "3..10^15",
                  "--block-size", "1000", "--max-blocks", "2", "--threads", threads,
                  "--checkpoint", str(ck))
    assert out == f"incomplete: 2/1000000000000 blocks done (checkpoint: {ck})\n10\n"
    assert sorted(line for line in ck.read_text().splitlines()
                  if line.startswith("done=")) == ["done=0,170", "done=1,132"]


def _python(code: str, *args: str) -> str:
    # A fresh process, so that its memo starts empty; a hang fails the test.
    env = {**os.environ, "PYTHONPATH": str(Path(collatz_paradox.__file__).parents[1])}
    return subprocess.run([sys.executable, "-c", textwrap.dedent(code), *args], env=env,
                          check=True, capture_output=True, text=True, timeout=120).stdout


_BOTH_ORDERS = """
    import json, sys
    from collatz_paradox import runner, search
    from collatz_paradox.dynamics import Formalism

    real_fill = search.fill_excursion_memo

    def logged_fill(memo, lo, hi):   # pool workers inherit the patch by fork
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{lo} {hi}\\n")
        real_fill(memo, lo, hi)

    search.fill_excursion_memo = logged_fill
    out = {}
    for name, lo, hi, threads in json.loads(sys.argv[2]):
        cfg = runner.SearchConfig(lo, hi, Formalism.CLASSIC, block_size=8192)
        res = runner.run_search(cfg, threads=threads)
        out[name] = [runner.hits_csv_text(res, timestamp=False), search._memo[search._MEMO_FULL]]
    print(json.dumps(out))
"""


def test_serial_and_pool_runs_share_the_memo_in_either_order(tmp_path):
    # A serial run and then a pool run in one process, and the other way
    # round, as Scoreboard mixes them.  The parent sees the entries that the
    # workers built, and each entry is built once, by the first process that
    # needs it.
    small, large = (3, 30000), (3, 90000)
    want = {name: hits_csv_text(run_search(SearchConfig(lo, hi, Formalism.CLASSIC)),
                                timestamp=False)
            for name, (lo, hi) in (("small", small), ("large", large))}
    for order, threads in (("serial first", (1, 2)), ("pool first", (2, 1))):
        runs = [("small", *small, threads[0]), ("large", *large, threads[1])]
        log = tmp_path / f"{order}.log"
        got = json.loads(_python(_BOTH_ORDERS, str(log), json.dumps(runs)))
        assert {name: csv for name, (csv, _) in got.items()} == want, order
        assert [got["small"][1], got["large"][1]] == [30001, 90001], order
        fills = sorted(tuple(map(int, line.split())) for line in log.read_text().splitlines())
        assert fills[0][0] == 0 and fills[-1][1] == 90001, (order, fills)
        assert all(a[1] == b[0] for a, b in zip(fills, fills[1:])), (order, fills)


_TABLE_BUILDS = """
    import os, sys
    from collatz_paradox import runner, search

    real_build = search._build_jump_rows

    def logged_build():   # pool workers inherit the patch by fork
        with open(sys.argv[1], "a") as fh:
            fh.write(f"{os.getpid()}\\n")
        return real_build()

    search._build_jump_rows = logged_build
    cfg = runner.SearchConfig(3, 40000, block_size=4096)
    res = runner.run_search(cfg, threads=2)
    print(os.getpid(), runner.hits_csv_text(res, timestamp=False), end="")
"""


def test_a_pool_run_builds_the_jump_table_once_before_the_fork(tmp_path):
    # The start jumps of every block read the table, so a worker without it
    # would build its own.
    log = tmp_path / "builds.log"
    pid, _, csv = _python(_TABLE_BUILDS, str(log)).partition(" ")
    assert log.read_text().split() == [pid]
    assert csv == hits_csv_text(run_search(SearchConfig(3, 40000)), timestamp=False)


_DEAD_WORKER = """
    import os, signal, sys
    from concurrent.futures.process import BrokenProcessPool
    from collatz_paradox import runner, search

    parent = os.getpid()
    real_fill = search.fill_excursion_memo

    def dying_fill(memo, lo, hi):   # pool workers inherit the patch by fork
        if os.getpid() != parent and hi > 20000:
            mid = (lo + hi) // 2
            real_fill(memo, lo, mid)
            memo[mid:hi] = memoryview(bytes(4 * (hi - mid))).cast("I")   # wrong entries
            os.kill(os.getpid(), signal.SIGKILL)   # with the memo lock held
        real_fill(memo, lo, hi)

    cfg = runner.SearchConfig(3, 40000, block_size=4096)
    search.fill_excursion_memo = dying_fill
    try:
        runner.run_search(cfg, threads=2, checkpoint=sys.argv[1])
    except BrokenProcessPool:
        print("broken", search._memo[search._MEMO_FULL])
    search.fill_excursion_memo = real_fill
    # the same process resumes, serially or with a new pool
    resumed = runner.run_search(cfg, threads=int(sys.argv[2]), checkpoint=sys.argv[1])
    print(runner.hits_csv_text(resumed, timestamp=False), end="")
"""


@pytest.mark.parametrize("threads", [1, 2])
def test_a_worker_killed_while_it_fills_the_memo_breaks_the_run(tmp_path, threads):
    # The run must end with BrokenProcessPool, not hang on the lock the dead
    # worker held; the entries it wrote are not counted as built, and a resume
    # in the same process gives the bytes of an uninterrupted run.
    ck = tmp_path / "ck.txt"
    out = _python(_DEAD_WORKER, str(ck), str(threads))
    status, _, csv = out.partition("\n")
    word, filled = status.split()
    assert word == "broken" and int(filled) <= 20000
    assert csv == hits_csv_text(run_search(SearchConfig(3, 40000)), timestamp=False)
