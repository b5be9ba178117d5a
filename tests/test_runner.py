import os
import time
from pathlib import Path

import pytest

from collatz_paradox import runner
from collatz_paradox.cli import EXIT_FAIL, main
from collatz_paradox.runner import CheckpointCorrupt, SearchConfig, run_search


def _first_block_fails(args):
    lo, hi, formalism, budget = args
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


def test_checkpoint_is_fsynced_before_each_rename(tmp_path, monkeypatch):
    events = []

    def spy(name, real):
        def call(*args):
            events.append(name)
            return real(*args)
        return call

    monkeypatch.setattr(os, "fsync", spy("fsync", os.fsync))
    monkeypatch.setattr(os, "replace", spy("replace", os.replace))
    run_search(SearchConfig(3, 100, block_size=50), checkpoint=tmp_path / "ck.txt")
    assert events == ["fsync", "replace"] * 2


def _partial_checkpoint(tmp_path) -> tuple[SearchConfig, Path]:
    cfg = SearchConfig(3, 40000, block_size=4096)
    ck = tmp_path / "ck.txt"
    assert not run_search(cfg, checkpoint=ck, max_blocks=2).complete
    return cfg, ck


def test_checkpoint_with_another_version_is_rejected(tmp_path):
    cfg, ck = _partial_checkpoint(tmp_path)
    ck.write_text(ck.read_text().replace("version=1\n", "version=2\n"))
    with pytest.raises(CheckpointCorrupt, match="version 2"):
        run_search(cfg, checkpoint=ck)


@pytest.mark.parametrize("garbled", ["hit=0,7", "done=x"])
def test_garbled_checkpoint_line_names_file_and_line(tmp_path, garbled):
    cfg, ck = _partial_checkpoint(tmp_path)
    lines = ck.read_text().splitlines()
    ck.write_text("\n".join(lines + [garbled]) + "\n")
    with pytest.raises(CheckpointCorrupt, match=f"{ck}:{len(lines) + 1}: .*{garbled}"):
        run_search(cfg, checkpoint=ck)


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
])
def test_bad_search_settings_are_refused_at_once(options, message, capsys):
    # a negative block size used to grow the block list without bound, 0 meant
    # the default, a negative cap silently dropped the last blocks, and an
    # inverted range reported 0 hits
    t0 = time.monotonic()
    assert main(["search", "--range", "3..100", *options]) == EXIT_FAIL
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_block_settings_are_checked_by_the_api():
    with pytest.raises(ValueError, match="empty range"):
        SearchConfig(100, 3)
    with pytest.raises(ValueError, match="block size"):
        SearchConfig(3, 100, block_size=0)
    with pytest.raises(ValueError, match="max blocks"):
        run_search(SearchConfig(3, 100), max_blocks=-1)
    assert run_search(SearchConfig(3, 100), max_blocks=0).blocks_done == 0
