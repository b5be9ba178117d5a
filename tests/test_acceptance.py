"""Acceptance suite: every published value this package must reproduce.

One test per criterion, sharing a single scoreboard so each full-range search
runs once.  The empty-window upper end defaults to 10^6 for CI and follows
PARADOX_NULL_HI (set it to 10000000 for the full desk-scale run).

Run with `pytest tests/test_acceptance.py -v -s` to see one line per criterion.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from collatz_paradox.checks import Scoreboard
from collatz_paradox.dynamics import Formalism

NULL_HI = int(os.environ.get("PARADOX_NULL_HI", 10**6))


@pytest.fixture(scope="module")
def board():
    return Scoreboard(threads=4, null_hi=NULL_HI, log=lambda s: print(s, flush=True))


def _require(result):
    print(("PASS " if result.ok else "FAIL ") + result.name
          + (f"  [{result.detail}]" if result.detail else ""), flush=True)
    assert result.ok, f"{result.name}: {result.detail}"


def test_criterion_01_census_shortcut(board):
    _require(board.census_shortcut())


def test_criterion_02_summary_statistics(board):
    _require(board.summary_shortcut())


def test_criterion_03_census_classic(board):
    _require(board.census_classic())


def test_criterion_04_null_window(board):
    _require(board.null_window())


def test_criterion_05_cst_verification(board):
    _require(board.cst())


def test_criterion_06_bound_chain(board):
    _require(board.bound_chain())


def test_criterion_07_record_prefixes(board):
    _require(board.record_prefixes())


def test_criterion_08a_linear_form_identity(board):
    _require(board.property_linear_form())


def test_criterion_08b_remainder_monotonicity(board):
    _require(board.property_monotonicity())


def test_criterion_08c_extremal_remainders(board):
    _require(board.property_extremal())


def test_criterion_08d_mean_remainder(board):
    _require(board.property_mean())


def test_criterion_08e_poset_equivalence(board):
    _require(board.property_poset_equivalence())


def test_criterion_08f_hit_windows(board):
    _require(board.property_hit_windows())


def test_criterion_08g_oracle_equivalence(board):
    _require(board.property_oracle())


def test_criterion_08h_odd_odd_sets_coincide(board):
    sc = {(h.n, h.e, h.q) for h in board.search(Formalism.SHORTCUT, board.threads).hits()
          if h.start_odd and h.end_odd}
    cl = {(h.n, h.e, h.q) for h in board.search(Formalism.CLASSIC, board.threads).hits()
          if h.start_odd and h.end_odd}
    print(f"PASS odd-odd hit sets coincide across formalisms  [{len(sc)} hits]"
          if sc == cl else "FAIL odd-odd hit sets", flush=True)
    assert sc == cl and len(sc) == 148


def test_criterion_09_diophantine_values(board):
    _require(board.diophantine())


def test_criterion_10_determinism(board):
    _require(board.determinism())


def test_criterion_10b_kill_resume_across_processes(tmp_path):
    """Interrupt a checkpointed CLI search, resume in a fresh process, and
    compare bytes against an uninterrupted run."""
    env = dict(os.environ)
    ck = tmp_path / "ck.txt"
    out_resumed = tmp_path / "resumed.csv"
    out_direct = tmp_path / "direct.csv"
    base = [sys.executable, "-m", "collatz_paradox.cli", "search",
            "--range", "3..10^6", "--threads", "4", "--no-timestamp"]
    r = subprocess.run(base + ["--checkpoint", str(ck), "--max-blocks", "6",
                               "--out", str(out_resumed)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 10, r.stdout + r.stderr
    assert ck.exists() and not out_resumed.exists()
    r = subprocess.run(base + ["--checkpoint", str(ck), "--out", str(out_resumed)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0, r.stdout + r.stderr
    assert "593 hits" in r.stdout
    r = subprocess.run(base + ["--out", str(out_direct)],
                       capture_output=True, text=True, env=env)
    assert r.returncode == 0
    assert out_resumed.read_bytes() == out_direct.read_bytes()
    print("PASS kill-resume across processes is byte-identical", flush=True)
