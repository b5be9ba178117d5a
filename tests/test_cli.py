import argparse
import hashlib
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

import collatz_paradox
from collatz_paradox import records
from collatz_paradox.cli import (EXIT_FAIL, EXIT_INCOMPLETE, EXIT_INTERRUPTED, EXIT_OK,
                                 EXIT_USAGE, main, parse_bound, parse_range)


def test_parse_bound_forms():
    assert parse_bound("10") == 10
    assert parse_bound("1_000") == 1000
    assert parse_bound("10^6") == 10**6
    assert parse_bound("1e6") == 10**6
    assert parse_bound("2.8e19") == 28 * 10**18
    with pytest.raises(Exception):
        parse_bound("1.5")


def test_parse_bound_refuses_a_negative_exponent():
    with pytest.raises(argparse.ArgumentTypeError):
        parse_bound("2^-1")
    with pytest.raises(SystemExit) as exc:
        main(["search", "--range", "3..100", "--budget", "2^-1"])
    assert exc.value.code == 2


def test_negative_decimals_are_refused_before_the_search(tmp_path):
    out = tmp_path / "hits.csv"
    with pytest.raises(SystemExit) as exc:
        main(["search", "--range", "3..100", "--decimals", "-1", "--out", str(out)])
    assert exc.value.code == 2 and not out.exists()


def test_parse_range():
    assert parse_range("3..10^6") == (3, 10**6)
    with pytest.raises(Exception):
        parse_range("3-4")


def test_search_small(tmp_path, capsys):
    out = tmp_path / "hits.csv"
    cens = tmp_path / "census.txt"
    rc = main(["search", "--range", "3..5000", "--out", str(out),
               "--census-out", str(cens), "--no-timestamp"])
    assert rc == EXIT_OK
    printed = capsys.readouterr().out
    assert "593 hits" in printed
    body = out.read_text()
    assert body.splitlines()[-1].startswith("4614,73,46,")
    assert "7,8,5,243,256,347,256,1,1,0,shortcut" in body
    assert "generated=" not in body
    assert "(92,58)" in cens.read_text()


# sha256 of the hit CSV and of the census tables at --decimals 0, 2 and 3 for
# `search --range 3..10^4 --no-timestamp`.  Every census hit starts below
# 9230, so the 2-place tables are those of the paper's 3..10^6 census.
GOLDEN_CENSUS_3_10K = {
    "shortcut": ("ab811fecfe003493e72ad3440978226f823f935bfec61606ceae64cf5a7f68e4", {
        0: "abf29c3b4db2d2e51b8a00d57ea7976246f98adcfd58bbed52197ccf25394473",
        2: "0796e9544750455f31bed3e1f872bb3ac9e4a32f46b1d8646da6bb650d5219d6",
        3: "76475833684e1b4dbe2396be4be0cac0ac580c31a65ed3b35f2e81b63f8edb0b"}),
    "classic": ("df2a030362e1db5f33c3b96dbe3460f8e06c8dc3e326f6a1a779ecafcce72b93", {
        0: "d3e5f63e053d1b032e5263547ac22fa858ce6254c0ef6be259f1369885b073ff",
        2: "c4d20bc984f8c8f91dbb732b84c1c9dbd7bf51ea2e43c882636f92ce77d1f924",
        3: "6769dbcc525bb0ead96923716509460c4ce44a2c934f76ac57d53f2192d26104"}),
}


@pytest.mark.parametrize("formalism", sorted(GOLDEN_CENSUS_3_10K))
def test_search_golden_digests(tmp_path, formalism):
    csv_digest, table_digests = GOLDEN_CENSUS_3_10K[formalism]
    for places, table_digest in table_digests.items():
        out, table = tmp_path / f"hits{places}.csv", tmp_path / f"census{places}.txt"
        assert main(["search", "--range", "3..10^4", "--formalism", formalism,
                     "--decimals", str(places), "--out", str(out),
                     "--census-out", str(table), "--no-timestamp"]) == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == csv_digest
        assert hashlib.sha256(table.read_bytes()).hexdigest() == table_digest


def test_search_zero_hits(capsys):
    rc = main(["search", "--range", "4615..4700"])
    assert rc == EXIT_OK
    assert "0 hits" in capsys.readouterr().out


def test_search_checkpoint_interrupt_and_resume(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    o1 = tmp_path / "a.csv"
    o2 = tmp_path / "b.csv"
    rc = main(["search", "--range", "3..40000", "--block-size", "4096",
               "--checkpoint", str(ck), "--max-blocks", "3",
               "--out", str(o1), "--no-timestamp"])
    assert rc == EXIT_INCOMPLETE
    assert ck.exists() and not o1.exists()
    rc = main(["search", "--range", "3..40000", "--block-size", "4096",
               "--checkpoint", str(ck), "--out", str(o1), "--no-timestamp"])
    assert rc == EXIT_OK
    rc = main(["search", "--range", "3..40000", "--block-size", "4096",
               "--out", str(o2), "--no-timestamp"])
    assert rc == EXIT_OK
    assert o1.read_bytes() == o2.read_bytes()


def test_search_checkpoint_mismatch(tmp_path, capsys):
    ck = tmp_path / "ck.txt"
    assert main(["search", "--range", "3..5000", "--checkpoint", str(ck)]) == EXIT_OK
    rc = main(["search", "--range", "3..6000", "--checkpoint", str(ck)])
    assert rc == EXIT_FAIL
    assert "configuration" in capsys.readouterr().err


def test_classic_search(capsys):
    rc = main(["search", "--range", "3..10000", "--formalism", "classic"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out
    assert "1541 hits" in out
    assert "(16,10)" in out and "(130,82)" in out


def test_cst_command(capsys):
    assert main(["cst", "--range", "2..4614"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "counterexamples: 0" in out
    assert "max (stopping time - coefficient stopping time): 0" in out
    assert main(["cst", "--range", "2..2"]) == EXIT_OK


def test_cst_has_no_threads_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["cst", "--range", "2..100", "--threads", "2"])
    assert exc.value.code == 2


def test_poset_command(tmp_path, capsys):
    dot = tmp_path / "h.dot"
    assert main(["poset", "4", "2", "--out", str(dot)]) == EXIT_OK
    err = capsys.readouterr().err
    assert "6 nodes" in err
    assert dot.read_text().count("->") > 0
    assert main(["poset", "5", "3"]) == EXIT_OK
    assert "10 nodes" in capsys.readouterr().err
    assert main(["poset", "30", "2"]) == EXIT_FAIL
    capsys.readouterr()
    assert main(["poset", "17", "8"]) == EXIT_FAIL   # the cap is fixed at 16
    assert "length 17 exceeds cap 16" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["poset", "17", "8", "--cap", "20"])
    assert exc.value.code == 2


@pytest.mark.parametrize("j, q, digest", [
    ("4", "2", "6e7307f7b376d167c23e3e9c83e74c418463cba0c637e7692f1d1b7a5fd0efbd"),
    ("6", "3", "7f05dfa15e0f36601e9d910559466a75d549217772bdd64f7da3f4fde6e4a837"),
], ids=["4-2", "6-3"])
def test_poset_dot_bytes_are_pinned(j, q, digest, tmp_path):
    # node order, run-length labels and edge order all show in the bytes
    dot = tmp_path / "h.dot"
    assert main(["poset", j, q, "--out", str(dot)]) == EXIT_OK
    assert hashlib.sha256(dot.read_bytes()).hexdigest() == digest


def test_bounds_subqueries(capsys):
    assert main(["bounds", "convergents", "7"]) == EXIT_OK
    assert "41/65" in capsys.readouterr().out
    assert main(["bounds", "heuristic", "42", "3"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "17396" in out and "4.754" in out
    assert main(["bounds", "rhin", "8", "5"]) == EXIT_OK
    assert main(["bounds", "mean", "6"]) == EXIT_OK
    assert "3/2" in capsys.readouterr().out
    assert main(["bounds", "extremes", "8", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "211/256" in out and "211/32" in out
    with pytest.raises(SystemExit) as exc:
        main(["bounds", "heuristic"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["heuristic", "42", "3", "--refs", "x"],   # --refs belongs to chain alone
    ["heuristic", "42", "x"],
    ["rhin", "8"],
    ["rhin", "8", "5.0"],
    ["mean", "6", "7"],
    ["convergents"],
    ["extremes", "8", "five"],
    ["shape"],
])
def test_bounds_argument_errors_are_usage_errors(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().out == ""


def test_bounds_heuristic_refuses_two_negative_factors(capsys):
    assert main(["bounds", "heuristic", "-42", "-3"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: alpha and beta must be positive\n"


def test_bounds_chain_on_tables_short_of_n0_is_one_error_line(tmp_path, capsys):
    # tables scanned to 10^5 pass ingestion, but no excursion there reaches 10^9
    for kind in (records.RecordKind.MAX_EXCURSION_T, records.RecordKind.DELAY_COL):
        out = records.reference_path(kind, tmp_path)
        assert main(["records", "--kind", kind.value, "--range", "1..10^5",
                     "--out", str(out)]) == EXIT_OK
        assert "reference cross-check ok" in capsys.readouterr().err
    assert main(["bounds", "chain", "--refs", str(tmp_path)]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("error: ")
    assert "max_excursion_t_records.txt" in err and ">= 1000000000" in err


def test_records_refuses_a_truncated_reference_table(tmp_path, capsys):
    # 10 lines ending at 703; the scan to 10^5 finds 19 records
    kind = records.RecordKind.MAX_EXCURSION_T
    lines = records.reference_path(kind).read_text().splitlines()
    data = [l for l in lines if l and not l.startswith("#")][:10]
    assert data[-1].split()[0] == "703"
    records.reference_path(kind, tmp_path).write_text("\n".join(data) + "\n")
    rc = main(["records", "--kind", kind.value, "--range", "1..10^5",
               "--refs", str(tmp_path)])
    assert rc == EXIT_FAIL
    assert "reference cross-check FAILED" in capsys.readouterr().err


def test_bounds_chain_reads_the_refs_directory(tmp_path, capsys):
    assert main(["bounds", "chain", "--refs", str(tmp_path)]) == EXIT_FAIL
    assert str(tmp_path) in capsys.readouterr().err


def test_bounds_chain(capsys):
    assert main(["bounds", "chain"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "1539" in out and "971" in out and "301994" in out and "2510" in out


def test_records_command(tmp_path, capsys):
    out = tmp_path / "r.txt"
    rc = main(["records", "--kind", "max-excursion-t", "--range", "1..500",
               "--out", str(out)])
    assert rc == EXIT_OK
    assert out.read_text().splitlines()[:3] == ["1 1", "2 2", "3 8"]
    rc = main(["records", "--kind", "delay-t", "--range", "1..100"])
    assert rc == EXIT_OK
    assert "27 70" in capsys.readouterr().out


def test_budget_exhaustion_is_nonzero_exit(capsys):
    # 3..6 end their walks within 5 steps (6 exits at 4 -> memo[4] = 4 < 6);
    # 7 is at 20 after 5 steps
    rc = main(["search", "--range", "3..100", "--budget", "5"])
    assert rc == EXIT_FAIL
    err = capsys.readouterr().err
    assert "step budget" in err and "(n = 7, budget = 5)" in err
    # classic: 3 -> 10 -> 5 -> 16 -> 8 -> 4 -> 2 needs 6 steps before
    # 2 * memo[2] = 4 < 3 fails and 1 ends it
    rc = main(["search", "--range", "3..100", "--formalism", "classic", "--budget", "5"])
    assert rc == EXIT_FAIL
    assert "(n = 3, budget = 5)" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["search", "--range", "3..100", "--budget", "-5"],
    ["search", "--range", "3..100", "--budget", "0"],
    ["cst", "--range", "2..100", "--budget", "-1"],
    ["cst", "--range", "2..100", "--budget", "0"],
])
def test_a_budget_below_1_is_a_usage_error(argv, capsys):
    # it failed at the first start, as "(n = 3, budget = -5)"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    assert "is not a positive integer" in capsys.readouterr().err


def test_a_budget_takes_the_bound_notations(capsys):
    assert main(["search", "--range", "3..100", "--budget", "10^6"]) == EXIT_OK
    assert main(["cst", "--range", "2..100", "--budget", "1e3"]) == EXIT_OK


def test_budget_error_is_the_same_after_a_resume(tmp_path):
    # The first two blocks lie below the memo's cap of 2**24, the rest past
    # it; a resumed run in a fresh process skips the first two.  The search
    # sets the walk floor, 2**16, for every block, so the block past the cap
    # must fail the same way: 16777919 walks 275 steps down to 2**16, and no
    # start before it more than 274.
    env = {**os.environ, "PYTHONPATH": str(Path(collatz_paradox.__file__).parents[1])}
    ck = tmp_path / "ck.txt"
    base = [sys.executable, "-m", "collatz_paradox.cli", "search",
            "--range", "16776192..16779192", "--block-size", "512", "--budget", "274"]
    runs = [subprocess.run(base + extra, env=env, capture_output=True, text=True)
            for extra in ([], ["--checkpoint", str(ck), "--max-blocks", "2"],
                          ["--checkpoint", str(ck)])]
    whole, cut, resumed = runs
    assert cut.returncode == EXIT_INCOMPLETE, cut.stderr
    assert whole.returncode == resumed.returncode == EXIT_FAIL
    assert whole.stderr == resumed.stderr
    assert "(n = 16777919, budget = 274)" in resumed.stderr


def test_records_refuses_a_range_it_cannot_hold(capsys):
    t0 = time.monotonic()
    assert main(["records", "--kind", "delay-col", "--range", "1..10^9"]) == EXIT_FAIL
    assert time.monotonic() - t0 < 1
    assert capsys.readouterr().err.startswith("error: record scans stop at 100000000")


def test_records_refuses_refs_for_a_kind_without_a_table(monkeypatch, tmp_path, capsys):
    # delay-t has no reference table, so --refs was ignored in silence
    calls = []
    monkeypatch.setattr(records, "compute_records", lambda *args: calls.append(args))
    rc = main(["records", "--kind", "delay-t", "--range", "1..1000", "--refs", str(tmp_path)])
    assert rc == EXIT_USAGE and calls == []
    assert "delay-t has no reference table for --refs" in capsys.readouterr().err


def test_search_refuses_max_blocks_without_a_checkpoint(monkeypatch, capsys):
    # it ran K blocks, then threw them away with exit 10
    import collatz_paradox.cli as cli
    calls = []
    monkeypatch.setattr(cli, "run_search", lambda *args, **kw: calls.append(args))
    rc = main(["search", "--range", "3..10^6", "--max-blocks", "2"])
    assert rc == EXIT_USAGE and calls == []
    out, err = capsys.readouterr()
    assert out == "" and err == "--max-blocks needs --checkpoint\n"


def test_records_command_scans_once(monkeypatch, capsys):
    calls = []
    real = records.compute_records

    def counting(n_hi, kind):
        calls.append(n_hi)
        return real(n_hi, kind)

    monkeypatch.setattr(records, "compute_records", counting)   # cli reads it per call
    assert main(["records", "--kind", "delay-col", "--range", "1..20000"]) == EXIT_OK
    captured = capsys.readouterr()
    assert calls == [20000]
    assert captured.out.splitlines()[-1] == "17647 278"
    assert "reference cross-check ok" in captured.err


def test_a_serial_search_loads_no_pool_module(tmp_path):
    # A fresh process: the pool modules cost memory and import time that a
    # serial run never uses.
    code = "\n".join([
        "import sys",
        "from collatz_paradox.cli import main",
        "assert main(sys.argv[1:]) == 0",
        "loaded = {'concurrent.futures', 'multiprocessing'} & set(sys.modules)",
        "assert not loaded, loaded",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(collatz_paradox.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code, "search", "--range", "3..5000",
                    "--threads", "1", "--out", str(tmp_path / "hits.csv")],
                   env=env, check=True, capture_output=True, timeout=60)


@pytest.mark.parametrize("argv", [["search", "--range", "1000000000..1000000100"],
                                  ["cst", "--range", "2..1000"]])
def test_a_search_loads_only_the_search_path(argv, tmp_path):
    # A fresh process: importing the CLI, and running a search or a CST check,
    # loads none of the bound, Diophantine, poset, record or scoreboard layers.
    code = "\n".join([
        "import sys",
        "import collatz_paradox.cli",
        "unused = {'collatz_paradox.' + m for m in",
        "          ('bounds', 'numtheory', 'poset', 'records', 'checks')}",
        "assert not unused & set(sys.modules), unused & set(sys.modules)",
        "assert collatz_paradox.cli.main(sys.argv[1:]) == 0",
        "loaded = {m for m in sys.modules if m.startswith('collatz_paradox')}",
        "assert loaded <= {'collatz_paradox', 'collatz_paradox.cli'} | {",
        "    'collatz_paradox.' + m for m in",
        "    ('dynamics', 'search', 'runner', 'census', 'precision')}, loaded",
    ])
    env = {**os.environ, "PYTHONPATH": str(Path(collatz_paradox.__file__).parents[1])}
    subprocess.run([sys.executable, "-c", code, *argv], env=env, cwd=tmp_path,
                   check=True, capture_output=True, timeout=60)


def test_ctrl_c_leaves_a_resumable_checkpoint(tmp_path):
    ck = tmp_path / "ck.txt"
    args = ["search", "--range", "3..300000", "--formalism", "classic",
            "--block-size", "4096", "--no-timestamp"]
    env = {**os.environ, "PYTHONPATH": str(Path(collatz_paradox.__file__).parents[1])}
    run = [sys.executable, "-m", "collatz_paradox.cli", *args, "--threads", "2",
           "--checkpoint", str(ck), "--out", str(tmp_path / "resumed.csv")]
    proc = subprocess.Popen(run, env=env, start_new_session=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        deadline = time.monotonic() + 60
        while not (ck.exists() and "done=" in ck.read_text()):
            assert proc.poll() is None and time.monotonic() < deadline
            time.sleep(0.01)
        os.killpg(proc.pid, signal.SIGINT)
        _, err = proc.communicate(timeout=10)
    finally:
        if proc.poll() is None:
            os.killpg(proc.pid, signal.SIGKILL)
    assert proc.returncode == EXIT_INTERRUPTED
    assert f"interrupted; resume from checkpoint {ck}" in err
    assert not (tmp_path / "resumed.csv").exists()
    resumed = subprocess.run(run, env=env, capture_output=True, text=True)
    assert resumed.returncode == EXIT_OK, resumed.stderr
    assert main([*args, "--out", str(tmp_path / "whole.csv")]) == EXIT_OK
    assert (tmp_path / "resumed.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()


def test_check_refuses_a_null_window_below_4615_before_any_search(capsys):
    # the null window is 4615..N, so a lower N is refused before the census searches
    t0 = time.monotonic()
    assert main(["check", "--threads", "2", "--null-hi", "100"]) == EXIT_FAIL
    assert time.monotonic() - t0 < 1
    out, err = capsys.readouterr()
    assert "[search" not in out
    assert err == "error: null window upper end must be >= 4615, got 100\n"


def test_check_refuses_threads_below_1_before_any_output(capsys):
    assert main(["check", "--threads", "0"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: threads must be >= 1\n"


def test_usage_without_command(capsys):
    assert main([]) == 2


_CHECK_STEPS = ("census_shortcut", "summary_shortcut", "census_classic", "null_window", "cst",
                "bound_chain", "record_prefixes", "properties", "diophantine", "determinism")


def test_check_times_each_check_on_stderr_only(monkeypatch, capsys):
    from collatz_paradox.checks import CheckResult, Scoreboard

    def stub(name, ok, pause):
        def check(self):
            time.sleep(pause)
            return CheckResult(name, ok, "")
        return check

    for i, name in enumerate(_CHECK_STEPS):
        monkeypatch.setattr(Scoreboard, name, stub(name, i != 4, 0.05 if i == 3 else 0.0))
    results = Scoreboard().run_all()
    assert [r.name for r in results] == list(_CHECK_STEPS)
    assert results[3].seconds >= 0.05
    assert all(0 <= r.seconds < 0.05 for i, r in enumerate(results) if i != 3)

    assert main(["check"]) == EXIT_FAIL
    out, err = capsys.readouterr()
    assert out == "".join(("FAIL " if i == 4 else "PASS ") + name + "\n"
                          for i, name in enumerate(_CHECK_STEPS)) + "\n9/10 checks passed\n"
    lines = [line.split() for line in err.splitlines()]
    assert [(unit, name) for _, unit, name in lines] == [("s", name) for name in _CHECK_STEPS]
    assert float(lines[3][0]) >= 0.05
