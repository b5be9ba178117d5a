from pathlib import Path

import pytest

from collatz_paradox.cli import EXIT_FAIL, EXIT_INCOMPLETE, EXIT_OK, main, parse_bound, parse_range


def test_parse_bound_forms():
    assert parse_bound("10") == 10
    assert parse_bound("1_000") == 1000
    assert parse_bound("10^6") == 10**6
    assert parse_bound("1e6") == 10**6
    assert parse_bound("2.8e19") == 28 * 10**18
    with pytest.raises(Exception):
        parse_bound("1.5")


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
    assert main(["bounds", "heuristic"]) == 2


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


def test_usage_without_command(capsys):
    assert main([]) == 2
