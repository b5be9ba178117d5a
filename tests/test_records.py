from array import array
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from collatz_paradox import records, search
from collatz_paradox.dynamics import Formalism
from collatz_paradox.records import (IngestError, RecordEntry, RecordKind,
                                     compute_records, ingest_reference_records,
                                     recompute_value, reference_path,
                                     theorem5_bound_chain)
from collatz_paradox.search import delay


def test_max_excursion_record_prefix():
    recs = compute_records(1000, RecordKind.MAX_EXCURSION_T)
    assert [e.n for e in recs][:8] == [1, 2, 3, 7, 15, 27, 255, 447]
    assert recs[5].value == 4616
    values = [e.value for e in recs]
    assert values == sorted(values) and len(set(values)) == len(values)


def test_delay_record_prefixes():
    col = compute_records(100, RecordKind.DELAY_COL)
    assert [e.n for e in col] == [1, 2, 3, 6, 7, 9, 18, 25, 27, 54, 73, 97]
    assert dict((e.n, e.value) for e in col)[27] == 111
    t = compute_records(100, RecordKind.DELAY_T)
    assert 27 in [e.n for e in t]
    assert dict((e.n, e.value) for e in t)[27] == 70


@pytest.mark.parametrize("kind, formalism", [(RecordKind.DELAY_T, Formalism.SHORTCUT),
                                             (RecordKind.DELAY_COL, Formalism.CLASSIC)])
def test_delay_records_match_running_maximum(kind, formalism):
    expected = []
    for n in range(1, 20001):
        d = delay(n, formalism)
        if not expected or d > expected[-1].value:
            expected.append(RecordEntry(n, d))
    assert compute_records(20000, kind) == expected


def _running_maximum(values, n_hi: int) -> list[RecordEntry]:
    out = []
    for n in range(1, n_hi + 1):
        if not out or values[n] > out[-1].value:
            out.append(RecordEntry(n, values[n]))
    return out


@lru_cache(maxsize=None)
def _excursion_records_by_memo(n_hi: int) -> list[RecordEntry]:
    # The running maximum of exact peaks in 8-byte words (the search's fill
    # saturates at 2**32 - 1): each start walks to its first iterate below
    # it, whose peak is known by then.
    memo = array("q", bytes(8)) * (n_hi + 1)
    for n in range(1, n_hi + 1):
        cur = peak = n
        while cur >= n and n > 2:
            cur = (3 * cur + 1) >> 1 if cur & 1 else cur >> 1
            peak = max(peak, cur)
        memo[n] = max(peak, memo[cur]) if n > 2 else n
    return _running_maximum(memo, n_hi)


@lru_cache(maxsize=None)
def _delay_memo_by_walks(n_hi: int, odd_cost: int) -> list[int]:
    # One walk per start to its first iterate below it, plus that iterate's
    # delay from a memo grown by append.
    memo = [0, 0]
    for n in range(2, n_hi + 1):
        cur = n
        d = 0
        while cur >= n:
            if cur & 1:
                cur = (3 * cur + 1) >> 1
                d += odd_cost
            else:
                cur >>= 1
                d += 1
        memo.append(d + memo[cur])
    return memo


def _odd_cost(kind: RecordKind) -> int:
    return 2 if kind is RecordKind.DELAY_COL else 1


def _delay_records_by_walks(n_hi: int, kind: RecordKind) -> list[RecordEntry]:
    return _running_maximum(_delay_memo_by_walks(n_hi, _odd_cost(kind)), n_hi)


def _records_by_oracle(n_hi: int, kind: RecordKind) -> list[RecordEntry]:
    if kind is RecordKind.MAX_EXCURSION_T:
        return _excursion_records_by_memo(n_hi)
    return _delay_records_by_walks(n_hi, kind)


@pytest.mark.parametrize("n_hi", [2**18, 3 * 2**12 - 1, 3 * 2**12, 3 * 2**12 + 1,
                                  2**13, 2**13 + 1])
def test_excursion_records_equal_the_running_maximum_of_the_memo(n_hi):
    expected = [e for e in _excursion_records_by_memo(2**18) if e.n <= n_hi]
    assert n_hi < 159487 or RecordEntry(159487, 8601188876) in expected
    assert compute_records(n_hi, RecordKind.MAX_EXCURSION_T) == expected


@pytest.mark.parametrize("kind", [RecordKind.DELAY_COL, RecordKind.DELAY_T])
def test_delay_records_equal_the_walking_scan(kind):
    assert compute_records(2**18, kind) == _delay_records_by_walks(2**18, kind)
    # every entry, not only the records: a wrong entry below a record holder
    # may leave the record list as it is
    memo = records._delay_memo(2**18, _odd_cost(kind))
    assert memo.tolist() == _delay_memo_by_walks(2**18, _odd_cost(kind))


@settings(max_examples=100, deadline=None)
@given(n_hi=st.integers(1, 60_000), kind=st.sampled_from(list(RecordKind)))
def test_record_scans_equal_the_oracles_at_any_range_end(n_hi, kind):
    expected = [e for e in _records_by_oracle(60_000, kind) if e.n <= n_hi]
    assert compute_records(n_hi, kind) == expected


def _old_stopping_classes(k):
    # the classes as they were first built: each residue's tau from its own
    # step loop, then a tau-step walk of each class r
    keys, walked = set(), []
    for r in range(1 << k):
        y, q = r, 0
        for tau in range(1, k + 1):
            q += y & 1
            y = (3 * y + 1) >> 1 if y & 1 else y >> 1
            if 3**q < 1 << tau:
                keys.add((tau, r & ((1 << tau) - 1)))
                break
        else:
            walked.append(r)
    classes = []
    for tau, r in sorted(keys):
        a, c, q = 1, 0, 0
        for i in range(tau):
            if (a * r + c) >> i & 1:
                a, c, q = 3 * a, 3 * c + (1 << i), q + 1
        classes.append((tau, r, a, c, q))
    return classes, walked


def _built_classes(built):
    _, classes, walked = built
    return [cls[:5] for cls in classes], [w[0] for w in walked]


def test_stopping_classes_equal_their_old_step_loop():
    assert _built_classes(search._jump_tables()) == _old_stopping_classes(search.JUMP_K)
    with pytest.MonkeyPatch.context() as mp:   # the tree at other depths
        for k in (1, 3, 8):
            mp.setattr(search, "JUMP_K", k)
            assert _built_classes(search._build_jump_rows()) == _old_stopping_classes(k), k


def test_residues_are_walked_rows_or_in_one_stopping_class():
    k = search.JUMP_K
    _, classes, walked = search._jump_tables()
    assert len(classes) == 57 and len(walked) == 226
    walked = {w[0] for w in walked}
    for r in range(1 << k):
        owners = [cls for cls in classes if r % (1 << cls[0]) == cls[1]]
        assert len(owners) == (0 if r in walked else 1), r
    for tau, r, a, c, q, tau_thr, gmax, hmax in classes:
        # every start of the class above its tau_thr falls below itself first
        # at step tau, to (a*x + c) >> tau, after q odd steps, and every
        # iterate up to it lies within the class's own bound
        assert a == 3**q
        for x in range(r + (32 << tau), r + (40 << tau), 1 << tau):
            assert x > tau_thr
            y, odd = x, 0
            for _ in range(tau - 1):
                odd += y & 1
                y = (3 * y + 1) >> 1 if y & 1 else y >> 1
                assert y >= x
                assert y << k <= gmax * x + hmax
            odd += y & 1
            y = (3 * y + 1) >> 1 if y & 1 else y >> 1
            assert y << k <= gmax * x + hmax
            assert (y, odd) == ((a * x + c) >> tau, q) and y < x


def test_recompute_value():
    assert recompute_value(27, RecordKind.MAX_EXCURSION_T) == 4616
    assert recompute_value(27, RecordKind.DELAY_COL) == 111
    assert recompute_value(27, RecordKind.DELAY_T) == 70


def test_ingest_packaged_tables():
    mex = ingest_reference_records(RecordKind.MAX_EXCURSION_T,
                                   reference_path(RecordKind.MAX_EXCURSION_T),
                                   prefix_check_to=20000)
    assert mex.entries[0] == mex.entries[0].__class__(1, 1)
    assert mex.smallest_holder_with_value(10**9) == 113383
    assert mex.smallest_holder_with_value(28 * 10**18, strict=True) == 23035537407
    dl = ingest_reference_records(RecordKind.DELAY_COL, reference_path(RecordKind.DELAY_COL),
                                  prefix_check_to=20000)
    assert dl.frontier_value == 2456
    assert dl.max_record_value() == 2456
    assert dl.frontier_holder_bound() == 28 * 10**18


def test_ingest_rejects_malformed_lines(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("# header\n1 1\n2\n")
    with pytest.raises(IngestError, match="bad.txt:3"):
        ingest_reference_records(RecordKind.MAX_EXCURSION_T, p, prefix_check_to=0)


def test_ingest_rejects_non_monotone(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("1 1\n2 2\n3 2\n")
    with pytest.raises(IngestError, match="strictly increase"):
        ingest_reference_records(RecordKind.MAX_EXCURSION_T, p, prefix_check_to=0)


def test_ingest_rejects_prefix_mismatch(tmp_path):
    src = reference_path(RecordKind.MAX_EXCURSION_T).read_text()
    lines = [l for l in src.splitlines() if not l.startswith("#")]
    lines[3] = "8 26"   # wrong holder for the fourth record
    p = tmp_path / "tampered.txt"
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(IngestError, match="prefix"):
        ingest_reference_records(RecordKind.MAX_EXCURSION_T, p, prefix_check_to=100)


def test_ingest_rejects_wrong_value(tmp_path):
    src = reference_path(RecordKind.MAX_EXCURSION_T).read_text()
    lines = src.splitlines()
    out = []
    for l in lines:
        if l.startswith("19638399 "):
            l = "19638399 153148462601877"   # off by one
        out.append(l)
    p = tmp_path / "tampered.txt"
    p.write_text("\n".join(out) + "\n")
    with pytest.raises(IngestError, match="recompute"):
        ingest_reference_records(RecordKind.MAX_EXCURSION_T, p, prefix_check_to=100)


def test_ingest_rejects_a_table_that_ends_before_the_prefix(tmp_path):
    # 10 records ending at 703; the scan to 10^5 finds 19, none in (703, 1000]
    src = reference_path(RecordKind.MAX_EXCURSION_T).read_text()
    lines = [l for l in src.splitlines() if l and not l.startswith("#")][:10]
    assert lines[-1].split()[0] == "703"
    p = tmp_path / "truncated.txt"
    p.write_text("\n".join(lines) + "\n")
    assert len(compute_records(10**5, RecordKind.MAX_EXCURSION_T)) == 19
    with pytest.raises(IngestError, match="prefix"):
        ingest_reference_records(RecordKind.MAX_EXCURSION_T, p, prefix_check_to=10**5)
    table = ingest_reference_records(RecordKind.MAX_EXCURSION_T, p, prefix_check_to=1000)
    assert len(table.entries) == 10


def _ingest_both(refs_dir=None, prefix_check_to=10**4):
    return [ingest_reference_records(kind, reference_path(kind, refs_dir), prefix_check_to)
            for kind in (RecordKind.MAX_EXCURSION_T, RecordKind.DELAY_COL)]


def test_reference_path():
    for kind in (RecordKind.MAX_EXCURSION_T, RecordKind.DELAY_COL):
        packaged = reference_path(kind)
        assert packaged.is_file()
        assert reference_path(kind, "refs") == Path("refs") / packaged.name
    assert reference_path(RecordKind.DELAY_T) is None
    assert reference_path(RecordKind.DELAY_T, "refs") is None


def test_bound_chain_values():
    rep = theorem5_bound_chain(*_ingest_both())
    assert rep.m0 == 113383
    assert rep.j0 == 1539
    assert rep.q0 == 971
    assert rep.delay_needed == 2510
    assert rep.max_known_delay == 2456
    assert rep.m1 == 23035537407
    assert rep.j1 == 301994
    assert rep.consistent
    assert any("301994" in line for line in rep.lines())


def test_bound_chain_custom_refs_dir(tmp_path):
    refs = tmp_path / "refs"
    refs.mkdir()
    for kind in (RecordKind.MAX_EXCURSION_T, RecordKind.DELAY_COL):
        src = reference_path(kind)
        (refs / src.name).write_text(src.read_text())
    mex, delays = _ingest_both(refs, prefix_check_to=10**3)
    assert Path(mex.source).parent == refs and Path(delays.source).parent == refs
    assert theorem5_bound_chain(mex, delays).j1 == 301994


def _packaged_prefix(kind, n_max, **frontier):
    # the packaged table's records up to n_max, as a scan to n_max writes them
    lines = reference_path(kind).read_text().splitlines()
    entries = [RecordEntry(*map(int, line.split())) for line in lines
               if line and not line.startswith("#")]
    return records.RecordTable(kind, [e for e in entries if e.n <= n_max],
                               f"{kind.value} records to {n_max}", **frontier)


def test_bound_chain_refuses_a_delay_frontier_not_above_n0():
    # tables to 10^6 reach an excursion of 10^9, but their delays say nothing
    # about the starts past 10^9 that the second stage bounds
    mex = _packaged_prefix(RecordKind.MAX_EXCURSION_T, 10**6)
    delays = _packaged_prefix(RecordKind.DELAY_COL, 10**6)
    assert mex.smallest_holder_with_value(records.N0) == 113383
    assert delays.frontier_holder_bound() == 837799
    with pytest.raises(ValueError) as exc:
        theorem5_bound_chain(mex, delays)
    assert str(exc.value) == ("delay-col records to 1000000: delay frontier n1 = 837799 "
                              "does not exceed n0 = 1000000000")
    # the frontier must lie strictly above n0
    for above, ok in ((records.N0, False), (records.N0 + 1, True)):
        delays = _packaged_prefix(RecordKind.DELAY_COL, 10**6, frontier_holder_above=above)
        if ok:
            assert theorem5_bound_chain(mex, delays).n1 == records.N0 + 1
        else:
            with pytest.raises(ValueError, match="n1 = 1000000000 does not exceed"):
                theorem5_bound_chain(mex, delays)


def test_bound_chain_rejects_wrong_kinds():
    mex, delays = _ingest_both(prefix_check_to=10**3)
    with pytest.raises(ValueError, match="max-excursion-t and a delay-col"):
        theorem5_bound_chain(delays, mex)
