"""Unit tests for the segmented sieve and derived prime operations."""

import math
import os
import re
import signal
import sys
import threading
import time
import tracemalloc
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from functools import cache
from itertools import accumulate

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import primespan.sieve as sieve
from primespan import (CapacityError, GapRecord, Interval, count_primes_in,
                       iter_prime_blocks, iter_prime_pairs, iterate_gaps, log_primorial,
                       max_gap_up_to, nth_prime, prime_count, sieve_range)
from primespan.sieve import (DEFAULT_SEGMENT_SIZE, MIN_SEGMENT_SIZE, _longest_true_run,
                             _pair_rows, _plan)

from oracles import naive_sieve, naive_sieve_window, primes_from_flags

PRIMES_200 = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59,
              61, 67, 71, 73, 79, 83, 89, 97, 101, 103, 107, 109, 113, 127,
              131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193,
              197, 199]


def test_sieve_range_small():
    t = sieve_range(0, 200)
    assert t.primes().tolist() == PRIMES_200
    assert t.count() == len(PRIMES_200)


def test_sieve_range_offset_start():
    t = sieve_range(100, 200)
    assert t.primes().tolist() == [p for p in PRIMES_200 if p >= 100]


def test_sieve_range_odd_even_edges():
    assert sieve_range(0, 0).primes().tolist() == []
    assert sieve_range(0, 1).primes().tolist() == []
    assert sieve_range(0, 2).primes().tolist() == [2]
    assert sieve_range(2, 2).primes().tolist() == [2]
    assert sieve_range(3, 3).primes().tolist() == [3]
    assert sieve_range(4, 4).primes().tolist() == []
    assert sieve_range(24, 28).primes().tolist() == []


def test_sieve_range_validation():
    with pytest.raises(ValueError):
        sieve_range(10, 5)
    with pytest.raises(ValueError):
        sieve_range(-1, 5)
    with pytest.raises(ValueError):
        sieve_range(0, 100, MIN_SEGMENT_SIZE - 1)
    with pytest.raises(CapacityError):
        sieve_range(0, 2**63)


def test_sieve_range_width_cap(monkeypatch):
    monkeypatch.setattr("primespan.sieve.DEFAULT_RANGE_LIMIT", 1000)
    with pytest.raises(CapacityError):
        sieve_range(0, 2000)
    t = sieve_range(0, 2000, allow_large=True)
    assert t.count() == 303


def test_mem_limit_env(monkeypatch):
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", "100")
    with pytest.raises(CapacityError):
        sieve_range(0, 10**7)
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", "nope")
    with pytest.raises(ValueError):
        sieve_range(0, 100)
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", "-5")
    with pytest.raises(ValueError):
        sieve_range(0, 100)
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(10**12))
    assert sieve_range(0, 100).count() == 25


def test_mem_limit_counts_rank_index(monkeypatch):
    lo, hi = 0, 10**7
    table = sieve_range(lo, hi)
    table.build_index()
    bitmap, index = table.bitmap.nbytes, table._rank.nbytes
    # the estimate's other term: the stream of segments and base primes
    other = sieve._stream_mem(lo, hi, DEFAULT_SEGMENT_SIZE)
    for cap in (other + bitmap, other + bitmap + index - 1):
        monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(cap))
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError):
                sieve_range(lo, hi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bitmap // 4  # refused before the bitmap was allocated
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(other + bitmap + index))
    assert sieve_range(lo, hi).count() == 664579


def _estimate(call):
    """The bytes a call's memory check asks for, read from its refusal under a 1-byte cap."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("PRIMESPAN_MEM_LIMIT", "1")
        with pytest.raises(CapacityError, match=r"needs about \d+ bytes") as refused:
            call()
    return int(re.search(r"needs about (\d+) bytes", str(refused.value)).group(1))


def _drain_blocks(lo, hi):
    """Run iter_prime_blocks over [lo, hi] as a for loop does, holding each block while the next is made."""
    for block in iter_prime_blocks(lo, hi):
        pass


def _drain_pairs(limit, **kw):
    """Run iter_prime_pairs up to limit as a for loop does, holding each block while the next is made."""
    for _, pv in iter_prime_pairs(limit, **kw):
        pass


@pytest.mark.parametrize("slots", [1, 2, 7, 100, 512, 5000, 15015, 15016, 20000, 30030])
def test_block_bound_covers_every_window(slots):
    # the most odd primes in any window of `slots` consecutive odd numbers up to 10^5
    odd = np.frombuffer(naive_sieve(10**5), dtype=np.uint8)[1::2].astype(np.int64)
    counts = np.cumsum(np.concatenate(([0], odd)))
    most = int((counts[slots:] - counts[:-slots]).max())
    assert most <= sieve._block_bound(slots) <= slots


def test_pair_stream_cap_counts_two_blocks():
    # the stream, and the block the caller holds and the next
    seg_slots = _plan(0, 0, 1024)[2]
    want = sieve._stream_mem(0, 10**6, 1024) + 2 * 8 * sieve._block_bound(seg_slots)
    assert _estimate(lambda: _drain_pairs(10**6, segment_size=1024)) == want


@pytest.mark.parametrize("call", [
    lambda: prime_count(2 * 10**8),
    lambda: prime_count(10**5, segment_size=1024),
    lambda: count_primes_in(Interval(10**8, 2 * 10**8)),
    lambda: count_primes_in(Interval(10**12, 10**12 + 4000), segment_size=1024),
    lambda: _drain_blocks(0, 10**8),
    lambda: _drain_pairs(10**8),
    lambda: max_gap_up_to(10**8),
], ids=["pi-2e8", "pi-1e5-small-segments", "1e8-2e8", "1e12-narrow", "blocks-1e8",
        "pairs-1e8", "max-gap-1e8"])
@pytest.mark.usefixtures("cold_summaries")
def test_stream_peak_within_estimate(call, monkeypatch):
    # a counting stream allocates nothing but the stream, a block stream
    # adds the block its caller holds and the next, and max_gap_up_to adds
    # the rows and the larger of the gap bounds' work and two blocks, so the
    # estimate the cap is checked against bounds its whole traced peak
    need = _estimate(call)
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(need))
    tracemalloc.start()
    try:
        call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= need


def test_rank_index_size_and_reuse():
    for hi in (0, 2, 64, 10**3, 10**6 + 1):
        table = sieve_range(0, hi)
        table.build_index()
        rank = table._rank
        assert rank.nbytes <= table.bitmap.nbytes + 8
        if table.bitmap.nbytes >= 8:
            assert rank.nbytes <= 2 * table.bitmap.nbytes
        table.pi(np.arange(hi + 2))
        table.build_index()
        assert table._rank is rank


def _oracle_pi(base, hi):
    """x -> primes in [base, min(x, hi)] from a byte-per-integer sieve."""
    cum = [0, *accumulate(naive_sieve(hi))]  # cum[i]: primes below i

    def pi(x):
        top = min(x, hi)
        return cum[top + 1] - cum[base] if top >= base else 0
    return pi


@settings(max_examples=150, deadline=None)
@given(base=st.integers(0, 3000), words=st.integers(0, 5), skew=st.integers(-3, 3),
       data=st.data())
def test_pi_matches_searchsorted_and_oracle(base, words, skew, data):
    # a 64-bit word of the bitmap holds 64 odd slots, 128 integers
    hi = base + max(0, 128 * words + skew)
    table = sieve_range(base, hi)
    first = 2 * ((base | 1) >> 1) + 1  # the odd number in slot 0
    edges = [first + 128 * j + d for j in range(words + 2) for d in (-2, -1, 0, 1)]
    xs = edges + [base - 1, base, hi, hi + 1, 2, 1, 0, -1, -(2**63), 2**63 - 1]
    xs += data.draw(st.lists(st.one_of(
        st.integers(-(2**63), 2**63 - 1), st.integers(-50, base),
        st.integers(hi, hi + 300), st.integers(base, hi)), max_size=40))
    got = table.pi(np.array(xs, dtype=np.int64))
    assert got.dtype == np.int64
    assert got.tolist() == np.searchsorted(table.primes(), xs, side="right").tolist()
    oracle = _oracle_pi(base, hi)
    assert got.tolist() == [oracle(x) for x in xs]


def test_is_prime_lookup():
    t = sieve_range(50, 150)
    for n in range(50, 151):
        assert t.is_prime(n) == (n in set(PRIMES_200))
    with pytest.raises(ValueError):
        t.is_prime(49)
    with pytest.raises(ValueError):
        t.is_prime(151)


def test_is_prime_two_special_case():
    assert sieve_range(0, 10).is_prime(2)
    assert sieve_range(2, 10).is_prime(2)


def test_bitmap_identical_across_segment_sizes_and_workers():
    base = sieve_range(0, 10**6)
    for seg in (1024, 4096, 1 << 16, 1 << 22):
        t = sieve_range(0, 10**6, seg)
        assert t.bitmap.tobytes() == base.bitmap.tobytes()
    for w in (2, 4, 8):
        t = sieve_range(0, 10**6, workers=w)
        assert t.bitmap.tobytes() == base.bitmap.tobytes()


def test_offset_range_matches_oracle():
    flags = naive_sieve(5000)
    want = [p for p in primes_from_flags(flags) if 1234 <= p <= 4321]
    assert sieve_range(1234, 4321).primes().tolist() == want


_TILE_PERIOD = 3 * 5 * 7 * 11 * 13  # the pre-sieve tile's period, in odd slots


@cache
def _oracle_flags() -> bytearray:
    return naive_sieve(2 * (10**6 + 61 * _TILE_PERIOD + 70_000))


@settings(max_examples=60, deadline=None)
@given(i_start=st.one_of(st.just(0), st.integers(0, 8), st.integers(0, 10**6),
                         st.builds(lambda m, d: max(0, m * _TILE_PERIOD + d),
                                   st.integers(1, 60), st.integers(-9, 9))),
       size=st.one_of(st.integers(1, _TILE_PERIOD - 1), st.integers(_TILE_PERIOD, 70_000)))
def test_segment_flags_match_oracle(i_start, size):
    i_stop = i_start + size
    got = sieve._segment_flags(i_start, i_stop, *sieve._base_primes(math.isqrt(2 * i_stop - 1)))
    want = _oracle_flags()[2 * i_start + 1 : 2 * i_stop : 2]
    assert got.astype(np.uint8).tobytes() == bytes(want)


@settings(max_examples=6, deadline=None)
@given(base=st.integers(10**12 - 10**5, 10**12 + 10**5), width=st.integers(0, 3000))
def test_sieve_range_high_base_matches_oracle(base, width):
    flags = naive_sieve_window(base, base + width)
    want = [base + i for i, f in enumerate(flags) if f]
    got = sieve_range(base, base + width, MIN_SEGMENT_SIZE)
    assert got.primes().tolist() == want


def test_iter_prime_blocks_concatenates():
    whole = sieve_range(0, 10**5).primes()
    got = np.concatenate(list(iter_prime_blocks(0, 10**5, segment_size=4096)))
    assert np.array_equal(got, whole)


def test_iter_prime_blocks_two_handling():
    assert [b.tolist() for b in iter_prime_blocks(2, 2)] == [[2]]
    assert list(iter_prime_blocks(0, 1)) == []
    got = np.concatenate(list(iter_prime_blocks(3, 100)))
    assert got.tolist() == [p for p in PRIMES_200 if 3 <= p <= 100]


def test_prime_count_checkpoints():
    assert prime_count(0) == 0
    assert prime_count(1) == 0
    assert prime_count(2) == 1
    assert prime_count(10) == 4
    assert prime_count(100) == 25
    assert prime_count(10**5) == 9592


def test_nth_prime_values():
    for n, p in [(1, 2), (2, 3), (3, 5), (6, 13), (25, 97), (168, 997),
                 (1000, 7919), (9592, 99991)]:
        assert nth_prime(n) == p
    with pytest.raises(ValueError):
        nth_prime(0)


def test_count_primes_in_boundaries():
    # primes in [2, 11]: 2 3 5 7 11
    assert count_primes_in(Interval(2, 11)) == 5
    assert count_primes_in(Interval(2, 11, lo_open=True)) == 4
    assert count_primes_in(Interval(2, 11, hi_open=True)) == 4
    assert count_primes_in(Interval(2, 11, lo_open=True, hi_open=True)) == 3
    assert count_primes_in(Interval(4, 4)) == 0
    assert count_primes_in(Interval(5, 5)) == 1
    assert count_primes_in(Interval(5, 5, hi_open=True)) == 0


def test_interval_validation():
    with pytest.raises(ValueError):
        Interval(5, 4)
    with pytest.raises(ValueError):
        Interval(-1, 4)
    assert Interval(3, 3, lo_open=True).is_empty()


def test_iterate_gaps_records():
    recs = list(iterate_gaps(30))
    assert [(r.n, r.p_n, r.p_next, r.g_n) for r in recs] == [
        (1, 2, 3, 1), (2, 3, 5, 2), (3, 5, 7, 2), (4, 7, 11, 4),
        (5, 11, 13, 2), (6, 13, 17, 4), (7, 17, 19, 2), (8, 19, 23, 4),
        (9, 23, 29, 6)]
    assert list(iterate_gaps(3)) == [GapRecord(1, 2, 3, 1)]
    with pytest.raises(ValueError):
        list(iterate_gaps(2))


def test_gap_record_validation():
    with pytest.raises(ValueError):
        GapRecord(1, 2, 3, 2)


def test_max_gap_values():
    assert max_gap_up_to(3) == GapRecord(1, 2, 3, 1)
    assert max_gap_up_to(10) == GapRecord(2, 3, 5, 2)
    assert max_gap_up_to(30) == GapRecord(9, 23, 29, 6)
    assert max_gap_up_to(100) == GapRecord(24, 89, 97, 8)
    # first occurrence wins among equal gaps: 2->3 ties nothing; 3->5 and 5->7
    assert max_gap_up_to(7) == GapRecord(2, 3, 5, 2)


def test_max_gap_matches_oracle_scan():
    primes = primes_from_flags(naive_sieve(10**4))
    recs = [GapRecord(n, p, q, q - p)
            for n, (p, q) in enumerate(zip(primes, primes[1:]), 1)]
    # the small segment size carries the last prime across about ten segments
    for seg in (MIN_SEGMENT_SIZE, 1 << 21):
        assert list(iterate_gaps(10**4, segment_size=seg)) == recs
    best = max(recs, key=lambda r: r.g_n)
    got = max_gap_up_to(10**4)
    assert got.g_n == best.g_n
    assert got == min((r for r in recs if r.g_n == best.g_n),
                      key=lambda r: r.n)


@pytest.mark.usefixtures("cold_summaries")
def test_max_gap_tie_keeps_earliest_pair(monkeypatch):
    # below 9000 the largest gap, 34, follows p_217 = 1327 and p_1059 = 8467,
    # in segments 1 and 8 of 1024 integers.  Stand-in bounds, still above
    # every gap, put segment 8 first, so its tie is found first
    want = GapRecord(217, 1327, 1361, 34)
    assert max_gap_up_to(9000, segment_size=1024) == want
    pair_rows = sieve._pair_rows

    def later_first(*args, **kw):
        rows, block = pair_rows(*args, **kw)
        rows = rows.copy()
        rows[:, 4] = np.where(rows[:, 1] > 0, 34, 0)
        rows[8, 4] = 35
        return rows, block

    monkeypatch.setattr(sieve, "_pair_rows", later_first)
    assert max_gap_up_to(9000, segment_size=1024) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=80))
def test_longest_true_run_matches_loop(bits):
    longest = run = 0
    for b in bits:
        run = run + 1 if b else 0
        longest = max(longest, run)
    assert _longest_true_run(np.array(bits, dtype=bool)) == longest


@pytest.mark.parametrize("limit,segment_size", [(2, 1024), (3, 1024), (10**5, 1024),
                                                (10**5 + 3, 2048), (10**6, 1 << 16)])
def test_pair_segment_summaries_match_blocks(limit, segment_size):
    primes = primes_from_flags(naive_sieve(limit))
    rows, block = _pair_rows(limit, lambda: None, segment_size=segment_size, allow_large=False)
    assert len(rows) == sieve._segment_count(0, limit, segment_size)
    n0 = 1
    for k, (row_n0, pairs, p_lo, p_hi, gap_bound) in enumerate(rows.tolist()):
        pv = block(k)
        assert row_n0 == n0 and pv.tolist() == primes[n0 - 1 : n0 + pairs]
        assert (p_lo, p_hi) == (pv[0], pv[-1])
        if pairs:
            # a bound on every gap, and within two packed bytes of the largest
            gap = int(np.diff(pv).max())
            assert gap <= gap_bound < max(gap, 32) + 32
        n0 += pairs
    assert n0 == max(len(primes), 1)


def _stream(limit, segment_size):
    """Each pair segment up to limit: its summary, its block, its first odd slot,
    and whether its row came from the summary table."""
    seg_slots = _plan(0, 0, segment_size)[2]
    held_slots, stored = sieve._summaries
    known = min(_full_segments(limit, segment_size), len(stored)) if held_slots == seg_slots else 0
    rows, block = _pair_rows(limit, lambda: None, segment_size=segment_size, allow_large=False)
    return [(tuple(row), block(k).tolist(), k * seg_slots, k < known)
            for k, row in enumerate(rows.tolist())]


def _full_segments(limit, segment_size):
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    return n_slots // seg_slots


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("first,limit,segment_size", [
    (10**5, 10**5, 1024), (10**5, 10**5 + 4097, 2048), (3 * 10**5, 10**5, 4096),
    (10**5, 3 * 10**5, 1 << 16), (10**6, 10**6, 1 << 16)])
def test_stored_segments_rebuild_their_blocks(first, limit, segment_size, monkeypatch):
    # one worker: the sieve calls counted below are those of this process
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 1)
    fresh = _stream(limit, segment_size)
    assert not any(stored for *_, stored in fresh)
    sieve._summaries = sieve._NO_SUMMARIES
    _stream(first, segment_size)
    # the full segments below both limits come from the table; their
    # summaries and re-sieved blocks equal those of a stream from scratch
    known = _full_segments(min(first, limit), segment_size)
    seg_slots = _plan(0, 0, segment_size)[2]
    real, sieved = sieve._segment_flags, []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_segment_flags", lambda *a: sieved.append(a[0]) or real(*a))
        warm = _stream(limit, segment_size)
    assert [row[:3] for row in warm] == [row[:3] for row in fresh]
    assert [stored for *_, stored in warm] == [
        slot < known * seg_slots for _, _, slot, _ in warm]
    assert any(stored for *_, stored in warm)
    # the stream sieves only the segments past the table; block(k) sieves each
    assert Counter(sieved) == {slot: 1 + (not stored) for _, _, slot, stored in warm}
    assert len(sieve._summaries[1]) == _full_segments(max(first, limit), segment_size)


@pytest.mark.usefixtures("cold_summaries")
def test_unfinished_stream_publishes_nothing(monkeypatch):
    _stream(10**5, 1024)
    before = sieve._summaries
    rows = before[1].copy()
    # stopped past the stored segments, in the middle of the ones it sieves
    ticks = []

    def tick():
        ticks.append(None)
        if len(ticks) == 150:
            raise RuntimeError("stopped")

    with pytest.raises(RuntimeError, match="stopped"):
        _pair_rows(3 * 10**5, tick, segment_size=1024, allow_large=False)
    assert len(ticks) == 150 > len(rows)
    assert sieve._summaries is before
    # a sieve that fails part way through the segments past the table
    real, calls = sieve._segment_flags, []

    def failing(*args):
        calls.append(args)
        if len(calls) > 10:
            raise RuntimeError("sieve failed")
        return real(*args)

    monkeypatch.setattr(sieve, "_segment_flags", failing)
    with pytest.raises(RuntimeError, match="sieve failed"):
        max_gap_up_to(3 * 10**5, segment_size=1024, workers=2)
    assert sieve._summaries is before and np.array_equal(before[1], rows)


@pytest.mark.usefixtures("cold_summaries")
def test_mem_limit_counts_summary_table(monkeypatch):
    want = max_gap_up_to(2 * 10**6)  # no full 2^20-slot segment: nothing is stored
    assert len(sieve._summaries[1]) == 0

    def estimate(limit, stored):
        # the stream, the stored table, 64 bytes per segment for the rows and
        # what a caller derives from them, and two blocks, which are more
        # than the gap bounds' work
        seg_slots = _plan(0, 0, 1024)[2]
        return (sieve._stream_mem(0, limit, 1024) + 40 * stored
                + 64 * sieve._segment_count(0, limit, 1024)
                + 2 * 8 * sieve._block_bound(seg_slots))

    def run_at(cap, limit):
        monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(cap))
        return max_gap_up_to(limit, segment_size=1024)

    full = _full_segments(10**6, 1024)
    # a cold stream's rows become the table; a warm one holds the table too
    for stored in (0, full):
        with pytest.raises(CapacityError):
            run_at(estimate(10**6, stored) - 1, 10**6)
        assert run_at(estimate(10**6, stored), 10**6) == GapRecord(40933, 492113, 492227, 114)
    assert sieve._summaries[1].nbytes == 40 * full
    # a stream past the table holds the old table and its longer rows
    with pytest.raises(CapacityError):
        run_at(estimate(2 * 10**6, full) - 1, 2 * 10**6)
    assert run_at(estimate(2 * 10**6, full), 2 * 10**6) == want


@pytest.mark.usefixtures("cold_summaries")
def test_concurrent_streams_share_the_table():
    # more streams than cores, switching threads often, each publishing
    # the table the others read: every stream still equals a cold one
    jobs = [(limit, size) for limit in (10**5, 2 * 10**5, 3 * 10**5)
            for size in (1024, 2048)] * 2
    want = {}
    for job in set(jobs):
        sieve._summaries = sieve._NO_SUMMARIES
        want[job] = _stream(*job)
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(max_workers=len(jobs)) as ex:
            runs = [(job, ex.submit(_stream, *job)) for job in jobs]
            for job, run in runs:
                got = run.result(timeout=60)
                assert [row[:2] for row in got] == [row[:2] for row in want[job]]
    finally:
        sys.setswitchinterval(switch)
    # the table left is that of a finished stream
    seg_slots, rows = sieve._summaries
    cold = [row[0] for row in want[3 * 10**5, 2 * seg_slots]
            if row[2] < len(rows) * seg_slots]
    assert [tuple(r) for r in rows.tolist()] == cold


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _kill_self(*args):
    os.kill(os.getpid(), signal.SIGKILL)


def _raise(*args):
    raise ValueError("worker failed")


def _write_nothing(fd, *args):
    os.close(fd)


def _exit_3_after_writing(*args):
    _REAL_WORKER(*args)
    os._exit(3)


_REAL_WORKER = sieve._run_worker


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("worker", [_kill_self, _raise, _write_nothing, _exit_3_after_writing],
                         ids=["killed", "raises", "short-read", "exit-3"])
def test_failed_worker_raises_and_leaves_no_process(worker, monkeypatch, forks):
    _stream(10**5, 1024)
    before = sieve._summaries
    forks.clear()
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sieve, "_run_worker", worker)
    with pytest.raises(RuntimeError, match=r"sieve worker \d+ (ended before|exited with)"):
        _pair_rows(3 * 10**5, lambda: None, segment_size=1024, allow_large=False)
    assert len(forks) == 2
    assert sieve._summaries is before
    _no_children_left()


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_exception_kills_workers(error, monkeypatch, forks):
    # workers that would sleep for a minute: the parent must kill them, not wait
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 3)
    monkeypatch.setattr(sieve, "_run_worker", lambda *args: time.sleep(60))

    def tick():
        raise error("stopped")

    t0 = time.monotonic()
    with pytest.raises(error, match="stopped"):
        _pair_rows(3 * 10**5, tick, segment_size=1024, allow_large=False)
    assert len(forks) == 2 and time.monotonic() - t0 < 30
    assert sieve._summaries is sieve._NO_SUMMARIES
    _no_children_left()


@pytest.mark.usefixtures("cold_summaries")
def test_no_fork_while_another_thread_runs(monkeypatch):
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 3)
    want = _pair_rows(3 * 10**5, lambda: None, segment_size=1024, allow_large=False)[0]

    def fork():
        raise AssertionError("forked while a second thread runs")

    monkeypatch.setattr(os, "fork", fork)
    monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
    stop = threading.Event()
    other = threading.Thread(target=stop.wait)
    other.start()
    try:
        got = _pair_rows(3 * 10**5, lambda: None, segment_size=1024, allow_large=False)[0]
    finally:
        stop.set()
        other.join(timeout=10)
    assert not other.is_alive()
    assert np.array_equal(got, want)


def _one_worker_mem(limit, segment_size, share):
    """A stream, the gap bound's work on one segment, and the parts of the worker's share."""
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    m = -(-min(seg_slots, n_slots) // 8)
    return (sieve._stream_mem(0, limit, segment_size) + (m.bit_length() + 2) * m
            + sieve._PART_BYTES * share)


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("limit,segment_size,w", [(10**8, DEFAULT_SEGMENT_SIZE, 2),
                                                  (10**6, 1024, 3)])
def test_worker_share_peak_within_one_stream(limit, segment_size, w, tmp_path):
    # a forked worker's whole job, run in this process so tracemalloc sees it
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    share = range(1, -(-n_slots // seg_slots), w)
    fd = os.open(tmp_path / "parts", os.O_WRONLY | os.O_CREAT)
    tracemalloc.start()
    try:
        sieve._run_worker(fd, share, n_slots, seg_slots, sieve._base_primes(math.isqrt(limit)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _one_worker_mem(limit, segment_size, len(share))
    parts = np.fromfile(tmp_path / "parts", dtype=np.int64).reshape(-1, 4)
    rows = _pair_rows(limit, lambda: None, segment_size=segment_size, allow_large=False)[0]
    assert np.array_equal(parts[:, 0], rows[share, 1])
    assert np.array_equal(2 * (np.array(share) * seg_slots + parts[:, 2]) + 1, rows[share, 3])


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("limit,size", [(10**6, 1024), (10**8, DEFAULT_SEGMENT_SIZE)])
def test_mem_cap_fits_fewer_workers(limit, size, monkeypatch, forks):
    # w workers need w streams and gap bound works, the parts the w - 1
    # forked ones hold, and the rows and two blocks; a cap that fits fewer
    # gets fewer, and one that fits no stream is refused.  Two blocks
    # outweigh three gap bound works at 1024, not at the default size.
    _, n_slots, seg_slots = _plan(0, limit, size)
    n = -(-n_slots // seg_slots)
    stream = sieve._stream_mem(0, limit, size)
    blocks = 2 * 8 * sieve._block_bound(seg_slots)

    def need(w):
        worker = _one_worker_mem(limit, size, 0) - stream
        return (w * stream + max(w * worker, blocks)
                + sieve._PART_BYTES * (n - len(range(0, n, w))) + 64 * n)

    run = lambda: _pair_rows(limit, lambda: None, segment_size=size, allow_large=False)[0]
    assert _estimate(run) == need(1)
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 3)
    want = run()
    for cap, w in [(need(1), 1), (need(2) - 1, 1), (need(2), 2), (need(3) - 1, 2),
                   (need(3), 3)]:
        monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(cap))
        monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
        forks.clear()
        assert np.array_equal(run(), want)
        assert len(forks) == w - 1
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(need(1) - 1))
    with pytest.raises(CapacityError):
        run()


def test_max_gap_segment_size_independent():
    want = max_gap_up_to(10**5)
    for seg in (1024, 1 << 14):
        assert max_gap_up_to(10**5, segment_size=seg) == want


def test_log_primorial():
    assert log_primorial(2) == pytest.approx(math.log(2), abs=1e-15)
    assert log_primorial(10) == pytest.approx(math.log(210), rel=1e-14)
    assert log_primorial(11) == pytest.approx(math.log(2310), rel=1e-14)
    # theta(100) against a direct high-precision sum
    want = math.fsum(math.log(p) for p in PRIMES_200 if p <= 100)
    assert log_primorial(100) == pytest.approx(want, rel=1e-14)
    with pytest.raises(ValueError):
        log_primorial(1)


def test_prime_table_fields():
    t = sieve_range(10, 20)
    assert t.base == 10 and t.hi == 20
    assert t.primes().dtype == np.int64
