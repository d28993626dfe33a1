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
from hypothesis import example, given, settings
from hypothesis import strategies as st

import primespan.sieve as sieve
from primespan import (CapacityError, GapRecord, Interval, count_primes_in,
                       iter_prime_blocks, iter_prime_pairs, iterate_gaps, log_primorial,
                       max_gap_up_to, nth_prime, prime_count, sieve_range)
from primespan.sieve import (DEFAULT_SEGMENT_SIZE, MIN_SEGMENT_SIZE, _longest_true_run,
                             _pair_rows, _plan, _slot_gap_bound)

from oracles import miller_rabin_is_prime, naive_sieve, naive_sieve_window, primes_from_flags

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


@pytest.mark.parametrize("hi,segment_size", [(10**9, DEFAULT_SEGMENT_SIZE), (10**8, 1 << 16)])
def test_stream_mem_terms_match_arrays(hi, segment_size):
    # the estimate term by term, each against the nbytes of what it stands for
    slots = min(_plan(0, 0, segment_size)[2], _plan(0, hi, segment_size)[1])
    base = sieve._stream_base(hi, slots)
    root, r_limit = math.isqrt(hi), hi // (base.c + 1)
    assert base.c < root  # a band stream
    # a segment starting one slot before a word ends spans the most words;
    # its flags are a view of a byte per slot of each, unpacked from its words
    unpacked = sieve._segment_flags(63, 63 + slots, base).base
    terms = [2 * unpacked.nbytes,  # the segment the caller holds and the next
             unpacked.nbytes // 8,  # the next one's packed words
             # every strided prime may hit a segment this wide, so each is listed
             (sieve._BASE_PRIME_BYTES + sieve._LISTED_PRIME_BYTES) * sieve._pi_bound(root),
             8 * sieve._pi_bound(r_limit),  # rtab
             base.rwords.nbytes + base.rrank.nbytes,  # its rank index
             sieve._BAND_PRODUCT_BYTES * min(sieve._BAND_CHUNK, slots)]
    assert sum(terms) == sieve._stream_mem(0, hi, segment_size)
    assert base.odd.nbytes <= 8 * sieve._pi_bound(root) and base.rtab.nbytes <= terms[3]


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


@pytest.mark.usefixtures("cold_summaries")
def test_band_stream_at_high_base_peak_within_estimate(monkeypatch):
    # the band at a high base: rtab, its rank index and the products
    assert sieve._stream_base(10**9, 1 << 20).c < math.isqrt(10**9)
    test_stream_peak_within_estimate(lambda: count_primes_in(Interval(10**9 - 10**7, 10**9)),
                                     monkeypatch)


def test_rank_index_size_and_reuse():
    # the index is built with the table, one int64 per word, and pi reuses it
    for hi in (0, 2, 64, 10**3, 10**6 + 1):
        table = sieve_range(0, hi)
        rank = table._rank
        assert rank.nbytes == table.bitmap.nbytes == 8 * ((_plan(0, hi, 0)[1] >> 6) + 1)
        table.pi(np.arange(hi + 2))
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
    got = sieve._segment_flags(i_start, i_stop, sieve._stream_base(2 * i_stop - 1, size))
    want = _oracle_flags()[2 * i_start + 1 : 2 * i_stop : 2]
    assert got.astype(np.uint8).tobytes() == bytes(want)


_PRE_PERIODS = [math.prod(g) for g in sieve._PRE_GROUPS]  # in odd slots; 64 times as many in words


@settings(max_examples=300, deadline=None)
@given(i_start=st.one_of(
           st.integers(0, 60),  # windows that hold the pre-sieve primes 17 .. 113 (slots 8 .. 56)
           st.builds(lambda w, d: max(0, 64 * w + d), st.integers(0, 30_000), st.integers(-3, 3)),
           st.builds(lambda period, m, d: max(0, m * period + d),
                     st.sampled_from(_PRE_PERIODS), st.integers(1, 100), st.integers(-9, 9)),
           st.builds(lambda period, m, d: max(0, 64 * m * period + d),
                     st.sampled_from(_PRE_PERIODS), st.integers(1, 2), st.integers(-70, 70))),
       size=st.integers(1, 200))
def test_presieve_edges_match_oracle(i_start, size):
    # starts at word boundaries, at multiples of a group's period in slots
    # and in words (where its pattern wraps), and short windows over the
    # pre-sieve primes themselves
    i_stop = i_start + size
    got = sieve._segment_flags(i_start, i_stop, sieve._stream_base(2 * i_stop - 1, size))
    want = _oracle_flags()[2 * i_start + 1 : 2 * i_stop : 2]
    assert got.astype(np.uint8).tobytes() == bytes(want)


@pytest.mark.parametrize("hi,picks", [(10**8, [0, 1, 23, 46, 47]),
                                      (10**9, [0, 1, 2, 137, 300, 475, 476])],
                         ids=["1e8", "1e9"])
def test_band_rank_matches_searchsorted(hi, picks):
    # each band prime's first product and product count, from the rank
    # index and from searchsorted over rtab; the last pick is the short
    # last segment
    _, n_slots, seg_slots = _plan(0, hi, DEFAULT_SEGMENT_SIZE)
    base = sieve._stream_base(hi, seg_slots)
    assert picks[-1] * seg_slots < n_slots < (picks[-1] + 1) * seg_slots
    rtab = base.rtab

    def rank(m):
        return sieve._bit_rank(base.rwords, base.rrank, m)

    for k in picks:
        lo_num, hi_num = 2 * k * seg_slots + 1, 2 * min((k + 1) * seg_slots, n_slots) - 1
        q = base.odd[(base.odd > base.c) & (base.odd <= math.isqrt(hi_num))]
        assert q.size
        first = np.maximum(q, -(-lo_num // q))
        start = np.searchsorted(rtab, first)
        count = np.searchsorted(rtab, hi_num // q, side="right") - start
        got = rank(first >> 1)
        assert np.array_equal(got, start), k
        assert np.array_equal(rank((hi_num // q + 1) >> 1) - got, count), k
    # and every odd slot count up to rtab's limit
    m = np.arange((int(rtab[-1]) + 3) >> 1)
    assert np.array_equal(rank(m), np.searchsorted(rtab, 2 * m))


@settings(max_examples=40, deadline=None)
@given(hi=st.integers(10**5, 2 * 10**6), data=st.data())
def test_band_flags_match_oracle(hi, data):
    # in 70,000-slot segments up to hi, the base primes above c = cbrt(hi),
    # which is 46 to 125, cross off their products q*r
    base = sieve._stream_base(hi, 70_000)
    assert base.c == sieve._icbrt(hi) < math.isqrt(hi)
    n_slots = _plan(0, hi, 0)[1]
    i_start = data.draw(st.integers(0, n_slots - 1))
    i_stop = min(n_slots, i_start + data.draw(st.integers(1, 70_000)))
    got = sieve._segment_flags(i_start, i_stop, base)
    want = _oracle_flags()[2 * i_start + 1 : 2 * i_stop : 2]
    assert got.astype(np.uint8).tobytes() == bytes(want)


def _strided(base):
    """base with an empty band, so that strides cross off every base prime."""
    return base._replace(c=sys.maxsize, rtab=base.rtab[:0])


def _same_as_strided(base, segments):
    for a, b in segments:
        got = sieve._segment_flags(a, b, base)
        assert np.array_equal(got, sieve._segment_flags(a, b, _strided(base))), (a, b)


@pytest.mark.parametrize("hi,c,picks", [
    (10**8, 464, None),
    (10**9, 1000, [0, 1, 2, 55, 137, 256, 300, 419, 476]),
], ids=["every-segment-1e8", "sampled-1e9"])
def test_band_equals_strides(hi, c, picks):
    # the first segment holds band primes and their squares; 476 is the short last one at 1e9
    _, n_slots, seg_slots = _plan(0, hi, DEFAULT_SEGMENT_SIZE)
    base = sieve._stream_base(hi, seg_slots)
    assert base.c == c and base.rtab.size == prime_count(hi // (c + 1)) - 1
    ks = range(-(-n_slots // seg_slots)) if picks is None else picks
    assert ks[-1] * seg_slots < n_slots <= (ks[-1] + 1) * seg_slots
    _same_as_strided(base, [(k * seg_slots, min((k + 1) * seg_slots, n_slots)) for k in ks])


@pytest.mark.parametrize("lo,width,segment_size", [(10**12, 4000, 1024),
                                                   (10**12, 10**6, DEFAULT_SEGMENT_SIZE)])
def test_narrow_high_window_has_no_band(lo, width, segment_size):
    # c >= sqrt(hi): strides cross off every base prime, and rtab holds no more than they
    i0, n_slots, seg_slots = _plan(lo, lo + width, segment_size)
    base = sieve._stream_base(lo + width, min(seg_slots, n_slots))
    assert base.c >= math.isqrt(lo + width) and base.rtab.size == base.odd.size
    _same_as_strided(base, [(a, min(a + seg_slots, i0 + n_slots))
                            for a in range(i0, i0 + n_slots, seg_slots)])
    if width <= 4000:
        flags = naive_sieve_window(lo, lo + width)
        want = [lo + i for i, f in enumerate(flags) if f]
        assert sieve_range(lo, lo + width, segment_size).primes().tolist() == want


def test_miller_rabin_oracle():
    assert [n for n in range(10**5) if miller_rabin_is_prime(n)] == primes_from_flags(
        naive_sieve(10**5 - 1))
    # the least strong pseudoprimes to the first 1, .., 9 prime bases
    assert not any(map(miller_rabin_is_prime, [2047, 1373653, 25326001, 3215031751,
                                               2152302898747, 3474749660383, 341550071728321,
                                               3825123056546413051]))


@pytest.mark.parametrize("lo,want", [(10**12, 335), (10**13, 354), (10**14, 304)])
def test_narrow_window_far_from_0_matches_miller_rabin(lo, want):
    # no band: only the strided base primes with a multiple in the window loop
    assert sum(map(miller_rabin_is_prime, range(lo, lo + 10**4 + 1))) == want
    assert count_primes_in(Interval(lo, lo + 10**4)) == want


def test_narrow_window_at_1e13_traces_little():
    # 227k base primes, of which few have a multiple in the window: only
    # those become Python ints (21.8 MB traced when all of them did)
    tracemalloc.start()
    try:
        assert count_primes_in(Interval(10**13, 10**13 + 10**4)) == 354
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 10**6


@pytest.mark.parametrize("lo", [10**12, 10**13, 10**14])
def test_narrow_window_estimate_within_twice_its_trace(lo):
    # only the strided primes that can hit the window are charged as listed
    window = Interval(lo, lo + 10**4)
    estimate = _estimate(lambda: count_primes_in(window))
    tracemalloc.start()
    try:
        count_primes_in(window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= estimate <= 2 * peak


@pytest.mark.parametrize("p", [101, 149, 157])
def test_band_starts_past_the_cube_root(p):
    # p = cbrt(p**3) is prime: were it a band prime, no product q*r would cross off p**3
    _, n_slots, seg_slots = _plan(0, p**3, DEFAULT_SEGMENT_SIZE)
    assert sieve._stream_base(p**3, min(seg_slots, n_slots)).c == p
    table = sieve_range(0, p**3)
    assert not table.is_prime(p**3)
    assert table.count() == sum(_oracle_flags()[: p**3 + 1])


@pytest.mark.parametrize("chunk", [1, 2, 3, 64, 1000])
def test_band_passes_split_anywhere(chunk, monkeypatch):
    # passes of any size, ending inside one band prime's products or between two
    hi = 2 * 10**6
    base = sieve._stream_base(hi, 70_000)
    monkeypatch.setattr(sieve, "_BAND_CHUNK", chunk)
    n_slots = _plan(0, hi, 0)[1]
    _same_as_strided(base, [(a, min(a + 70_000, n_slots)) for a in (0, 70_000, 420_000, 980_000)])


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
    # every gap, put segment 8 first, so its tie is found first.  Slices of
    # 8 slots leave a gap of 34 across an empty slice.
    want = GapRecord(217, 1327, 1361, 34)
    assert max_gap_up_to(9000, segment_size=1024) == want
    pair_rows = sieve._pair_rows

    def later_first(*args, **kw):
        rows, slices = pair_rows(*args, **kw)
        rows = rows.copy()
        rows[:, 4] = np.where(rows[:, 1] > 0, 34, 0)
        rows[8, 4] = 35
        return rows, slices

    monkeypatch.setattr(sieve, "_pair_rows", later_first)
    for slice_slots in (1 << 17, 8):
        monkeypatch.setattr(sieve, "_SLICE_SLOTS", slice_slots)
        assert max_gap_up_to(9000, segment_size=1024) == want


@settings(max_examples=200, deadline=None)
@given(st.lists(st.booleans(), max_size=80))
def test_longest_true_run_matches_loop(bits):
    longest = run = 0
    ends = []
    for i, b in enumerate(bits):
        run = run + 1 if b else 0
        if run and run == longest:
            ends.append(i)
        elif run > longest:
            longest, ends = run, [i]
    length, at = _longest_true_run(np.array(bits, dtype=bool))
    assert length == longest
    assert np.flatnonzero(at).tolist() == [i + 1 - longest for i in ends]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.integers(0, 255), min_size=1, max_size=60).map(lambda b: [b[0] | 1] + b[1:]),
       st.integers(1, 255), st.integers(0, 6))
def test_slot_gap_bound_matches_loop(body, tail, zeros):
    # packed bytes whose first and last are nonzero, with long zero runs common
    packed = np.array(body + [0] * zeros + [tail], dtype=np.uint8)
    bits = np.flatnonzero(np.unpackbits(packed)).tolist()
    largest = max((b - a for a, b in zip(bits, bits[1:])), default=0)
    longest = run = 0
    for byte in packed.tolist():
        run = run + 1 if byte == 0 else 0
        longest = max(longest, run)
    bound = _slot_gap_bound(packed)
    assert largest <= bound <= max(largest + 6, 23)
    # exact when the largest distance crosses a run of the longest zero bytes
    # and is at least 8 longest + 7, the most any shorter run allows
    crossing = [b - a for a, b in zip(bits, bits[1:]) if (b >> 3) - (a >> 3) - 1 == longest]
    if longest >= 2 and max(crossing) == largest >= 8 * longest + 7:
        assert bound == largest


def _joined(slices, k, n0, carry):
    """Segment k's pairs from slices(k) as one block, from its row's n0 and carry;
    each slice must hold a pair and start where the one before it ended."""
    block = [carry]
    for m0, pv in slices(k):
        assert (m0, int(pv[0])) == (n0 + len(block) - 1, block[-1]) and pv.size > 1
        block += pv[1:].tolist()
    return block


@pytest.mark.parametrize("limit,segment_size", [(2, 1024), (3, 1024), (10**5, 1024),
                                                (10**5 + 3, 2048), (10**6, 1 << 16)])
def test_pair_segment_summaries_match_blocks(limit, segment_size):
    primes = primes_from_flags(naive_sieve(limit))
    rows, slices = _pair_rows(limit, lambda: None, segment_size=segment_size, allow_large=False)
    assert len(rows) == sieve._segment_count(0, limit, segment_size)
    n0 = 1
    for k, (row_n0, pairs, p_lo, p_hi, gap_bound) in enumerate(rows.tolist()):
        pv = _joined(slices, k, row_n0, p_lo)
        assert row_n0 == n0 and pv == primes[n0 - 1 : n0 + pairs]
        assert (p_lo, p_hi) == (pv[0], pv[-1])
        if pairs:
            # a bound on every gap, at most 12 above the largest or at most 46
            gap = int(np.diff(pv).max())
            assert gap <= gap_bound <= max(gap + 12, 46)
        n0 += pairs
    assert n0 == max(len(primes), 1)


@settings(max_examples=60, deadline=None)
@example(limit=3000, segment_size=1024, width=1)
@given(limit=st.integers(2, 3 * 10**4), segment_size=st.sampled_from([1024, 2048, 4096, 1 << 16]),
       width=st.integers(1, 300) | st.just(1 << 17))
def test_slices_join_into_pair_blocks(limit, segment_size, width):
    # slices narrow enough to be empty or to start on a prime, 2 being the
    # prime carried into segment 0 and into its slices before 3
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_SLICE_SLOTS", width)
        rows, slices = _pair_rows(limit, lambda: None, segment_size=segment_size,
                                  allow_large=False)
        got = [(n0, _joined(slices, k, n0, p_lo))
               for k, (n0, pairs, p_lo, *_) in enumerate(rows.tolist()) if pairs]
    want = [(n0, pv.tolist()) for n0, pv in iter_prime_pairs(limit, segment_size=segment_size)]
    assert got == want


def _stream(limit, segment_size):
    """Each pair segment up to limit: its summary, its block, its first odd slot,
    and whether its row came from the summary table."""
    seg_slots = _plan(0, 0, segment_size)[2]
    stored = sieve._summaries[0] == (limit, seg_slots)
    rows, slices = _pair_rows(limit, lambda: None, segment_size=segment_size, allow_large=False)
    return [(tuple(row), _joined(slices, k, row[0], row[2]), k * seg_slots, stored)
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
    fresh = {size: _stream(limit, size) for size in (segment_size, 2 * segment_size)}
    assert not any(stored for run in fresh.values() for *_, stored in run)
    sieve._summaries = sieve._NO_SUMMARIES
    _stream(first, segment_size)
    real, sieved = sieve._segment_flags, []
    # only a stream at the table's limit and segment length takes its rows
    for size, same in [(segment_size, first == limit), (segment_size, True),
                       (2 * segment_size, False)]:
        sieved.clear()
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_segment_flags", lambda *a: sieved.append(a[0]) or real(*a))
            warm = _stream(limit, size)
        # its summaries and re-sieved blocks equal those of a stream from scratch
        assert [row[:3] for row in warm] == [row[:3] for row in fresh[size]]
        assert all(stored == same for *_, stored in warm)
        # a warm stream sieves only in slices(k); any other sieves every segment too
        assert Counter(sieved) == {slot: 1 + (not same) for _, _, slot, _ in warm}
        # and the table left is this stream's: its key and all its rows
        key, rows = sieve._summaries
        assert key == (limit, _plan(0, 0, size)[2])
        assert [tuple(r) for r in rows.tolist()] == [row[0] for row in fresh[size]]


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
        max_gap_up_to(3 * 10**5, segment_size=1024)
    assert sieve._summaries is before and np.array_equal(before[1], rows)


@pytest.mark.usefixtures("cold_summaries")
def test_mem_limit_counts_summary_table(monkeypatch):
    want = max_gap_up_to(2 * 10**6, segment_size=1024)
    sieve._summaries = sieve._NO_SUMMARIES

    def estimate(limit, stored):
        # the stream, the stored table, 64 bytes per segment for the rows and
        # what a caller derives from them, and 64 bytes per prime of a slice,
        # a whole segment here, for its block and what a scan derives from it,
        # which are more than the gap bounds' work
        seg_slots = _plan(0, 0, 1024)[2]
        return (sieve._stream_mem(0, limit, 1024) + 40 * stored
                + 64 * sieve._segment_count(0, limit, 1024)
                + 64 * (sieve._block_bound(seg_slots) + 1))

    def run_at(cap, limit):
        monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(cap))
        return max_gap_up_to(limit, segment_size=1024)

    # a cold stream's rows become the table; a warm one reads them as its rows
    for _ in range(2):
        with pytest.raises(CapacityError):
            run_at(estimate(10**6, 0) - 1, 10**6)
        assert run_at(estimate(10**6, 0), 10**6) == GapRecord(40933, 492113, 492227, 114)
    # the table is every row, the last, partial segment's included
    stored = sieve._segment_count(0, 10**6, 1024)
    assert sieve._summaries[1].nbytes == 40 * stored > 40 * _full_segments(10**6, 1024)
    # a stream at another limit holds the table and its own rows
    with pytest.raises(CapacityError):
        run_at(estimate(2 * 10**6, stored) - 1, 2 * 10**6)
    assert run_at(estimate(2 * 10**6, stored), 2 * 10**6) == want
    assert len(sieve._summaries[1]) == sieve._segment_count(0, 2 * 10**6, 1024)


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
    # the table left is that of a finished stream: its key and its cold rows
    (limit, seg_slots), rows = sieve._summaries
    assert [tuple(r) for r in rows.tolist()] == [row[0] for row in want[limit, 2 * seg_slots]]


def _no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _kill_self(real, *args):
    os.kill(os.getpid(), signal.SIGKILL)


def _raise(real, *args):
    raise ValueError("worker failed")


def _exit_0_without_writing(real, *args):
    os._exit(0)


def _exit_3_after_writing(real, *args):
    yield from real(*args)
    os._exit(3)


def _sleep(real, *args):
    time.sleep(60)


def _in_children(fault, monkeypatch):
    """Make _segment_parts call fault(real, *args) in forked children only."""
    real, parent = sieve._segment_parts, os.getpid()
    monkeypatch.setattr(sieve, "_segment_parts", lambda *args: (
        real(*args) if os.getpid() == parent else fault(real, *args)))


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("fault", [_kill_self, _raise, _exit_0_without_writing,
                                   _exit_3_after_writing],
                         ids=["killed", "raises", "exit-0-unwritten", "exit-3"])
def test_failed_worker_raises_and_leaves_no_process(fault, monkeypatch, forks):
    _stream(10**5, 1024)
    before = sieve._summaries
    forks.clear()
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 3)
    _in_children(fault, monkeypatch)
    with pytest.raises(RuntimeError, match=r"sieve worker (\d+ exited with|ended before segment)"):
        _pair_rows(3 * 10**5, lambda: None, segment_size=1024, allow_large=False)
    assert len(forks) == 2
    assert sieve._summaries is before
    _no_children_left()


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_parent_exception_kills_workers(error, monkeypatch, forks):
    # workers that would sleep for a minute: the parent must kill them, not wait
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 3)
    _in_children(_sleep, monkeypatch)

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


def _one_worker_mem(limit, segment_size):
    """A stream and the gap bound's work on one segment."""
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    m = -(-min(seg_slots, n_slots) // 8)
    return sieve._stream_mem(0, limit, segment_size) + (m.bit_length() + 2) * m


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("limit,segment_size,w", [(10**8, DEFAULT_SEGMENT_SIZE, 2),
                                                  (10**6, 1024, 3)])
def test_worker_share_peak_within_one_stream(limit, segment_size, w):
    # a forked worker's whole job, run in this process so tracemalloc sees it
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    n = -(-n_slots // seg_slots)
    parts = np.zeros((n, 5), dtype=np.int64)
    tracemalloc.start()
    try:
        sieve._write_parts(parts, range(1, n), w, n_slots, seg_slots,
                           sieve._stream_base(limit, min(seg_slots, n_slots)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _one_worker_mem(limit, segment_size)
    share = np.arange(1, n, w)
    rows = _pair_rows(limit, lambda: None, segment_size=segment_size, allow_large=False)[0]
    assert np.array_equal(parts[share, 1], rows[share, 1])
    assert np.array_equal(2 * (share * seg_slots + parts[share, 3]) + 1, rows[share, 3])


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("limit,size", [(10**6, 1024), (10**8, DEFAULT_SEGMENT_SIZE)])
def test_mem_cap_fits_fewer_workers(limit, size, monkeypatch, forks):
    # w workers need w streams and gap bound works, and the rows and a
    # slice's block and scan, 64 bytes per prime; a cap that fits fewer
    # gets fewer, and one that fits no stream is refused.  A slice outweighs three gap bound works at 1024,
    # and one but not two at the default size.
    _, n_slots, seg_slots = _plan(0, limit, size)
    n = -(-n_slots // seg_slots)
    stream = sieve._stream_mem(0, limit, size)
    blocks = 64 * (sieve._block_bound(min(seg_slots, sieve._SLICE_SLOTS)) + 1)

    def need(w):
        worker = _one_worker_mem(limit, size) - stream
        return w * stream + max(w * worker, blocks) + 64 * n

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


def test_prime_table_equality():
    t = sieve_range(0, 1000)
    assert t == sieve_range(0, 1000, 1024) and not t != sieve_range(0, 1000)
    # another range, even one with the same bitmap, is another table
    assert t != sieve_range(0, 1001) and t != sieve_range(1, 1000)
    assert sieve_range(1, 1000).bitmap.tobytes() == t.bitmap.tobytes()
    flipped = t.bitmap.copy()
    flipped[0] ^= np.uint64(1 << 5)
    assert t != sieve.PrimeTable(0, 1000, flipped)
    assert t != (0, 1000, t.bitmap.tobytes())
    with pytest.raises(TypeError):
        hash(t)
