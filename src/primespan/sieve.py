"""Segmented, bit-packed sieve of Eratosthenes and derived prime primitives.

Only odd numbers are stored: bit j of a table whose first odd slot is s
covers the integer 2*(s+j)+1, and the prime 2 is reconstructed from the
range bounds.  Segments are aligned to multiples of 8 odd slots so the
packed bitmap is byte-identical for every segment size.

A pre-sieve crosses off the odd multiples of the odd primes up to 113 on
packed 64-bit words, one repeating word pattern per group of primes, and
unpacks them into a flag byte per slot.  A stream up to hi then crosses
off the base primes from 127 up to c, at least the cube root of hi, by
strides.  Each base prime q above both crosses off only its products q*r
with primes r >= q: as q**3 > hi, a composite up to hi whose least prime
factor is q has one more prime factor, no more.  These are the products
of the P2 term in Meissel-Lehmer prime counting (Deleglise and Rivat,
"Computing pi(x): the Meissel, Lehmer, Lagarias, Miller, Odlyzko method",
Experimental Math. 5, 1996); see _Base and _segment_flags.  Rank queries
over a bitmap of the primes r give each q its first and last r, by the
rank function (_bit_rank) that PrimeTable.pi counts with too.

The pair stream's summary rows (see _pair_rows) are sieved by one forked
worker per usable CPU; everything else runs in the calling thread.
sieve_range, iter_prime_blocks and prime_count accept workers= and ignore
it, only while the benchmark in perfbench/ passes it.
"""

from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, TypeVar

import numpy as np

from .bounds import _nth_prime_bounds_array, _pi_upper_array
from .errors import CapacityError

MIN_SEGMENT_SIZE = 1024
DEFAULT_SEGMENT_SIZE = 1 << 21
DEFAULT_RANGE_LIMIT = 10**9
HARD_RANGE_LIMIT = 2**63 - 1
MEM_LIMIT_ENV = "PRIMESPAN_MEM_LIMIT"

_Item = TypeVar("_Item")

_ALL_ONES = np.uint64(2**64 - 1)
# The bits below bit b of a uint64 word, for each b < 64
_LOW_BITS = (np.uint64(1) << np.arange(64, dtype=np.uint64)) - np.uint64(1)


def _mem_limit() -> int | None:
    raw = os.environ.get(MEM_LIMIT_ENV)
    if raw is None:
        return None
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"{MEM_LIMIT_ENV} must be an integer byte count, got {raw!r}") from None
    if value <= 0:
        raise ValueError(f"{MEM_LIMIT_ENV} must be positive, got {value}")
    return value


def _check_mem(estimate: int) -> None:
    limit = _mem_limit()
    if limit is not None and estimate > limit:
        raise CapacityError(
            f"sieve needs about {estimate} bytes, above {MEM_LIMIT_ENV}={limit}")


def _validate_range(lo: int, hi: int, allow_large: bool) -> None:
    if lo < 0:
        raise ValueError(f"lo must be >= 0, got {lo}")
    if lo > hi:
        raise ValueError(f"lo must be <= hi, got lo={lo} hi={hi}")
    if hi > HARD_RANGE_LIMIT:
        raise CapacityError(f"ranges above 2**63 - 1 are rejected, got hi={hi}")
    if hi - lo > DEFAULT_RANGE_LIMIT and not allow_large:
        raise CapacityError(
            f"range width {hi - lo} exceeds the default limit {DEFAULT_RANGE_LIMIT}; "
            "set allow_large (CLI flag --allow-large) to override")


def _odd_prime_flags(limit: int) -> np.ndarray:
    """A flag per odd slot up to limit, slot i being 2*i+1, set iff 2*i+1 is prime."""
    flags = np.ones((limit + 1) // 2, dtype=bool)
    flags[:1] = False
    for i in range(1, math.isqrt(limit) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[(p * p) // 2 :: p] = False
    return flags


def _icbrt(n: int) -> int:
    """The integer cube root of n >= 0: the largest x with x**3 <= n."""
    x = round(n ** (1 / 3))
    while x**3 > n:
        x -= 1
    while (x + 1) ** 3 <= n:
        x += 1
    return x


def _band_start(hi: int, slots: int) -> int:
    """c of a stream up to hi in segments of at most slots odd slots (see _Base).

    c >= cbrt(hi) makes the band's products exact; c >= hi // (slots + 1)
    keeps rtab to the odd primes up to about slots, so it is never much
    larger than a segment's flags.
    """
    return max(_icbrt(hi), hi // (slots + 1))


class _Base(NamedTuple):
    """What a sieve stream up to hi keeps for every segment.

    odd are the odd primes up to isqrt(hi).  Those up to c are crossed off
    by strides; each one above c, a band prime q, by its products q*r with
    the primes r of rtab, the odd primes up to hi // (c + 1).  odd is a
    prefix of rtab, and all of it where c >= isqrt(hi) leaves no band.
    Where there is a band, rwords is a bitmap of rtab's odd slots and rrank
    its rank index (see _bit_rank); otherwise they are empty.
    """

    odd: np.ndarray
    c: int
    rtab: np.ndarray
    rwords: np.ndarray = np.zeros(0, dtype="<u8")
    rrank: np.ndarray = np.zeros(0, dtype=np.int64)


def _stream_base(hi: int, slots: int) -> _Base:
    """The _Base of a stream up to hi in segments of at most slots odd slots."""
    root, c = math.isqrt(hi), _band_start(hi, slots)
    flags = _odd_prime_flags(max(root, hi // (c + 1)))
    rtab = np.flatnonzero(flags)
    rtab <<= 1
    rtab += 1
    odd = rtab[: np.searchsorted(rtab, root, side="right")]
    if c >= root:
        return _Base(odd, c, rtab)
    words = np.zeros((flags.size >> 6) + 1, dtype="<u8")
    words.view(np.uint8)[: -(-flags.size // 8)] = np.packbits(flags, bitorder="little")
    del flags
    return _Base(odd, c, rtab, words, _rank_index(words))


def _rank_index(words: np.ndarray) -> np.ndarray:
    """The set bits before each uint64 word of a bitmap, as int64."""
    rank = np.zeros(words.size, dtype=np.int64)
    np.cumsum(np.bitwise_count(words[:-1]), out=rank[1:])
    return rank


def _bit_rank(words: np.ndarray, rank: np.ndarray, m: np.ndarray) -> np.ndarray:
    """The set bits of a bitmap below bit m, for each int64 m >= 0.

    words is the bitmap as little-endian uint64 words, bit b of word w
    being bit 64w + b, with one word past its last bit, and rank is
    _rank_index(words).  A query (Jacobson 1989; Vigna, "Broadword
    implementation of rank/select queries", 2008) is the set bits before
    m's word plus those of that word below m, so m may be the bitmap's
    length, and no more: m >> 6 must stay within words.
    """
    w = m >> 6
    below = words.take(w)
    below &= _LOW_BITS.take(m & 63)
    return rank.take(w) + np.bitwise_count(below)


# The pre-sieve crosses off the odd multiples of the odd primes up to 113, the
# primes included, with one word pattern per group of primes.  A group of
# primes whose product is L crosses off the same slots in slot i as in slot
# i + 64L, so its pattern is L uint64 words, bit b of word w being slot
# 64w + b, and words w0 % L on, repeated, pre-sieve the run of words from
# word w0.  The first group is the tile, whose survivors _block_bound counts.
_TILE_PRIMES = (3, 5, 7, 11, 13)
_TILE_PERIOD = math.prod(_TILE_PRIMES)
# the slots of a tile period that no tile prime divides, by the Chinese remainder theorem
_TILE_SURVIVORS = math.prod(p - 1 for p in _TILE_PRIMES)
_PRE_GROUPS = (_TILE_PRIMES, (17, 19), (23, 29), (31, 37), (41, 43), (47, 53), (59, 61),
               (67, 71), (73, 79), (83, 89), (97, 101), (103, 107), (109, 113))


def _word_pattern(primes: tuple[int, ...]) -> np.ndarray:
    """The pre-sieve pattern of a group of odd primes: prod(primes) uint64 words."""
    bits = np.ones(64 * math.prod(primes), dtype=bool)
    for p in primes:
        bits[p >> 1 :: p] = False
    return np.packbits(bits, bitorder="little").view(np.uint64)


_PRE_PATTERNS = tuple(_word_pattern(g) for g in _PRE_GROUPS)
_PRE_PRIMES = sum(_PRE_GROUPS, ())
# Slots 0 .. 56 are 1, 3, .., 113: the odd primes up to 113 are the pre-sieve
# primes, which the patterns cross off, and 1 is no prime
_PRE_HEAD = np.isin(np.arange(1, max(_PRE_PRIMES) + 1, 2), _PRE_PRIMES)

# Most products q*r that one pass of _cross_band builds.  At 2^16 glibc
# handed the freed temporaries back to the system every segment: a stream
# to 1e9 took 75 times the page faults and 0.2 s of system time.
_BAND_CHUNK = 1 << 15


def _and_repeated(words: np.ndarray, pattern: np.ndarray, a: int) -> None:
    """AND words with pattern's words from a on, then whole copies of pattern, in place."""
    head = min(words.size, pattern.size - a)
    words[:head] &= pattern[a : a + head]
    if head < words.size:
        rest = words[head:]
        whole = rest.size - rest.size % pattern.size
        rest[:whole].reshape(-1, pattern.size)[...] &= pattern
        rest[whole:] &= pattern[: rest.size - whole]


def _segment_flags(i_start: int, i_stop: int, base: _Base) -> np.ndarray:
    """Primality flags for global odd slots [i_start, i_stop); slot i is 2*i+1.

    The pre-sieve ANDs its word patterns into the words from slot
    64 (i_start // 64) to the last one that i_stop reaches, and unpacks
    them into one flag byte per slot; slots 0 .. 56 then get back the
    primes up to 113.  Each base prime p from 127 to c crosses off its odd
    multiples from p*p by a strided write.  Each base prime q above c and
    113 with q*q in reach crosses off only its products q*r with primes
    r >= q (see _cross_band).  That is exact because q > c >= cbrt(hi): an odd
    composite n <= hi whose least prime factor is q has n/q < q*q, so n/q
    is a prime r >= q.  These are the products that the P2 term of
    Meissel-Lehmer counting enumerates (Deleglise and Rivat, Experimental
    Math. 5, 1996).  A stream at 1e9 in default segments has c = 1000:
    138 strided writes and about 68k products per segment, where crossing
    off every multiple from 17 on would take 3,395 strided writes.  Only
    the strided primes whose first multiple lies in the segment are looped
    over, so a narrow window far from 0 loops over few of its base primes.
    The flags are a view into the unpacked words.
    """
    size = i_stop - i_start
    if size <= 0:
        return np.ones(0, dtype=bool)
    w0 = i_start >> 6
    words = np.full(((i_stop + 63) >> 6) - w0, _ALL_ONES)
    for pattern in _PRE_PATTERNS:
        _and_repeated(words, pattern, w0 % pattern.size)
    skip = i_start & 63
    buf = np.unpackbits(words.view(np.uint8), bitorder="little").view(bool)[skip : skip + size]
    del words
    if i_start < _PRE_HEAD.size:
        n = min(size, _PRE_HEAD.size - i_start)
        buf[:n] = _PRE_HEAD[i_start : i_start + n]
    lo_num = 2 * i_start + 1
    hi_num = 2 * i_stop - 1
    odd = base.odd
    n_app = int(np.searchsorted(odd, math.isqrt(hi_num), side="right"))
    n_c = min(int(np.searchsorted(odd, base.c, side="right")), n_app)
    # the pre-sieve has crossed off every odd multiple of a band prime up to 113
    n_band = max(n_c, len(_PRE_PRIMES))
    if n_app > n_band:
        _cross_band(buf, i_start, hi_num, odd[n_band:n_app], base)
    p = odd[len(_PRE_PRIMES) : n_c]
    # First odd multiple of p at or above max(p*p, lo_num), as an offset
    # from lo_num.  Offsets stay below the segment span plus 2p, so the
    # arithmetic cannot overflow int64 even at the top of the range.
    off = (p - lo_num % p) % p
    off = np.where(p * p > lo_num, p * p - lo_num, off)
    off = off + np.where(off & 1, p, 0)
    hit = off < 2 * size
    for j, q in zip((off[hit] >> 1).tolist(), p[hit].tolist()):
        buf[j::q] = False
    return buf


def _cross_band(buf: np.ndarray, i_start: int, hi_num: int, q: np.ndarray,
                base: _Base) -> None:
    """Cross off q*r in buf, whose slot 0 is i_start, for each band prime q.

    r runs over the primes of base.rtab with max(q, ceil(lo/q)) <= r <=
    hi_num/q, lo being the odd number in slot i_start; r = q crosses off
    q*q.  Both bounds are rank queries over rtab's bitmap (see
    _bit_rank): the primes below the first, and those up to the second.
    As q > c, neither bound is above hi // (c + 1) + 1, so neither query
    passes the odd slots up to rtab's limit.  The products are numbered
    t = 0, 1, .. in order of q, then r, so q's run from ends[i] - counts[i]
    up to ends[i], and t's r is rtab[t + shift[i]].  They are built and
    scattered at most _BAND_CHUNK at a time.
    """
    lo_num = 2 * i_start + 1
    rtab = base.rtab
    shift = _bit_rank(base.rwords, base.rrank, np.maximum(q, -(-lo_num // q)) >> 1)
    counts = _bit_rank(base.rwords, base.rrank, (hi_num // q + 1) >> 1)
    counts -= shift
    np.maximum(counts, 0, out=counts)
    ends = np.cumsum(counts)
    shift -= ends
    shift += counts
    total = int(ends[-1])
    for t0 in range(0, total, _BAND_CHUNK):
        t1 = min(t0 + _BAND_CHUNK, total)
        g = slice(int(np.searchsorted(ends, t0, side="right")),
                  int(np.searchsorted(ends, t1 - 1, side="right")) + 1)
        # how many of each q's products fall in [t0, t1)
        n = np.minimum(ends[g], t1) - np.maximum(ends[g] - counts[g], t0)
        r = np.repeat(shift[g], n)
        r += np.arange(t0, t1)
        r = rtab[r]
        r *= np.repeat(q[g], n)
        r >>= 1
        r -= i_start
        buf[r] = False


def _plan(lo: int, hi: int, segment_size: int) -> tuple[int, int, int]:
    """First slot, slot count, and slots per byte-aligned segment for [lo, hi]."""
    i0 = (lo | 1) >> 1
    last_odd = hi if hi & 1 else hi - 1
    n_slots = max(0, (last_odd >> 1) - i0 + 1)  # no odd number in [lo, hi] gives <= 0
    return i0, n_slots, max(8, ((segment_size // 2) // 8) * 8)


def _segment_count(lo: int, hi: int, segment_size: int) -> int:
    """Number of segments the sieve splits [lo, hi] into, without building them."""
    _, n_slots, seg_slots = _plan(lo, hi, segment_size)
    return -(-n_slots // seg_slots)


# Bytes a sieve stream holds per base prime: the int64 prime that _stream_base
# keeps, and what _segment_flags works through for each: int64 offsets, a bool
# mask and two lists of Python ints (a pointer and a 28-byte int each) for a
# strided prime, which is more than three int64 for a band prime
_BASE_PRIME_BYTES = 8 + 3 * 8 + 1 + 2 * (8 + 28)

# Bytes per product that a pass of _cross_band holds: the int64 indices
# and, while the next array is made from them, that array
_BAND_PRODUCT_BYTES = 2 * 8


def _pi_bound(x: int) -> int:
    """An upper bound on pi(x), the primes up to x (see bounds._pi_upper_array)."""
    return int(_pi_upper_array(x)) + 1 if x > 1 else 0


def _bitmap_mem(slots: int) -> int:
    """Bytes of a bitmap of slots bits in uint64 words, one past its last bit, and its rank index."""
    return 16 * ((slots >> 6) + 1)


def _stream_mem(lo: int, hi: int, segment_size: int) -> int:
    """Bytes a stream of segment flags over [lo, hi] holds at its peak.

    A consumer's loop variable keeps one segment while the next is
    sieved: the pre-sieve's words of the next one, and the two segments'
    flags, a byte per slot of every word they span.  Add the base primes
    and _segment_flags' work on each of them and, where the band is not
    empty, rtab, the bitmap of its odd slots with their rank index (see
    _bitmap_mem) and one pass of products.  A segment of s slots holds at
    most s products q*r, since each is a distinct odd number in it.
    """
    _, n_slots, seg_slots = _plan(lo, hi, segment_size)
    slots = min(seg_slots, n_slots)
    root, c = math.isqrt(hi), _band_start(hi, slots)
    words = (slots + 126) >> 6  # the most words that a segment of slots spans
    band = 0
    if c < root:
        limit = hi // (c + 1)
        band = (8 * _pi_bound(limit) + _bitmap_mem((limit + 1) >> 1)
                + _BAND_PRODUCT_BYTES * min(_BAND_CHUNK, slots))
    return (2 * 64 + 8) * words + _BASE_PRIME_BYTES * _pi_bound(root) + band


def _check_sieve(lo: int, hi: int, *, segment_size: int, allow_large: bool,
                 extra_mem: int = 0) -> None:
    """Refuse a sieve of [lo, hi] before anything sized by the range is allocated.

    Checks the range, the segment size and the memory budget: the stream
    (see _stream_mem) and extra_mem, the caller's own arrays.
    """
    _validate_range(lo, hi, allow_large)
    if segment_size < MIN_SEGMENT_SIZE:
        raise ValueError(f"segment_size must be >= {MIN_SEGMENT_SIZE}, got {segment_size}")
    if _plan(lo, hi, segment_size)[1]:
        _check_mem(_stream_mem(lo, hi, segment_size) + extra_mem)


def _iter_flag_chunks(lo: int, hi: int, *, segment_size: int, allow_large: bool,
                      extra_mem: int = 0) -> Iterator[tuple[int, np.ndarray]]:
    """Iterate (global slot of buf[0], flags) covering the odd slots of [lo, hi] in order.

    The range, the segment size and the memory budget are checked when this
    is called, before the caller allocates anything sized by the range.
    """
    _check_sieve(lo, hi, segment_size=segment_size, allow_large=allow_large,
                 extra_mem=extra_mem)
    i0, n_slots, seg_slots = _plan(lo, hi, segment_size)
    if not n_slots:
        return iter(())
    base, end = _stream_base(hi, min(seg_slots, n_slots)), i0 + n_slots
    return ((a, _segment_flags(a, min(a + seg_slots, end), base))
            for a in range(i0, end, seg_slots))


@dataclass(frozen=True, eq=False)
class PrimeTable:
    """Bit-packed primality flags over [base, hi], odd numbers only, and their rank index.

    bitmap is little-endian uint64 words, as a stream keeps its band
    primes: bit b of word w is set iff the odd number 2*(s+64w+b)+1 is
    prime, where s is the first odd slot at or above base, and a word past
    the last slot ends it.  The rank index that pi reads, the set bits
    before each word, is built with the table (see _bit_rank).  Tables
    with equal ranges and bitmaps are equal; a mutable bitmap is unhashable.
    """

    base: int
    hi: int
    bitmap: np.ndarray
    _rank: np.ndarray = field(init=False, repr=False)

    __hash__ = None

    def __post_init__(self) -> None:
        if not 0 <= self.base <= self.hi:
            raise ValueError(f"need 0 <= base <= hi, got base={self.base} hi={self.hi}")
        object.__setattr__(self, "_rank", _rank_index(self.bitmap))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PrimeTable):
            return NotImplemented
        return ((self.base, self.hi) == (other.base, other.hi)
                and np.array_equal(self.bitmap, other.bitmap))

    @property
    def _first_slot(self) -> int:
        return (self.base | 1) >> 1

    def is_prime(self, x: int) -> bool:
        if x < self.base or x > self.hi:
            raise ValueError(f"{x} is outside the table range [{self.base}, {self.hi}]")
        if x == 2:
            return True
        if x < 2 or x % 2 == 0:
            return False
        j = (x >> 1) - self._first_slot
        return bool((int(self.bitmap[j >> 6]) >> (j & 63)) & 1)

    def primes(self) -> np.ndarray:
        """All primes in [base, hi] as a sorted int64 array."""
        bits = np.unpackbits(self.bitmap.view(np.uint8), count=_plan(self.base, self.hi, 0)[1],
                             bitorder="little")
        odd = (np.flatnonzero(bits).astype(np.int64) + self._first_slot) * 2 + 1
        if self.base <= 2 <= self.hi:
            return np.concatenate((np.array([2], dtype=np.int64), odd))
        return odd

    def count(self) -> int:
        """Number of primes in [base, hi]."""
        two = 1 if self.base <= 2 <= self.hi else 0
        return int(np.bitwise_count(self.bitmap).sum()) + two

    def pi(self, x) -> np.ndarray:
        """Number of primes in [base, min(x, hi)] for each int64 x, as int64.

        Equal to np.searchsorted(self.primes(), x, side="right") for every
        x, negative or beyond hi included, without building the prime
        array: a rank query over the bitmap (see _bit_rank).
        """
        x = np.clip(np.asarray(x, dtype=np.int64), -1, self.hi)
        # odd numbers in [base, x]: those up to x, less the slots below base
        m = np.maximum(((x - 1) >> 1) + (1 - self._first_slot), 0)
        counts = _bit_rank(self.bitmap, self._rank, m)
        if self.base <= 2 <= self.hi:
            counts += x >= 2
        return counts


@dataclass(frozen=True)
class Interval:
    """Integer interval with an explicit open or closed mode per endpoint."""

    lo: int
    hi: int
    lo_open: bool = False
    hi_open: bool = False

    def __post_init__(self) -> None:
        if self.lo < 0 or self.lo > self.hi:
            raise ValueError(f"need 0 <= lo <= hi, got lo={self.lo} hi={self.hi}")

    def closed_bounds(self) -> tuple[int, int]:
        """Equivalent closed integer endpoints; the interval is empty iff lo' > hi'."""
        return self.lo + (1 if self.lo_open else 0), self.hi - (1 if self.hi_open else 0)

    def is_empty(self) -> bool:
        a, b = self.closed_bounds()
        return a > b


@dataclass(frozen=True)
class GapRecord:
    """Consecutive prime pair: 1-based index n, p_n, p_next, and g_n = p_next - p_n."""

    n: int
    p_n: int
    p_next: int
    g_n: int

    def __post_init__(self) -> None:
        if self.g_n != self.p_next - self.p_n:
            raise ValueError("g_n must equal p_next - p_n")


def sieve_range(lo: int, hi: int, segment_size: int = DEFAULT_SEGMENT_SIZE, *,
                workers: int = 1, allow_large: bool = False) -> PrimeTable:
    """Sieve [lo, hi] into a queryable PrimeTable.

    The result is byte-identical for every valid segment_size.  Raises
    CapacityError when the range is wider than the default limit
    (without allow_large) or the memory budget is exceeded.
    """
    i0, n_slots, _ = _plan(lo, hi, segment_size)
    # the budget covers the rank index that PrimeTable builds at the end
    chunks = _iter_flag_chunks(lo, hi, segment_size=segment_size, allow_large=allow_large,
                               extra_mem=_bitmap_mem(n_slots))
    bitmap = np.zeros((n_slots >> 6) + 1, dtype="<u8")
    for slot_start, buf in chunks:
        a = (slot_start - i0) >> 3
        packed = np.packbits(buf, bitorder="little")
        bitmap.view(np.uint8)[a : a + packed.size] = packed
    return PrimeTable(base=int(lo), hi=int(hi), bitmap=bitmap)


def _block_bound(slots: int) -> int:
    """An upper bound on the primes among any `slots` consecutive odd slots.

    Each whole period of the pre-sieve tile holds _TILE_SURVIVORS slots
    that the tile leaves set, and a partial one of r slots at most
    min(r, _TILE_SURVIVORS); the only other primes are the tile's own.
    No window holds more primes than slots.
    """
    whole, part = divmod(slots, _TILE_PERIOD)
    return min(slots, whole * _TILE_SURVIVORS + min(part, _TILE_SURVIVORS) + len(_TILE_PRIMES))


def iter_prime_blocks(lo: int, hi: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                      workers: int = 1, allow_large: bool = False) -> Iterator[np.ndarray]:
    """Stream non-empty sorted int64 prime arrays covering [lo, hi] in order.

    The memory cap counts two blocks of a segment's most primes: the one
    the caller holds and the next one.
    """
    pending_two = lo <= 2 <= hi
    _, n_slots, seg_slots = _plan(lo, hi, segment_size)
    block = 8 * _block_bound(min(seg_slots, n_slots))
    for slot_start, buf in _iter_flag_chunks(lo, hi, segment_size=segment_size,
                                             allow_large=allow_large, extra_mem=2 * block):
        vals = np.flatnonzero(buf)
        vals += slot_start
        vals *= 2
        vals += 1
        if pending_two:
            vals = np.concatenate((np.array([2], dtype=np.int64), vals))
            pending_two = False
        if vals.size:
            yield vals
        del buf, vals  # so only the caller holds a block while the next is sieved
    if pending_two:
        yield np.array([2], dtype=np.int64)


def _longest_true_run(z: np.ndarray) -> tuple[int, np.ndarray]:
    """Length L of the longest run of True in the bool array z, and where they start.

    The second array has a True at i iff z[i : i + L] is all True, so at
    the start of each run of length L; it is empty when L is 0.  runs[j][i]
    says that z[i : i + 2**j] is all True; doubling finds the largest such
    power, then a descent adds the smaller powers that fit.
    """
    if not z.any():
        return 0, z[:0]
    runs = [z]
    while runs[-1].size > (k := 1 << (len(runs) - 1)):
        longer = runs[-1][:-k] & runs[-1][k:]
        if not longer.any():
            break
        runs.append(longer)
    length, cur = 1 << (len(runs) - 1), runs[-1]
    for j in range(len(runs) - 2, -1, -1):
        k = 1 << j
        if cur.size > k:
            longer = cur[:-k] & runs[j][length:]
            if longer.any():
                length, cur = length + k, longer
    return length, cur


# The first and the last set bit of each byte, most significant bit first
# as np.packbits lays out odd slots; a zero byte has neither and gets 8
_FIRST_BIT = np.array([8 - b.bit_length() for b in range(256)], dtype=np.int8)
_LAST_BIT = np.array([8 - (b & -b).bit_length() for b in range(256)], dtype=np.int8)


def _slot_gap_bound(packed: np.ndarray) -> int:
    """A bound on the distance between consecutive set bits of packed, in bits.

    packed's first and last bytes are nonzero.  With Z the longest run of
    zero bytes, two consecutive set bits are in one byte, at most 7 apart,
    or on both sides of a run of r <= Z zero bytes, 8(r + 1) + 7 apart at
    most.  The distance across each run of Z bytes is read exactly from
    the last set bit of the byte before it and the first set bit of the
    byte after it, so the bound is max(those, 8Z + 7).  It is exact when
    the largest distance crosses a run of Z bytes and is at least 8Z + 7,
    and at most 6 above it otherwise, as a run of Z bytes spans at least
    8Z + 1.  Where Z <= 1 the runs are not gathered, and the bound is
    8Z + 15, at most 23.
    """
    z, at = _longest_true_run(packed == 0)
    if z <= 1:
        return 8 * z + 15
    starts = np.flatnonzero(at)
    before = packed[starts - 1]
    starts += z
    across = _FIRST_BIT[packed[starts]] - _LAST_BIT[before]
    return max(8 * (z + 1) + int(across.max()), 8 * z + 7)


def _last_true(flags: np.ndarray) -> int:
    """Index of the last True in flags, which holds one, searched from its tail."""
    k = 64
    while not (tail := np.flatnonzero(flags[-k:])).size:
        k *= 8
    return max(flags.size - k, 0) + int(tail[-1])


def _pair_block(carry: int, slot_start: int, flags: np.ndarray) -> np.ndarray:
    """carry followed by the primes whose odd slots, from slot_start, are set in flags.

    Built in place from the positions of a leading True and of flags, so
    that it allocates the block and a copy of flags, nothing else.
    """
    pv = np.flatnonzero(np.concatenate(([True], flags)))
    body = pv[1:]
    body += slot_start - 1
    body *= 2
    body += 1
    pv[0] = carry
    return pv


def _stitch(n0: int, carry: int, segments: Iterable[tuple[int, int, int, _Item]]
            ) -> Iterator[tuple[int, int, int, int, _Item]]:
    """Yield (n0, pairs, carry, p_hi, item) for each (slot_start, pairs, last, item).

    This is the one place that stitches sieve segments into consecutive
    prime pairs.  segments gives, in order, each segment's first odd slot,
    its number of primes and the offset of its last one.  A segment's pairs
    start at carry, the last prime before it, so each pair belongs to the
    segment holding its q: they are p_n0 .. p_(n0 + pairs), and p_hi, the
    segment's last prime, is carried to the next.  A segment without a
    prime has no pairs and p_hi = carry.  n0 and carry are those of the
    first segment.
    """
    for slot_start, pairs, last, item in segments:
        p_hi = 2 * (slot_start + last) + 1 if pairs else carry
        yield n0, pairs, carry, p_hi, item
        n0, carry = n0 + pairs, p_hi


def _count_last(flags: np.ndarray) -> tuple[int, int]:
    """The number of set flags and the index of the last one, 0 if there is none."""
    pairs = int(np.count_nonzero(flags))
    return pairs, _last_true(flags) if pairs else 0


def _pair_blocks(n0: int, carry: int, chunks: Iterable) -> Iterator[tuple[int, np.ndarray]]:
    """Yield (n0, pv) of each (slot_start, flags) of chunks that holds a prime (see _stitch)."""
    segments = ((a, *_count_last(flags), (a, flags)) for a, flags in chunks)
    for n0, pairs, carry, _, (slot_start, flags) in _stitch(n0, carry, segments):
        if pairs:
            yield n0, _pair_block(carry, slot_start, flags)


# The rows of the last pair stream that ran to its end (see _pair_rows), with
# its limit and segment length: ((limit, seg_slots), rows).  A segment without
# a prime has pairs = 0 and p_lo = p_hi = the carried prime.
_NO_SUMMARIES: tuple[tuple[int, int], np.ndarray] = ((0, 0), np.empty((0, 5), dtype=np.int64))
_summaries = _NO_SUMMARIES
_SUMMARY_ROW_BYTES = 40

# Bytes per segment of _pair_rows' output and of what a caller derives from
# it: the int64 row, and three arrays of one float64 or int64 per segment
# (slack floors, guards and the order of the floors)
_ROW_WORK_BYTES = _SUMMARY_ROW_BYTES + 3 * 8

# Odd slots of a slice: the run of a pair segment's flags made into one block
_SLICE_SLOTS = 1 << 17
# Bytes per prime of a slice's block and of the arrays a caller's scan derives
# from it: eight int64 or float64 (Firoozbakht's scan holds seven at once), more
# than two blocks and a slice's bool copy, as a block bound is >= 3/8 of its slots
_SLICE_PRIME_BYTES = 8 * 8


def _usable_cpus() -> int:
    """CPUs this process may run on, as taskset(1) or a cgroup's cpuset leaves them."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _segment_parts(ks: range, n_slots: int, seg_slots: int,
                   base: _Base) -> Iterator[tuple[int, int, int, int]]:
    """Yield (pairs, first, last, part) of each pair segment k in ks.

    pairs is the number of primes in the segment, first and last are the
    offsets of its first and last ones, and part bounds the odd slots
    between any two consecutive primes of the segment: _slot_gap_bound of
    its flags packed from first to last, so at most 6 slots above the
    largest such distance, or at most 23 slots.  A segment without a
    prime gives zeros.  _pair_rows stitches its rows from these alone.
    """
    for k in ks:
        a = k * seg_slots
        flags = _segment_flags(a, min(a + seg_slots, n_slots), base)
        pairs, last = _count_last(flags)
        if not pairs:
            yield 0, 0, 0, 0
            continue
        first = int(np.argmax(flags))
        yield pairs, first, last, _slot_gap_bound(np.packbits(flags[first : last + 1]))


def _write_parts(rows: np.ndarray, ks: range, w: int, n_slots: int, seg_slots: int,
                 base: _Base, tick: Callable[[], None] = lambda: None) -> None:
    """Write rows[k, 1:], the parts of each segment k of ks[::w] (see _segment_parts).

    tick is called once per segment of ks, a round of w at a time.
    """
    share = ks[::w]
    for k, part in zip(share, _segment_parts(share, n_slots, seg_slots, base), strict=True):
        rows[k, 1:] = part
        for _ in range(min(w, ks.stop - k)):
            tick()


def _fork_parts(rows: np.ndarray, ks: range, w: int, tick: Callable[[], None],
                n_slots: int, seg_slots: int, base: _Base) -> None:
    """Fill rows[k, 1:] with the parts of each segment k in ks, using w processes.

    rows must be in shared memory.  This process and w - 1 forked
    children each write every w-th segment's parts into it through
    _write_parts, and tick is called as this process writes.  A child
    ends in os._exit, and this process waits for every child, so their
    CPU time counts as its children's.  pairs is set to -1 in the rows of
    ks before the fork: a row still at -1 once every child is reaped was
    never written, and raises as a failed child does.  Any exception here
    raises only after every child is killed and reaped.
    """
    rows[ks.start : ks.stop, 1] = -1
    children: list[int] = []
    try:
        for j in range(1, w):
            pid = os.fork()
            if pid == 0:  # the child
                code = 1
                try:
                    _write_parts(rows, ks[j:], w, n_slots, seg_slots, base)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        _write_parts(rows, ks, w, n_slots, seg_slots, base, tick)
        while children:
            code = os.waitstatus_to_exitcode(os.waitpid(children[0], 0)[1])
            pid = children.pop(0)
            if code:
                raise RuntimeError(f"sieve worker {pid} exited with {code}")
    finally:
        for pid in children:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)
    missed = np.flatnonzero(rows[ks.start : ks.stop, 1] < 0)
    if missed.size:
        raise RuntimeError(f"sieve worker ended before segment {ks.start + int(missed[0])}")


def _pair_rows(limit: int, tick: Callable[[], None], *, segment_size: int,
               allow_large: bool) -> tuple[np.ndarray, Callable[[int], Iterator]]:
    """Summarize the consecutive prime pairs with p_next <= limit, one sieve segment at a time.

    Returns rows, an int64 array of one row (n0, pairs, p_lo, p_hi,
    gap_bound) per sieve segment from slot 0, the last one cut at limit,
    and slices(k), which sieves segment k again and yields an (n0, pv)
    block per run of _SLICE_SLOTS of its flags that holds a prime,
    stitched as iter_prime_pairs' blocks are, so that joined they are its
    block for segment k.  tick is called once per segment.

    gap_bound is max(c, 2 part): c is the exact gap of the pair that
    crosses into the segment, and part bounds the odd slots between any
    two consecutive primes inside it (see _segment_parts), each slot being
    2 apart.  So gap_bound is at least every gap of the segment's pairs,
    and at most max(largest gap + 12, 46); it is exact when the largest
    gap crosses the segment's longest run of Z zero bytes and is at least
    16Z + 14.

    A call at the limit and segment length of the summary table, the rows
    of the last stream that ran to its end, takes its rows from it and
    sieves no segment but those that slices(k) builds.  Any other call
    sieves every segment, by one worker per usable CPU (see _fork_parts),
    or in this process alone where it cannot fork safely: without
    os.fork, or with a second thread running.  rows then lives in an
    anonymous shared mapping, into which each worker writes four numbers
    per segment, and one pass in segment order stitches them into rows,
    so the rows do not depend on the number of workers.  They replace the
    table once the stream has run to its end.

    The memory budget is checked before anything sized by the range is
    allocated: a stream and the gap bound's work per worker, the table
    while a stream at another limit or segment length runs, the rows and
    the arrays a caller derives from them, and what follows the stream: a
    segment's flags and a slice's block with what a scan derives from it
    (see _SLICE_PRIME_BYTES).  A budget that fits fewer workers gets
    fewer; one that fits no stream is refused.
    """
    global _summaries
    key, stored = _summaries
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    n_segments = -(-n_slots // seg_slots)
    warm = key == (limit, seg_slots)
    # the gap bound's work on a segment of m packed bytes: its zero mask, at
    # most bit_length(m) - 1 doubling levels and the descent's two arrays,
    # each of at most m bytes.  The gather across the longest runs comes
    # after the levels are freed: the runs are Z >= 2 bytes and apart, so
    # at most m/3 of them, with an int64 start, an int64 index and three
    # bytes each; with the descent's last array, m + 19m/3 bytes, below
    # (bit_length(m) + 2) m for m >= 32
    slots = min(seg_slots, n_slots)
    m = -(-slots // 8)
    work = (m.bit_length() + 2) * m
    blocks = _SLICE_PRIME_BYTES * (_block_bound(min(_SLICE_SLOTS, slots)) + 1)
    stream = _stream_mem(0, limit, segment_size)
    held = 0 if warm else _SUMMARY_ROW_BYTES * len(stored)

    def extra_mem(w: int) -> int:  # what w workers need beyond one stream
        return ((w - 1) * stream + max(w * work, blocks) + held
                + _ROW_WORK_BYTES * n_segments)

    _check_sieve(0, limit, segment_size=segment_size, allow_large=allow_large,
                 extra_mem=extra_mem(1))
    base = _stream_base(limit, slots)
    if warm:
        rows = stored
        for _ in range(n_segments):
            tick()
    else:
        cap = _mem_limit()
        # fork only where it is safe: with os.fork and no second thread running
        safe = hasattr(os, "fork") and threading.active_count() == 1
        w = max(min(_usable_cpus(), n_segments), 1) if safe else 1
        while w > 1 and cap is not None and stream + extra_mem(w) > cap:
            w -= 1
        # shared with the forked workers; mmap refuses a length of 0
        shared = mmap.mmap(-1, max(_SUMMARY_ROW_BYTES * n_segments, 1))
        rows = np.frombuffer(shared, dtype=np.int64, count=5 * n_segments).reshape(-1, 5)
        _fork_parts(rows, range(n_segments), w, tick, n_slots, seg_slots, base)
        # rows[k, 1:] holds segment k's parts until the stitch makes them its row
        parts = ((k * seg_slots, pairs, last, (k, first, part)) for k, (pairs, first, last, part)
                 in enumerate(map(np.ndarray.tolist, rows[:, 1:])))
        for n0, pairs, p_lo, p_hi, (k, first, part) in _stitch(1, 2, parts):
            gap = max(2 * (k * seg_slots + first) + 1 - p_lo, 2 * part) if pairs else 0
            rows[k] = n0, pairs, p_lo, p_hi, gap
        _summaries = ((limit, seg_slots), rows)

    def slices(k: int) -> Iterator[tuple[int, np.ndarray]]:
        a = k * seg_slots
        flags = _segment_flags(a, min(a + seg_slots, n_slots), base)
        runs = ((a + i, flags[i : i + _SLICE_SLOTS]) for i in range(0, flags.size, _SLICE_SLOTS))
        yield from _pair_blocks(int(rows[k, 0]), int(rows[k, 2]), runs)

    return rows, slices


def _best_first(floors: np.ndarray, build: Callable[[int], float],
                first: Iterable[int] = ()) -> None:
    """Build the pair segments that can hold the least value, best first.

    floors[k] is at most every value that build(k), which builds segment
    k, can find in it, and build(k) returns the least it found.  The
    segments in first are built, then the rest in ascending floor order
    while the floor is at most the least value found: a segment left out
    has a floor above that, so every value in it is larger.
    """
    built = dict.fromkeys(first)
    least = min(map(build, built), default=math.inf)
    for k in np.argsort(floors).tolist():
        if floors[k] > least:
            break
        if k not in built:
            built[k] = None
            least = min(least, build(k))


def iter_prime_pairs(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                     allow_large: bool = False) -> Iterator[tuple[int, np.ndarray]]:
    """Stream the consecutive prime pairs with p_next <= limit, one block per segment.

    Yields (n0, pv) where pv[i] and pv[i + 1] are p_{n0+i} and p_{n0+i+1};
    each block starts with the previous block's last prime, so every pair
    appears exactly once and pv holds at least one pair.  The memory cap
    counts two blocks of a segment's most primes: the one the caller holds
    and the next one.
    """
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    yield from _pair_blocks(1, 2, _iter_flag_chunks(
        0, limit, segment_size=segment_size, allow_large=allow_large,
        extra_mem=2 * 8 * _block_bound(min(seg_slots, n_slots))))


def _prime_bound(n: int) -> int:
    """An integer above p_n, the n-th prime: p_n < n ln(n ln n) from n = 6 (see bounds)."""
    return int(_nth_prime_bounds_array(np.array([n]))[1][0]) + 2 if n >= 6 else 12


def prime_count(x: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                workers: int = 1, allow_large: bool = False) -> int:
    """pi(x): the number of primes <= x."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return count_primes_in(Interval(0, x), segment_size=segment_size,
                           allow_large=allow_large)


def _flags_to_nth_prime(n: int, *, segment_size: int, allow_large: bool,
                        extra_mem: int = 0) -> Iterator[tuple[int, np.ndarray, int]]:
    """Yield (slot_start, flags, take) of each segment from slot 0 up to the n-th prime.

    take is how many of the primes set in flags are among p_2 .. p_n, so
    the last segment yielded holds p_n at its take-th set flag.  The range,
    the segment size and the memory budget are checked when this is called.
    """
    bound = _prime_bound(n)
    chunks = _iter_flag_chunks(0, bound, segment_size=segment_size, allow_large=allow_large,
                               extra_mem=extra_mem)

    def segments(left: int) -> Iterator[tuple[int, np.ndarray, int]]:
        for slot_start, flags in chunks:
            c = int(np.count_nonzero(flags))
            yield slot_start, flags, min(c, left)
            if c >= left:
                return
            left -= c
            del flags  # freed before the next segment is sieved, not after
        raise RuntimeError(f"prime bound {bound} too small for n={n}")

    return segments(n - 1)


def nth_prime(n: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
              allow_large: bool = False) -> int:
    """The n-th prime, 1-based with p_1 = 2.

    Segments are only counted up to the one that holds p_n (see
    _flags_to_nth_prime); that one alone is searched.
    """
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 2
    for slot_start, flags, take in _flags_to_nth_prime(n, segment_size=segment_size,
                                                       allow_large=allow_large):
        pass
    return 2 * (slot_start + int(np.flatnonzero(flags)[take - 1])) + 1


def _primes_for_indices(n: int, *, segment_size: int, allow_large: bool) -> np.ndarray:
    """The first n primes, written into one array as the sieve streams.

    The array is checked against the memory cap with the sieve, before
    it is allocated, and the stream stops at the n-th prime.
    """
    segments = _flags_to_nth_prime(n, segment_size=segment_size, allow_large=allow_large,
                                   extra_mem=8 * n)
    primes = np.empty(n, dtype=np.int64)
    primes[0] = 2
    filled = 1
    for slot_start, flags, take in segments:
        out = primes[filled : filled + take]
        np.add(np.flatnonzero(flags)[:take], slot_start, out=out)
        out *= 2
        out += 1
        filled += take
        del flags, out  # freed before the next segment is sieved, not after
    return primes


def count_primes_in(iv: Interval, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                    allow_large: bool = False) -> int:
    """Exact prime count of an interval, honoring its boundary modes."""
    a, b = iv.closed_bounds()
    if a > b:
        return 0
    total = 1 if a <= 2 <= b else 0
    for _, buf in _iter_flag_chunks(a, b, segment_size=segment_size,
                                    allow_large=allow_large):
        total += int(np.count_nonzero(buf))
    return total


def iterate_gaps(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                 allow_large: bool = False) -> Iterator[GapRecord]:
    """Stream GapRecords for all consecutive prime pairs with p_next <= limit."""
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    for n0, pv in iter_prime_pairs(limit, segment_size=segment_size,
                                   allow_large=allow_large):
        ps = pv.tolist()
        for n, (p, q) in enumerate(zip(ps, ps[1:]), n0):
            yield GapRecord(n, p, q, q - p)


def max_gap_up_to(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                  allow_large: bool = False) -> GapRecord:
    """The maximal gap among records with p_next <= limit; ties go to the smallest n.

    Segments are built best first (see _best_first), a slice at a time,
    with floor -G for a gap bound G: in descending order of their gap
    bounds while the bound is at least the largest gap found, so a segment
    left out holds no gap as large, not even a tie.  A bound is at most 12
    above its segment's largest gap, or at most 46 (see _pair_rows), so
    few segments besides the one holding the answer are built.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    rows, slices = _pair_rows(limit, lambda: None, segment_size=segment_size,
                              allow_large=allow_large)
    best = (0, 0, 0)  # (g, -n, p_n): the larger gap, then the smaller n

    def build(k: int) -> int:
        nonlocal best
        for n0, pv in slices(k):
            d = np.diff(pv)
            i = int(np.argmax(d))  # first occurrence keeps the smallest n
            best = max(best, (int(d[i]), -n0 - i, int(pv[i])))
        return -best[0]

    _best_first(-rows[:, 4], build)
    g, n, p = best
    return GapRecord(-n, p, p + g, g)


def log_primorial(n: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                  allow_large: bool = False) -> float:
    """Sum of ln p over primes p <= n, with compensated summation."""
    if n < 2:
        raise ValueError(f"n must be >= 2, got {n}")
    parts = []
    for block in iter_prime_blocks(0, n, segment_size=segment_size,
                                   allow_large=allow_large):
        parts.append(math.fsum(np.log(block.astype(np.float64)).tolist()))
    return math.fsum(parts)


__all__ = [
    "PrimeTable", "Interval", "GapRecord",
    "sieve_range", "iter_prime_blocks", "iter_prime_pairs", "prime_count",
    "nth_prime", "count_primes_in", "iterate_gaps", "max_gap_up_to", "log_primorial",
    "MIN_SEGMENT_SIZE", "DEFAULT_SEGMENT_SIZE", "DEFAULT_RANGE_LIMIT",
    "HARD_RANGE_LIMIT", "MEM_LIMIT_ENV",
]
