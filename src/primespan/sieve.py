"""Segmented, bit-packed sieve of Eratosthenes and derived prime primitives.

Only odd numbers are stored: bit j of a table whose first odd slot is s
covers the integer 2*(s+j)+1, and the prime 2 is reconstructed from the
range bounds.  Segments are aligned to multiples of 8 odd slots so the
packed bitmap is byte-identical for every segment size.  The pair stream's
summary rows (see _pair_rows) are sieved by one forked worker per usable
CPU; everything else runs in the calling thread.  The public functions
accept workers= and ignore it.
"""

from __future__ import annotations

import math
import os
import signal
import threading
from dataclasses import dataclass, field
from typing import BinaryIO, Callable, Iterable, Iterator, TypeVar

import numpy as np

from .errors import CapacityError

MIN_SEGMENT_SIZE = 1024
DEFAULT_SEGMENT_SIZE = 1 << 21
DEFAULT_RANGE_LIMIT = 10**9
HARD_RANGE_LIMIT = 2**63 - 1
MEM_LIMIT_ENV = "PRIMESPAN_MEM_LIMIT"

_Item = TypeVar("_Item")

_ALL_ONES = np.uint64(2**64 - 1)


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


def _base_primes(limit: int) -> tuple[np.ndarray, np.ndarray]:
    """Odd primes up to limit and their squares, as int64 arrays."""
    if limit < 3:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    n_slots = (limit + 1) // 2
    flags = np.ones(n_slots, dtype=bool)
    flags[0] = False
    for i in range(1, math.isqrt(limit) // 2 + 1):
        if flags[i]:
            p = 2 * i + 1
            flags[(p * p) // 2 :: p] = False
    odd = (np.flatnonzero(flags).astype(np.int64) << 1) + 1
    return odd, odd * odd


# The pre-sieve tile: odd slots 0 .. 15014 with every odd multiple of 3, 5, 7,
# 11 and 13 crossed off, the primes included, laid out twice.  Slot i + 15015
# is crossed off exactly when slot i is, so the 15015 slots from i % 15015,
# repeated, give any run of slots from i with those primes sieved out.
_TILE_PRIMES = (3, 5, 7, 11, 13)
_TILE_PERIOD = math.prod(_TILE_PRIMES)


def _tile() -> np.ndarray:
    tile = np.ones(_TILE_PERIOD, dtype=bool)
    for p in _TILE_PRIMES:
        tile[p >> 1 :: p] = False
    return np.concatenate((tile, tile))


_TILE = _tile()
_TILE_SURVIVORS = int(np.count_nonzero(_TILE[:_TILE_PERIOD]))
# Slots 0 .. 6 are 1, 3, .., 13: the tile crosses off the tile primes, and 1 is no prime
_TILE_HEAD = np.array([False, True, True, True, False, True, True])


def _segment_flags(i_start: int, i_stop: int,
                   odd_primes: np.ndarray, odd_primes_sq: np.ndarray) -> np.ndarray:
    """Primality flags for global odd slots [i_start, i_stop); slot i is 2*i+1.

    odd_primes are the odd primes from 3 on, as _base_primes gives them; the
    tile crosses off the first five, so only those from 17 on are sieved.
    """
    size = i_stop - i_start
    if size <= 0:
        return np.ones(0, dtype=bool)
    a = i_start % _TILE_PERIOD
    buf = np.resize(_TILE[a : a + _TILE_PERIOD], size)  # the period, repeated
    if i_start < _TILE_HEAD.size:
        n = min(size, _TILE_HEAD.size - i_start)
        buf[:n] = _TILE_HEAD[i_start : i_start + n]
    lo_num = 2 * i_start + 1
    hi_num = 2 * i_stop - 1
    n_app = int(np.searchsorted(odd_primes_sq, hi_num, side="right"))
    p = odd_primes[len(_TILE_PRIMES) : n_app]
    if not p.size:
        return buf
    # First odd multiple of p at or above max(p*p, lo_num), as an offset
    # from lo_num.  Offsets stay below the segment span plus 2p, so the
    # arithmetic cannot overflow int64 even at the top of the range.
    off = (p - lo_num % p) % p
    off = np.where(p * p > lo_num, p * p - lo_num, off)
    off = off + np.where(off & 1, p, 0)
    starts = (off >> 1).tolist()
    steps = p.tolist()
    for j, q in zip(starts, steps):
        if j < size:
            buf[j::q] = False
    return buf


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


# Bytes a sieve stream holds per base prime: the int64 prime and square that
# _base_primes keeps, and what _segment_flags works through for each: int64
# offsets and two lists of Python ints (a pointer and a 28-byte int each)
_BASE_PRIME_BYTES = 16 + 3 * 8 + 2 * (8 + 28)


def _stream_mem(lo: int, hi: int, segment_size: int) -> int:
    """Bytes a stream of segment flags over [lo, hi] holds at its peak.

    A consumer's loop variable keeps one segment while the next is
    sieved, and each segment is cut from whole periods of the pre-sieve
    tile; add the base primes and _segment_flags' work on each of them.
    """
    _, n_slots, seg_slots = _plan(lo, hi, segment_size)
    root = math.isqrt(hi)
    # pi(x) < 1.25506 x / ln x for x > 1 (Rosser and Schoenfeld 1962)
    n_base = int(1.25506 * root / math.log(root)) + 1 if root > 1 else 0
    return 2 * (min(seg_slots, n_slots) + _TILE_PERIOD) + _BASE_PRIME_BYTES * n_base


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


def _table_mem(lo: int, hi: int) -> int:
    """Bytes of sieve_range's bitmap over [lo, hi] plus the rank index that pi builds."""
    nbytes = (_plan(lo, hi, 0)[1] + 7) // 8
    return nbytes + _rank_nbytes(nbytes)


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
    return _flag_chunks(i0, n_slots, seg_slots, _base_primes(math.isqrt(hi)))


def _flag_chunks(i0: int, n_slots: int, seg_slots: int,
                 base: tuple[np.ndarray, np.ndarray]) -> Iterator[tuple[int, np.ndarray]]:
    """Yield the flags of odd slots [i0, i0 + n_slots), one segment at a time."""
    for a in range(i0, i0 + n_slots, seg_slots):
        yield a, _segment_flags(a, min(a + seg_slots, i0 + n_slots), *base)


def _rank_nbytes(bitmap_nbytes: int) -> int:
    """Bytes of a PrimeTable's rank index over a bitmap of bitmap_nbytes bytes."""
    return 8 * ((bitmap_nbytes >> 3) + 1)


@dataclass(frozen=True)
class PrimeTable:
    """Bit-packed primality flags over [base, hi], odd numbers only.

    Bit j of bitmap, most significant bit first within each byte, is set
    iff the odd number 2*(s+j)+1 is prime, where s is the first odd slot
    at or above base.
    """

    base: int
    hi: int
    bitmap: np.ndarray
    # set bits before each whole 64-bit word of bitmap, and before its tail
    _rank: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0 <= self.base <= self.hi:
            raise ValueError(f"need 0 <= base <= hi, got base={self.base} hi={self.hi}")

    @property
    def _first_slot(self) -> int:
        return (self.base | 1) >> 1

    def _n_slots(self) -> int:
        return _plan(self.base, self.hi, 0)[1]

    def is_prime(self, x: int) -> bool:
        if x < self.base or x > self.hi:
            raise ValueError(f"{x} is outside the table range [{self.base}, {self.hi}]")
        if x == 2:
            return True
        if x < 2 or x % 2 == 0:
            return False
        j = (x >> 1) - self._first_slot
        return bool((int(self.bitmap[j >> 3]) >> (7 - (j & 7))) & 1)

    def primes(self) -> np.ndarray:
        """All primes in [base, hi] as a sorted int64 array."""
        n = self._n_slots()
        if n:
            bits = np.unpackbits(self.bitmap, count=n)
            odd = (np.flatnonzero(bits).astype(np.int64) + self._first_slot) * 2 + 1
        else:
            odd = np.empty(0, dtype=np.int64)
        if self.base <= 2 <= self.hi:
            return np.concatenate((np.array([2], dtype=np.int64), odd))
        return odd

    def count(self) -> int:
        """Number of primes in [base, hi]."""
        two = 1 if self.base <= 2 <= self.hi else 0
        return int(np.bitwise_count(self.bitmap).sum()) + two

    def build_index(self) -> None:
        """Build the rank index that pi reads; calls after the first do nothing.

        The index is one int64 per 64-bit word of the bitmap, so it takes
        the bitmap's size plus at most 8 bytes.  pi builds it on first use;
        call this before sharing the table between threads, so that they
        never both build it.
        """
        if self._rank is None:
            rank = np.zeros((self.bitmap.size >> 3) + 1, dtype=np.int64)
            np.cumsum(np.bitwise_count(self._full_words()), out=rank[1:])
            object.__setattr__(self, "_rank", rank)

    def _full_words(self) -> np.ndarray:
        """The bitmap's whole 64-bit words, most significant bit first, as a view."""
        return self.bitmap[: (self.bitmap.size >> 3) << 3].view(">u8")

    def _words_at(self, w: np.ndarray) -> np.ndarray:
        """64-bit word w of the bitmap for each w, zero-padded past its end."""
        full = self._full_words()
        tail = np.zeros(8, dtype=np.uint8)
        tail[: self.bitmap.size & 7] = self.bitmap[full.size << 3 :]
        tail = tail.view(">u8")[0]
        if not full.size:
            return np.full(w.shape, tail)
        return np.where(w < full.size, full.take(w, mode="clip"), tail)

    def pi(self, x) -> np.ndarray:
        """Number of primes in [base, min(x, hi)] for each int64 x, as int64.

        Equal to np.searchsorted(self.primes(), x, side="right") for every
        x, negative or beyond hi included, without building the prime
        array.  A query is a rank over the bitmap (Jacobson 1989; Vigna,
        "Broadword implementation of rank/select queries", 2008): the
        index's count before the word that holds x's odd slot, plus the
        popcount of that word's leading bits.
        """
        self.build_index()
        x = np.clip(np.asarray(x, dtype=np.int64), -1, self.hi)
        # odd numbers in [base, x]: those up to x, less the slots below base
        m = np.maximum(((x - 1) >> 1) + (1 - self._first_slot), 0)
        w = m >> 6
        lead = ~(_ALL_ONES >> (m & 63).astype(np.uint64))
        counts = self._rank.take(w) + np.bitwise_count(self._words_at(w) & lead)
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
    nbytes = (n_slots + 7) // 8
    # the budget covers the rank index that PrimeTable.pi builds later
    chunks = _iter_flag_chunks(lo, hi, segment_size=segment_size, allow_large=allow_large,
                               extra_mem=_table_mem(lo, hi))
    bitmap = np.zeros(nbytes, dtype=np.uint8)
    for slot_start, buf in chunks:
        a = slot_start - i0
        packed = np.packbits(buf)
        bitmap[a >> 3 : (a >> 3) + packed.size] = packed
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


def _longest_true_run(z: np.ndarray) -> int:
    """Length of the longest run of True in the bool array z.

    runs[j][i] says that z[i : i + 2**j] is all True; doubling finds the
    largest such power, then a descent adds the smaller powers that fit.
    """
    if not z.any():
        return 0
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
    return length


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


# The pair stream's summary of every full segment from slot 0 that a stream
# has run through to its end, at one segment length: (seg_slots, rows), row k
# being (n0, pairs, p_lo, p_hi, gap_bound) of slots [k seg_slots, (k+1) seg_slots).
# A segment without a prime has pairs = 0 and p_lo = p_hi = the carried prime.
# A full segment's flags do not depend on the limit, so neither does its row.
_NO_SUMMARIES: tuple[int, np.ndarray] = (0, np.empty((0, 5), dtype=np.int64))
_summaries = _NO_SUMMARIES
_SUMMARY_ROW_BYTES = 40

# Bytes per segment of _pair_rows' output and of what a caller derives from
# it: the int64 row, and three arrays of one float64 or int64 per segment
# (slack floors, guards and the order of the floors)
_ROW_WORK_BYTES = _SUMMARY_ROW_BYTES + 3 * 8

# Bytes per segment of the parts a forked worker holds until it writes them:
# four int64 (see _segment_parts)
_PART_BYTES = 4 * 8


def _usable_cpus() -> int:
    """CPUs this process may run on, as taskset(1) or a cgroup's cpuset leaves them."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity else 1


def _segment_parts(ks: range, n_slots: int, seg_slots: int,
                   base: tuple[np.ndarray, np.ndarray]) -> Iterator[tuple[int, int, int, int]]:
    """Yield (pairs, first, last, zeros) of each pair segment k in ks.

    pairs is the number of primes in the segment, first and last are the
    offsets of its first and last ones, and zeros is the longest run of
    zero bytes in its flags packed between them; a segment without a
    prime gives zeros.  _pair_rows stitches its rows from these alone.
    """
    for k in ks:
        a = k * seg_slots
        flags = _segment_flags(a, min(a + seg_slots, n_slots), *base)
        pairs, last = _count_last(flags)
        if not pairs:
            yield 0, 0, 0, 0
            continue
        first = int(np.argmax(flags))
        yield pairs, first, last, _longest_true_run(np.packbits(flags[first : last + 1]) == 0)


def _run_worker(fd: int, ks: range, n_slots: int, seg_slots: int,
                base: tuple[np.ndarray, np.ndarray]) -> None:
    """Write the parts of segments ks (see _segment_parts) to fd, as int64, and close it."""
    parts = np.zeros((len(ks), 4), dtype=np.int64)
    for i, part in enumerate(_segment_parts(ks, n_slots, seg_slots, base)):
        parts[i] = part
    with open(fd, "wb") as out:
        out.write(memoryview(parts).cast("B"))


def _fork_parts(rows: np.ndarray, ks: range, w: int, tick: Callable[[], None],
                n_slots: int, seg_slots: int, base: tuple[np.ndarray, np.ndarray]) -> None:
    """Fill rows[k, 1:] with the parts of each segment k in ks, using w processes.

    This process and w - 1 forked children each sieve every w-th segment
    of ks.  A child ends in os._exit and writes its parts to a pipe;
    this process reads them once its own share is done and waits for
    every child, so their CPU time counts as its children's.  tick is
    called once per segment, a round of w segments at a time, as this
    process finishes its segment of the round.  A child that fails, or
    any exception here, raises only after every child is killed and
    reaped.
    """
    children: list[tuple[int, BinaryIO, range]] = []
    try:
        for j in range(1, w):
            r, wr = os.pipe()
            pid = os.fork()
            if pid == 0:  # the child
                code = 1
                try:
                    os.close(r)
                    for _, pipe, _ in children:
                        os.close(pipe.fileno())
                    _run_worker(wr, ks[j::w], n_slots, seg_slots, base)
                    code = 0
                finally:
                    os._exit(code)
            children.append((pid, open(r, "rb"), ks[j::w]))
            os.close(wr)
        own = ks[::w]
        for k, part in zip(own, _segment_parts(own, n_slots, seg_slots, base)):
            rows[k, 1:] = part
            for _ in range(min(w, ks.stop - k)):
                tick()
        while children:
            pid, pipe, share = children[0]
            for k in share:
                if pipe.readinto(rows[k, 1:]) != _PART_BYTES:
                    raise RuntimeError(f"sieve worker {pid} ended before segment {k}")
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.pop(0)
            pipe.close()
            if code:
                raise RuntimeError(f"sieve worker {pid} exited with {code}")
    finally:
        for pid, pipe, _ in children:
            pipe.close()
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _pair_rows(limit: int, tick: Callable[[], None], *, segment_size: int,
               allow_large: bool) -> tuple[np.ndarray, Callable[[int], np.ndarray]]:
    """Summarize the consecutive prime pairs with p_next <= limit, one sieve segment at a time.

    Returns rows, an int64 array of one row (n0, pairs, p_lo, p_hi,
    gap_bound) per sieve segment from slot 0, the last one cut at limit,
    and block(k), which sieves segment k again into the block
    iter_prime_pairs yields for it.  tick is called once per segment.

    gap_bound is exact for the pair that crosses into the segment.  Between
    the segment's first and last primes, pack the flags into bytes of 8 odd
    slots; if at most Z consecutive bytes are zero, two consecutive primes
    there sit in bytes at most Z + 1 apart, so their gap is below 16(Z + 2).

    Full segments already in the summary table take their rows from it.
    The segments past them are sieved by one worker per usable CPU (see
    _fork_parts), or in this process alone where it cannot fork safely:
    without os.fork, or with a second thread running.  Each worker gives
    four numbers per segment, and one pass in segment order stitches them
    into rows, so the rows do not depend on the number of workers.  The
    longer table is published once the stream has run to its end.

    The memory budget is checked before anything sized by the range is
    allocated: a stream and the gap bound's work per worker, the parts the
    forked workers hold, the stored table, the rows and the arrays a
    caller derives from them, and what follows the stream: a block and one
    array of its size that the caller derives from it.  A budget that fits
    fewer workers gets fewer; one that fits no stream is refused.
    """
    global _summaries
    held_slots, stored = _summaries
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    full, n_segments = n_slots // seg_slots, -(-n_slots // seg_slots)
    known = min(full, len(stored)) if held_slots == seg_slots else 0
    todo = range(known, n_segments)
    # the gap bound's work on a segment of m packed bytes: its zero mask, at
    # most bit_length(m) - 1 doubling levels and the descent's two arrays,
    # each of at most m bytes
    slots = min(seg_slots, n_slots)
    m = -(-slots // 8)
    work, blocks = (m.bit_length() + 2) * m, 2 * 8 * _block_bound(slots)
    stream = _stream_mem(0, limit, segment_size)

    def extra_mem(w: int) -> int:  # what w workers need beyond one stream
        return ((w - 1) * stream + max(w * work, blocks)
                + _PART_BYTES * (len(todo) - len(todo[::w]))
                + _SUMMARY_ROW_BYTES * len(stored) + _ROW_WORK_BYTES * n_segments)

    _check_sieve(0, limit, segment_size=segment_size, allow_large=allow_large,
                 extra_mem=extra_mem(1))
    cap = _mem_limit()
    # fork only where it is safe: with os.fork and no second thread running
    safe = hasattr(os, "fork") and threading.active_count() == 1
    w = max(min(_usable_cpus(), len(todo)), 1) if safe else 1
    while w > 1 and cap is not None and stream + extra_mem(w) > cap:
        w -= 1
    rows = np.empty((n_segments, 5), dtype=np.int64)
    rows[:known] = stored[:known]
    for _ in range(known):
        tick()
    base = _base_primes(math.isqrt(limit))
    _fork_parts(rows, todo, w, tick, n_slots, seg_slots, base)
    start = (1, 2)  # n0 and carry of the first segment past the table
    if known:
        n0, pairs, _, p_hi, _ = rows[known - 1].tolist()
        start = (n0 + pairs, p_hi)
    # rows[k, 1:] holds segment k's parts until the stitch makes them its row
    parts = ((k * seg_slots, pairs, last, (k, first, zeros)) for k, (pairs, first, last, zeros)
             in zip(todo, map(np.ndarray.tolist, rows[known:, 1:])))
    for n0, pairs, p_lo, p_hi, (k, first, zeros) in _stitch(*start, parts):
        gap = max(2 * (k * seg_slots + first) + 1 - p_lo, 16 * (zeros + 2)) if pairs else 0
        rows[k] = n0, pairs, p_lo, p_hi, gap
    if full > known:
        _summaries = (seg_slots, rows[:full])

    def block(k: int) -> np.ndarray:
        a = k * seg_slots
        flags = _segment_flags(a, min(a + seg_slots, n_slots), *base)
        return _pair_block(int(rows[k, 2]), a, flags)

    return rows, block


def iter_prime_pairs(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                     workers: int = 1, allow_large: bool = False
                     ) -> Iterator[tuple[int, np.ndarray]]:
    """Stream the consecutive prime pairs with p_next <= limit, one block per segment.

    Yields (n0, pv) where pv[i] and pv[i + 1] are p_{n0+i} and p_{n0+i+1};
    each block starts with the previous block's last prime, so every pair
    appears exactly once and pv holds at least one pair.  The memory cap
    counts two blocks of a segment's most primes: the one the caller holds
    and the next one.
    """
    _, n_slots, seg_slots = _plan(0, limit, segment_size)
    _check_sieve(0, limit, segment_size=segment_size, allow_large=allow_large,
                 extra_mem=2 * 8 * _block_bound(min(seg_slots, n_slots)))
    chunks = _flag_chunks(0, n_slots, seg_slots, _base_primes(math.isqrt(limit)))
    segments = ((a, *_count_last(flags), (a, flags)) for a, flags in chunks)
    for n0, pairs, carry, _, (slot_start, flags) in _stitch(1, 2, segments):
        if pairs:
            yield n0, _pair_block(carry, slot_start, flags)


def _prime_bound(n: int) -> int:
    """An integer above p_n, the n-th prime."""
    if n < 6:
        return 12
    # p_n < n(ln n + ln ln n) for n >= 6
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 2


def prime_count(x: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                workers: int = 1, allow_large: bool = False) -> int:
    """pi(x): the number of primes <= x."""
    if x < 0:
        raise ValueError(f"x must be >= 0, got {x}")
    return count_primes_in(Interval(0, x), segment_size=segment_size,
                           allow_large=allow_large)


def nth_prime(n: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
              workers: int = 1, allow_large: bool = False) -> int:
    """The n-th prime, 1-based with p_1 = 2."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return 2
    bound = _prime_bound(n)
    target = n - 1  # odd primes to skip past
    seen = 0
    for slot_start, buf in _iter_flag_chunks(0, bound, segment_size=segment_size,
                                             allow_large=allow_large):
        c = int(np.count_nonzero(buf))
        if seen + c >= target:
            idx = int(np.flatnonzero(buf)[target - seen - 1])
            return (slot_start + idx) * 2 + 1
        seen += c
    raise RuntimeError(f"prime bound {bound} too small for n={n}")


def count_primes_in(iv: Interval, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                    workers: int = 1, allow_large: bool = False) -> int:
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
                 workers: int = 1, allow_large: bool = False) -> Iterator[GapRecord]:
    """Stream GapRecords for all consecutive prime pairs with p_next <= limit."""
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    for n0, pv in iter_prime_pairs(limit, segment_size=segment_size,
                                   allow_large=allow_large):
        ps = pv.tolist()
        for n, (p, q) in enumerate(zip(ps, ps[1:]), n0):
            yield GapRecord(n, p, q, q - p)


def max_gap_up_to(limit: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                  workers: int = 1, allow_large: bool = False) -> GapRecord:
    """The maximal gap among records with p_next <= limit; ties go to the smallest n.

    Segments are built in descending order of their gap bounds while the
    bound is at least the largest gap found: a segment left out holds no
    gap as large, so not even a tie.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    rows, block = _pair_rows(limit, lambda: None, segment_size=segment_size,
                             allow_large=allow_large)
    best = (0, 0, 0)  # (g, -n, p_n): the larger gap, then the smaller n
    for k in np.argsort(-rows[:, 4]).tolist():
        if rows[k, 4] < best[0]:
            break
        pv = block(k)
        d = np.diff(pv)
        i = int(np.argmax(d))  # first occurrence keeps the smallest n
        best = max(best, (int(d[i]), -int(rows[k, 0]) - i, int(pv[i])))
    g, n, p = best
    return GapRecord(-n, p, p + g, g)


def log_primorial(n: int, *, segment_size: int = DEFAULT_SEGMENT_SIZE,
                  workers: int = 1, allow_large: bool = False) -> float:
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
