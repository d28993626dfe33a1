"""Exhaustive range verification of every cataloged claim.

Each checker covers its full parameter range, collects violations as data
(never as errors), and reports the minimum slack with the parameters that
achieve it.  A point or segment is left unevaluated only when a certified
bound shows that it can change none of these.  Claims that overstate
their range are falsified honestly: violations found there are
first-class results.

The claims but the pair streams count only the points no theorem
certifies, up to the first certified one per run (see _first_certified,
which always counts a claim's first point), in batches (_scan_batches);
T1, T3 and GapInterval count primes through _interval_count_scan.

Every scan runs in the calling thread; only the pair stream under
Firoozbakht and GapUpper forks sieve workers, whose rows do not depend
on their number (see sieve._pair_rows).  The points a claim counts are
cut into batches (see _batches) whose edges depend only on the range,
and batch results are merged in batch order (see _merge), so every
report is byte-identical across reruns, segment sizes and CPU counts.
The verifiers accept workers= and ignore it, only while the benchmark in
perfbench/ passes it; compare_rules does not take it.
"""

from __future__ import annotations

import math
import sys
from bisect import bisect_right
from dataclasses import dataclass, replace
from decimal import Context, Decimal, localcontext
from enum import Enum
from functools import cache, partial
from itertools import chain, starmap
from time import perf_counter
from typing import Callable, Iterator

import numpy as np

from .bounds import (LogBase, IntervalRule, NTH_PRIME_UPPER_FROM, PI_UPPER_COEF,
                     PRIME_INTERVAL_RULE, RuleName, RULES, THETA_UPPER_COEF, f_of_k,
                     f_of_k_array, firoozbakht_rhs, rule_g,
                     _f_levels, _gap_upper_bound_array, _lemma3_rhs_array, _lemma_lhs_array,
                     _lemma_rhs_array, _mps_upper_bound_array, _nth_prime_bounds_array,
                     _nth_prime_lower_array, _nth_prime_upper_array, _pi_lower_array,
                     _pi_upper_array, _prime_interval_end_array)
from . import sieve
from .errors import CapacityError, ThresholdError
from .sieve import (DEFAULT_RANGE_LIMIT, DEFAULT_SEGMENT_SIZE, PrimeTable, _best_first,
                    _pair_rows, _prime_bound, _primes_for_indices, _segment_count,
                    _validate_range, sieve_range)

VIOLATION_CAP = 1000
_CHUNK_POINTS = 1 << 16
_LN4 = math.log(4.0)
_FIRST_PRIMES = np.array([2, 3, 5, 7, 11, 13], dtype=np.int64)
_RECHECK = Context(prec=61)  # near ties: 61 digits, over 200 bits, each step rounded correctly


class ClaimId(str, Enum):
    T1 = "T1"
    T2 = "T2"
    T3 = "T3"
    GAP_INTERVAL = "GapInterval"
    FIROOZBAKHT = "Firoozbakht"
    GAP_UPPER = "GapUpper"
    PROP4 = "Prop4"
    PROP6 = "Prop6"
    NTH_PRIME_BOUNDS = "NthPrimeBounds"
    L1 = "L1"
    L2 = "L2"
    L3 = "L3"


@dataclass(frozen=True)
class Violation:
    """One falsified parameter point: what was observed vs what was required."""

    param: str
    observed: float | int
    required: float | int | str


@dataclass(frozen=True)
class ClaimReport:
    """Outcome of one exhaustive scan.

    violations holds at most the configured cap; violations_total is the
    full count.  min_slack is the distance to violation at the tightest
    scanned point: rhs - lhs for real inequalities, and
    observed - required + 1 for integer counting claims.  elapsed is wall
    time and is excluded from canonical serialized output; the props and
    lemmas families split the time of their shared prime generation evenly
    across their reports, so a batch's elapsed values sum to the call's
    wall time.
    """

    claim_id: ClaimId
    range: str
    violations: tuple[Violation, ...]
    violations_total: int
    min_slack: float | int | None
    min_slack_at: str | None
    scanned: int
    elapsed: float
    holds: bool
    notes: tuple[str, ...] = ()


def _check_boundary(boundary: str) -> None:
    if boundary not in ("open", "closed"):
        raise ValueError(f"boundary must be 'open' or 'closed', got {boundary!r}")


def _batches(lo: np.ndarray, stop: np.ndarray) -> tuple[int, Iterator]:
    """The points lo[i] <= x < stop[i] of each run i, in order, in batches.

    Returns the number of batches, counted arithmetically, and an iterator
    that makes them one at a time as int64 arrays (run, x) of at most
    _CHUNK_POINTS points, one entry per point, so nothing is sized by the
    points up front.  A batch may span runs and a run may span batches;
    the edges depend only on lo and stop.
    """
    sizes = np.maximum(stop - lo, 0)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    total = int(ends[-1]) if ends.size else 0

    def batch(a: int):
        b = min(a + _CHUNK_POINTS, total)
        r0, r1 = np.searchsorted(ends, [a, b - 1], side="right").tolist()
        runs = np.arange(r0, r1 + 1)
        size = np.minimum(ends[runs], b) - np.maximum(starts[runs], a)
        run = np.repeat(runs, size)
        # x at a run's point i is lo + i - start
        return run, np.arange(a, b, dtype=np.int64) + np.repeat((lo - starts)[runs], size)

    firsts = range(0, total, _CHUNK_POINTS)
    return len(firsts), map(batch, firsts)


def _scan_batches(prog: _Progress, lo: np.ndarray, stop: np.ndarray, scan, scanned: int, *,
                  cap: int):
    """Merge scan(run, x) over the batches of _batches(lo, stop), ticking prog once per batch."""
    return _merge(starmap(scan, prog.each(_batches(lo, stop)[1])), cap, scanned)


class _Progress:
    """Step-level progress and ETA on stderr; stdout stays machine-parseable.

    A step is a batch of the points a claim counts (see _batches), once
    per log base for the lemmas, a sieve segment of a pair stream, or
    Prop6's single pass.  Props and lemmas each tick one bar shared by
    their three reports.
    """

    def __init__(self, label: str, total: int, enabled: bool | None):
        self.label = label
        self.total = max(total, 1)
        self.enabled = sys.stderr.isatty() if enabled is None else enabled
        self.t0 = perf_counter()
        self.last = 0.0
        self.done = 0

    def tick(self) -> None:
        self.done += 1
        if not self.enabled:
            return
        done = self.done
        now = perf_counter()
        if done < self.total and now - self.last < 0.2:
            return
        self.last = now
        eta = (now - self.t0) * (self.total - done) / done
        sys.stderr.write(f"\r{self.label}: {done}/{self.total} "
                         f"({100 * done // self.total}%) eta {eta:.0f}s")
        if done >= self.total:
            sys.stderr.write("\n")
        sys.stderr.flush()

    def each(self, steps) -> Iterator:
        """Yield each of steps, ticking once the caller is done with it."""
        for step in steps:
            yield step
            self.tick()


# Relative error allowed for in a segment's slack floor: thousands of ulps,
# where the floor and the scan's own float slacks each err by a few.
_FLOOR_MARGIN = 2.0**-40


def _slack_floor(claim_id: ClaimId, rows: np.ndarray) -> np.ndarray:
    """A certified lower bound on every slack the claim's scan computes in each segment.

    rows are _pair_rows' (n0, pairs, p_lo, p_hi, G) rows, G being
    the segment's gap bound; each pair (p, q) of the segment has
    p_lo <= p < q <= p_hi, n <= n_hi = n0 + pairs - 1 and g = q - p <= G.
    GapUpper: the bound ln^2 p - ln p grows for p >= 2, so ln^2 p - ln p - g
    is at least the bound at p_lo less G.

    Firoozbakht: (1 + 1/n) ln p - ln q = ln p / n - log1p(g/p), and
    log1p(x) <= x, so the slack is at least ln p / n - g / p.  The floor is
    the larger of two bounds on that:
    - ln p_lo / n_hi - G / p_lo, as ln p >= ln p_lo, n <= n_hi, p >= p_lo;
    - (ln^2 p_lo / c - G) / p with c = PI_UPPER_COEF: n = pi(p) <
      c p / ln p (Rosser and Schoenfeld, see bounds), so ln p / n >
      ln^2 p / (c p).  The numerator A at p_lo is at most that at p, and
      A / p is least at p = p_hi where A >= 0, and at p = p_lo where A < 0.
    The first is tight where n_hi is close to pi(p_lo), the second where a
    segment spans a wide range of p, as the early segments do.

    The margin, 2^-40 of the size of the terms, covers the float error of
    both this bound and the scan's slacks, so a segment whose floor clears
    a threshold has no computed slack at or below it.  The second bound
    errs by a few ulps of (ln^2 p_lo / c + G) / p, and as ln^2 p_lo / p <=
    ln p_hi, that is a few ulps of ln p_hi + G / p_lo, far below the
    margin, which already covers the same terms of the first bound.
    """
    n0, pairs, p_lo, p_hi, g = rows.T
    l_hi, g = np.log(p_hi.astype(np.float64)), g.astype(np.float64)
    if claim_id is ClaimId.GAP_UPPER:
        return _gap_upper_bound_array(p_lo) - g - _FLOOR_MARGIN * (l_hi * l_hi + l_hi + g)
    l_lo, g_rel = np.log(p_lo.astype(np.float64)), g / p_lo
    a = l_lo * l_lo / PI_UPPER_COEF - g
    by_pi = a / np.where(a >= 0, p_hi, p_lo)
    return np.maximum(l_lo / (n0 + pairs - 1) - g_rel, by_pi) - _FLOOR_MARGIN * (3 * l_hi + g_rel)


def _scan_best_first(claim_id: ClaimId, limit: int, first_n: int, guard, scan, *,
                     segment_size: int, allow_large: bool, progress: bool | None, cap: int):
    """Merge scan(n0, pv) over the pair segments that can change the report.

    The pair stream runs to its end first, ticking progress once per
    segment, and gives every segment's summary row; the pairs with
    n < first_n are outside the claim.  Then segments are built best first
    (see sieve._best_first) with their slack floors: every one whose floor
    is at or below guard(rows), which covers each violation and each near
    tie, then the rest while the floor is at most the least slack found.
    A segment left out has a floor above the final least slack, so each
    slack in it is larger.  A segment is scanned a slice at a time (see
    _pair_rows), and results merge in scan order, by segment then slice,
    so the earliest site wins ties as in a scan of every pair, and the
    pairs left out count as scanned.  Returns the merge and the wall time
    of the rows pass that built the table this call took, or 0.0.
    """
    prog = _Progress(claim_id.value, _segment_count(0, limit, segment_size), progress)
    table, table_s = sieve._summaries[1], sieve._summaries_s
    rows, slices = _pair_rows(limit, prog.tick, segment_size=segment_size,
                              allow_large=allow_large)
    n0 = rows[:, 0]
    counted = np.maximum(rows[:, 1] - np.maximum(first_n - n0, 0), 0)
    floors = np.where(counted > 0, _slack_floor(claim_id, rows), np.inf)
    built = {}

    def build(k: int) -> float:
        built[k] = out = [scan(*s) for s in slices(k)]
        return min((best[0] for _, best in out), default=math.inf)

    _best_first(floors, build, np.flatnonzero(floors <= guard(rows)).tolist())
    return (_merge(chain.from_iterable(built[k] for k in sorted(built)), cap, int(counted.sum())),
            table_s if rows is table else 0.0)


def _share_setup(reports: list[ClaimReport], t0: float) -> tuple[ClaimReport, ...]:
    """Spread the wall time since t0 not yet in any report's elapsed evenly over them."""
    extra = (perf_counter() - t0 - sum(r.elapsed for r in reports)) / len(reports)
    return tuple(replace(r, elapsed=r.elapsed + extra) for r in reports)


def _merge(results, cap: int, scanned: int):
    """Combine per-batch (violations, best) in order; the first batch wins slack ties.

    scanned is the claim's whole point count, the certified points with
    the counted ones.
    """
    violations: list[Violation] = []
    total = 0
    best = None
    for v, b in results:
        total += len(v)
        violations.extend(v[: max(cap - len(violations), 0)])
        if best is None or b[0] < best[0]:
            best = b
    return tuple(violations), total, best, scanned


def _least_counted_slack(first) -> int:
    """The slack a point must be certified to reach to be left uncounted.

    first is the slack of the claim's first point (see _first_certified).
    A point certified at max(1, first) or above is no violation, and it
    cannot hold the least slack alone: on a tie the first point, earlier in
    scan order, keeps the site.  So the report is that of a full count.
    """
    return max(1, int(first))


def _report(claim_id, range_desc, merged, elapsed, notes=()):
    violations, total, best, scanned = merged
    return ClaimReport(
        claim_id=claim_id,
        range=range_desc,
        violations=violations,
        violations_total=total,
        min_slack=None if best is None else best[0],
        min_slack_at=None if best is None else best[1],
        scanned=scanned,
        elapsed=elapsed,
        holds=total == 0,
        notes=tuple(notes),
    )


def _first_certified(ok, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per row, the least x in [lo, hi] at which ok holds, or hi + 1 if none.

    ok maps an int64 array of one point per row to a bool array, and is
    monotone on each row's [lo, hi]: false, then true to hi.  Bisection
    returns only a point where ok was seen to hold, so every point from
    the returned one to hi is certified.  Every point before it is counted.

    The first row's lo, the claim's first point, is counted even where ok
    holds: the claim certifies the rest against its slack.
    """
    a, b = lo - 1, hi + 1
    while (live := b - a > 1).any():
        mid = np.where(live, a + (b - a) // 2, lo)
        good = ok(mid) & live
        a, b = np.where(live & ~good, mid, a), np.where(good, mid, b)
    b[0] = max(int(b[0]), int(lo[0]) + 1)
    return b


def _rule_fits(x: np.ndarray, c: int, top: np.ndarray) -> np.ndarray:
    """Whether the interval rule puts c primes in (x, top) for each x, with a float margin."""
    end = _prime_interval_end_array(x, c) * (1 + _FLOOR_MARGIN)
    return (x >= PRIME_INTERVAL_RULE.n_min) & (end < top)


def _interval_count_scan(claim_id: ClaimId, lo: np.ndarray, hi: np.ndarray, req: np.ndarray,
                         counts, ok, end, site, *, progress: bool | None, cap: int, **kw):
    """Merge the prime counts of the uncertified points lo[i] <= x <= hi[i] of each run i.

    The claim asks for req[i] primes in an interval per point of run i:
    counts(table, run, x) gives the primes in each point's interval, which
    ends by end(run, x), and site(run, x) names a point.  A point's slack
    is cnt - req + 1, and a point with cnt < req is a violation.

    The first point, lo[0], is counted from its own small sieve.  ok(c, run, x)
    says whether a theorem puts req - 1 + c primes, a slack of c, in the
    interval of point x of each run, c = _least_counted_slack(the first
    point's slack), and is monotone on each run; the points before the
    first certified one (see _first_certified) are counted from one sieve
    to their largest end.  Returns the merged result, that sieve and the
    last counted point.
    """
    zero = np.zeros(1, dtype=np.int64)
    first = counts(sieve_range(0, int(end(zero, lo[:1])[0]), **kw), zero, lo[:1])
    c = _least_counted_slack(first[0] - req[0] + 1)
    stop = _first_certified(partial(ok, c, np.arange(lo.size)), lo, hi)
    runs = np.flatnonzero(stop > lo)  # a run certified from its start adds nothing
    table = sieve_range(0, int(end(runs, stop[runs] - 1).max()), **kw)

    def scan(run, x):
        cnt, need = counts(table, run, x), req[run]
        slack = cnt - need + 1
        i = int(np.argmin(slack))
        v = [Violation(site(run[j], x[j]), int(cnt[j]), int(need[j]))
             for j in np.flatnonzero(slack < 1).tolist()]
        return v, (int(slack[i]), site(run[i], x[i]))

    prog = _Progress(claim_id.value, _batches(lo, stop)[0], progress)
    merged = _scan_batches(prog, lo, stop, scan, int((hi + 1 - lo).sum()), cap=cap)
    return merged, table, int(stop[runs].max()) - 1


# T1's floor below: pi(n) <= pi(max(n, 15)), and the floor grows from n = 15 on
_T1_KNEE = 15


def verify_theorem1(k_max: int, n_max: int, boundary: str = "open", *,
                    workers: int = 1, segment_size: int = DEFAULT_SEGMENT_SIZE,
                    cap: int = VIOLATION_CAP, allow_large: bool = False,
                    progress: bool | None = None) -> ClaimReport:
    """At least k - 1 primes between n and kn for every n >= f(k).

    Either boundary counts at least pi(kn - 1) - pi(n).  Since pi(n) <=
    pi(max(n, 15)), the Rosser-Schoenfeld bounds L <= pi < U (see bounds)
    put that count above F(n) = L(kn - 1) - U(max(n, 15)).
    F is nondecreasing in n.  Below 15 only L(kn - 1) moves.  From 15 on,
    kn - 1 >= 17 and dF/dn = k u(kn - 1) - 1.25506 u(n), where
    u(t) = (ln t - 1)/ln^2 t is the slope of t/ln t.  With l = ln n and
    m = ln(kn - 1) in [l, l + ln k), u(kn - 1)/u(n) = (m - 1) l^2 / ((l - 1) m^2)
    > (1 + ln k / l)^-2, and k (1 + ln k / l)^-2 grows with k and l, so
    it is at least 2 (1 + ln 2 / ln 15)^-2 = 1.2678 > 1.25506.

    A point with F(n) >= k - 3 + c has a count of at least k - 2 + c,
    so a slack of at least c.  Per k, only the n before the first such n
    are counted (see _interval_count_scan).
    """
    _check_boundary(boundary)
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    if n_max < f_of_k(k_max):
        raise ValueError(f"n_max must be >= f(k_max) = {f_of_k(k_max)}, got {n_max}")
    _validate_range(0, k_max * n_max, allow_large)
    t0 = perf_counter()
    ks = np.arange(2, k_max + 1, dtype=np.int64)
    kf = ks.astype(np.float64)
    # an open end leaves out its own point: (n, kn) counts pi(kn - 1) - pi(n)
    shift = 1 if boundary == "open" else 0

    def counts(table, run, n):
        return table.pi(ks[run] * n - shift) - table.pi(n - 1 + shift)

    def ok(c, run, n):
        lower = _pi_lower_array(kf * n - 1)
        upper = _pi_upper_array(np.maximum(n, _T1_KNEE))
        return lower - upper - _FLOOR_MARGIN * (lower + upper) >= kf - 3 + c

    merged, _, _ = _interval_count_scan(
        ClaimId.T1, f_of_k_array(ks), np.full_like(ks, n_max), ks - 1, counts, ok,
        lambda run, n: ks[run] * n, lambda run, n: f"k={ks[run]};n={n}",
        progress=progress, cap=cap, segment_size=segment_size, allow_large=allow_large)
    notes = (f"boundary={boundary}-{boundary}"
             + ("; the strictest convention, so a pass implies every laxer one"
                if boundary == "open" else ""),)
    return _report(ClaimId.T1, f"2<=k<={k_max}; f(k)<=n<={n_max}; boundary={boundary}",
                   merged, perf_counter() - t0, notes)


# T2's floor below: H(y) = y/9 - U(y) rises from here on, since its slope
# 1/9 - 1.25506 u(y) is positive where u(y) = (ln y - 1)/ln^2 y < 1/(9 * 1.25506),
# and u falls from e^2 on with u(30000) = 0.0876 < 0.0885
_T2_KNEE = 30_000


@cache
def _t2_h_min() -> float:
    """A lower bound on H(y) = y/9 - U(y) over the integers 2 <= y <= _T2_KNEE."""
    y = np.arange(2, _T2_KNEE + 1, dtype=np.float64)
    margin = _FLOOR_MARGIN * (_T2_KNEE / 9 + float(_pi_upper_array(_T2_KNEE)))
    return float((y / 9 - _pi_upper_array(y)).min()) - margin


def verify_theorem2(k_max: int, n_max: int, *, workers: int = 1,
                    segment_size: int = DEFAULT_SEGMENT_SIZE,
                    cap: int = VIOLATION_CAP, allow_large: bool = False,
                    progress: bool | None = None) -> ClaimReport:
    """At most kn/9 + k^2 primes in [n, kn], checked closed-closed.

    The Rosser-Schoenfeld bounds L <= pi < U (see bounds) put the count
    pi(kn) - pi(n - 1) below U(kn) - L(n - 1), so the slack is above
    k^2 + H(kn) + L(n - 1), H(y) = y/9 - U(y).  With H replaced by its
    least value up to _T2_KNEE, below which H falls and past which it
    rises, that floor is nondecreasing in n.  A point is counted only
    while its floor is at most max(0, s), s being the slack of the first
    point, k = 2 and n = 1 (see _first_certified): past that it is no
    violation, and its slack is larger than one the report sees.  Per k,
    bisection finds the first point past it.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    if n_max < 1:
        raise ValueError(f"n_max must be >= 1, got {n_max}")
    _validate_range(0, k_max * n_max, allow_large)
    t0 = perf_counter()
    ks = np.arange(2, k_max + 1, dtype=np.int64)
    kf = ks.astype(np.float64)
    # the first point's slack: [1, 2] holds one prime
    floor_above = max(0.0, float(_mps_upper_bound_array(1, 2)) - 1)

    def ok(n):
        y = kf * n
        rhs = _mps_upper_bound_array(n, kf)
        upper = _pi_upper_array(y)
        lower = _pi_lower_array(n - 1)
        h = np.where(y > _T2_KNEE, rhs - upper, kf * kf + _t2_h_min())
        return h + lower - _FLOOR_MARGIN * (rhs + upper + lower) > floor_above

    ones = np.ones_like(ks)
    n_stop = _first_certified(ok, ones, np.full_like(ks, n_max))
    table = sieve_range(0, int((ks * (n_stop - 1)).max()), segment_size=segment_size,
                        allow_large=allow_large)

    def scan(run, ns):
        k = ks[run]
        cnt = table.pi(k * ns) - table.pi(ns - 1)
        rhs = _mps_upper_bound_array(ns, k)
        slack = rhs - cnt
        i = int(np.argmin(slack))
        # cnt > kn/9 + k^2, decided exactly in integers
        v = [Violation(f"k={int(k[j])};n={int(ns[j])}", int(cnt[j]), float(rhs[j]))
             for j in np.flatnonzero(9 * cnt > k * ns + 9 * k * k).tolist()]
        return v, (float(slack[i]), f"k={int(k[i])};n={int(ns[i])}")

    prog = _Progress("T2", _batches(ones, n_stop)[0], progress)
    merged = _scan_batches(prog, ones, n_stop, scan, (k_max - 1) * n_max, cap=cap)
    notes = ("boundary=closed-closed; the adversarial convention for an upper bound",)
    return _report(ClaimId.T2, f"2<=k<={k_max}; 1<=n<={n_max}; boundary=closed",
                   merged, perf_counter() - t0, notes)


def _theorem3_counts(table: PrimeTable, ks: np.ndarray) -> np.ndarray:
    """Primes in the open interval (k f(k), k (f(k) + 1)) per k."""
    f = f_of_k_array(ks)
    return table.pi(ks * (f + 1) - 1) - table.pi(ks * f)


def verify_theorem3(k_max: int, *, workers: int = 1,
                    segment_size: int = DEFAULT_SEGMENT_SIZE,
                    cap: int = VIOLATION_CAP, allow_large: bool = False,
                    progress: bool | None = None) -> ClaimReport:
    """A prime strictly between k*f(k) and k*(f(k)+1) for every k >= 2.

    With x = k f(k) + 1 >= 3275, the interval rule (see bounds) puts c
    primes in (x, g^c(x)], so in the interval when g^c(x) < k (f(k) + 1),
    c being the slack to reach.  On a run of k with one value v of f,
    g^c(x)/x falls as k grows and k(v + 1)/x = (v + 1)/(v + 1/k) rises, so
    once that holds it holds to the run's end.  Per run only the k before
    it holds are counted (see _interval_count_scan), none past k = 409.
    Nothing sized by k_max is allocated.
    """
    if k_max < 2:
        raise ValueError(f"k_max must be >= 2, got {k_max}")
    _validate_range(0, k_max * (f_of_k(k_max) + 1), allow_large)
    t0 = perf_counter()
    lo, hi = _f_levels(2, k_max)
    fv = np.arange(lo.size) + 2  # f on each run: f(2) = 2, then one more per run

    def ok(c, run, k):
        f = fv[run]
        return _rule_fits((k * f + 1).astype(np.float64), c, k * (f + 1.0))

    merged, _, _ = _interval_count_scan(
        ClaimId.T3, lo, hi, np.ones_like(lo), lambda table, run, k: _theorem3_counts(table, k),
        ok, lambda run, k: k * (fv[run] + 1), lambda run, k: f"k={k}",
        progress=progress, cap=cap, segment_size=segment_size, allow_large=allow_large)
    return _report(ClaimId.T3, f"2<=k<={k_max}; open interval k*f(k) .. k*(f(k)+1)",
                   merged, perf_counter() - t0)


def _gap_interval_counts(table: PrimeTable, ns: np.ndarray, boundary: str) -> np.ndarray:
    """Primes in (n, n + n/f(n)) per n; p < n + n/f iff f*p <= n(f+1) - 1, exactly."""
    f = f_of_k_array(ns)
    if boundary == "open":
        return table.pi((ns * (f + 1) - 1) // f) - table.pi(ns)
    return table.pi(ns * (f + 1) // f) - table.pi(ns - 1)


def _last_lattice_k(n: int) -> int:
    """The last k >= 1 with k*f(k) <= n, so 1 when no k >= 2 qualifies.

    k*f(k) is strictly increasing, so bisection finds it; f >= 2 bounds k
    by n/2.
    """
    return bisect_right(range(n // 2 + 1), n, lo=2, key=lambda k: k * f_of_k(k)) - 1


def verify_gap_interval(n_max: int, boundary: str = "open", *, workers: int = 1,
                        segment_size: int = DEFAULT_SEGMENT_SIZE,
                        cap: int = VIOLATION_CAP, allow_large: bool = False,
                        progress: bool | None = None) -> ClaimReport:
    """A prime in (n, n + n/f(n)) for every n >= 2, as stated.

    The blanket claim is expected to fail at some small n; those
    violations are honest findings, not errors.  The report also checks
    the lattice points n = k*f(k), where no violation occurs.

    Under either boundary the interval holds (n, n + n/f(n)).  With
    x = n + 1 >= 3275, the interval rule (see bounds) puts c primes in
    (x, g^c(x)], so in the interval when g^c(x) < n + n/f(n), c being the
    slack to reach.  On a run of n with one value v of f, g^c(x)/x falls
    and (n + n/v)/x rises with n, so once that holds it holds to the run's
    end.  Per run only the n before it holds are counted (see
    _interval_count_scan), none past n = 3273.
    """
    _check_boundary(boundary)
    if n_max < 2:
        raise ValueError(f"n_max must be >= 2, got {n_max}")

    def end(run, n):
        return n + n // 2 + 2  # g(n) <= 1.5n since f >= 2

    _validate_range(0, end(None, n_max), allow_large)
    t0 = perf_counter()

    def ok(c, run, n):
        return _rule_fits(n + 1.0, c, n * (1 + 1.0 / (run + 2)))  # f on run i is 2 + i

    lo, hi = _f_levels(2, n_max)
    merged, table, n_end = _interval_count_scan(
        ClaimId.GAP_INTERVAL, lo, hi, np.ones_like(lo),
        lambda table, run, n: _gap_interval_counts(table, n, boundary), ok, end,
        lambda run, n: f"n={n}", progress=progress, cap=cap, segment_size=segment_size,
        allow_large=allow_large)

    # lattice points n = k*f(k) <= n_max (k >= 2); those above the last
    # counted n are certified like every other n, so only the ones below
    # are counted
    ks = np.arange(2, _last_lattice_k(n_end) + 1, dtype=np.int64)
    lattice_bad = int(np.count_nonzero(
        _gap_interval_counts(table, ks * f_of_k_array(ks), boundary) < 1))
    notes = (
        "the blanket claim is expected to fail at small n; the violations "
        "listed are genuine findings",
        f"lattice cross-check: {_last_lattice_k(n_max) - 1} points n=k*f(k) in range, "
        f"{lattice_bad} violations among them",
        f"boundary={boundary}-{boundary}",
    )
    return _report(ClaimId.GAP_INTERVAL,
                   f"2<=n<={n_max}; interval n .. n + n/f(n); boundary={boundary}",
                   merged, perf_counter() - t0, notes)


def _firoozbakht_exact_slack(n: int, p: int, q: int) -> float:
    """(1 + 1/n) ln p - ln q at 200-bit precision (see _RECHECK), for near-tie rechecks."""
    with localcontext(_RECHECK):
        return float((1 + 1 / Decimal(n)) * Decimal(p).ln() - Decimal(q).ln())


# Relative width of Firoozbakht's near ties: a float slack at or below this
# share of the right side is judged again at 200-bit precision.
_FIROOZBAKHT_TIE = 1e-12


def verify_firoozbakht(limit: int, *, workers: int = 1,
                       segment_size: int = DEFAULT_SEGMENT_SIZE,
                       cap: int = VIOLATION_CAP, allow_large: bool = False,
                       progress: bool | None = None) -> ClaimReport:
    """p_{n+1} < p_n^(1 + 1/n) for every pair with p_{n+1} <= limit.

    Compared in log space; slacks within 1e-12 relative are recomputed at
    200-bit precision before being judged.  Pairs are built best first
    (see _scan_best_first): a segment whose slack floor is above that guard and
    the least slack found can change neither, so its pairs are counted
    without being built.
    """
    if limit < 3:
        raise ValueError(f"limit must be >= 3, got {limit}")
    t0 = perf_counter()
    rechecked = 0

    def guard(rows):
        # at least _FIROOZBAKHT_TIE |rhs| for every pair of the segment
        return _FIROOZBAKHT_TIE * (1.0 + 1.0 / rows[:, 0]) * np.log(rows[:, 3].astype(np.float64))

    def scan(n0, pv):
        nonlocal rechecked
        lg = np.log(pv.astype(np.float64))
        nn = np.arange(n0, n0 + pv.size - 1, dtype=np.int64)
        rhs = (1.0 + 1.0 / nn.astype(np.float64)) * lg[:-1]
        slack = rhs - lg[1:]
        i = int(np.argmin(slack))
        v = []
        for j in np.flatnonzero(slack <= _FIROOZBAKHT_TIE * np.abs(rhs)).tolist():
            n, p, q = n0 + j, int(pv[j]), int(pv[j + 1])
            rechecked += 1
            if _firoozbakht_exact_slack(n, p, q) <= 0:
                v.append(Violation(f"n={n};p_n={p}", q, firoozbakht_rhs(p, n)))
        return v, (float(slack[i]), f"n={n0 + i};p_n={int(pv[i])}")

    merged, shared_s = _scan_best_first(ClaimId.FIROOZBAKHT, limit, 1, guard, scan,
                                        segment_size=segment_size, allow_large=allow_large,
                                        progress=progress, cap=cap)
    notes = (f"log-space comparison with 1e-12 relative guard; "
             f"{rechecked} near-ties rechecked at 200-bit precision",)
    return _report(ClaimId.FIROOZBAKHT, f"pairs with p_next<={limit}",
                   merged, perf_counter() - t0 + shared_s, notes)


# Relative width of GapUpper's near ties.  With l = ln p and u = 2^-53, a
# log within 4 ulps gives ln^2 p - ln p to within 11u (l^2 + l); for p >= 11,
# l > 2 makes l <= l^2 - l, so that is below 33u (l^2 - l), and 2^-46 = 128u.
_GAP_UPPER_TIE = 2.0**-46


def _gap_upper_exact_slack(p: int, g: int) -> float:
    """(ln p)^2 - ln p - g at 200-bit precision (see _RECHECK), for near-tie rechecks."""
    with localcontext(_RECHECK):
        lp = Decimal(p).ln()
        return float(lp * lp - lp - g)


def verify_gap_upper(limit: int, *, workers: int = 1,
                     segment_size: int = DEFAULT_SEGMENT_SIZE,
                     cap: int = VIOLATION_CAP, allow_large: bool = False,
                     progress: bool | None = None) -> ClaimReport:
    """g_n < (ln p_n)^2 - ln p_n for every n > 4 with p_next <= limit.

    A float slack within _GAP_UPPER_TIE times the bound of 0 may have the
    wrong sign, so its pair is judged at 200-bit precision instead.
    Pairs are built best first (see _scan_best_first): a segment whose slack
    floor is above both 0 and the least slack found can change neither,
    so its pairs are counted without being built.
    """
    if limit < 13:
        raise ValueError(f"limit must be >= 13, got {limit}")
    t0 = perf_counter()

    def scan(n0, pv):
        skip = max(0, 5 - n0)  # the pairs with n <= 4 are outside the claim
        p = pv[skip:-1]
        g = (pv[skip + 1:] - p).astype(np.float64)
        bound = _gap_upper_bound_array(p)
        slack = bound - g
        i = int(np.argmin(slack))
        n = n0 + skip
        tol = _GAP_UPPER_TIE * bound
        v = [Violation(f"n={n + j};p_n={int(p[j])}", int(g[j]), float(bound[j]))
             for j in np.flatnonzero(slack <= tol).tolist()
             if slack[j] < -tol[j] or _gap_upper_exact_slack(int(p[j]), int(g[j])) <= 0]
        return v, (float(slack[i]), f"n={n + i};p_n={int(p[i])};g_n={int(g[i])}")

    merged, shared_s = _scan_best_first(ClaimId.GAP_UPPER, limit, 5, lambda rows: 0.0, scan,
                                        segment_size=segment_size, allow_large=allow_large,
                                        progress=progress, cap=cap)
    return _report(ClaimId.GAP_UPPER,
                   f"indices n>4 with p_next<={limit}; natural log",
                   merged, perf_counter() - t0 + shared_s)


def verify_basic_props(limit: int, *, workers: int = 1,
                       segment_size: int = DEFAULT_SEGMENT_SIZE,
                       cap: int = VIOLATION_CAP, allow_large: bool = False,
                       progress: bool | None = None) -> tuple[ClaimReport, ...]:
    """Three reports: n+1 <= p_n; theta(n) <= n*ln 4; the p_n bracket from n = 6.

    limit plays both roles: the largest prime index for the first and
    third checks and the largest primorial argument for the second.

    Each check's first point (n = 1; n = 2; n = 6; see _first_certified)
    has slack s.  A later point is left uncounted when a theorem (see bounds)
    puts its slack at or above max(1, s) (Prop4, whose slacks are
    integers) or strictly above max(0, s) (Prop6 and the bracket): it is
    no violation, and it cannot take the least slack from the first
    point.  Per check a bisection (see _first_certified) finds the first
    point whose floor clears that, and the floor does not fall after it:

    - Prop4: p_(n+1) >= p_n + 1, so p_n - n never falls below s.  Only
      n = 1 is counted.
    - Prop6: theta(x) < 1.01624 x puts the slack at every prime q >= x
      above (ln 4 - 1.01624) q.  The cumulative sum of its logs, at most
      m = 1.25506 limit/ln limit >= pi(limit) of them (see bounds), each
      within a few ulps, errs by at most (m + 8) u theta(q), u = 2^-53
      (the gamma_m bound of Higham, Accuracy and Stability of Numerical
      Algorithms, 2nd ed., ch. 4), and q ln 4 and the difference by a
      few u q more; the floor takes off 2u (m + 8) q for all of them, so
      it is linear in x, and the sum must match math.fsum to (m + 8) u
      of it.  Only 2, 3 and 5 are counted.
    - the bracket, from n = 20: the upper side is above n/2
      (Rosser-Schoenfeld (3.13)) and the lower side at least
      h(n) = n (ln ln n - 2.1)/ln n (Dusart 2010).  h is negative below
      n = 3520, and with l = ln n, h'(n) = ((l - 1)(ln l - 2.1) + 1)/l^2
      >= 1/l^2 from there.  A margin of 2^-40 of the upper side, whose
      slope is below 1/l^2 up to 2^63, covers the float error of the
      floor and of the scan.  So the floor is at most 0 <= max(0, s)
      before 3520 and nondecreasing after; it clears s = 1.2497 from
      n = 3603.

    Only the counted points' primes are generated: the first 3602 for
    any limit from 3603 on.
    """
    t_call = perf_counter()
    if limit < 6:
        raise ValueError(f"limit must be >= 6, got {limit}")
    _validate_range(0, _prime_bound(limit), allow_large)
    kw = {"segment_size": segment_size, "allow_large": allow_large}
    primes = _FIRST_PRIMES  # the first points' primes; replaced below

    # n + 1 <= p_n over 1 <= n <= limit; slack p_n - n is the distance to violation
    def prop4(run, ns):
        pn = primes[ns - 1]
        slack = pn - ns
        i = int(np.argmin(slack))
        v = [Violation(f"n={int(ns[j])}", int(pn[j]), int(ns[j]) + 1)
             for j in np.flatnonzero(pn < ns + 1).tolist()]
        return v, (int(slack[i]), f"n={int(ns[i])}")

    drift = 2.0**-53 * (float(_pi_upper_array(limit)) + 8)  # (m + 8) u; see Prop6 above

    # theta(n) <= n*ln4 over 2 <= n <= limit; theta only jumps at primes and
    # n*ln4 grows between jumps, so the margin is smallest at the jump points
    def prop6(x_stop):
        q = primes[: int(np.searchsorted(primes, x_stop - 1, side="right"))]
        qf = q.astype(np.float64)
        qlogs = np.log(qf)
        theta = np.cumsum(qlogs)
        fsum_check = math.fsum(qlogs.tolist())
        if abs(float(theta[-1]) - fsum_check) > drift * fsum_check:
            raise RuntimeError("cumulative log-primorial drifted from compensated sum")
        slack = qf * _LN4 - theta
        i = int(np.argmin(slack))
        bad = np.flatnonzero(slack <= 0).tolist()
        v = [Violation(f"n={int(q[j])}", float(theta[j]), float(qf[j] * _LN4))
             for j in bad[:cap]]
        return tuple(v), len(bad), (float(slack[i]), f"n={int(q[i])}"), limit - 1

    # n ln(n ln n / e) < p_n < n ln(n ln n) over 6 <= n <= limit
    def bracket(run, ns):
        lower, upper = _nth_prime_bounds_array(ns)
        p = primes[ns - 1].astype(np.float64)
        slack = np.minimum(p - lower, upper - p)
        i = int(np.argmin(slack))
        v = [Violation(f"n={int(ns[j])}", float(p[j]),
                       f"({float(lower[j])!r}; {float(upper[j])!r})")
             for j in np.flatnonzero((p <= lower) | (p >= upper)).tolist()]
        return v, (float(slack[i]), f"n={int(ns[i])}")

    def stop(ok, first: np.ndarray) -> np.ndarray:
        """One past the last point of first..limit that is counted."""
        return _first_certified(ok, first, np.array([limit]))

    one, six = np.array([1]), np.array([6])
    s4 = prop4(None, one)[1][0]
    stop4 = stop(lambda n: np.full(n.shape, s4 >= _least_counted_slack(s4)), one)
    need6 = max(0.0, prop6(3)[2][0])
    coef6 = _LN4 - THETA_UPPER_COEF - 2 * drift
    stop6 = stop(lambda x: coef6 * x > need6, np.array([2]))
    need_b = max(0.0, bracket(None, six)[1][0])

    def bracket_ok(n):
        lower, upper = _nth_prime_bounds_array(n)
        floor = np.minimum(upper - _nth_prime_upper_array(n), _nth_prime_lower_array(n) - lower)
        return (n >= NTH_PRIME_UPPER_FROM) & (floor - _FLOOR_MARGIN * upper > need_b)

    stop_b = stop(bracket_ok, six)
    # p_m > m, so the first m primes hold every prime below stop6 too
    primes = _primes_for_indices(int(max(stop4[0], stop6[0], stop_b[0])) - 1, **kw)
    prog = _Progress("props", _batches(one, stop4)[0] + 1 + _batches(six, stop_b)[0], progress)

    t0 = perf_counter()
    merged = _scan_batches(prog, one, stop4, prop4, limit, cap=cap)
    reports = [_report(ClaimId.PROP4, f"1<=n<={limit}", merged, perf_counter() - t0)]
    t0 = perf_counter()
    notes = ("checked at every prime jump point, where the margin over the "
             "whole range is smallest",)
    reports.append(_report(ClaimId.PROP6, f"2<=n<={limit}", prop6(stop6[0]),
                           perf_counter() - t0, notes))
    prog.tick()
    t0 = perf_counter()
    merged = _scan_batches(prog, six, stop_b, bracket, limit - 5, cap=cap)
    reports.append(_report(ClaimId.NTH_PRIME_BOUNDS, f"6<=n<={limit}", merged,
                           perf_counter() - t0))
    return _share_setup(reports, t_call)


def _lemma_scan(sides, param, base: LogBase, run: np.ndarray, x: np.ndarray):
    """Judge lhs < rhs under base: sides(base, run, x) gives both; param(run, x) names a point."""
    lhs, rhs = sides(base, run, x)
    slack = rhs - lhs
    i = int(np.argmin(slack))
    v = [Violation(param(int(run[j]), int(x[j])), float(lhs[j]), float(rhs[j]))
         for j in np.flatnonzero(lhs >= rhs).tolist()]
    return v, (float(slack[i]), param(int(run[i]), int(x[i])))


def _lemma_stop(sides, floor, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Per run, one past the last point counted from lo (see _first_certified).

    s_b is the first point's slack under base b, read through
    sides(b, run, x) as the scan reads it.  floor(x, b) is a lower
    bound on the slack under b at every point from x to the run's end,
    nondecreasing in x.  A point from which it is above max(0, s_b) under
    both bases, as both go into the notes, starts the certified rest of
    its run: those points are no violation and cannot take the least
    slack from the first point.
    """
    need = {}
    for base in LogBase:
        lhs, rhs = sides(base, np.zeros(1, dtype=np.int64), lo[:1])
        need[base] = max(0.0, float(rhs[0] - lhs[0]))

    def ok(x):
        return np.logical_and.reduce([floor(x, base) > need[base] for base in LogBase])

    return _first_certified(ok, lo, hi)


# L3's floor below: from here on L(n ln(n ln n))^2 >= 4.5088 under either base
_L3_KNEE = 29


def verify_lemmas(k_max: int, r_max: int, n_max: int, *, workers: int = 1,
                  segment_size: int = DEFAULT_SEGMENT_SIZE,
                  cap: int = VIOLATION_CAP, allow_large: bool = False,
                  progress: bool | None = None) -> tuple[ClaimReport, ...]:
    """Three reports sweeping the margin inequalities over their grids.

    The first two default to natural log, the third to base 10; every
    report records the outcome under both bases in its notes.  Each grid
    is scanned once per base (see _scan_batches and _lemma_scan), and the
    default base decides the report: L2's grid has one run of r per k.

    Each sweep counts only the points before the first one from which
    its floor certifies the rest of the run (see _lemma_stop; each floor
    takes off 2^-40 of its terms for float error):

    - L1 and L2, per k over r up to its last value t, m_t = f(k) + k + t
      >= 20: p_m < P = P(m_t), the Rosser-Schoenfeld bound (3.13), and
      |L(p)^2 - L(p)| grows with p from p = 5 on, the least p_m being 11.
      So the slack at r' >= r is at least (k + 4 + r)(f(k) + 1) - P
      - |L(P)^2 - L(P)|, which rises with r.  L1 has one point per k.
    - L3: both factors of rhs(n) = (2n/9 + 4) L(n ln(n ln n))^2 rise
      with n, and from n = 29 on L^2 >= 4.5088 under either base, so
      rhs(n) - n = n (2 L^2/9 - 1) + 4 L^2 rises too, even less
      2^-40 rhs(n).  The slack itself is the floor there.

    At the CLI defaults L1 counts its k <= 17, L2 its k below about 600
    and L3 its n <= 28; only their primes are generated.
    """
    t_call = perf_counter()
    if k_max < 5:
        raise ValueError(f"k_max must be >= 5, got {k_max}")
    if r_max < -2:
        raise ValueError(f"r_max must be >= -2, got {r_max}")
    if n_max < 5:
        raise ValueError(f"n_max must be >= 5, got {n_max}")
    if n_max - 5 > DEFAULT_RANGE_LIMIT and not allow_large:
        raise CapacityError(
            f"L3 range width {n_max - 5} exceeds the default limit {DEFAULT_RANGE_LIMIT}; "
            "set allow_large (CLI flag --allow-large) to override")
    _validate_range(0, _prime_bound(max(f_of_k(k_max) + k_max + r_max, 6)), allow_large)
    kw = {"segment_size": segment_size, "allow_large": allow_large}
    primes = _FIRST_PRIMES  # p_5 and p_6 for the first points; replaced below
    ks = np.arange(5, k_max + 1, dtype=np.int64)
    fk = f_of_k_array(ks)

    # L2: |L(p_m)^2 - L(p_m)| < (k+4+r)(f(k)+1) - p_m, m = f(k)+k+r, r in [-2, r_max];
    # L1 is its case r = -3, k in [5, k_max], so both sweep one run of r per k
    def l12_sides(base, run, r):
        k, f = ks[run], fk[run]
        p = primes[f + k + r - 1]
        return _lemma_lhs_array(p, base), _lemma_rhs_array(k, r, f, p)

    def l12_floor(top: int):
        m_top = fk + ks + top
        p_top = _nth_prime_upper_array(m_top)

        def floor(r, base):
            rhs = _lemma_rhs_array(ks, r, fk, p_top)
            lhs = _lemma_lhs_array(p_top, base)
            return np.where(m_top >= NTH_PRIME_UPPER_FROM,
                            rhs - lhs - _FLOOR_MARGIN * (rhs + 2 * p_top + lhs), -np.inf)
        return floor

    # n < (2n/9 + 4) * L(n*ln(n*ln n))^2, n in [5, n_max], base-10 default
    def l3_sides(base, run, n):
        return n.astype(np.float64), _lemma3_rhs_array(n, base)

    def l3_floor(n, base):
        rhs = _lemma3_rhs_array(n, base)
        return np.where(n >= _L3_KNEE, rhs - n - _FLOOR_MARGIN * rhs, -np.inf)

    sweeps = [
        (ClaimId.L1, f"5<=k<={k_max}", np.full_like(ks, -3), np.full_like(ks, -3), l12_sides,
         l12_floor(-3), lambda run, r: f"k={ks[run]}", LogBase.NAT),
        (ClaimId.L2, f"5<=k<={k_max}; -2<=r<={r_max}", np.full_like(ks, -2),
         np.full_like(ks, r_max), l12_sides, l12_floor(r_max),
         lambda run, r: f"k={ks[run]};r={r}", LogBase.NAT),
        (ClaimId.L3, f"5<=n<={n_max}", np.array([5]), np.array([n_max]), l3_sides, l3_floor,
         lambda run, n: f"n={n}", LogBase.TEN),
    ]
    stops = [_lemma_stop(sides, floor, lo, hi) for _, _, lo, hi, sides, floor, *_ in sweeps]
    m_counted = max(int((fk + ks + stop - 1)[stop > lo].max())
                    for (_, _, lo, *_), stop in zip(sweeps[:2], stops))
    primes = _primes_for_indices(max(m_counted, 6), **kw)
    prog = _Progress("lemmas", len(LogBase) * sum(
        _batches(lo, stop)[0] for (_, _, lo, *_), stop in zip(sweeps, stops)), progress)
    reports = []
    for (claim_id, desc, lo, hi, sides, _, param, default), stop in zip(sweeps, stops):
        t0 = perf_counter()
        merged = {base: _scan_batches(prog, lo, stop, partial(_lemma_scan, sides, param, base),
                                      int((hi + 1 - lo).sum()), cap=cap) for base in LogBase}
        notes = tuple(f"base={base.value}: violations={total}; min_slack={best[0]!r}; "
                      f"at={best[1]}" for base, (_, total, best, _) in merged.items())
        notes += (f"default base={default.value} decides holds; both bases recorded",)
        reports.append(_report(claim_id, desc, merged[default], perf_counter() - t0, notes))
    return _share_setup(reports, t_call)


@dataclass(frozen=True)
class CompareRow:
    n: int
    values: tuple[float, ...]
    next_prime: int


@dataclass(frozen=True)
class CompareTable:
    rule_names: tuple[str, ...]
    rows: tuple[CompareRow, ...]
    notes: tuple[str, ...] = ()


def compare_rules(n_lo: int, n_hi: int, rules: list[IntervalRule] | None = None, *,
                  segment_size: int = DEFAULT_SEGMENT_SIZE,
                  allow_large: bool = False) -> CompareTable:
    """One row per n in [n_lo, n_hi]: g(n) under each rule plus the next prime."""
    if rules is None:
        rules = [RULES[RuleName.BERTRAND], RULES[RuleName.NAGURA],
                 RULES[RuleName.PAPERGAP]]
    if not rules:
        raise ValueError("at least one rule is required")
    if n_lo < 1 or n_lo > n_hi:
        raise ValueError(f"need 1 <= n_lo <= n_hi, got n_lo={n_lo} n_hi={n_hi}")
    for rule in rules:
        if n_lo < rule.n_min:
            raise ThresholdError(
                f"rule {rule.name.value} requires n >= {rule.n_min}, got n_lo={n_lo}")
    # the next prime after n is at most g(n) under the interval rule from its
    # threshold on, and g grows; below it, at most 2n by Bertrand's postulate
    if n_hi < PRIME_INTERVAL_RULE.n_min:
        bound = 2 * n_hi + 2
    else:
        bound = int(float(_prime_interval_end_array(n_hi)) * (1 + _FLOOR_MARGIN))
    primes = sieve_range(n_lo + 1, bound, segment_size, allow_large=allow_large).primes()
    ns = np.arange(n_lo, n_hi + 1, dtype=np.int64)
    nxt = primes[np.searchsorted(primes, ns, side="right")]
    rows = tuple(
        CompareRow(int(n), tuple(rule_g(rule, int(n)) for rule in rules), int(q))
        for n, q in zip(ns.tolist(), nxt.tolist()))
    notes = ()
    if any(r.name is RuleName.PAPERGAP for r in rules) and n_lo <= 240 <= n_hi:
        notes = ("papergap(240) = 270 = 240 + 240/8; the value 280 sometimes "
                 "quoted for n=240 does not follow from n + n/f(n)",)
    return CompareTable(tuple(r.name.value for r in rules), rows, notes)


@dataclass(frozen=True)
class ClaimSpec:
    """One claim of the `verify` command: its CLI name, verifier and parameters.

    params maps each positional parameter of the verifier to its default,
    a desk-scale range that finishes in seconds.  boundary says whether
    the verifier also takes the interval convention.
    """

    name: str
    verifier: Callable[..., ClaimReport | tuple[ClaimReport, ...]]
    params: dict[str, int]
    boundary: bool = False

    def run(self, params: dict[str, int], boundary: str,
            **kw) -> tuple[ClaimReport, ...]:
        """Call the verifier with params and the common keywords kw."""
        if self.boundary:
            kw["boundary"] = boundary
        out = self.verifier(**params, **kw)
        return out if isinstance(out, tuple) else (out,)


# every claim in canonical output order
CLAIMS: tuple[ClaimSpec, ...] = (
    ClaimSpec("t1", verify_theorem1, {"k_max": 100, "n_max": 10_000}, boundary=True),
    ClaimSpec("t2", verify_theorem2, {"k_max": 50, "n_max": 10_000}),
    ClaimSpec("t3", verify_theorem3, {"k_max": 1_000_000}),
    ClaimSpec("gap-interval", verify_gap_interval, {"n_max": 10_000_000},
              boundary=True),
    ClaimSpec("firoozbakht", verify_firoozbakht, {"limit": 100_000_000}),
    ClaimSpec("gap-upper", verify_gap_upper, {"limit": 100_000_000}),
    ClaimSpec("props", verify_basic_props, {"limit": 1_000_000}),
    ClaimSpec("lemmas", verify_lemmas,
              {"k_max": 10_000, "r_max": 100, "n_max": 1_000_000}),
)


__all__ = [
    "ClaimId", "Violation", "ClaimReport", "CompareRow", "CompareTable",
    "ClaimSpec", "CLAIMS", "VIOLATION_CAP",
    "verify_theorem1", "verify_theorem2", "verify_theorem3",
    "verify_gap_interval", "verify_firoozbakht", "verify_gap_upper",
    "verify_basic_props", "verify_lemmas", "compare_rules",
]
