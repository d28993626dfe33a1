"""Independent reference implementations used only by tests.

Deliberately naive and written without the package's sieve or numpy so
they cannot share a bug with the code under test.  The references for f
and for the near-tie rechecks use mpmath, which the package does not.
"""

import math
from bisect import bisect_left, bisect_right

import mpmath

# Bound on the float64 error of |L^2 - L|, relative to L^2 + |L|, with u =
# 2^-53: math.log and math.log10 are within 1 ulp (2u) of the exact
# logarithm, and the square, the difference and the abs add at most u each,
# 7u to first order; 16u covers the second-order terms with room to spare.
LEMMA_FLOAT_ERR = 16 * 2.0**-53

_LOGS = {"ln": (math.log, mpmath.log), "log10": (math.log10, mpmath.log10)}


def trial_division_is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n < 4:
        return True
    if n % 2 == 0:
        return False
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# Miller-Rabin to the first twelve prime bases, 2 to 37, has no strong
# pseudoprime below psi_12 = 318665857834031151167461, about 3.2e23
# (Sorenson and Webster, "Strong pseudoprimes to twelve prime bases",
# Math. Comp. 86, 2017); adding 41 extends that to about 3.3e24
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
MR_EXACT_BELOW = 318665857834031151167461


def miller_rabin_is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin test to the bases _MR_BASES, for n < MR_EXACT_BELOW."""
    if n >= MR_EXACT_BELOW:
        raise ValueError(f"{n} is not below {MR_EXACT_BELOW}")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def naive_sieve(limit: int) -> bytearray:
    """Plain byte-per-integer sieve; flags[i] == 1 iff i is prime."""
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    p = 2
    while p * p <= limit:
        if flags[p]:
            flags[p * p :: p] = bytes(len(range(p * p, limit + 1, p)))
        p += 1
    return flags


def naive_sieve_window(lo: int, hi: int) -> bytearray:
    """flags[i] == 1 iff lo + i is prime, for lo <= lo + i <= hi: the window
    with the multiples of naive_sieve's primes up to sqrt(hi) crossed off."""
    flags = bytearray([1]) * (hi - lo + 1)
    for x in range(lo, min(hi, 1) + 1):
        flags[x - lo] = 0
    for p in primes_from_flags(naive_sieve(math.isqrt(hi))):
        start = max(p * p, -(-lo // p) * p)
        flags[start - lo :: p] = bytes(len(range(start, hi + 1, p)))
    return flags


def primes_from_flags(flags: bytearray) -> list[int]:
    return [i for i, f in enumerate(flags) if f]


def primes_between(primes: list[int], lo: int, hi: int) -> list[int]:
    """Primes p with lo <= p <= hi from a sorted list."""
    return primes[bisect_left(primes, lo) : bisect_right(primes, hi)]


def oracle_f(k: int) -> int:
    """ceil(1.1 * ln(2.5k)) from exact rationals at 150-bit precision."""
    with mpmath.workprec(150):
        x = (mpmath.log(5 * k) - mpmath.log(2)) * 11 / 10
        return int(mpmath.ceil(x))


def oracle_firoozbakht_slack(n: int, p: int, q: int) -> float:
    """(1 + 1/n) ln p - ln q at 200 bits, rounded to a float."""
    with mpmath.workprec(200):
        return float((1 + mpmath.mpf(1) / n) * mpmath.log(p) - mpmath.log(q))


def oracle_gap_upper_slack(p: int, g: int) -> float:
    """(ln p)^2 - ln p - g at 200 bits, rounded to a float."""
    with mpmath.workprec(200):
        lp = mpmath.log(p)
        return float(lp * lp - lp - g)


def oracle_first_primes(count: int) -> list[int]:
    """The first count primes, doubling naive_sieve's limit until it has them."""
    limit = 16
    while True:
        ps = primes_from_flags(naive_sieve(limit))
        if len(ps) >= count:
            return ps[:count]
        limit *= 2


def oracle_lemma_sweep(k_max: int, rs: range | list[int], base: str = "ln"):
    """Enumerate |L(p_m)^2 - L(p_m)| < (k+4+r)(f(k)+1) - p_m, m = f(k)+k+r.

    L2 is this claim over r >= -2. L1 is the single case r = -3, where the
    right side reads (k+1)(f(k)+1) - p_m with m = f(k)+k-3. k runs over
    [5, k_max] in the outer loop and r over rs in the inner one; L is ln or
    log10 by base. Returns (violations, (min_slack, (k, r))): the violating
    (k, r, lhs, rhs) in loop order, and the least rhs - lhs with its site.
    The right side is an exact int. A point whose float left side lies within
    LEMMA_FLOAT_ERR * (L^2 + |L|) of it is decided again by mpmath at 200 bits.
    """
    log, mp_log = _LOGS[base]
    fs = {k: oracle_f(k) for k in range(5, k_max + 1)}
    ps = oracle_first_primes(max(f + k for k, f in fs.items()) + max(rs))
    violations, best = [], None
    for k, f in fs.items():
        for r in rs:
            p = ps[f + k + r - 1]
            lv = log(p)
            lhs = abs(lv * lv - lv)
            rhs = (k + 4 + r) * (f + 1) - p
            if abs(lhs - rhs) <= LEMMA_FLOAT_ERR * (lv * lv + abs(lv)):
                with mpmath.workprec(200):
                    lx = mp_log(p)
                    bad = abs(lx * lx - lx) >= rhs
            else:
                bad = lhs >= rhs
            if bad:
                violations.append((k, r, lhs, rhs))
            if best is None or rhs - lhs < best[0]:
                best = (rhs - lhs, (k, r))
    return violations, best


def oracle_next_prime(n: int, flags: bytearray) -> int:
    p = n + 1
    while not flags[p]:
        p += 1
    return p


def oracle_gap_records(limit: int) -> list[tuple[int, int, int, int]]:
    """(n, p_n, p_next, gap) for consecutive primes with p_next <= limit."""
    ps = primes_from_flags(naive_sieve(limit))
    return [(i + 1, ps[i], ps[i + 1], ps[i + 1] - ps[i])
            for i in range(len(ps) - 1)]
