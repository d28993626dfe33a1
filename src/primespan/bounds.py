"""Closed-form evaluators: the threshold function f, prime and gap bounds,
lemma margins, and the catalog of prime-interval rules.

All functions are pure apart from read-only nth-prime lookups, so they are
safe for unrestricted parallel use.  Inequality margins can be evaluated
under either natural or base-10 logarithms; every Margin records the base
that produced it.  sieve.py sizes its streams with the pi(x) and p_n
bounds here, so the lemma margins import nth_prime only when called.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from decimal import MAX_EMAX, Context, Decimal, localcontext
from enum import Enum
from functools import cache

import numpy as np

from .errors import CeilingAmbiguityError, ThresholdError

# exp(gamma) for the heuristic gap coefficient (gamma itself is 0.5772...)
EXP_EULER_GAMMA = 1.78107241799


class LogBase(str, Enum):
    """Logarithm base for inequality margins."""

    NAT = "ln"
    TEN = "log10"


_NP_LOG = {LogBase.NAT: np.log, LogBase.TEN: np.log10}  # for the array forms


@dataclass(frozen=True)
class Margin:
    """Two sides of an inequality lhs < rhs, with slack = rhs - lhs."""

    lhs: float
    rhs: float
    slack: float
    holds: bool
    base: LogBase

    @classmethod
    def of(cls, lhs: float, rhs: float, base: LogBase) -> "Margin":
        lhs = float(lhs)
        rhs = float(rhs)
        return cls(lhs=lhs, rhs=rhs, slack=rhs - lhs, holds=lhs < rhs, base=base)


def f_of_k(k: int) -> int:
    """ceil(1.1 * ln(2.5k)), for any int k >= 1, read off the exact steps of _f_start."""
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    v = max(2, math.ceil(1.1 * (math.log(k) + math.log(2.5))))  # a float guess
    while v > 2 and _f_start(v) > k:
        v -= 1
    while _f_start(v + 1) <= k:
        v += 1
    return v


@cache
def _f_start(v: int) -> int:
    """The least k >= 1 with f(k) >= v.

    f(k) >= v exactly when 1.1 ln(2.5k) > v - 1, that is k >= floor(y) + 1,
    y = e^(10(v - 1)/11)/2.5, which is transcendental.  y, whose integer
    part has under 0.395v digits, is computed in decimal to 2v/5 + 20
    digits, rounding exp and division correctly, so within 10^-16; one
    within 2^-32 of an integer raises CeilingAmbiguityError rather than
    risk the floor.  Every step below 2^63 clears that by more than 0.004.
    """
    if v <= 2:
        return 1
    with localcontext(Context(prec=2 * v // 5 + 20, Emax=MAX_EMAX)):
        y = (Decimal(10 * (v - 1)) / 11).exp() / Decimal("2.5")
        k = int(y)  # floor, as y > 0
        if not 2.0**-32 < y - k < 1 - 2.0**-32:
            raise CeilingAmbiguityError(f"f's step to {v} lies too close to k = {k}")
    return k + 1


def f_of_k_array(k) -> np.ndarray:
    """f_of_k over an int64 array, looked up among the steps of _f_start.

    f(1) = 2 and f steps up by at most one per k, so f(k) is 2 plus the
    number of steps at or below k.
    """
    k = np.asarray(k, dtype=np.int64)
    if k.size == 0:
        return np.zeros(k.shape, dtype=np.int64)
    if int(k.min()) < 1:
        raise ValueError("k must be >= 1")
    starts = np.array([_f_start(v) for v in range(3, f_of_k(int(k.max())) + 1)],
                      dtype=np.int64)
    out = np.searchsorted(starts, k, side="right")
    out += 2
    return out


def s_index(k: int) -> int:
    """Index i of the set S_i = {k : f(k) = i + 1} containing k."""
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return f_of_k(k) - 1


def _one(x: int) -> np.ndarray:
    """x as a length-1 array whose object dtype keeps Python-int arithmetic past int64."""
    return np.array([x], dtype=object)


def _mps_upper_bound_array(n: np.ndarray, k: int) -> np.ndarray:
    """kn/9 + k^2 over an integer array n."""
    return k * n / 9.0 + k * k


def mps_upper_bound(n: int, k: int) -> float:
    """Upper bound kn/9 + k^2 on the prime count between n and kn."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if k < 2:
        raise ValueError(f"k must be >= 2, got {k}")
    return float(_mps_upper_bound_array(_one(n), k)[0])


def _nth_prime_bounds_array(n: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """n*ln(n*ln(n)/e) and n*ln(n*ln(n)) over an integer array n."""
    nf = n.astype(np.float64)
    u = np.log(nf * np.log(nf))
    return nf * (u - 1.0), nf * u


def nth_prime_bounds(n: int) -> tuple[float, float]:
    """Bracket n*ln(n*ln(n)/e) < p_n < n*ln(n*ln(n)), valid from n = 6."""
    if n < 6:
        raise ValueError(f"n must be >= 6, got {n}")
    lower, upper = _nth_prime_bounds_array(_one(n))
    return float(lower[0]), float(upper[0])


def firoozbakht_rhs(p_n: int, n: int) -> float:
    """p_n^(1 + 1/n), the strict upper bound on p_{n+1}."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if p_n < 2:
        raise ValueError(f"p_n must be >= 2, got {p_n}")
    return math.exp((1.0 + 1.0 / n) * math.log(p_n))


def _gap_upper_bound_array(p_n: np.ndarray) -> np.ndarray:
    """(ln p_n)^2 - ln p_n over an integer array of primes."""
    ln = np.log(p_n.astype(np.float64))
    return ln * ln - ln


def gap_upper_bound(p_n: int) -> float:
    """(ln p_n)^2 - ln p_n, the gap bound for indices n > 4 (p_n >= 11)."""
    if p_n < 11:
        raise ValueError(f"p_n must be >= 11 (index n > 4), got {p_n}")
    return float(_gap_upper_bound_array(_one(p_n))[0])


def gap_lower_heuristic(p_n: int, eps: float) -> float:
    """Heuristic lower bound (2 - eps)/e^gamma * (ln p_n)^2 on maximal gaps."""
    if not 0 < eps <= 2:
        raise ValueError(f"eps must lie in (0, 2], got {eps}")
    if p_n < 2:
        raise ValueError(f"p_n must be >= 2, got {p_n}")
    ln = math.log(p_n)
    return (2.0 - eps) / EXP_EULER_GAMMA * ln * ln


class RuleName(str, Enum):
    BERTRAND = "bertrand"
    NAGURA = "nagura"
    SCHOENFELD = "schoenfeld"
    DUSART1998 = "dusart1998"
    DUSART2010 = "dusart2010"
    DUSART2016 = "dusart2016"
    PAPERGAP = "papergap"


@dataclass(frozen=True)
class IntervalRule:
    """Named rule guaranteeing a prime in (n, g(n)) for all n >= n_min."""

    name: RuleName
    n_min: int
    description: str


RULES: dict[RuleName, IntervalRule] = {
    RuleName.BERTRAND: IntervalRule(RuleName.BERTRAND, 1, "g(n) = 2n"),
    RuleName.NAGURA: IntervalRule(RuleName.NAGURA, 25, "g(n) = 6n/5"),
    RuleName.SCHOENFELD: IntervalRule(RuleName.SCHOENFELD, 2010760,
                                      "g(n) = n(1 + 1/16597)"),
    RuleName.DUSART1998: IntervalRule(RuleName.DUSART1998, 3275,
                                      "g(n) = n(1 + 1/(2 ln^2 n))"),
    RuleName.DUSART2010: IntervalRule(RuleName.DUSART2010, 396738,
                                      "g(n) = n(1 + 1/(25 ln^2 n))"),
    RuleName.DUSART2016: IntervalRule(RuleName.DUSART2016, 468991632,
                                      "g(n) = n(1 + 1/(5000 ln^2 n))"),
    RuleName.PAPERGAP: IntervalRule(RuleName.PAPERGAP, 2,
                                    "g(n) = n + n/f(n), stated for n >= 2 "
                                    "but falsified at some small n"),
}


# g(n) = n(1 + 1/(c ln^2 n)) for the Dusart rules, by c
_DUSART_C = {RuleName.DUSART1998: 2, RuleName.DUSART2010: 25, RuleName.DUSART2016: 5000}


def rule_g(rule: IntervalRule, n: int) -> float:
    """Right endpoint g(n) of the rule's prime interval."""
    if n < rule.n_min:
        raise ThresholdError(
            f"rule {rule.name.value} requires n >= {rule.n_min}, got {n}")
    name = rule.name
    if name is RuleName.BERTRAND:
        return float(2 * n)
    if name is RuleName.NAGURA:
        return 6 * n / 5
    if name is RuleName.SCHOENFELD:
        return n * (1 + 1 / 16597)
    if name is RuleName.PAPERGAP:
        return n + n / f_of_k(n)
    if name in _DUSART_C:
        return n * (1 + 1 / (_DUSART_C[name] * math.log(n) ** 2))
    raise ValueError(f"unknown rule {rule.name!r}")


# The verifiers' interval rule: a prime in (x, x(1 + 1/(2 ln^2 x))] for every
# real x >= 3275.  For x >= 396738 it follows from DUSART2010 (Dusart 2010,
# arXiv:1002.0442, Prop. 6.8), as 1/(25 ln^2 x) < 1/(2 ln^2 x); below that,
# tests/test_bounds.py checks it against the sieve.
PRIME_INTERVAL_RULE = RULES[RuleName.DUSART1998]


def _prime_interval_end_array(x, c: int = 1) -> np.ndarray:
    """g^c(x), g applied c times, per real x >= 3275, g(x) = x(1 + 1/(2 ln^2 x)).

    (x, g(x)] holds a prime, and g increases, so (x, g^c(x)] holds c of
    them: one in (x, g(x)], the next in (p, g(p)] within (p, g(g(x))], and
    so on.  g(x)/x decreases, so g^c(x)/x does too.
    """
    y = np.asarray(x, dtype=np.float64)
    coef = _DUSART_C[PRIME_INTERVAL_RULE.name]
    for _ in range(c):
        ln = np.log(y)
        y = y * (1 + 1 / (coef * ln * ln))
    return y


# Rosser and Schoenfeld (Illinois J. Math. 6, 1962, Cor. 1):
# pi(x) > x / ln x for x >= 17, and pi(x) < 1.25506 x / ln x for x > 1
PI_LOWER_FROM = 17
PI_UPPER_COEF = 1.25506


def _pi_lower_array(x) -> np.ndarray:
    """A lower bound on pi(x) per real x >= 0, nondecreasing in x: x / ln x from 17 on, else 0."""
    x = np.asarray(x, dtype=np.float64)
    return np.where(x >= PI_LOWER_FROM, x / np.log(np.maximum(x, PI_LOWER_FROM)), 0.0)


def _pi_upper_array(x) -> np.ndarray:
    """PI_UPPER_COEF x / ln x per real x > 1, above pi(x)."""
    x = np.asarray(x, dtype=np.float64)
    return PI_UPPER_COEF * x / np.log(x)


# Rosser and Schoenfeld (Illinois J. Math. 6, 1962, Thm. 9): theta(x) < 1.01624 x for x > 0
THETA_UPPER_COEF = 1.01624

# p_n < n(ln n + ln ln n - 1/2) for n >= 20 (Rosser and Schoenfeld 1962, (3.13)), and
# p_n >= n(ln n + ln ln n - 1 + (ln ln n - 2.1)/ln n) for n >= 3 (Dusart 2010, arXiv:1002.0442)
NTH_PRIME_UPPER_FROM = 20
NTH_PRIME_LOWER_FROM = 3


def _nth_prime_upper_array(n) -> np.ndarray:
    """n(ln n + ln ln n - 1/2) per real n >= NTH_PRIME_UPPER_FROM, above p_n; it increases."""
    n = np.asarray(n, dtype=np.float64)
    ln = np.log(n)
    return n * (ln + np.log(ln) - 0.5)


def _nth_prime_lower_array(n) -> np.ndarray:
    """n(ln n + ln ln n - 1 + (ln ln n - 2.1)/ln n) per real n >= NTH_PRIME_LOWER_FROM, at most p_n."""
    n = np.asarray(n, dtype=np.float64)
    ln = np.log(n)
    lnln = np.log(ln)
    return n * (ln + lnln - 1.0 + (lnln - 2.1) / ln)


def _f_levels(lo: int, hi: int) -> tuple[np.ndarray, np.ndarray]:
    """The maximal runs [a, b] of [lo, hi] on which f_of_k is constant, as arrays a and b."""
    starts = [lo] + [_f_start(v) for v in range(f_of_k(lo) + 1, f_of_k(hi) + 1)]
    a = np.array(starts, dtype=np.int64)
    return a, np.append(a[1:] - 1, hi)


def _lemma_lhs_array(p_m: np.ndarray, base: LogBase) -> np.ndarray:
    """|L(p_m)^2 - L(p_m)| over an integer array of primes, the left side of L1 and L2."""
    lv = _NP_LOG[base](p_m.astype(np.float64))
    return np.abs(lv * lv - lv)


def _lemma_rhs_array(k, r, fk, p_m) -> np.ndarray:
    """(k+4+r)(f(k)+1) - p_m over broadcast integer arrays, the right side of L2.

    L1 is the case r = -3, where m = f(k) + k - 3 and the factor is k + 1.
    """
    return ((k + 4 + r) * (fk + 1) - p_m).astype(np.float64)


def _lemma_margin(k: int, r: int, base: LogBase) -> Margin:
    from .sieve import nth_prime  # here, as sieve imports this module's bounds

    fk = f_of_k(k)
    p = _one(nth_prime(fk + k + r))
    return Margin.of(_lemma_lhs_array(p, base)[0], _lemma_rhs_array(k, r, fk, p)[0], base)


def lemma1_margin(k: int, base: LogBase = LogBase.NAT) -> Margin:
    """|L(p_m)^2 - L(p_m)| < (k+1)(f(k)+1) - p_m with m = f(k) + k - 3, for k >= 5."""
    if k < 5:
        raise ValueError(f"k must be >= 5, got {k}")
    return _lemma_margin(k, -3, base)


def lemma2_margin(k: int, r: int, base: LogBase = LogBase.NAT) -> Margin:
    """|L(p_m)^2 - L(p_m)| < (k+4+r)(f(k)+1) - p_m with m = f(k) + k + r, r >= -2."""
    if k < 5:
        raise ValueError(f"k must be >= 5, got {k}")
    if r < -2:
        raise ValueError(f"r must be >= -2, got {r}")
    return _lemma_margin(k, r, base)


def _lemma3_rhs_array(n: np.ndarray, base: LogBase) -> np.ndarray:
    """(2n/9 + 4) * L(n*ln(n*ln n))^2 over an integer array n, the right side of L3."""
    lv = _NP_LOG[base](_nth_prime_bounds_array(n)[1])
    return (2.0 * n.astype(np.float64) / 9.0 + 4.0) * lv * lv


def lemma3_margin(n: int, base: LogBase = LogBase.TEN) -> Margin:
    """n < (2n/9 + 4) * L(n*ln(n*ln n))^2 for n >= 5, base-10 log by default."""
    if n < 5:
        raise ValueError(f"n must be >= 5, got {n}")
    return Margin.of(float(n), _lemma3_rhs_array(_one(n), base)[0], base)


__all__ = [
    "LogBase", "Margin", "RuleName", "IntervalRule", "RULES",
    "EXP_EULER_GAMMA",
    "f_of_k", "f_of_k_array", "s_index", "mps_upper_bound", "nth_prime_bounds",
    "firoozbakht_rhs", "gap_upper_bound", "gap_lower_heuristic", "rule_g",
    "lemma1_margin", "lemma2_margin", "lemma3_margin",
]
