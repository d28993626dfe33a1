"""Unit tests for the closed-form bound catalog."""

import math

import numpy as np
import pytest

import primespan.bounds as bounds
from primespan import (RULES, IntervalRule, LogBase,
                       Margin, RuleName, ThresholdError, f_of_k, f_of_k_array,
                       firoozbakht_rhs, gap_lower_heuristic, gap_upper_bound,
                       iter_prime_pairs, lemma1_margin, lemma2_margin,
                       lemma3_margin, mps_upper_bound, nth_prime_bounds, rule_g,
                       s_index)

from oracles import naive_sieve, oracle_f, primes_from_flags


def test_f_of_k_fixtures():
    for k, v in [(1, 2), (2, 2), (3, 3), (4, 3), (5, 3), (6, 3), (7, 4),
                 (10, 4), (16, 5), (37, 5), (38, 6), (240, 8), (10**6, 17)]:
        assert f_of_k(k) == v, k
    with pytest.raises(ValueError):
        f_of_k(0)


def test_f_of_k_matches_high_precision_oracle():
    for k in range(1, 2001):
        assert f_of_k(k) == oracle_f(k), k
    for k in (10**4, 10**5, 10**6, 10**9):
        assert f_of_k(k) == oracle_f(k), k


def test_f_of_k_nondecreasing():
    vals = [f_of_k(k) for k in range(1, 2001)]
    assert all(a <= b for a, b in zip(vals, vals[1:]))


def test_f_of_k_array_matches_scalar():
    ks = np.arange(1, 5001, dtype=np.int64)
    got = f_of_k_array(ks)
    assert got.tolist() == [f_of_k(int(k)) for k in ks]
    # k - 1, k and k + 1 around every breakpoint of f up to 2^62
    starts = [k for k in range(2, 5001) if f_of_k(k) > f_of_k(k - 1)]
    v = f_of_k(5000) + 1
    while True:
        lo, hi = 1, 2**62
        if f_of_k(hi) < v:
            break
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (lo, mid) if f_of_k(mid) >= v else (mid, hi)
        starts.append(hi)
        v += 1
    assert len(starts) >= 45
    near = np.array([k + d for k in starts for d in (-1, 0, 1)], dtype=np.int64)
    assert f_of_k_array(near).tolist() == [f_of_k(int(k)) for k in near]
    with pytest.raises(ValueError):
        f_of_k_array(np.array([0]))


def test_f_of_k_steps_below_2_63_match_oracle():
    # every step of f below 2^63 from its closed form, at k - 1 and at k
    steps = [bounds._f_start(v) for v in range(3, 51)]
    assert steps[-1] == 8869621643726889086 < 2**63 < bounds._f_start(51)
    ks = [k + d for k in steps for d in (-1, 0)]
    assert [f_of_k(k) for k in ks] == [oracle_f(k) for k in ks] == [
        v + d for v in range(3, 51) for d in (-1, 0)]
    assert f_of_k_array(np.array(ks, dtype=np.int64)).tolist() == [oracle_f(k) for k in ks]
    # and past int64, where only the scalar goes
    for k in (2**63, 10**30, 10**400):
        assert f_of_k(k) == oracle_f(k)


def test_s_index():
    assert s_index(2) == 1
    assert s_index(240) == 7
    with pytest.raises(ValueError):
        s_index(1)


def test_mps_upper_bound():
    assert mps_upper_bound(10, 3) == pytest.approx(3 * 10 / 9 + 9)
    assert mps_upper_bound(1, 2) == pytest.approx(2 / 9 + 4)
    with pytest.raises(ValueError):
        mps_upper_bound(0, 2)
    with pytest.raises(ValueError):
        mps_upper_bound(10, 1)


def test_scalar_bounds_beyond_int64():
    # the scalar functions keep Python-int arithmetic past 2^63
    for n, k in ((2**62, 2), (2**62 + 1, 2), (10**17, 100)):
        assert mps_upper_bound(n, k) == k * n / 9 + k * k
    assert mps_upper_bound(10**17, 100) > 1.1e18  # k*n is above 2^63
    for x in (2**63 - 1, 2**63, 10**30):
        ln = math.log(x)
        assert gap_upper_bound(x) == pytest.approx(ln * ln - ln, rel=1e-15)
        u = math.log(x * math.log(x))
        assert nth_prime_bounds(x) == pytest.approx((x * (u - 1.0), x * u), rel=1e-15)
        m = lemma3_margin(x)
        assert m.lhs == float(x)
        assert m.rhs == pytest.approx((2 * x / 9 + 4) * math.log10(x * u) ** 2, rel=1e-14)


def test_nth_prime_bounds_bracket():
    primes = primes_from_flags(naive_sieve(30000))
    for n in range(6, 3001):
        lo, hi = nth_prime_bounds(n)
        assert lo < primes[n - 1] < hi, n
    with pytest.raises(ValueError):
        nth_prime_bounds(5)


def test_nth_prime_bounds_values():
    lo, hi = nth_prime_bounds(10)
    assert hi - lo == pytest.approx(10.0, rel=1e-12)
    assert lo == pytest.approx(10 * (math.log(10 * math.log(10)) - 1), rel=1e-12)


def test_firoozbakht_rhs():
    assert firoozbakht_rhs(11, 5) == pytest.approx(17.769337, abs=1e-5)
    assert firoozbakht_rhs(2, 1) == pytest.approx(4.0, rel=1e-12)
    with pytest.raises(ValueError):
        firoozbakht_rhs(1, 1)
    with pytest.raises(ValueError):
        firoozbakht_rhs(11, 0)


def test_gap_upper_bound_values():
    assert gap_upper_bound(11) == pytest.approx(3.352007, abs=1e-5)
    assert gap_upper_bound(13) == pytest.approx(4.014017, abs=1e-5)
    assert gap_upper_bound(101) == pytest.approx(16.684217, abs=1e-5)
    with pytest.raises(ValueError):
        gap_upper_bound(7)


def test_gap_lower_heuristic():
    want = (2.0 - 1.0) / math.exp(0.5772156649015329) * math.log(11) ** 2
    assert gap_lower_heuristic(11, 1.0) == pytest.approx(want, rel=1e-9)
    assert gap_lower_heuristic(11, 2.0) == 0.0
    with pytest.raises(ValueError):
        gap_lower_heuristic(11, 0.0)
    with pytest.raises(ValueError):
        gap_lower_heuristic(11, 2.5)
    with pytest.raises(ValueError):
        gap_lower_heuristic(1, 1.0)


def test_margin_of():
    m = Margin.of(3.0, 5.0, LogBase.NAT)
    assert m.slack == 2.0 and m.holds and m.base is LogBase.NAT
    m = Margin.of(5.0, 5.0, LogBase.TEN)
    assert not m.holds and m.slack == 0.0


def test_lemma1_margin():
    m = lemma1_margin(5)
    assert m.rhs == 13.0
    assert m.lhs == pytest.approx(3.352007, abs=1e-5)
    assert m.holds and m.base is LogBase.NAT
    with pytest.raises(ValueError):
        lemma1_margin(4)


def test_lemma1_equals_lemma2_at_shared_index():
    # k=10 in the first family and (k=7, r=0) in the second both hit m=11
    a = lemma1_margin(10)
    b = lemma2_margin(7, 0)
    assert a.lhs == b.lhs and a.rhs == b.rhs == 24.0


def test_lemma2_margin():
    m = lemma2_margin(5, -2)
    assert m.rhs == 15.0
    assert m.lhs == pytest.approx(4.014017, abs=1e-5)
    # the second family is falsified at some points; margins stay honest
    m = lemma2_margin(5, 11)
    assert m.rhs == 13.0 and not m.holds
    assert m.lhs == pytest.approx(13.474745, abs=1e-5)
    with pytest.raises(ValueError):
        lemma2_margin(4, 0)
    with pytest.raises(ValueError):
        lemma2_margin(5, -3)


def test_lemma2_base10_variant():
    m = lemma2_margin(5, 11, LogBase.TEN)
    assert m.base is LogBase.TEN
    lg = math.log10(67)
    assert m.lhs == pytest.approx(abs(lg * lg - lg), rel=1e-12)


def test_lemma3_margin():
    m = lemma3_margin(5)
    assert m.base is LogBase.TEN
    assert m.lhs == 5.0
    assert m.slack == pytest.approx(0.298259, abs=1e-5)
    assert m.holds
    with pytest.raises(ValueError):
        lemma3_margin(4)


def test_lemma_margins_match_oracle_primes():
    # m = f(k) + k + r: p_5 = 11 for L1 at k = 5, p_10 = 29 for L2 at k = 7, r = 0
    primes = primes_from_flags(naive_sieve(1000))
    for margin, k, r in ((lemma1_margin(5), 5, -3), (lemma2_margin(7, 0), 7, 0)):
        p = primes[f_of_k(k) + k + r - 1]
        lv = math.log(p)
        assert margin.lhs == pytest.approx(abs(lv * lv - lv), rel=1e-15)
        assert margin.rhs == (k + 4 + r) * (f_of_k(k) + 1) - p


def test_rules_registry():
    assert set(RULES) == set(RuleName)
    assert RULES[RuleName.BERTRAND].n_min == 1
    assert RULES[RuleName.NAGURA].n_min == 25
    assert RULES[RuleName.SCHOENFELD].n_min == 2010760
    assert RULES[RuleName.DUSART1998].n_min == 3275
    assert RULES[RuleName.DUSART2010].n_min == 396738
    assert RULES[RuleName.DUSART2016].n_min == 468991632
    assert RULES[RuleName.PAPERGAP].n_min == 2


def test_rule_g_values():
    assert rule_g(RULES[RuleName.BERTRAND], 240) == 480.0
    assert rule_g(RULES[RuleName.NAGURA], 240) == pytest.approx(288.0)
    assert rule_g(RULES[RuleName.PAPERGAP], 240) == pytest.approx(270.0)
    n = 2010760
    assert rule_g(RULES[RuleName.SCHOENFELD], n) == pytest.approx(n * (1 + 1 / 16597))
    n = 3275
    assert rule_g(RULES[RuleName.DUSART1998], n) == pytest.approx(
        n * (1 + 1 / (2 * math.log(n) ** 2)))
    n = 396738
    assert rule_g(RULES[RuleName.DUSART2010], n) == pytest.approx(
        n * (1 + 1 / (25 * math.log(n) ** 2)))
    n = 468991632
    assert rule_g(RULES[RuleName.DUSART2016], n) == pytest.approx(
        n * (1 + 1 / (5000 * math.log(n) ** 2)))


def test_rule_g_threshold():
    for name, rule in RULES.items():
        if rule.n_min > 1:
            with pytest.raises(ThresholdError):
                rule_g(rule, rule.n_min - 1)
        assert rule_g(rule, rule.n_min) > rule.n_min


def test_rule_ordering_from_38():
    # papergap < nagura < bertrand strictly for n >= 38; tie at n = 37
    pg, na, be = (RULES[RuleName.PAPERGAP], RULES[RuleName.NAGURA],
                  RULES[RuleName.BERTRAND])
    assert rule_g(pg, 37) == pytest.approx(rule_g(na, 37))
    for n in range(38, 2001):
        assert rule_g(pg, n) < rule_g(na, n) < rule_g(be, n), n


def test_interval_rule_frozen():
    rule = RULES[RuleName.BERTRAND]
    assert isinstance(rule, IntervalRule)
    with pytest.raises(AttributeError):
        rule.n_min = 5


# The theorems the verifiers certify from, checked against the sieve: every
# consecutive prime pair with p_{n+1} <= _TRUST_LIMIT, a block at a time
_TRUST_LIMIT = 10**8
# float error allowed for, always in the theorem's disfavour
_TRUST_MARGIN = 2.0**-40
# theta's running sum of about 5.8e6 logs to 10^8 errs by at most about
# 5.8e6 * 2^-53 = 6.4e-10 of itself, so it is allowed 1e-9
_THETA_MARGIN = 1e-9


@pytest.fixture(scope="module")
def trust_base_failures():
    """Per theorem, the p_n of the first pairs that break it (empty when it holds)."""
    n_min = bounds.PRIME_INTERVAL_RULE.n_min
    bad = {"interval rule": [], "pi upper": [], "pi lower": [], "theta upper": [],
           "p_n upper": [], "p_n lower": []}
    theta = 0.0
    for n0, pv in iter_prime_pairs(_TRUST_LIMIT):
        n = np.arange(n0, n0 + pv.size - 1, dtype=np.int64)
        p, q = pv[:-1], pv[1:]
        # a prime in (x, g(x)] for x >= n_min: for x in [p_n, p_{n+1}) the
        # prime after x is p_{n+1}, and g grows, so the least x is the worst
        x = np.maximum(p, n_min)
        g = bounds._prime_interval_end_array(x) * (1 - _TRUST_MARGIN)
        bad["interval rule"] += p[(q > n_min) & (q > g)].tolist()
        # pi(x) < 1.25506 x / ln x for x > 1: pi is n on [p_n, p_{n+1}), and
        # the bound is least at x = p_n (from 3 on; it exceeds 3 on [2, 3))
        up = bounds._pi_upper_array(p) * (1 - _TRUST_MARGIN)
        bad["pi upper"] += p[n >= up].tolist()
        # pi(x) > x / ln x for x >= 17: the bound nears its largest value on
        # [p_n, p_{n+1}) as x -> p_{n+1}
        low = bounds._pi_lower_array(q) * (1 + _TRUST_MARGIN)
        bad["pi lower"] += p[(p >= bounds.PI_LOWER_FROM) & (n < low)].tolist()
        # theta(x) < 1.01624 x for x > 0: theta is theta(p_n) on [p_n, p_{n+1}),
        # so the bound is least at x = p_n
        thetas = theta + np.cumsum(np.log(p.astype(np.float64)))
        theta = float(thetas[-1])
        bad["theta upper"] += p[thetas * (1 + _THETA_MARGIN)
                                >= bounds.THETA_UPPER_COEF * p].tolist()
        # p_n < n(ln n + ln ln n - 1/2) for n >= 20, and
        # p_n >= n(ln n + ln ln n - 1 + (ln ln n - 2.1)/ln n) for n >= 3
        up = bounds._nth_prime_upper_array(np.maximum(n, 20)) * (1 - _TRUST_MARGIN)
        bad["p_n upper"] += p[(n >= bounds.NTH_PRIME_UPPER_FROM) & (p >= up)].tolist()
        low = bounds._nth_prime_lower_array(np.maximum(n, 3)) * (1 + _TRUST_MARGIN)
        bad["p_n lower"] += p[(n >= bounds.NTH_PRIME_LOWER_FROM) & (p < low)].tolist()
    return {name: ps[:5] for name, ps in bad.items()}


def test_interval_rule_holds_to_1e8(trust_base_failures):
    # Dusart 2010 gives the rule from 396738 on, so the sieve covers the rest
    assert RULES[RuleName.DUSART2010].n_min < _TRUST_LIMIT
    assert trust_base_failures["interval rule"] == []


def test_pi_upper_bound_holds_to_1e8(trust_base_failures):
    assert trust_base_failures["pi upper"] == []


def test_pi_lower_bound_holds_to_1e8(trust_base_failures):
    assert trust_base_failures["pi lower"] == []


def test_theta_upper_bound_holds_to_1e8(trust_base_failures):
    assert trust_base_failures["theta upper"] == []


def test_nth_prime_upper_bound_holds_to_1e8(trust_base_failures):
    assert trust_base_failures["p_n upper"] == []


def test_nth_prime_lower_bound_holds_to_1e8(trust_base_failures):
    assert trust_base_failures["p_n lower"] == []
