"""Unit tests for the exhaustive claim checkers."""

import ast
import math
import os
import re
import subprocess
import sys
import threading
import tracemalloc
from dataclasses import replace
from fractions import Fraction
from functools import partial
from time import perf_counter, sleep
from unittest.mock import ANY

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import primespan.bounds as bounds
import primespan.sieve as sieve
import primespan.verify as verify
from primespan import (RULES, CapacityError, ClaimId, LogBase, PrimeTable, RuleName,
                       ThresholdError, Violation, compare_rules, f_of_k,
                       f_of_k_array, sieve_range, verify_basic_props,
                       verify_firoozbakht, verify_gap_interval,
                       verify_gap_upper, verify_lemmas, verify_theorem1,
                       verify_theorem2, verify_theorem3)
from primespan.cli import emit_report, emit_reports
from primespan.verify import CLAIMS

from oracles import (naive_sieve, oracle_f, oracle_firoozbakht_slack, oracle_gap_upper_slack,
                     oracle_next_prime, primes_from_flags, trial_division_is_prime)


def _param_ints(report, key="n"):
    return sorted(int(v.param.split(f"{key}=")[1].split(";")[0])
                  for v in report.violations)


def test_theorem1_holds_small():
    r = verify_theorem1(20, 500)
    assert r.claim_id is ClaimId.T1
    assert r.holds and r.violations_total == 0
    assert r.min_slack >= 1
    assert r.scanned == sum(500 - f_of_k(k) + 1 for k in range(2, 21))


def test_theorem1_closed_also_holds():
    assert verify_theorem1(20, 500, "closed").holds


def test_theorem1_open_count_matches_oracle():
    flags = naive_sieve(4 * 200)
    primes = primes_from_flags(flags)
    r = verify_theorem1(4, 200)
    assert r.holds
    # recompute the tightest point by brute force
    best = None
    for k in range(2, 5):
        for n in range(f_of_k(k), 201):
            cnt = sum(1 for p in primes if n < p < k * n)
            slack = cnt - (k - 1) + 1
            if best is None or slack < best[0]:
                best = (slack, f"k={k};n={n}")
    assert (r.min_slack, r.min_slack_at) == best


@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_theorem1_violations_match_oracle(boundary, monkeypatch):
    # a stand-in count of x // 8 integers up to x falls short of k - 1 at
    # small n, so every row's batch reports violations in scan order
    k_max, n_max = 40, 300
    monkeypatch.setattr(PrimeTable, "pi", lambda self, x: np.asarray(x) // 8)
    _certify_nothing(monkeypatch)
    shift = 1 if boundary == "open" else 0
    bad, best = [], None
    for k in range(2, k_max + 1):
        for n in range(f_of_k(k), n_max + 1):
            cnt = (k * n - shift) // 8 - (n - 1 + shift) // 8
            if cnt < k - 1:
                bad.append((f"k={k};n={n}", cnt, k - 1))
            if best is None or cnt - k + 2 < best[0]:
                best = (cnt - k + 2, f"k={k};n={n}")
    r = verify_theorem1(k_max, n_max, boundary, cap=10**6)
    assert [(v.param, v.observed, v.required) for v in r.violations] == bad
    assert bad and r.violations_total == len(bad) and not r.holds
    assert (r.min_slack, r.min_slack_at) == best
    assert len(verify_theorem1(k_max, n_max, boundary, cap=5).violations) == 5


def test_theorem1_validation():
    with pytest.raises(ValueError):
        verify_theorem1(1, 100)
    with pytest.raises(ValueError):
        verify_theorem1(10, 2)
    with pytest.raises(ValueError):
        verify_theorem1(10, 100, "half-open")


def test_theorem2_holds_small():
    r = verify_theorem2(10, 500)
    assert r.holds and r.min_slack > 0
    assert r.scanned == 9 * 500


def test_theorem2_min_slack_site():
    r = verify_theorem2(50, 10**4)
    assert r.min_slack_at == "k=2;n=37"
    # pi(74) - pi(36) = 10 against rhs 2*37/9 + 4
    assert r.min_slack == pytest.approx(2 * 37 / 9 + 4 - 10)


def _theorem2_oracle(k_max, n_max, count):
    """T2's violations, decided with exact rationals, and its float least slack.

    The slack stays a float, as in the report: exact ties such as
    k=2, n=10 and n=37 (both 2 + 2/9) are broken by float rounding.
    """
    bad, best = [], None
    for k in range(2, k_max + 1):
        for n in range(1, n_max + 1):
            cnt = count(k, n)
            if cnt > Fraction(k * n, 9) + k * k:
                bad.append(f"k={k};n={n}")
            slack = k * n / 9.0 + k * k - cnt
            if best is None or slack < best[0]:
                best = (slack, f"k={k};n={n}")
    return bad, best


def test_theorem2_exact_decision_matches_oracle(monkeypatch):
    k_max, n_max = 6, 400
    primes = primes_from_flags(naive_sieve(k_max * n_max))
    r = verify_theorem2(k_max, n_max)
    bad, best = _theorem2_oracle(
        k_max, n_max, lambda k, n: sum(1 for p in primes if n <= p <= k * n))
    assert bad == [] and r.holds
    assert (r.min_slack, r.min_slack_at) == best

    # a stand-in count of x // 4 integers up to x puts points above, below
    # and exactly on kn/9 + k^2; the theorems do not bound it, so nothing is certified
    monkeypatch.setattr(PrimeTable, "pi", lambda self, x: np.asarray(x) // 4)
    _certify_nothing(monkeypatch)

    def fake(k, n):
        return k * n // 4 - (n - 1) // 4

    bad, best = _theorem2_oracle(k_max, n_max, fake)
    on_bound = [(k, n) for k in range(2, k_max + 1) for n in range(1, n_max + 1)
                if 9 * fake(k, n) == k * n + 9 * k * k]
    assert bad and on_bound
    r = verify_theorem2(k_max, n_max, cap=10**6)
    assert [v.param for v in r.violations] == bad
    assert r.violations_total == len(bad) and not r.holds
    assert (r.min_slack, r.min_slack_at) == best


def test_theorem3_holds_small():
    r = verify_theorem3(10**4)
    assert r.holds and r.min_slack >= 1 and r.scanned == 9999


def test_theorem3_refuses_before_allocating(monkeypatch):
    # the range and the memory cap are checked before anything sized by
    # k_max is allocated: the range at 10^15, and at 10^7 the stream of the
    # first point's sieve, two 15015-slot pre-sieve tiles, against a 30 kB cap
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            verify_theorem3(10**15)
        monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", "30000")
        with pytest.raises(CapacityError):
            verify_theorem3(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    # the stream and a small prefix table are all it allocates
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", "20000000")
    tracemalloc.start()
    try:
        r = verify_theorem3(10**7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert r.holds and r.scanned == 10**7 - 1
    assert peak < 10 * 10**6


# Every public sieve entry point that takes workers=, called with a worker
# count, as comparable data
_SIEVE_CALLS = {
    "sieve_range": lambda w: sieve_range(0, 10**5, 1024, workers=w).bitmap.tobytes(),
    "iter_prime_blocks": lambda w: [b.tolist() for b in sieve.iter_prime_blocks(
        0, 10**5, segment_size=1024, workers=w)],
    "prime_count": lambda w: sieve.prime_count(10**5, segment_size=1024, workers=w),
}


@pytest.mark.usefixtures("cold_summaries")
def test_workers_start_no_thread(monkeypatch):
    # several segments and chunks each, so a pool would have had work to share
    def claim_bytes(spec, w):
        return emit_reports(spec.run(SMALL_PARAMS[spec.name], "open", workers=w,
                                     segment_size=1024), "json")

    want = {name: call(1) for name, call in _SIEVE_CALLS.items()}
    want_claims = {spec.name: claim_bytes(spec, 1) for spec in CLAIMS}

    def refuse(self):
        raise AssertionError(f"thread {self.name} started")

    monkeypatch.setattr(threading.Thread, "start", refuse)
    for name, call in _SIEVE_CALLS.items():
        assert call(2) == want[name], name
    for spec in CLAIMS:
        assert claim_bytes(spec, 2) == want_claims[spec.name], spec.name


def test_gap_interval_violations_match_oracle():
    n_max = 10**4
    flags = naive_sieve(2 * n_max)
    r = verify_gap_interval(n_max)
    got = _param_ints(r)
    want = []
    for n in range(2, n_max + 1):
        f = oracle_f(n)
        # open interval (n, n + n/f) by exact rational comparison f*p < n*(f+1)
        if not any(flags[p] for p in range(n + 1, 2 * n)
                   if f * p < n * (f + 1)):
            want.append(n)
    assert got == want == [2, 3, 5, 7, 8, 13, 19, 23, 24]
    assert not r.holds and r.min_slack == 0


@pytest.mark.parametrize("n_max", [2, 3, 4, 5, 37, 100, 4321])
def test_gap_interval_lattice_points_match_oracle(n_max):
    r = verify_gap_interval(n_max)
    want = sum(1 for k in range(2, n_max // 2 + 1) if k * oracle_f(k) <= n_max)
    assert f"lattice cross-check: {want} points" in " ".join(r.notes)


def _searchsorted_counts(table, lo, hi, boundary):
    """Primes between lo and hi as the verifiers counted them from primes()."""
    primes = table.primes()
    lo_side, hi_side = ("right", "left") if boundary == "open" else ("left", "right")
    return (np.searchsorted(primes, hi, side=hi_side)
            - np.searchsorted(primes, lo, side=lo_side))


def _gap_interval_searchsorted(table, ns, boundary):
    """Primes in (n, n + n/f(n)) per n as GapInterval counted them from primes()."""
    f = f_of_k_array(ns)
    # the open interval ends below n + n/f, the closed one at or below it
    hi = (ns * (f + 1) - 1) // f + 1 if boundary == "open" else ns * (f + 1) // f
    return _searchsorted_counts(table, ns, hi, boundary)


@settings(max_examples=60, deadline=None)
@given(n_max=st.integers(2, 5000), boundary=st.sampled_from(["open", "closed"]))
def test_gap_interval_counts_match_searchsorted(n_max, boundary):
    table = sieve_range(0, n_max + n_max // 2 + 2)
    ns = np.arange(2, n_max + 1, dtype=np.int64)
    want = _gap_interval_searchsorted(table, ns, boundary)
    assert verify._gap_interval_counts(table, ns, boundary).tolist() == want.tolist()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_theorem1_and_gap_interval_match_searchsorted(boundary, workers):
    # several chunks each
    k_max, n_max = 60, 3000
    table = sieve_range(0, k_max * n_max)
    best = None
    for k in range(2, k_max + 1):
        ns = np.arange(f_of_k(k), n_max + 1, dtype=np.int64)
        cnt = _searchsorted_counts(table, ns, k * ns, boundary)
        i = int(np.argmin(cnt))
        if best is None or cnt[i] - k + 2 < best[0]:
            best = (int(cnt[i]) - k + 2, f"k={k};n={int(ns[i])}")
    r = verify_theorem1(k_max, n_max, boundary, workers=workers)
    assert r.holds and (r.min_slack, r.min_slack_at) == best

    n_max = 3 * 65536 + 7
    table = sieve_range(0, n_max + n_max // 2 + 2)
    ns = np.arange(2, n_max + 1, dtype=np.int64)
    cnt = _gap_interval_searchsorted(table, ns, boundary)
    r = verify_gap_interval(n_max, boundary, workers=workers)
    assert [v.param for v in r.violations] == [f"n={n}" for n in ns[cnt < 1].tolist()]
    assert (r.min_slack, r.min_slack_at) == (int(cnt.min()), f"n={int(ns[np.argmin(cnt)])}")


def test_counting_verifiers_build_no_prime_array(monkeypatch):
    def refuse(self):
        raise AssertionError("primes() called")

    monkeypatch.setattr(PrimeTable, "primes", refuse)
    verify_theorem1(10, 500)
    verify_theorem1(10, 500, "closed")
    verify_theorem2(10, 500)
    verify_theorem3(1000)
    verify_gap_interval(2000)
    verify_gap_interval(2000, "closed")


def test_gap_interval_lattice_note_clean():
    r = verify_gap_interval(10**5)
    lattice = [n for n in r.notes if "lattice" in n]
    assert len(lattice) == 1
    assert "0 violations among them" in lattice[0]
    assert any("expected to fail at small n" in n for n in r.notes)


def test_gap_interval_closed_boundary_differs():
    ropen = verify_gap_interval(100)
    rclosed = verify_gap_interval(100, "closed")
    # closed intervals contain n itself, so prime n never violates
    assert 2 in _param_ints(ropen)
    assert 2 not in _param_ints(rclosed)
    assert len(rclosed.violations) < len(ropen.violations)


def test_gap_interval_cap():
    r = verify_gap_interval(100, cap=3)
    assert len(r.violations) == 3
    assert r.violations_total == 9
    assert not r.holds


def test_firoozbakht_small():
    r = verify_firoozbakht(10**5)
    assert r.holds and r.violations_total == 0
    assert r.scanned == 9592 - 1
    assert r.min_slack > 0
    assert any("near-ties rechecked" in n for n in r.notes)


def test_firoozbakht_min_slack_matches_direct_scan():
    flags = naive_sieve(10**4)
    primes = primes_from_flags(flags)
    best = min(
        ((1 + 1 / n) * math.log(primes[n - 1]) - math.log(primes[n]),
         f"n={n};p_n={primes[n - 1]}")
        for n in range(1, len(primes)))
    r = verify_firoozbakht(10**4)
    assert r.min_slack == pytest.approx(best[0], rel=1e-9)
    assert r.min_slack_at == best[1]


def test_gap_upper_small():
    r = verify_gap_upper(10**5)
    assert r.holds
    assert r.min_slack_at == "n=6;p_n=13;g_n=4"
    lg = math.log(13)
    assert r.min_slack == pytest.approx(lg * lg - lg - 4, rel=1e-12)
    # indices n in [5, pi(limit) - 1]
    assert r.scanned == 9592 - 1 - 4


def test_gap_upper_validation():
    with pytest.raises(ValueError):
        verify_gap_upper(12)


@pytest.mark.parametrize("verifier", [verify_firoozbakht, verify_gap_upper])
def test_pair_streams_reject_bad_input_up_front(verifier):
    # the range and segment checks run before anything sized by them is built
    with pytest.raises(CapacityError):
        verifier(10**15)
    with pytest.raises(CapacityError):
        verifier(2**64, allow_large=True)
    with pytest.raises(ValueError):
        verifier(10**8, segment_size=0)


def test_basic_props_small():
    p4, p6, eq1 = verify_basic_props(10**4)
    assert p4.claim_id is ClaimId.PROP4 and p4.holds
    assert p4.min_slack == 1 and p4.min_slack_at == "n=1"
    assert p6.claim_id is ClaimId.PROP6 and p6.holds
    assert p6.min_slack == pytest.approx(2 * math.log(4) - math.log(2))
    assert p6.min_slack_at == "n=2"
    assert eq1.claim_id is ClaimId.NTH_PRIME_BOUNDS and eq1.holds
    assert eq1.scanned == 10**4 - 5


def test_basic_props_prop6_against_oracle():
    primes = primes_from_flags(naive_sieve(2000))
    _, p6, _ = verify_basic_props(2000)
    # brute-force the tightest jump point
    theta = 0.0
    best = None
    for q in primes:
        theta += math.log(q)
        slack = q * math.log(4) - theta
        if best is None or slack < best[0]:
            best = (slack, f"n={q}")
    assert p6.min_slack == pytest.approx(best[0], rel=1e-9)
    assert p6.min_slack_at == best[1]


def test_basic_props_prop6_drift_check_is_tight(monkeypatch):
    # the cumsum of theta errs by at most (m + 8) 2^-53 of the sum, m =
    # _pi_upper_array(limit), about 10^-11 at 10^6: a compensated sum off
    # by 10^-9 of itself is caught
    fsum = math.fsum
    monkeypatch.setattr(math, "fsum", lambda xs: fsum(xs) * (1 + 1e-9))
    with pytest.raises(RuntimeError, match="drifted"):
        verify_basic_props(10**6)


def test_lemmas_small():
    l1, l2, l3 = verify_lemmas(100, 20, 1000)
    assert l1.claim_id is ClaimId.L1 and l1.holds
    assert l1.min_slack_at == "k=5"
    assert l3.claim_id is ClaimId.L3 and l3.holds
    assert l3.min_slack_at == "n=5"
    # the second family is genuinely falsified; first failure at k=5, r=11
    assert l2.claim_id is ClaimId.L2 and not l2.holds
    assert l2.violations[0].param == "k=5;r=11"
    assert l2.violations[0].observed == pytest.approx(13.474745, abs=1e-5)
    assert l2.violations[0].required == 13.0


def test_lemmas_both_bases_recorded():
    for rep in verify_lemmas(50, 5, 100):
        assert sum("base=ln:" in n for n in rep.notes) == 1
        assert sum("base=log10:" in n for n in rep.notes) == 1
        assert any("decides holds" in n for n in rep.notes)


def test_lemmas_l2_base10_also_falsified_eventually():
    # rhs goes negative while the lhs stays positive, so no base rescues it
    _, l2, _ = verify_lemmas(10**3, 100, 100)
    ln_note = next(n for n in l2.notes if n.startswith("base=ln:"))
    b10_note = next(n for n in l2.notes if n.startswith("base=log10:"))
    assert "violations=0" not in ln_note
    assert "violations=0" not in b10_note


def test_lemmas_validation():
    with pytest.raises(ValueError):
        verify_lemmas(4, 10, 100)
    with pytest.raises(ValueError):
        verify_lemmas(10, -3, 100)
    with pytest.raises(ValueError):
        verify_lemmas(10, 10, 4)


def test_lemmas_l3_range_checked_before_any_sweep(monkeypatch):
    class Stop(Exception):
        pass

    totals = []

    def probe(label, total, enabled):
        totals.append(total)
        raise Stop

    # a sweep that got as far as its progress bar would raise Stop instead
    monkeypatch.setattr(verify, "_Progress", probe)
    with pytest.raises(CapacityError):
        verify_lemmas(10, 5, 10**15)
    monkeypatch.setattr(verify, "DEFAULT_RANGE_LIMIT", 1000)
    with pytest.raises(CapacityError):
        verify_lemmas(10, 5, 1006)
    with pytest.raises(Stop):
        verify_lemmas(10, 5, 1005)
    assert totals == [2 * (2 + 1)]

    # with allow_large L3 is certified from n = 29 on, so it counts one batch
    # and nothing is sized by n_max
    n_max = 10**11
    tracemalloc.start()
    try:
        with pytest.raises(Stop):
            verify_lemmas(10, 5, n_max, allow_large=True)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert totals[-1] == 2 * (2 + 1)
    assert peak < 10**6


def test_reports_deterministic_across_workers():
    for build in (
        lambda w: verify_theorem1(30, 2000, workers=w),
        lambda w: verify_gap_interval(10**5, workers=w),
        lambda w: verify_firoozbakht(10**6, workers=w),
        lambda w: verify_lemmas(200, 30, 10**5, workers=w)[1],
    ):
        a, b = build(1), build(4)
        assert emit_report(a, "json") == emit_report(b, "json")
        assert emit_report(a, "csv") == emit_report(b, "csv")


SMALL_PARAMS = {
    "t1": {"k_max": 10, "n_max": 2000}, "t2": {"k_max": 10, "n_max": 2000},
    "t3": {"k_max": 1000}, "gap-interval": {"n_max": 2000},
    "firoozbakht": {"limit": 5000}, "gap-upper": {"limit": 5000},
    "props": {"limit": 5000}, "lemmas": {"k_max": 10, "r_max": 5, "n_max": 2000},
}


@pytest.mark.parametrize("spec", CLAIMS, ids=lambda c: c.name)
def test_progress_only_on_request_and_output_unchanged(spec, capsys):
    payloads = {}
    for flag in (True, False):
        # a small segment size gives the pair streams several segments
        reports = spec.run(SMALL_PARAMS[spec.name], "open", progress=flag,
                           segment_size=1024)
        payloads[flag] = emit_reports(reports, "json")
        err = capsys.readouterr().err
        assert bool(err) is flag
        if flag:
            assert err.endswith("\n")
    assert payloads[True] == payloads[False]


@pytest.mark.parametrize("verifier,args", [(verify_basic_props, (5000,)),
                                           (verify_lemmas, (10, 5, 2000))])
def test_family_elapsed_includes_shared_sieve(verifier, args, monkeypatch):
    slow = 0.1
    primes_for_indices = verify._primes_for_indices

    def slow_primes(*a, **kw):
        sleep(slow)
        return primes_for_indices(*a, **kw)

    monkeypatch.setattr(verify, "_primes_for_indices", slow_primes)
    t0 = perf_counter()
    reports = verifier(*args)
    wall = perf_counter() - t0
    assert min(r.elapsed for r in reports) >= slow / len(reports)
    assert slow <= sum(r.elapsed for r in reports) <= wall


def test_violation_fields():
    r = verify_gap_interval(10)
    assert r.violations[0] == Violation("n=2", 0, 1)


def test_compare_rules_table():
    t = compare_rules(240, 245)
    assert t.rule_names == ("bertrand", "nagura", "papergap")
    assert len(t.rows) == 6
    row = t.rows[0]
    assert row.n == 240
    assert row.values[0] == 480.0
    assert row.values[1] == pytest.approx(288.0)
    assert row.values[2] == pytest.approx(270.0)
    assert row.next_prime == 241
    assert any("270" in n for n in t.notes)


def test_compare_rules_next_prime_matches_oracle():
    flags = naive_sieve(1000)
    t = compare_rules(25, 400)
    for row in t.rows:
        assert row.next_prime == oracle_next_prime(row.n, flags)
    # past the interval rule's threshold, the sieve window ends at g(n_hi)
    flags = naive_sieve(50_000)
    for lo, hi in ((3200, 3400), (3270, 3275), (3275, 3300), (20_000, 40_000)):
        t = compare_rules(lo, hi, [RULES[RuleName.BERTRAND]])
        assert [r.next_prime for r in t.rows] == [oracle_next_prime(n, flags)
                                                  for n in range(lo, hi + 1)]


def test_compare_rules_threshold():
    with pytest.raises(ThresholdError):
        compare_rules(1, 100, [RULES[RuleName.NAGURA]])
    with pytest.raises(ValueError):
        compare_rules(10, 5)
    with pytest.raises(ValueError):
        compare_rules(10, 20, [])


def test_compare_rules_note_only_with_papergap_240():
    assert compare_rules(100, 200).notes == ()
    assert compare_rules(230, 250, [RULES[RuleName.BERTRAND]]).notes == ()
    assert compare_rules(230, 250).notes != ()


def _exhaustive(monkeypatch):
    """Give every pair-stream segment a slack floor of -inf, so each one is built."""
    monkeypatch.setattr(verify, "_slack_floor",
                        lambda claim_id, rows: np.full(len(rows), -math.inf))


def _pair_stream_json(limit, **kw):
    return emit_reports([verify_firoozbakht(limit, **kw), verify_gap_upper(limit, **kw)],
                        "json")


@settings(max_examples=40, deadline=None)
@given(limit=st.integers(13, 3 * 10**6),
       segment_size=st.sampled_from([1024, 2048, 4096, 1 << 16, 1 << 21]),
       workers=st.sampled_from([1, 2]))
def test_segment_skip_matches_exhaustive(limit, segment_size, workers):
    kw = {"segment_size": segment_size, "workers": workers}
    skipping = _pair_stream_json(limit, **kw)
    with pytest.MonkeyPatch.context() as mp:
        _exhaustive(mp)
        assert _pair_stream_json(limit, **kw) == skipping


@pytest.mark.parametrize("limit,segment_size", [
    pytest.param(10**6, 1024, id="1024"), pytest.param(10**6, 1 << 16, id="65536"),
    # the default segments, where the pi bound gives the early floors
    pytest.param(10**7, 1 << 21, id="10000000-2097152")])
def test_slack_floor_below_every_slack(limit, segment_size):
    # each slack exactly as the scan computes it, against its segment's floor
    rows, slices = sieve._pair_rows(limit, lambda: None, segment_size=segment_size,
                                    allow_large=False)
    floors = {claim: verify._slack_floor(claim, rows)
              for claim in (ClaimId.FIROOZBAKHT, ClaimId.GAP_UPPER)}
    for k in range(len(rows)):
        for n0, pv in slices(k):
            lg = np.log(pv.astype(np.float64))
            n = np.arange(n0, n0 + pv.size - 1, dtype=np.float64)
            firoozbakht = (1.0 + 1.0 / n) * lg[:-1] - lg[1:]
            assert floors[ClaimId.FIROOZBAKHT][k] < firoozbakht.min()
            if n0 > 4:
                gap_upper = lg[:-1] * lg[:-1] - lg[:-1] - np.diff(pv)
                assert floors[ClaimId.GAP_UPPER][k] < gap_upper.min()


def test_slack_floor_below_each_pair_slack():
    # one-pair rows (n, 1, p_n, p_(n+1), g_n) make each floor as tight as it
    # gets: the pi bound's is within 5 % of the slack at p_n = 107 and 109,
    # where pi(x) ln x / x is near its peak of 1.25506 at x = 113
    primes = np.array(primes_from_flags(naive_sieve(10**5)))
    p, q = primes[:-1], primes[1:]
    n = np.arange(1, p.size + 1)
    rows = np.stack([n, np.ones_like(n), p, q, q - p], axis=1)
    lg = np.log(primes.astype(np.float64))
    firoozbakht = (1.0 + 1.0 / n) * lg[:-1] - lg[1:]
    assert (verify._slack_floor(ClaimId.FIROOZBAKHT, rows) < firoozbakht).all()
    gap_upper = lg[:-1] * lg[:-1] - lg[:-1] - (q - p)
    assert (verify._slack_floor(ClaimId.GAP_UPPER, rows)[4:] < gap_upper[4:]).all()


def _count_built(monkeypatch):
    """Count the segments the verifiers summarize and the pair segments they build,
    and list the built segments in build order."""
    counts = {"segments": 0, "built": 0, "order": []}
    pair_rows = sieve._pair_rows

    def counted(*args, **kw):
        rows, slices = pair_rows(*args, **kw)
        counts["segments"] += len(rows)

        def built(k):
            counts["built"] += 1
            counts["order"].append(k)
            return slices(k)
        return rows, built

    monkeypatch.setattr(sieve, "_pair_rows", counted)
    return counts


@pytest.mark.usefixtures("cold_summaries")
def test_gap_upper_skips_most_segments(monkeypatch):
    counts = _count_built(monkeypatch)
    r = verify_gap_upper(10**6, segment_size=1024)
    assert r.holds and r.scanned == 78498 - 1 - 4
    assert counts["segments"] == 977
    assert counts["built"] < counts["segments"] // 10
    counts.update(segments=0, built=0)
    _exhaustive(monkeypatch)
    assert verify_gap_upper(10**6, segment_size=1024) == replace(r, elapsed=ANY)
    assert counts["built"] == counts["segments"] == 977


@pytest.mark.usefixtures("cold_summaries")
def test_firoozbakht_builds_few_segments(monkeypatch):
    counts = _count_built(monkeypatch)
    r = verify_firoozbakht(10**6, segment_size=1024)
    assert r.holds and r.scanned == 78498 - 1
    assert counts["segments"] == 977
    assert 0 < counts["built"] < counts["segments"] // 20
    counts.update(segments=0, built=0)
    _exhaustive(monkeypatch)
    assert verify_firoozbakht(10**6, segment_size=1024) == replace(r, elapsed=ANY)
    assert counts["built"] == counts["segments"] == 977


@pytest.mark.usefixtures("cold_summaries")
def test_pair_streams_build_few_default_segments(monkeypatch):
    # the CLI default, 48 segments: Firoozbakht builds segment 0, whose floor
    # is below its guard, and segment 43, which holds its least slack;
    # GapUpper builds segment 0, which holds its least slack
    counts = _count_built(monkeypatch)
    firoozbakht = verify_firoozbakht(10**8)
    assert counts["segments"] == 48 and counts["built"] <= 3
    counts.update(built=0)
    gap_upper = verify_gap_upper(10**8)
    assert counts["built"] == 1
    _exhaustive(monkeypatch)
    assert verify_firoozbakht(10**8) == replace(firoozbakht, elapsed=ANY)
    assert verify_gap_upper(10**8) == replace(gap_upper, elapsed=ANY)


@pytest.mark.usefixtures("cold_summaries")
def test_best_first_scans_build_pinned_default_segments(monkeypatch):
    # the three best-first scans of the 48 default segments below 10^8:
    # Firoozbakht's guarded segment 0 and segment 43, GapUpper's segment 0,
    # and segment 22, which holds the largest gap, 220 after 47326693
    counts = _count_built(monkeypatch)
    built = []
    for call in (verify_firoozbakht, verify_gap_upper, sieve.max_gap_up_to):
        counts["order"] = []
        out = call(10**8)
        built.append(counts["order"])
    assert built == [[0, 43], [0], [22]]
    assert out == sieve.GapRecord(2850174, 47326693, 47326913, 220)


@pytest.mark.usefixtures("cold_summaries")
def test_gap_upper_skip_keeps_late_violations(monkeypatch):
    # a lower, still increasing bound: gaps of 90 or more violate, and the
    # first of them lies near 360653, late in the range
    real = verify._gap_upper_bound_array
    monkeypatch.setattr(verify, "_gap_upper_bound_array",
                        lambda p: np.minimum(real(p), 90.0))
    counts = _count_built(monkeypatch)
    kw = {"limit": 10**6, "segment_size": 1024}
    skipping = verify_gap_upper(**kw)
    assert 0 < counts["built"] < counts["segments"]
    assert not skipping.holds
    assert min(_param_ints(skipping)) > 2 * 10**4
    _exhaustive(monkeypatch)
    exhaustive = verify_gap_upper(**kw)
    assert skipping.violations == exhaustive.violations
    assert emit_reports([skipping], "json") == emit_reports([exhaustive], "json")


@pytest.mark.usefixtures("cold_summaries")
def test_firoozbakht_best_first_keeps_late_violations(monkeypatch):
    # a stand-in guard of 1e-5 makes near ties of the pairs late in the range,
    # and a stand-in recheck makes those with a gap of 50 or more violations
    monkeypatch.setattr(verify, "_FIROOZBAKHT_TIE", 1e-5)
    monkeypatch.setattr(verify, "_firoozbakht_exact_slack",
                        lambda n, p, q: -1.0 if q - p >= 50 else 1.0)
    counts = _count_built(monkeypatch)
    kw = {"limit": 10**6, "segment_size": 1024, "cap": 5}
    best_first = verify_firoozbakht(**kw)
    assert 0 < counts["built"] < counts["segments"]
    assert len(best_first.violations) == 5 < best_first.violations_total
    sites = [int(v.param.split(";")[0].removeprefix("n=")) for v in best_first.violations]
    assert sites == sorted(sites) and sites[0] > 2 * 10**4
    _exhaustive(monkeypatch)
    exhaustive = verify_firoozbakht(**kw)
    assert best_first.violations == exhaustive.violations
    assert best_first.violations_total == exhaustive.violations_total
    assert emit_reports([best_first], "json") == emit_reports([exhaustive], "json")


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("slice_slots", [8, 1 << 17])
def test_slices_merge_in_scan_order(slice_slots, monkeypatch):
    # stand-ins: three twin pairs of segment 4 of 1024 integers, in three
    # slices of 8 odd slots, are violations that tie at the least slack -1
    twins = [p for p in range(4097, 5119, 2)
             if trial_division_is_prime(p) and trial_division_is_prime(p + 2)]
    ties = (twins[0], twins[len(twins) // 2], twins[-1])
    monkeypatch.setattr(verify, "_gap_upper_bound_array",
                        lambda p: np.where(np.isin(p, ties), 1.0, 1000.0))
    monkeypatch.setattr(sieve, "_SLICE_SLOTS", slice_slots)
    _exhaustive(monkeypatch)
    r = verify_gap_upper(10**4, segment_size=1024)
    assert [v.param.split(";")[1] for v in r.violations] == [f"p_n={p}" for p in ties]
    assert (r.min_slack, r.min_slack_at.split(";")[1]) == (-1.0, f"p_n={ties[0]}")


@pytest.mark.usefixtures("cold_summaries")
def test_best_first_tie_keeps_earlier_site(monkeypatch):
    # stand-ins: the twin pairs after 1019 and 5009, in segments 0 and 4 of
    # 1024 integers, both have the least slack 7 - 2 = 5, and the later
    # segment has the lower floor, so it is built first
    ties = (1019, 5009)
    assert all(trial_division_is_prime(p) and trial_division_is_prime(p + 2) for p in ties)
    monkeypatch.setattr(verify, "_gap_upper_bound_array",
                        lambda p: np.where(np.isin(p, ties), 7.0, 1000.0))

    def floors(claim_id, rows):
        out = np.full(len(rows), 500.0)
        for p, floor in zip(ties, (2.0, 1.0)):
            out[(rows[:, 2] <= p) & (p < rows[:, 3])] = floor
        return out

    monkeypatch.setattr(verify, "_slack_floor", floors)
    counts = _count_built(monkeypatch)
    r = verify_gap_upper(10**5, segment_size=1024)
    assert counts["order"] == [4, 0]
    assert (r.min_slack, r.min_slack_at) == (5.0, "n=171;p_n=1019;g_n=2")
    _exhaustive(monkeypatch)
    assert verify_gap_upper(10**5, segment_size=1024) == replace(r, elapsed=ANY)


def _certify_nothing(monkeypatch):
    """Make every theorem certificate certify no point, so every claim but the pair streams counts each one.

    T1, T2, T3, GapInterval, the three props and the three lemmas all
    find their certified points through verify._first_certified.
    """
    monkeypatch.setattr(verify, "_first_certified", lambda ok, lo, hi: hi + 1)


def _record_certified(monkeypatch):
    """List each verify._first_certified call's rows as (lo, hi, first certified point)."""
    calls, real = [], verify._first_certified

    def recorded(ok, lo, hi):
        stop = real(ok, lo, hi)
        calls.append((lo, hi, stop))
        return stop

    monkeypatch.setattr(verify, "_first_certified", recorded)
    return calls


def _certified_points(lo, hi, stop, limit=1 << 17):
    """(row, x) of the certified points stop[row] <= x <= hi[row]: every one, or when
    there are more than limit, each row's first 16 and limit random others."""
    sizes = np.maximum(hi - stop + 1, 0)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    t = np.arange(ends[-1])
    if t.size > limit:
        j = np.arange(16)
        head = (starts[:, None] + j)[j < sizes[:, None]]
        t = np.concatenate((head, np.random.default_rng(0).integers(0, t.size, limit)))
    row = np.searchsorted(ends, t, side="right")
    return row, stop[row] + t - starts[row]


def _assert_reach(slack, need, scale, where):
    """Every slack is at least need, less the floors' float margin on terms of size scale."""
    bad = np.flatnonzero(slack < need - verify._FLOOR_MARGIN * scale)
    assert not bad.size, (where(bad[0]), float(slack[bad[0]]), need)


@pytest.mark.parametrize("k_max,n_max", [(100, 10**4), (1000, 10**4)])
@pytest.mark.parametrize("boundary", ["open", "closed"])
def test_theorem1_certified_points_reach_need(k_max, n_max, boundary, monkeypatch):
    calls = _record_certified(monkeypatch)
    verify_theorem1(k_max, n_max, boundary)
    [(lo, hi, stop)] = calls
    table, shift = sieve_range(0, k_max * n_max), int(boundary == "open")

    def slack(k, n):
        return table.pi(k * n - shift) - table.pi(n - 1 + shift) - k + 2

    need = max(1, int(slack(2, f_of_k(2))))
    row, n = _certified_points(lo, hi, stop)
    k = row + 2
    _assert_reach(slack(k, n), need, 0, lambda i: (int(k[i]), int(n[i])))


@pytest.mark.parametrize("k_max,n_max", [(12, 2000), (50, 10**4)])
def test_theorem2_certified_points_reach_need(k_max, n_max, monkeypatch):
    calls = _record_certified(monkeypatch)
    verify_theorem2(k_max, n_max)
    [(lo, hi, stop)] = calls
    table = sieve_range(0, k_max * n_max)

    def slack(k, n):
        return k * n / 9.0 + k * k - (table.pi(k * n) - table.pi(n - 1))

    # certified against the slack of the first point, k = 2 and n = 1
    need = max(0.0, float(slack(2, 1)))
    assert need == pytest.approx(2 / 9 + 3)
    row, n = _certified_points(lo, hi, stop)
    k = row + 2
    _assert_reach(slack(k, n), need, k * n, lambda i: (int(k[i]), int(n[i])))


@pytest.mark.parametrize("claim,top", [("T3", 10**4), ("T3", 10**6), ("open", 10**5),
                                       ("open", 10**7), ("closed", 10**7)])
def test_one_prime_certified_points_reach_need(claim, top, monkeypatch):
    calls = _record_certified(monkeypatch)
    if claim == "T3":
        verifier, counts = verify_theorem3, verify._theorem3_counts
        end = top * (f_of_k(top) + 1)
    else:
        verifier = partial(verify_gap_interval, boundary=claim)
        counts, end = partial(verify._gap_interval_counts, boundary=claim), 2 * top
    verifier(top)
    [(lo, hi, stop)] = calls
    table = sieve_range(0, end)
    need = max(1, int(counts(table, np.array([2]))[0]))
    _, x = _certified_points(lo, hi, stop)
    _assert_reach(counts(table, x), need, 0, lambda i: int(x[i]))


@pytest.mark.parametrize("limit", [5000, 10**6])
@pytest.mark.parametrize("ln4", [math.log(4), 1.05])
def test_props_certified_points_reach_need(limit, ln4, monkeypatch):
    # ln 4 = 1.05 is a stand-in whose slacks at 2, 3 and 5 are close, so a
    # Prop6 floor that certifies too early meets a point below its need;
    # theta(x) < 1.01624 x still certifies it, from x = 42
    monkeypatch.setattr(verify, "_LN4", ln4)
    calls = _record_certified(monkeypatch)
    verify_basic_props(limit)
    (_, _, stop4), (_, _, stop6), (_, _, stop_b) = calls
    primes = sieve._primes_for_indices(limit, segment_size=sieve.DEFAULT_SEGMENT_SIZE,
                                       allow_large=False)
    n = np.arange(1, limit + 1)
    # Prop4: p_n - n, certified against max(1, p_1 - 1)
    _assert_reach((primes - n)[stop4[0] - 1 :], 1, 0, lambda i: i)
    # Prop6: at each prime q, q ln 4 - theta(q), certified against max(0, that at 2)
    q = primes[primes <= limit].astype(np.float64)
    theta = np.cumsum(np.log(q))
    slack = q * ln4 - theta
    at = q >= stop6[0]
    _assert_reach(slack[at], max(0.0, slack[0]), q[at], lambda i: int(q[at][i]))
    # the bracket from n = 6, certified against max(0, its slack at 6)
    lower, upper = bounds._nth_prime_bounds_array(n[5:])
    p = primes[5:].astype(np.float64)
    slack = np.minimum(p - lower, upper - p)
    at = n[5:] >= stop_b[0]
    _assert_reach(slack[at], max(0.0, slack[0]), upper[at], lambda i: int(n[5:][at][i]))


@pytest.mark.parametrize("k_max,r_max,n_max", [(60, 30, 5000), (10**4, 100, 10**6)])
def test_lemmas_certified_points_reach_need(k_max, r_max, n_max, monkeypatch):
    calls = _record_certified(monkeypatch)
    verify_lemmas(k_max, r_max, n_max)
    ks = np.arange(5, k_max + 1, dtype=np.int64)
    fk = f_of_k_array(ks)
    primes = sieve._primes_for_indices(int((fk + ks).max()) + r_max,
                                       segment_size=sieve.DEFAULT_SEGMENT_SIZE,
                                       allow_large=False)

    def l12_sides(row, r, base):
        p = primes[fk[row] + ks[row] + r - 1]
        return bounds._lemma_lhs_array(p, base), bounds._lemma_rhs_array(ks[row], r, fk[row], p)

    def l3_sides(row, n, base):
        return n.astype(np.float64), bounds._lemma3_rhs_array(n, base)

    for (lo, hi, stop), sides in zip(calls, (l12_sides, l12_sides, l3_sides)):
        row, x = _certified_points(lo, hi, stop)
        for base in LogBase:
            lhs, rhs = sides(np.zeros(1, dtype=np.int64), lo[:1], base)
            need = max(0.0, float(rhs[0] - lhs[0]))  # the claim's first point
            lhs, rhs = sides(row, x, base)
            _assert_reach(rhs - lhs, need, np.abs(rhs) + lhs,
                          lambda i: (int(lo.size), int(row[i]), int(x[i]), base.value))


def test_claims_count_their_first_point_when_all_certified(monkeypatch):
    # every theorem certifies every point: each claim still counts its
    # first point, which holds the least slack it certified the rest against
    real = verify._first_certified
    monkeypatch.setattr(verify, "_first_certified",
                        lambda ok, lo, hi: real(lambda x: np.ones(x.shape, dtype=bool), lo, hi))
    reports = [verify_theorem1(20, 100), verify_theorem3(1000), verify_gap_interval(1000),
               *verify_basic_props(1000), *verify_lemmas(20, 5, 1000)]
    assert [r.min_slack_at for r in reports] == [
        "k=2;n=2", "k=2", "n=2", "n=1", "n=2", "n=6", "k=5", "k=5;r=-2", "n=5"]


def _index_claims_json(k3, n_gi, k1, n1, k2, n2, **kw):
    reports = [verify_theorem3(k3, **kw), verify_theorem2(k2, n2, **kw)]
    for boundary in ("open", "closed"):
        reports += [verify_gap_interval(n_gi, boundary, **kw),
                    verify_theorem1(k1, n1, boundary, **kw)]
    return emit_reports(reports, "json")


@settings(max_examples=40, deadline=None)
@given(k3=st.integers(2, 30_000), n_gi=st.integers(2, 200_000),
       k1=st.integers(2, 60), n1=st.integers(0, 3000),
       k2=st.integers(2, 12), n2=st.integers(1, 2000),
       segment_size=st.sampled_from([1024, 4096, 1 << 16, 1 << 21]),
       workers=st.sampled_from([1, 2]))
def test_index_prune_matches_exhaustive(k3, n_gi, k1, n1, k2, n2, segment_size, workers):
    args = (k3, n_gi, k1, f_of_k(k1) + n1, k2, n2)
    kw = {"segment_size": segment_size, "workers": workers}
    pruned = _index_claims_json(*args, **kw)
    with pytest.MonkeyPatch.context() as mp:
        _certify_nothing(mp)
        assert _index_claims_json(*args, **kw) == pruned


def _evaluated(monkeypatch):
    """Record how many points each f_of_k_array and PrimeTable.pi call in verify gets."""
    sizes = {"f": [], "pi": []}
    f_array, pi = verify.f_of_k_array, PrimeTable.pi

    def f_counted(k):
        sizes["f"].append(np.size(k))
        return f_array(k)

    def pi_counted(self, x):
        sizes["pi"].append(np.size(x))
        return pi(self, x)

    monkeypatch.setattr(verify, "f_of_k_array", f_counted)
    monkeypatch.setattr(PrimeTable, "pi", pi_counted)
    return sizes


@pytest.mark.usefixtures("cold_summaries")
@pytest.mark.parametrize("verifier", [verify_theorem3, verify_gap_interval])
def test_index_claims_evaluate_few_points(verifier, monkeypatch):
    sizes = _evaluated(monkeypatch)
    r = verifier(10**6)
    assert r.scanned == 10**6 - 1
    assert 0 < sum(sizes["f"]) < 10**4 and 0 < sum(sizes["pi"]) < 10**4
    # the count is real: with nothing certified every point is evaluated
    sizes["f"].clear()
    _certify_nothing(monkeypatch)
    assert verifier(10**6) == replace(r, elapsed=ANY)
    assert sum(sizes["f"]) >= 10**6 - 1


@pytest.mark.parametrize("verifier,most", [
    (verify_theorem3, 2),
    (partial(verify_gap_interval, boundary="open"), 4),
    (partial(verify_gap_interval, boundary="closed"), 4),
], ids=["T3", "GapInterval-open", "GapInterval-closed"])
def test_one_prime_claims_read_f_from_their_runs(verifier, most, monkeypatch):
    # f on run i of _f_levels(2, top) is 2 + i, so no bisection step calls
    # f_of_k_array: T3 calls it for its first point and its one counted
    # batch, GapInterval for those and twice for its lattice cross-check
    sizes = _evaluated(monkeypatch)
    verifier(10**7)
    assert 0 < len(sizes["f"]) <= most


# The index claims at the benchmark's index arguments and at the CLI defaults
_INDEX_CALLS = {
    "index": [lambda: verify_theorem3(10**7), lambda: verify_gap_interval(10**7),
              lambda: verify_theorem1(1000, 10**4)],
    "catalog": [lambda spec=spec, boundary=boundary: spec.run(spec.params, boundary)
                for spec in CLAIMS if spec.name in ("t1", "t2", "t3", "gap-interval")
                for boundary in (("open", "closed") if spec.boundary else ("open",))],
}


@pytest.mark.parametrize("where", sorted(_INDEX_CALLS))
def test_index_claims_sieve_little(where, monkeypatch):
    # the theorems certify all but a short prefix, so no sieve reaches 2e4:
    # T1 9,000 and 558, T2 20,000 (its whole k = 2 row), T3 3,681, GapInterval 4,911
    his = []

    def recorded(lo, hi, *args, **kw):
        his.append(hi)
        return sieve_range(lo, hi, *args, **kw)

    monkeypatch.setattr(verify, "sieve_range", recorded)
    monkeypatch.setattr(sieve, "_pair_rows", None)  # no pair stream either
    for call in _INDEX_CALLS[where]:
        call()
    assert 0 < max(his) <= 2 * 10**4


def _props_and_lemmas_json(limit, k_max, r_max, n_max, cap):
    reports = [*verify_basic_props(limit, cap=cap), *verify_lemmas(k_max, r_max, n_max, cap=cap)]
    return emit_reports(reports, "json")


@settings(max_examples=25, deadline=None)
@given(limit=st.integers(6, 20_000), k_max=st.integers(5, 700), r_max=st.integers(-2, 120),
       n_max=st.integers(5, 70_000), cap=st.sampled_from([0, 1, 5, 1000]))
# the bracket is certified from n = 3603; L3's first batch of 2^16 points
# ends at n = 65540, and its second starts at 65541
@example(limit=6, k_max=5, r_max=-2, n_max=5, cap=0)
@example(limit=3602, k_max=5, r_max=-2, n_max=65_541, cap=1)
@example(limit=3603, k_max=37, r_max=11, n_max=65_542, cap=0)
@example(limit=3604, k_max=600, r_max=100, n_max=65_541, cap=1)
def test_props_and_lemmas_prune_match_exhaustive(limit, k_max, r_max, n_max, cap):
    args = (limit, k_max, r_max, n_max, cap)
    pruned = _props_and_lemmas_json(*args)
    with pytest.MonkeyPatch.context() as mp:
        _certify_nothing(mp)
        assert _props_and_lemmas_json(*args) == pruned


def test_props_and_lemmas_evaluate_few_points(monkeypatch):
    spec = {s.name: s for s in CLAIMS}
    his, sides = [], {"points": 0}
    flag_chunks = sieve._iter_flag_chunks

    def recorded(lo, hi, **kw):
        his.append(hi)
        return flag_chunks(lo, hi, **kw)

    monkeypatch.setattr(sieve, "_iter_flag_chunks", recorded)
    for name in ("_lemma_lhs_array", "_lemma_rhs_array", "_lemma3_rhs_array"):
        def counted(*args, real=getattr(verify, name)):
            out = real(*args)
            sides["points"] += np.size(out)
            return out

        monkeypatch.setattr(verify, name, counted)
    props, peak = _traced_peak(lambda: spec["props"].run(spec["props"].params, "open"))
    # the bracket counts n < 3603, whose primes end at 33,619; the whole
    # range would need the first 10^6 primes, to 15,485,863
    assert 0 < max(his) < 10**5
    assert peak < 10**6
    lemmas = spec["lemmas"].run(spec["lemmas"].params, "open")
    # a sweep of every point evaluates about 4 * 10^6 sides: two bases on
    # L1 and L2's 1.04 * 10^6 points and on L3's 10^6
    assert 0 < sides["points"] < 5 * 10**5
    assert max(his) < 10**5
    # the count is real: with nothing certified every point is evaluated
    sides["points"] = 0
    _certify_nothing(monkeypatch)
    assert spec["props"].run(spec["props"].params, "open") == tuple(
        replace(r, elapsed=ANY) for r in props)
    assert max(his) > 1.5 * 10**7
    assert spec["lemmas"].run(spec["lemmas"].params, "open") == tuple(
        replace(r, elapsed=ANY) for r in lemmas)
    assert sides["points"] > 4 * 10**6


@pytest.mark.parametrize("certify", [True, False])
def test_props_and_lemmas_progress_ends_at_its_total(certify, monkeypatch):
    bars = []

    class Counted(verify._Progress):
        def __init__(self, *args):
            super().__init__(*args)
            bars.append(self)

    monkeypatch.setattr(verify, "_Progress", Counted)
    if not certify:
        _certify_nothing(monkeypatch)
    verify_basic_props(10**5)
    verify_lemmas(1000, 100, 10**5)
    # one step per batch evaluated: Prop4, Prop6's pass and the bracket;
    # then L1, L2 and L3 under each of the two log bases, and with nothing
    # certified every batch of each
    want = [3, 6] if certify else [2 + 1 + 2, 2 * (1 + 2 + 2)]
    assert [b.total for b in bars] == want
    assert [b.done for b in bars] == want


def test_one_prime_claims_at_1e12():
    # each point past the first few thousand is certified, and the tail is
    # one term of scanned, so 10^12 costs what 10^7 does
    n = 10**12
    for verifier in (verify_theorem3, verify_gap_interval):
        big, small = verifier(n, allow_large=True), verifier(10**7)
        assert big.scanned == n - 1
        assert replace(big, scanned=ANY, range=ANY, elapsed=ANY, notes=ANY) == small
    with pytest.raises(CapacityError):
        verify_gap_interval(n)


def test_theorem2_floor_rises_past_its_knee():
    # H(y) = y/9 - 1.25506 y/ln y rises where u(y) = (ln y - 1)/ln^2 y is
    # below 1/(9 * 1.25506); u falls from e^2 on, so from the knee on
    ln = math.log(verify._T2_KNEE)
    assert (ln - 1) / ln**2 < 1 / (9 * 1.25506)
    y = np.arange(2, verify._T2_KNEE + 2, dtype=np.float64)
    h = y / 9 - 1.25506 * y / np.log(y)
    assert verify._t2_h_min() < h.min() == h[:-1].min()


# Calls that read and extend the pair-stream summary table, each over [0, x]
_TABLE_CALLS = {
    "Firoozbakht": lambda x, **kw: verify_firoozbakht(x, **kw),
    "GapUpper": lambda x, **kw: verify_gap_upper(x, **kw),
    "max_gap_up_to": lambda x, **kw: sieve.max_gap_up_to(x, **kw),
}


def test_other_calls_leave_the_table(monkeypatch):
    # a table of nonsense rows at the calls' segment length: a call that read
    # it would go wrong, and one that extended it would replace it
    kw = {"segment_size": 1024}

    def outputs():
        reports = [verify_theorem1(30, 10**4, **kw), verify_theorem3(10**5, **kw),
                   verify_gap_interval(10**5, **kw)]
        pairs = [(n0, pv.tolist()) for n0, pv in sieve.iter_prime_pairs(3 * 10**5, **kw)]
        return emit_reports(reports, "json"), pairs

    monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
    want = outputs()
    assert sieve._summaries is sieve._NO_SUMMARIES
    nonsense = (sieve._plan(0, 0, 1024)[2], np.zeros((200, 5), dtype=np.int64))
    monkeypatch.setattr(sieve, "_summaries", nonsense)
    assert outputs() == want
    assert sieve._summaries is nonsense


def _table_call_bytes(name, x, **kw):
    out = _TABLE_CALLS[name](x, **kw)
    return repr(out).encode() if name == "max_gap_up_to" else emit_reports([out], "json")


_SIZES = [1024, 4096, 1 << 16, 1 << 21]


@settings(max_examples=40, deadline=None)
@given(first=st.sampled_from(sorted(_TABLE_CALLS)), second=st.sampled_from(sorted(_TABLE_CALLS)),
       x1=st.integers(13, 3 * 10**6), x2=st.integers(13, 3 * 10**6),
       segment_size=st.sampled_from(_SIZES),
       first_size=st.one_of(st.none(), st.sampled_from(_SIZES)))
def test_summary_table_warm_matches_cold(first, second, x1, x2, segment_size, first_size):
    kw = {"segment_size": segment_size}
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
        _TABLE_CALLS[first](x1, segment_size=first_size or segment_size)
        warm = _table_call_bytes(second, x2, **kw)
        mp.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
        assert _table_call_bytes(second, x2, **kw) == warm


@pytest.mark.usefixtures("cold_summaries")
def test_second_pair_stream_sieves_few_segments(monkeypatch):
    # one worker: the sieve calls counted below are those of this process
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 1)
    real, calls = sieve._segment_flags, []

    def counted(*args):
        calls.append(args[0])
        return real(*args)

    monkeypatch.setattr(sieve, "_segment_flags", counted)
    counts = _count_built(monkeypatch)
    kw = {"segment_size": 1024}
    cold = verify_gap_upper(10**6, **kw)
    # the stream sieves every segment, and each built one is sieved again
    assert 0 < counts["built"] and len(calls) == 977 + counts["built"]
    monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
    verify_firoozbakht(10**6, **kw)
    calls.clear()
    warm = verify_gap_upper(10**6, **kw)
    assert warm == replace(cold, elapsed=ANY)
    assert 0 < len(calls) < 977 // 10


@pytest.mark.usefixtures("cold_summaries")
def test_claims_that_take_the_table_charge_its_rows_pass():
    # GapUpper reads the rows that Firoozbakht's stream sieved, so its
    # elapsed covers that stream's rows pass
    verify_firoozbakht(10**7, segment_size=1 << 16)
    assert sieve._summaries_s > 0
    assert verify_gap_upper(10**7, segment_size=1 << 16).elapsed >= sieve._summaries_s


def _pair_stream_outputs(limit, **kw):
    """The rows, the largest gap and the Firoozbakht and GapUpper JSON up to limit."""
    ticks = []
    rows, _ = sieve._pair_rows(limit, lambda: ticks.append(None), allow_large=False, **kw)
    assert len(ticks) == len(rows)
    reports = [verify_firoozbakht(limit, **kw), verify_gap_upper(limit, **kw)]
    return rows.tolist(), sieve.max_gap_up_to(limit, **kw), emit_reports(reports, "json")


@pytest.mark.parametrize("limit,segment_size", [(3 * 10**5, 1024), (3 * 10**5 + 7, 2048),
                                                (10**6, 1 << 16)])
def test_pair_stream_output_identical_at_any_worker_count(limit, segment_size, monkeypatch,
                                                          forks):
    # after the first stream at a limit, the calls at that limit take the
    # table and sieve no segment in their rows pass, so they fork nothing
    kw = {"segment_size": segment_size}
    want = None
    for w in (1, 2, 3):
        monkeypatch.setattr(sieve, "_usable_cpus", lambda: w)
        monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
        forks.clear()
        cold = _pair_stream_outputs(limit, **kw)
        assert len(forks) == w - 1
        want = want or cold
        assert cold == want
        # a shorter stream replaces the table first, so the next is cold again
        monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
        forks.clear()
        sieve.max_gap_up_to(limit // 3, **kw)
        assert _pair_stream_outputs(limit, **kw) == want
        assert len(forks) == 2 * (w - 1)


@pytest.mark.usefixtures("cold_summaries")
def test_more_cpus_than_segments(monkeypatch, forks):
    kw = {"segment_size": 2048}  # 5000 is three segments of 1024 odd slots
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 1)
    want = _pair_stream_outputs(5000, **kw)
    assert not forks
    monkeypatch.setattr(sieve, "_usable_cpus", lambda: 8)
    monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
    assert _pair_stream_outputs(5000, **kw) == want
    assert len(forks) == 2


@pytest.mark.usefixtures("cold_summaries")
def test_mem_limit_counts_pair_rows(monkeypatch):
    # the sieve, 64 bytes per segment for the rows, which become the summary
    # table, and the floors, guards and order derived from them, and 64 bytes
    # per prime of a slice, a whole segment here, for its block and what the
    # scan derives from it, which are more than the gap bounds' work
    _, n_slots, seg_slots = sieve._plan(0, 10**6, 1024)
    segments = -(-n_slots // seg_slots)
    need = (sieve._stream_mem(0, 10**6, 1024) + 64 * segments
            + 64 * (sieve._block_bound(seg_slots) + 1))
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(need - 1))
    with pytest.raises(CapacityError):
        verify_gap_upper(10**6, segment_size=1024)
    assert sieve._summaries is sieve._NO_SUMMARIES
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(need))
    assert verify_gap_upper(10**6, segment_size=1024).holds


@pytest.mark.usefixtures("cold_summaries")
def test_pair_build_peak_within_estimate(monkeypatch):
    # segments of 2^24 odd slots: the call stays within the cap's estimate,
    # and past the stream a build holds a segment's flags, which a stream
    # holds twice, and one slice of 2^17 slots: its block and what the scan
    # derives from it, 64 bytes per prime
    limit, size = 2 * 10**8, 1 << 25
    call = lambda: verify_firoozbakht(limit, segment_size=size)
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", "1")
    with pytest.raises(CapacityError, match=r"needs about \d+ bytes") as refused:
        call()
    need = int(re.search(r"needs about (\d+) bytes", str(refused.value)).group(1))
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(need))
    pair_rows, stream = sieve._pair_rows, []

    def reset_after_stream(*args, **kw):
        out = pair_rows(*args, **kw)
        stream.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.reset_peak()
        return out

    monkeypatch.setattr(sieve, "_pair_rows", reset_after_stream)
    r, build = _traced_peak(call)
    assert r.holds and max(stream[0], build) <= need
    one_slice = 64 * (sieve._block_bound(1 << 17) + 1)
    assert build <= sieve._stream_mem(0, limit, size) + one_slice


def test_primes_for_indices_holds_one_array(monkeypatch):
    kw = {"segment_size": sieve.DEFAULT_SEGMENT_SIZE, "allow_large": False}
    tracemalloc.start()
    try:
        primes = verify._primes_for_indices(10**6, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert primes.size == 10**6 and primes[-1] == 15485863
    assert primes[:6].tolist() == [2, 3, 5, 7, 11, 13]
    assert peak < 1.3 * primes.nbytes
    # the cap covers the array, and refuses before it is allocated
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(primes.nbytes))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            verify._primes_for_indices(10**6, **kw)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**6
    monkeypatch.delenv("PRIMESPAN_MEM_LIMIT")
    monkeypatch.setattr(sieve, "_prime_bound", lambda n: 100)
    with pytest.raises(RuntimeError, match="prime bound 100 too small"):
        verify._primes_for_indices(100, **kw)


def test_basic_props_peak_below_two_prime_arrays():
    # below two copies of the first 10^6 primes (8 MB as int64), which a count
    # of every point holds
    tracemalloc.start()
    try:
        reports = verify_basic_props(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert all(r.holds for r in reports)
    assert peak < 2 * 8 * 10**6


def _traced_peak(call):
    tracemalloc.start()
    try:
        out = call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return out, peak


@pytest.mark.parametrize("call", [
    partial(verify_theorem1, 2 * 10**5, 100), partial(verify_theorem2, 2 * 10**5, 10),
    partial(verify_lemmas, 2 * 10**5, 100, 5)], ids=["T1", "T2", "lemmas"])
def test_arrays_over_k_within_the_cap(call, monkeypatch):
    # the arrays over k are charged before the first of them is allocated:
    # a byte below the estimate refuses with little traced, and at it the
    # call runs within it
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", "1")
    with pytest.raises(CapacityError, match=r"needs about \d+ bytes") as refused:
        call()
    need = int(re.search(r"needs about (\d+) bytes", str(refused.value)).group(1))
    assert need == verify._K_BYTES * 2 * 10**5
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(need - 1))
    tracemalloc.start()
    try:
        with pytest.raises(CapacityError):
            call()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10**5
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", str(need))
    _, peak = _traced_peak(call)
    assert peak <= need


def test_theorem2_counts_in_batches():
    # the row k = 2 alone is 10^6 points, counted in batches of 2^16
    r, peak = _traced_peak(lambda: verify_theorem2(2, 10**6))
    assert r.holds and r.scanned == 10**6
    assert peak < 10 * 10**6


def test_lemmas_sweep_in_batches():
    # at the CLI defaults L2's grid is about 10^6 points and L3's 10^6
    spec = next(spec for spec in CLAIMS if spec.name == "lemmas")
    reports, peak = _traced_peak(lambda: spec.run(spec.params, "open"))
    assert [r.scanned for r in reports] == [9996, 9996 * 103, 999996]
    assert peak < 15 * 10**6


def _batched_claims_json():
    reports = [verify_theorem2(12, 2000), verify_theorem3(30_000)]
    for boundary in ("open", "closed"):
        reports += [verify_theorem1(30, 3000, boundary), verify_gap_interval(200_000, boundary)]
    reports += [*verify_basic_props(5000), *verify_lemmas(60, 20, 5000)]
    return emit_reports(reports, "json")


def test_batch_edges_leave_reports_unchanged(monkeypatch):
    # batches of a prime number of points cut rows and runs at odd places
    want = _batched_claims_json()
    monkeypatch.setattr(verify, "_CHUNK_POINTS", 1009)
    assert _batched_claims_json() == want
    _certify_nothing(monkeypatch)
    assert _batched_claims_json() == want


def test_gap_upper_rechecks_near_ties(monkeypatch):
    # a stand-in bound equal to the gap of 14 after p_30 = 113: its float
    # slack is 0, but ln^2 113 - ln 113 = 17.6 at 200 bits clears the pair
    real = verify._gap_upper_bound_array
    monkeypatch.setattr(verify, "_gap_upper_bound_array",
                        lambda p: np.where(p == 113, 14.0, real(p)))
    r = verify_gap_upper(1000)
    assert r.holds and r.min_slack == 0.0 and r.min_slack_at == "n=30;p_n=113;g_n=14"
    # the bare float test would report it
    monkeypatch.setattr(verify, "_gap_upper_exact_slack", lambda p, g: 0.0)
    bare = verify_gap_upper(1000)
    assert [v.param for v in bare.violations] == ["n=30;p_n=113"]


@settings(max_examples=500, deadline=None)
@given(n=st.integers(1, 2**40), p=st.integers(2, 2**62), g=st.integers(0, 2000))
def test_rechecks_match_mpmath_oracle(n, p, g):
    # an exact tie p^(n+1) = q^n, which needs p = a^n and so n <= 62, is no
    # prime pair, and there two roundings of 0 may differ in sign
    q = p + g
    assume(n > 62 or p ** (n + 1) != q ** n)
    assert verify._firoozbakht_exact_slack(n, p, q) == oracle_firoozbakht_slack(n, p, q)
    assert verify._gap_upper_exact_slack(p, g) == oracle_gap_upper_slack(p, g)


# near ties whose float slacks are both 0.0: Firoozbakht's (n, p, q) and
# GapUpper's (p, g), with rechecked slacks of about 5.7e-26 and 8.3e-19
_FIROOZBAKHT_NEAR_TIE = (13815510558536, 10**12 + 39, 10**12 + 41)
_GAP_UPPER_NEAR_TIE = (81144676173403744, 1477)


def test_library_runs_without_mpmath():
    # mpmath cannot be imported: f's steps and both rechecks still run
    code = ("import sys; sys.modules['mpmath'] = None; import primespan.verify as v; "
            "print(repr((v.f_of_k(8869621643726889085), v.f_of_k(8869621643726889086), "
            "v.f_of_k(2**63 - 1), "
            f"v._firoozbakht_exact_slack{_FIROOZBAKHT_NEAR_TIE}, "
            f"v._gap_upper_exact_slack{_GAP_UPPER_NEAR_TIE})))")
    src = os.path.dirname(os.path.dirname(verify.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True).stdout
    want = (49, 50, 50, oracle_firoozbakht_slack(*_FIROOZBAKHT_NEAR_TIE),
            oracle_gap_upper_slack(*_GAP_UPPER_NEAR_TIE))
    assert ast.literal_eval(out) == want and want[3] > 0 and want[4] > 0
