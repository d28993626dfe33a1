"""Acceptance criteria 1-12.

Each criterion is one test named test_criterion_NN_*; the conftest hook
prints a PASS/FAIL line per criterion at the end of the run.  Criteria
6 and 10 verify falsification as a capability: GapInterval fails at small
n, and the second margin-family claim (L2) fails under exhaustive
enumeration.  Criterion 10 checks L2's violations against an independent
enumeration in oracles.py and fails if L2 is ever reported as holding.
"""

import os
import random
import time
from bisect import bisect_left, bisect_right

import pytest

import primespan.sieve as sieve
from primespan import (f_of_k, nth_prime, prime_count, sieve_range,
                       verify_basic_props, verify_firoozbakht,
                       verify_gap_interval, verify_gap_upper, verify_lemmas,
                       verify_theorem1, verify_theorem2, verify_theorem3)
from primespan.cli import dispatch, emit_report
from primespan.verify import VIOLATION_CAP

from oracles import (naive_sieve, oracle_lemma_sweep, primes_from_flags,
                     trial_division_is_prime)

SEED = 20260817


@pytest.fixture(scope="module")
def runs():
    """Criteria 3-8 engines at full scale, once with 1 usable CPU and once with 2.

    Each run starts from an empty pair-segment summary table, so the pair
    streams sieve every segment with that many processes; "forks" counts
    the processes they start.
    """
    calls = {
        "t1": lambda: verify_theorem1(100, 10**4),
        "t2": lambda: verify_theorem2(50, 10**4),
        "t3": lambda: verify_theorem3(10**6),
        "gap_interval": lambda: verify_gap_interval(10**7),
        "firoozbakht": lambda: verify_firoozbakht(10**9),
        "gap_upper": lambda: verify_gap_upper(10**8),
    }
    out = {}
    for cpus in (1, 2):
        out[cpus] = {"forks": 0}
        real_fork = os.fork

        def fork():
            out[cpus]["forks"] += 1
            return real_fork()

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(sieve, "_usable_cpus", lambda: cpus)
            mp.setattr(os, "fork", fork)
            for key, call in calls.items():
                mp.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
                out[cpus][key] = call()
    return out


def test_criterion_01_sieve_matches_trial_division():
    t0 = time.perf_counter()
    limit = 10**5
    oracle = [n for n in range(limit + 1) if trial_division_is_prime(n)]
    rng = random.Random(SEED)
    segs = [1024, 4096, 1 << 16, 1 << 21]
    for i in range(1000):
        a = rng.randint(0, limit)
        b = rng.randint(a, limit)
        got = sieve_range(a, b, segs[i % len(segs)]).primes().tolist()
        want = oracle[bisect_left(oracle, a) : bisect_right(oracle, b)]
        assert got == want, (a, b)
    assert time.perf_counter() - t0 < 5.0


def test_criterion_02_pi_checkpoints():
    t0 = time.perf_counter()
    flags = naive_sieve(16_000_000)
    oracle = primes_from_flags(flags)
    assert sum(flags[: 10**6 + 1]) == 78498
    assert oracle[10**6 - 1] == 15485863
    assert prime_count(10**6) == 78498
    assert nth_prime(10**6) == 15485863
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_theorem1_exhaustive(runs):
    r = runs[1]["t1"]
    assert r.violations_total == 0 and r.holds
    assert r.scanned == sum(10**4 - f_of_k(k) + 1 for k in range(2, 101))
    assert r.elapsed < 60.0


def test_criterion_04_theorem2_exhaustive(runs):
    r = runs[1]["t2"]
    assert r.violations_total == 0 and r.holds
    assert r.min_slack > 0
    assert r.elapsed < 60.0


def test_criterion_05_theorem3_exhaustive(runs):
    r = runs[1]["t3"]
    assert r.violations_total == 0 and r.holds
    assert r.scanned == 10**6 - 1
    assert r.elapsed < 60.0


def test_criterion_06_gap_interval_falsification(runs):
    r = runs[1]["gap_interval"]
    params = [v.param for v in r.violations]
    assert "n=2" in params
    assert "n=5" in params
    assert r.violations_total == 9
    assert not r.holds
    lattice = next(n for n in r.notes if "lattice" in n)
    assert "0 violations among them" in lattice


def test_criterion_07_firoozbakht_to_1e9(runs):
    r = runs[1]["firoozbakht"]
    assert r.violations_total == 0 and r.holds
    assert r.scanned == 50847534 - 1
    assert r.elapsed < 300.0


def test_criterion_08_gap_upper_to_1e8(runs):
    r = runs[1]["gap_upper"]
    assert r.violations_total == 0 and r.holds
    assert r.min_slack == pytest.approx(0.0140158, abs=1e-6)
    assert r.min_slack_at == "n=6;p_n=13;g_n=4"
    assert r.elapsed < 60.0


def test_criterion_09_props_to_1e6():
    p4, p6, eq1 = verify_basic_props(10**6)
    assert p4.holds and p4.violations_total == 0
    assert p6.holds and p6.violations_total == 0
    assert eq1.holds and eq1.violations_total == 0
    assert eq1.range == "6<=n<=1000000"


def test_criterion_10_lemma_sweep():
    # L1 and L3 hold; the catalog's second margin family (L2) is falsified
    # by enumeration under both log bases.  The engine's L2 verdict, every
    # violation and the least slack must match an independent enumeration
    # (oracles.oracle_lemma_sweep), so this fails if L2 is ever reported as
    # holding.  Float values are compared at rel=1e-12: both sides evaluate
    # the same expression, a few ulps apart at most.
    l1, l2, l3 = verify_lemmas(10**4, 100, 10**6)
    assert all(sum(f"base={b}:" in n for n in r.notes) == 1
               for r in (l1, l2, l3) for b in ("ln", "log10"))
    assert l3.holds and l3.min_slack > 0

    l1_viols, (l1_slack, (l1_k, _)) = oracle_lemma_sweep(10**4, [-3])
    assert l1_viols == []
    assert l1.holds and l1.violations_total == 0 and l1.min_slack > 0
    assert l1.min_slack == pytest.approx(l1_slack, rel=1e-12)
    assert l1.min_slack_at == f"k={l1_k}"

    viols, (slack, (k, r)) = oracle_lemma_sweep(10**4, range(-2, 101))
    assert 0 < len(viols) <= VIOLATION_CAP  # so every violation is listed
    assert not l2.holds and l2.min_slack < 0
    assert l2.violations_total == len(viols)
    assert [v.param for v in l2.violations] == [
        f"k={vk};r={vr}" for vk, vr, _, _ in viols]
    for v, (_, _, lhs, rhs) in zip(l2.violations, viols):
        assert v.required == rhs
        assert v.observed == pytest.approx(lhs, rel=1e-12)
    assert l2.min_slack == pytest.approx(slack, rel=1e-12)
    assert l2.min_slack_at == f"k={k};r={r}"
    # first violation: f(5) = 3, m = 19, p_19 = 67, (5+4+11)(3+1) - 67 = 13
    first = l2.violations[0]
    assert (first.param, first.required) == ("k=5;r=11", 13.0)

    # the right side goes negative, so base 10 does not rescue L2 either
    b10_viols, _ = oracle_lemma_sweep(10**4, range(-2, 101), "log10")
    assert b10_viols
    for base, n in (("ln", len(viols)), ("log10", len(b10_viols))):
        assert sum(note.startswith(f"base={base}: violations={n};")
                   for note in l2.notes) == 1


def test_criterion_11_figure_reproduction(capsys):
    code = dispatch(["compare", "--from", "240", "--to", "300"])
    captured = capsys.readouterr()
    lines = captured.out.splitlines()
    assert lines[0] == "n,bertrand,nagura,papergap,next_prime"
    rows = lines[1:]
    assert len(rows) == 61
    assert rows[0] == "240,480,288,270,241"
    assert "270" in captured.err and "280" in captured.err
    assert code == 0


def test_criterion_12_determinism(runs):
    for key in ("t1", "t2", "t3", "gap_interval", "firoozbakht", "gap_upper"):
        for fmt in ("json", "csv"):
            a = emit_report(runs[1][key], fmt)
            b = emit_report(runs[2][key], fmt)
            assert a == b, (key, fmt)
    # one child per pair stream at 2 CPUs, none at 1
    assert (runs[1]["forks"], runs[2]["forks"]) == (0, 2)
