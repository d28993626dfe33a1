"""Prime-interval analysis: closed-form bounds with exhaustive verification.

A segmented odd-only sieve backs a catalog of prime-counting and prime-gap
bounds; every cataloged claim can be checked or falsified over user-chosen
ranges with deterministic, byte-identical reports.
"""

from .bounds import (EXP_EULER_GAMMA, RULES, IntervalRule, LogBase, Margin,
                     RuleName, f_of_k, f_of_k_array, firoozbakht_rhs,
                     gap_lower_heuristic, gap_upper_bound, lemma1_margin,
                     lemma2_margin, lemma3_margin, mps_upper_bound,
                     nth_prime_bounds, rule_g, s_index)
from .errors import (CapacityError, CeilingAmbiguityError, PrimespanError,
                     ThresholdError)
from .sieve import (DEFAULT_SEGMENT_SIZE, GapRecord, Interval, PrimeTable,
                    count_primes_in, iter_prime_blocks, iter_prime_pairs,
                    iterate_gaps, log_primorial, max_gap_up_to, nth_prime,
                    prime_count, sieve_range)
from .verify import (VIOLATION_CAP, ClaimId, ClaimReport, CompareRow,
                     CompareTable, Violation, compare_rules,
                     verify_basic_props, verify_firoozbakht,
                     verify_gap_interval, verify_gap_upper, verify_lemmas,
                     verify_theorem1, verify_theorem2, verify_theorem3)
from .cli import dispatch, emit_compare, emit_report, emit_reports, main

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # errors
    "PrimespanError", "CapacityError", "CeilingAmbiguityError",
    "ThresholdError",
    # sieve
    "DEFAULT_SEGMENT_SIZE", "PrimeTable", "Interval", "GapRecord",
    "sieve_range", "iter_prime_blocks", "iter_prime_pairs", "prime_count",
    "nth_prime",
    "count_primes_in", "iterate_gaps", "max_gap_up_to", "log_primorial",
    # bounds
    "EXP_EULER_GAMMA", "LogBase", "Margin", "f_of_k", "f_of_k_array",
    "s_index", "mps_upper_bound", "nth_prime_bounds", "firoozbakht_rhs",
    "gap_upper_bound", "gap_lower_heuristic", "RuleName", "IntervalRule",
    "RULES", "rule_g", "lemma1_margin", "lemma2_margin", "lemma3_margin",
    # verify
    "VIOLATION_CAP", "ClaimId", "Violation", "ClaimReport", "CompareRow",
    "CompareTable", "verify_theorem1", "verify_theorem2", "verify_theorem3",
    "verify_gap_interval", "verify_firoozbakht", "verify_gap_upper",
    "verify_basic_props", "verify_lemmas", "compare_rules",
    # cli
    "dispatch", "main", "emit_report", "emit_reports", "emit_compare",
]
