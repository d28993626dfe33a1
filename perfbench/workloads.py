"""Workload definitions shared by the harness (run.py) and the pass runner (child.py).

This module imports nothing from primespan, so the harness can read it
without loading the program it measures.
"""

# Arguments `primespan verify all` uses by default, keyed by claim.  A traced
# run measures a layer or claim that its workload does not reach with these
# arguments, so every traced run reports every per-layer metric.
CATALOG_ARGS = {
    "t1": {"k_max": 100, "n_max": 10_000},
    "t2": {"k_max": 50, "n_max": 10_000},
    "t3": {"k_max": 1_000_000},
    "gap_interval": {"n_max": 10_000_000},
    "firoozbakht": {"limit": 100_000_000},
    "gap_upper": {"limit": 100_000_000},
    "props": {"limit": 1_000_000},
    "lemmas": {"k_max": 10_000, "r_max": 100, "n_max": 1_000_000},
}
CLAIMS = tuple(CATALOG_ARGS)
CATALOG_ARGV = ["verify", "all", "--format", "json", "--no-progress"]

# Library workloads list their claims in canonical output order; --seed only
# permutes the order in which a pass runs them.
WORKLOADS = {
    "stream": {
        "kind": "library",
        "workers": 1,
        "claims": {"firoozbakht": {"limit": 10**9}, "gap_upper": {"limit": 10**9}},
    },
    "index": {
        "kind": "library",
        "workers": 2,
        "claims": {
            "t3": {"k_max": 10**7},
            "gap_interval": {"n_max": 10**7},
            "t1": {"k_max": 1000, "n_max": 10**4},
        },
    },
    "catalog": {
        "kind": "cli",
        "workers": 1,
        "argv": CATALOG_ARGV,
        "claims": CATALOG_ARGS,
    },
}
