"""One benchmark pass in a fresh process.

    python3 child.py '{"workload": "stream", "mode": "pass", "order": [...]}'

mode "setup" only imports primespan.  mode "pass" runs the workload's own
calls, as a user would.  mode "trace" runs them timed one by one and then
replays, for every claim, the public sieve and bounds calls the claim makes,
with the same arguments, timing each from outside the program.

The last line on standard output is one JSON object.  Its "ready" and
"done" stamps are CLOCK_MONOTONIC readings, which the parent shares, so the
parent can time set-up from the moment it started this process.
"""

import time


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import re  # noqa: E402
import sys  # noqa: E402

import mpmath  # noqa: E402
import numpy as np  # noqa: E402

import primespan  # noqa: E402
from primespan import (dispatch, emit_reports, f_of_k, f_of_k_array,  # noqa: E402
                       iter_prime_blocks, prime_count, sieve_range,
                       verify_basic_props, verify_firoozbakht,
                       verify_gap_interval, verify_gap_upper, verify_lemmas,
                       verify_theorem1, verify_theorem2, verify_theorem3)

READY = _now()

from workloads import CATALOG_ARGS, CATALOG_ARGV, CLAIMS, WORKLOADS  # noqa: E402

VERIFY = {
    "t1": verify_theorem1,
    "t2": verify_theorem2,
    "t3": verify_theorem3,
    "gap_interval": verify_gap_interval,
    "firoozbakht": verify_firoozbakht,
    "gap_upper": verify_gap_upper,
    "props": verify_basic_props,
    "lemmas": verify_lemmas,
}
_RECHECKED_NOTE = re.compile(r"(\d+) near-ties rechecked")


def _verify(name: str, args: dict, workers: int) -> tuple:
    out = VERIFY[name](**args, workers=workers)
    return out if isinstance(out, tuple) else (out,)


def _dispatch(argv: list[str]) -> tuple[bytes, int]:
    """What `python -m primespan <argv>` prints to stdout, and its exit code."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = dispatch(argv)
    return buf.getvalue().encode("utf-8"), code


def _index_bound(n: int) -> int:
    """The sieve extent verify uses to hold the first n primes."""
    if n < 6:
        return 14
    ln = math.log(n)
    return int(n * (ln + math.log(ln))) + 2


class _Replay:
    """Timed public sieve and bounds calls, each distinct call made once."""

    def __init__(self, workers: int):
        self.workers = workers
        self._cache: dict = {}

    def _once(self, key, fn):
        if key not in self._cache:
            self._cache[key] = fn()
        return self._cache[key]

    def drain(self, hi: int) -> dict:
        """Drain iter_prime_blocks(0, hi): time, blocks and primes."""
        def run():
            t = _now()
            segments = primes = 0
            for block in iter_prime_blocks(0, hi, workers=self.workers):
                segments += 1
                primes += int(block.size)
            return {"s": _now() - t, "segments": segments, "primes": primes}
        return self._once(("drain", hi), run)

    def table(self, hi: int) -> dict:
        """sieve_range(0, hi) and then PrimeTable.primes(), timed apart."""
        def run():
            t = _now()
            table = sieve_range(0, hi, workers=self.workers)
            t_pack = _now()
            primes = table.primes()
            t_primes = _now()
            return {"pack_s": t_pack - t, "primes_s": t_primes - t_pack,
                    "s": t_primes - t, "bitmap_bytes": int(table.bitmap.nbytes),
                    "primes_bytes": int(primes.nbytes)}
        return self._once(("table", hi), run)

    def count(self, hi: int) -> float:
        """Time of prime_count(hi): flag generation alone."""
        def run():
            t = _now()
            prime_count(hi, workers=self.workers)
            return _now() - t
        return self._once(("count", hi), run)

    def f_of_k(self, lo: int, hi: int) -> dict:
        """f_of_k_array over lo..hi."""
        def run():
            ks = np.arange(lo, hi + 1, dtype=np.int64)
            t = _now()
            f = f_of_k_array(ks)
            return {"s": _now() - t, "n": int(ks.size), "last": int(f[-1])}
        return self._once(("f_of_k", lo, hi), run)

    def claim(self, name: str, args: dict) -> dict:
        """Replay the sieve and bounds calls the claim's verifier makes."""
        streams, tables, fks = [], [], []
        if name in ("t1", "t2"):
            if name == "t1":
                fks.append(self.f_of_k(2, args["k_max"]))
            tables.append(args["k_max"] * args["n_max"])
        elif name == "t3":
            fk = self.f_of_k(2, args["k_max"])
            fks.append(fk)
            tables.append(args["k_max"] * (fk["last"] + 1))
        elif name == "gap_interval":
            n = args["n_max"]
            tables.append(n + n // 2 + 2)
            fks.append(self.f_of_k(2, n))
            if n >= 4:
                fks.append(self.f_of_k(2, n // 2))
        elif name in ("firoozbakht", "gap_upper"):
            streams.append(args["limit"])
        elif name == "props":
            streams.append(_index_bound(args["limit"]))
        elif name == "lemmas":
            k = args["k_max"]
            streams.append(_index_bound(max(f_of_k(k) + k + args["r_max"], 6)))
            fks.append(self.f_of_k(5, k))
        sieve_s = (sum(self.drain(hi)["s"] for hi in streams)
                   + sum(self.table(hi)["s"] for hi in tables))
        return {"sieve_s": sieve_s, "bounds_s": sum(f["s"] for f in fks),
                "bounds_n": sum(f["n"] for f in fks),
                "streams": streams, "tables": tables}


def _rechecked(reports) -> int:
    total = 0
    for r in reports:
        for note in r.notes:
            m = _RECHECKED_NOTE.search(note)
            if m:
                total += int(m.group(1))
    return total


def _trace(wl: dict, order: list[str]) -> tuple[bytes, int, dict]:
    """Timed own calls, then per-claim and per-layer replays; returns the metrics."""
    workers = wl["workers"]
    own = wl["claims"]
    m: dict = {}
    calls: dict = {}
    reports: dict = {}
    if wl["kind"] == "cli":
        t = _now()
        out, code = _dispatch(wl["argv"])
        m["cli.dispatch_s"] = _now() - t
        own_s = m["cli.dispatch_s"]
    else:
        for name in order:
            t = _now()
            reports[name] = _verify(name, own[name], workers)
            calls[name] = _now() - t
        t = _now()
        out = emit_reports([r for name in own for r in reports[name]], "json")
        m["cli.emit_s"] = _now() - t
        code = 0
        own_s = sum(calls.values()) + m["cli.emit_s"]
    m["cli.output_bytes"] = len(out)

    # every claim: on the workload's path with its arguments, else as the catalog runs it
    replay = _Replay(workers)
    plans = {}
    for name in CLAIMS:
        args = own.get(name, CATALOG_ARGS[name])
        if name not in calls:
            t = _now()
            reports[name] = _verify(name, args, workers)
            calls[name] = _now() - t
        plans[name] = plan = replay.claim(name, args)
        m[f"verify.{name}_s"] = calls[name]
        m[f"verify.{name}.scan_s"] = calls[name] - plan["sieve_s"] - plan["bounds_s"]
        m[f"verify.{name}.scanned"] = sum(r.scanned for r in reports[name])
    m["verify.firoozbakht.rechecked"] = _rechecked(reports["firoozbakht"])
    for name in ("props", "lemmas"):
        m[f"verify.{name}.unattributed_s"] = (
            calls[name] - sum(r.elapsed for r in reports[name]))

    def on_path(key):
        mine = [plans[n] for n in own if plans[n][key]]
        return mine or [plans[n] for n in CLAIMS if plans[n][key]]

    x_stream = max(hi for p in on_path("streams") for hi in p["streams"])
    flags_s = replay.count(x_stream)
    drain = replay.drain(x_stream)
    m["sieve.flags_s"] = flags_s
    m["sieve.extract_s"] = drain["s"] - flags_s
    m["sieve.segments"] = drain["segments"]
    m["sieve.primes"] = drain["primes"]
    x_table = max(hi for p in on_path("tables") for hi in p["tables"])
    table = replay.table(x_table)
    m["sieve.pack_s"] = table["pack_s"] - replay.count(x_table)
    m["sieve.primes_s"] = table["primes_s"]
    m["sieve.bitmap_bytes"] = table["bitmap_bytes"]
    m["sieve.primes_bytes"] = table["primes_bytes"]
    fk_plans = on_path("bounds_n")
    m["bounds.f_of_k_array_s"] = sum(p["bounds_s"] for p in fk_plans)
    m["bounds.f_of_k_array_n"] = sum(p["bounds_n"] for p in fk_plans)

    # the CLI layer: the catalog's serialization, or its dispatch when off path
    if wl["kind"] == "cli":
        t = _now()
        catalog_out = emit_reports([r for name in CLAIMS for r in reports[name]], "json")
        m["cli.emit_s"] = _now() - t
    else:
        t = _now()
        catalog_out, _ = _dispatch(CATALOG_ARGV)
        m["cli.dispatch_s"] = _now() - t
    return out, code, {"metrics": m, "own_s": own_s, "x_stream": x_stream,
                       "x_table": x_table,
                       "catalog_sha256": hashlib.sha256(catalog_out).hexdigest()}


def main() -> int:
    spec = json.loads(sys.argv[1])
    wl = WORKLOADS[spec["workload"]]
    result = {"ready": READY,
              "versions": {"primespan": primespan.__version__,
                           "numpy": np.__version__, "mpmath": mpmath.__version__}}
    code = 0
    if spec["mode"] == "pass":
        if wl["kind"] == "cli":
            out, code = _dispatch(wl["argv"])
        else:
            done = {name: _verify(name, wl["claims"][name], wl["workers"])
                    for name in spec["order"]}
            out = emit_reports([r for name in wl["claims"] for r in done[name]], "json")
        result["done"] = _now()
        result["output"] = out.decode("utf-8")
    elif spec["mode"] == "trace":
        out, code, traced = _trace(wl, spec["order"])
        result["done"] = _now()
        result["output"] = out.decode("utf-8")
        result["trace"] = traced
    print(json.dumps(result), flush=True)
    return code


if __name__ == "__main__":
    sys.exit(main())
