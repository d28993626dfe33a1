#!/usr/bin/env python3
"""primespan benchmark: end-to-end and per-layer metrics for one workload.

    python3 perfbench/run.py --workload stream --seed 1 --seconds 30 --trace 0

Run from the repository root.  Every pass runs in a fresh child process
(child.py) that imports primespan from ./src.  Each pass's canonical JSON
output is checked against the digest stored in reference.json; a pass whose
digest or exit code differs counts as failed.  --trace 0 reports the
end-to-end metrics named in BENCHMARK.json, --trace 1 the per-layer ones.
The last line on standard output is the result object; the line before it
records the machine, the passes and every check; standard error gets a
readable table.

    python3 perfbench/run.py --record

runs each workload once and rewrites reference.json from its output, after
checking the anchors below.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
CHILD = BENCH / "child.py"
REFERENCE = BENCH / "reference.json"
SPEC = ROOT / "BENCHMARK.json"
SRC = ROOT / "src"

SETUP_PROBES = 7       # import-only children per run, on top of one per pass
RUN_LIMIT_S = 170.0    # a run ends within this, whatever --seconds says
MIN_TRACED = 2         # traced passes per --trace 1 run, so counts can be compared
PI_1E9 = 50_847_534

# Counts that must read the same in every pass of a run.
REPEATING = ("sieve.segments", "sieve.primes", "sieve.bitmap_bytes",
             "sieve.primes_bytes", "bounds.f_of_k_array_n",
             "verify.firoozbakht.rechecked")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _child_env() -> dict:
    env = dict(os.environ)
    old = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + old if old else "")
    return env


def _spawn(spec: dict, timeout: float) -> dict:
    """Run child.py once; its result object plus parent-side timing and rusage."""
    t0 = _now()
    proc = subprocess.Popen([sys.executable, str(CHILD), json.dumps(spec)],
                            stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                            env=_child_env(), cwd=ROOT)
    timer = threading.Timer(max(timeout, 1.0), proc.kill)
    timer.start()
    try:
        raw = proc.stdout.read()
    except BaseException:
        proc.kill()
        raise
    finally:
        timer.cancel()
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    lines = raw.decode("utf-8", "replace").rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
    except json.JSONDecodeError:
        result = None
    return {"spawned": t0, "ended": _now(), "exit": proc.returncode,
            "result": result, "log": lines[-20:],
            "cpu_s": usage.ru_utime + usage.ru_stime,
            "peak_rss_mb": usage.ru_maxrss * 1024 / 1e6}


def _reports(output: str) -> list[dict]:
    obj = json.loads(output)
    return obj["reports"] if "reports" in obj else [obj]


def _anchor_failures(workload: str, reports: list[dict]) -> list[str]:
    """Known facts the reference output must show, independent of its digest."""
    by = {r["claim"]: r for r in reports}
    bad = []
    for claim in ("Firoozbakht", "GapUpper", "T1", "T3"):
        if claim in by and not by[claim]["holds"]:
            bad.append(f"{claim} should hold")
    if workload == "stream" and by["Firoozbakht"]["scanned"] + 1 != PI_1E9:
        bad.append("Firoozbakht pairs to 1e9 should be pi(1e9) - 1 = 50847533")
    if "GapInterval" in by:
        gi = by["GapInterval"]
        at = [int(v["param"].split("=")[1]) for v in gi["violations"]]
        if gi["violations_total"] != 9 or len(at) != 9 or max(at) > 24:
            bad.append("GapInterval should have 9 violations, all at n <= 24")
    if "L2" in by:
        l2 = by["L2"]
        if l2["violations_total"] != 806 or l2["violations"][0]["param"] != "k=5;r=11":
            bad.append("L2 should have 806 violations, the first at k=5;r=11")
    return bad


def _load_reference() -> dict:
    with open(REFERENCE, encoding="utf-8") as fh:
        return json.load(fh)


def _run_pass(workload: str, mode: str, order: list[str], ref: dict | None,
              timeout: float) -> dict:
    """One child pass, checked against the reference digest and the anchors."""
    run = _spawn({"workload": workload, "mode": mode, "order": order}, timeout)
    res = run["result"]
    rec = {"mode": mode, "order": order, "exit": run["exit"],
           "cpu_s": run["cpu_s"], "peak_rss_mb": run["peak_rss_mb"],
           "duration_s": run["ended"] - run["spawned"], "ok": False, "anchors": []}
    if res is None or "output" not in res:
        rec["error"] = "\n".join(run["log"])
        return rec
    out = res["output"].encode("utf-8")
    try:
        reports = _reports(res["output"])
        scanned = {r["claim"]: r["scanned"] for r in reports}
        anchors = _anchor_failures(workload, reports)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        rec["error"] = f"output is not the expected report JSON: {exc!r}"
        return rec
    rec.update(
        setup_s=res["ready"] - run["spawned"], wall_s=res["done"] - res["ready"],
        versions=res["versions"], sha256=hashlib.sha256(out).hexdigest(),
        bytes=len(out), scanned=scanned, anchors=anchors)
    rec["scanned_per_s"] = sum(rec["scanned"].values()) / rec["wall_s"]
    if ref is not None:
        want = ref[workload]
        rec["ok"] = rec["sha256"] == want["sha256"] and rec["exit"] == want["exit_code"]
    if mode == "trace":
        traced = res["trace"]
        rec["trace"] = traced["metrics"]
        rec["own_s"] = traced["own_s"]
        rec["extents"] = {"stream": traced["x_stream"], "table": traced["x_table"]}
        if ref is not None and traced["catalog_sha256"] != ref["catalog"]["sha256"]:
            rec["ok"] = False
            rec["error"] = "catalog output in the traced replay differs from the reference"
        if traced["x_stream"] == 10**9 and traced["metrics"]["sieve.primes"] != PI_1E9:
            rec["anchors"].append("pi(1e9) should be 50847534")
    return rec


def _count_mismatches(passes: list[dict]) -> list[str]:
    seen: dict[str, set] = {}
    for p in passes:
        if "scanned" not in p:
            continue
        for claim, n in p["scanned"].items():
            seen.setdefault(f"scanned.{claim}", set()).add(n)
        seen.setdefault("output_bytes", set()).add(p["bytes"])
        for key, value in p.get("trace", {}).items():
            if key in REPEATING or key.endswith(".scanned"):
                seen.setdefault(key, set()).add(value)
    return sorted(f"{k}: {sorted(v)}" for k, v in seen.items() if len(v) > 1)


def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "primespan").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def _machine(versions: dict) -> dict:
    info = {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu_model": platform.processor() or None, "caches": {},
            "python": platform.python_version(), **versions}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    info["cpu_model"] = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (idx / "level").read_text().strip()
            kind = (idx / "type").read_text().strip()
            info["caches"][f"L{level}_{kind}"] = (idx / "size").read_text().strip()
        except OSError:
            continue
    return info


def _median(values: list):
    """The median; counts stay whole numbers."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def _metric_specs(trace: bool) -> list[dict]:
    with open(SPEC, encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: str, seed: int, seconds: int, trace: bool) -> int:
    ref = _load_reference()
    # Passes cycle through every claim order, in an order the seed shuffles,
    # so each run sees the same mix; peak RSS depends on the claim order.
    orders = [list(o) for o in itertools.permutations(WORKLOADS[workload]["claims"])]
    random.Random(seed).shuffle(orders)
    start = _now()
    deadline = start + seconds
    hard = start + RUN_LIMIT_S

    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            probe = _spawn({"workload": workload, "mode": "setup"}, hard - _now())
            if probe["result"] is not None:
                setups.append(probe["result"]["ready"] - probe["spawned"])
    passes: list[dict] = []
    last: dict[str, float] = {}
    while True:
        n_traced = sum(p["mode"] == "trace" for p in passes)
        n_plain = len(passes) - n_traced
        # --trace 1: one plain pass, MIN_TRACED traced ones, then alternate
        if trace and n_plain >= 1 and (n_traced < MIN_TRACED or n_traced < n_plain):
            mode = "trace"
        else:
            mode = "pass"
        minimum_met = n_plain >= 1 and (not trace or n_traced >= MIN_TRACED)
        if minimum_met and _now() + last.get(mode, 0.0) > deadline:
            break
        if _now() + last.get(mode, 0.0) > hard:
            break
        rec = _run_pass(workload, mode, orders[len(passes) % len(orders)], ref, hard - _now())
        passes.append(rec)
        last[mode] = rec["duration_s"]
        if "error" in rec and rec["exit"] < 0:
            break  # killed at the run's time limit

    # A pass whose output is wrong still reports its timings; "correct" says so.
    plain = [p for p in passes if p["mode"] == "pass" and "wall_s" in p]
    traced = [p for p in passes if "trace" in p]
    specs = _metric_specs(trace)
    metrics = {}
    if trace and traced and plain:
        for spec in specs:
            name = spec["name"]
            if name == "trace.overhead_s":
                value = (statistics.median(p["own_s"] for p in traced)
                         - statistics.median(p["wall_s"] for p in plain))
            else:
                value = _median([p["trace"][name] for p in traced])
            metrics[name] = {"value": value, "unit": spec["unit"]}
    elif not trace and plain:
        for spec in specs:
            name = spec["name"]
            if name == "setup_s":
                value = statistics.median(setups + [p["setup_s"] for p in plain])
            elif name == "peak_rss_mb":
                value = max(p[name] for p in plain)
            else:
                value = _median([p[name] for p in plain])
            metrics[name] = {"value": value, "unit": spec["unit"]}
    if len(metrics) != len(specs):
        for p in passes:
            if not p["ok"]:
                print(f"pass failed ({p['mode']}, exit {p['exit']}): "
                      f"{p.get('error', 'output differs from the reference')}",
                      file=sys.stderr)
        print("error: no pass produced output to report metrics from", file=sys.stderr)
        return 1

    anchors = sorted({a for p in passes for a in p["anchors"]})
    mismatches = _count_mismatches(passes)
    failed = sum(not p["ok"] for p in passes)
    versions = next((p["versions"] for p in passes if "versions" in p), {})
    detail = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": int(trace),
        "machine": _machine(versions), "commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "failed_frac": failed / len(passes),
        "anchor_failures": anchors, "count_mismatches": mismatches,
        "bytes_note": "byte counts are computed array sizes, not measured traffic",
        "setup_probes_s": setups,
        "passes": [{k: v for k, v in p.items() if k not in ("versions",)}
                   for p in passes],
    }
    print(json.dumps(detail))
    for name, m in metrics.items():
        print(f"{name:34s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    print(f"{'failed_frac':34s} {failed / len(passes):>16.6g} "
          f"({failed} of {len(passes)} passes)", file=sys.stderr)
    for line in anchors + mismatches:
        print(f"check failed: {line}", file=sys.stderr)
    result = {"correct": failed == 0 and not anchors and not mismatches,
              "attempted": len(passes), "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


def record() -> int:
    """Rewrite reference.json from one pass per workload, if the anchors hold."""
    ref = {}
    for workload, wl in WORKLOADS.items():
        rec = _run_pass(workload, "pass", list(wl["claims"]), None, RUN_LIMIT_S)
        if "sha256" not in rec or rec["anchors"]:
            print(f"{workload}: {rec.get('error') or rec['anchors']}", file=sys.stderr)
            return 1
        ref[workload] = {"sha256": rec["sha256"], "exit_code": rec["exit"],
                         "bytes": rec["bytes"], "scanned": rec["scanned"]}
        print(f"{workload}: {rec['sha256']} exit {rec['exit']} {rec['bytes']} bytes",
              file=sys.stderr)
    ref["source_sha256"] = _source_sha256()
    ref["commit"] = _git_commit()
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=2)
        fh.write("\n")
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=list(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=36)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--record", action="store_true",
                        help="rewrite reference.json from the current program")
    args = parser.parse_args(argv)
    if not (SRC / "primespan" / "__init__.py").is_file():
        print(f"error: no primespan sources under {SRC}; run from a checkout",
              file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    if not REFERENCE.is_file() or not SPEC.is_file():
        print("error: reference.json or BENCHMARK.json is missing", file=sys.stderr)
        return 2
    return measure(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
