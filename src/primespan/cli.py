"""Command-line front end: claim selection, ranges, and CSV/JSON export.

Exit codes: 0 clean, 1 when a verification run finds violations or a
resource/IO limit is hit, 2 on usage errors.  Progress and timing go to
standard error so standard output stays machine-parseable.  Serialized
reports exclude wall time unless --include-timing is given, keeping
output byte-identical across reruns.  The pair stream of firoozbakht,
gap-upper and gaps --max-only forks one sieve worker per usable CPU
(limit them with taskset).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from contextlib import nullcontext
from typing import Iterable

from .bounds import RULES, IntervalRule, RuleName
from .errors import PrimespanError, ThresholdError
from .sieve import (DEFAULT_SEGMENT_SIZE, Interval, count_primes_in,
                    iter_prime_blocks, iterate_gaps, max_gap_up_to, nth_prime)
from .verify import (CLAIMS, VIOLATION_CAP, ClaimReport, CompareTable,
                     compare_rules)

# what each claim parameter bounds, for the verify flags' help
_PARAM_HELP = {
    "k_max": "largest k",
    "n_max": "largest n",
    "r_max": "largest r",
    "limit": "prime ceiling, or prime index ceiling for props",
}


def _cell(x) -> str:
    """Render a value for CSV/text; integral floats print as integers."""
    if x is None:
        return "None"
    if isinstance(x, bool):
        return str(x)
    if isinstance(x, float):
        if x.is_integer() and abs(x) < 1e15:
            return str(int(x))
        return repr(x)
    return str(x)


def _summary_text(r: ClaimReport) -> str:
    return (f"claim={r.claim_id.value} scanned={r.scanned} "
            f"violations={r.violations_total} min_slack={_cell(r.min_slack)} "
            f"at={r.min_slack_at} holds={r.holds}")


def _report_obj(r: ClaimReport, include_timing: bool) -> dict:
    return {
        "claim": r.claim_id.value,
        "range": r.range,
        "scanned": r.scanned,
        "violations_total": r.violations_total,
        "violations": [
            {"param": v.param, "observed": v.observed, "required": v.required}
            for v in r.violations
        ],
        "min_slack": r.min_slack,
        "min_slack_at": r.min_slack_at,
        "holds": r.holds,
        "notes": list(r.notes),
        "elapsed": r.elapsed if include_timing else None,
        "summary": _summary_text(r),
    }


def _reports_csv(reports, include_timing: bool) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["claim", "param", "observed", "required"])
    for r in reports:
        for v in r.violations:
            w.writerow([r.claim_id.value, v.param, _cell(v.observed),
                        _cell(v.required)])
        param = f"{_summary_text(r)} range={r.range}"
        if include_timing:
            param += f" elapsed={r.elapsed:.3f}"
        w.writerow(["summary", param, r.violations_total, 0])
    return buf.getvalue()


def _reports_text(reports, include_timing: bool) -> str:
    lines = []
    for r in reports:
        lines.append(f"summary: {_summary_text(r)}")
        lines.append(f"range: {r.range}")
        if include_timing:
            lines.append(f"elapsed: {r.elapsed:.3f}s")
        for note in r.notes:
            lines.append(f"note: {note}")
        for v in r.violations:
            lines.append(f"violation: claim={r.claim_id.value} param={v.param} "
                         f"observed={_cell(v.observed)} required={_cell(v.required)}")
        lines.append("")
    return "\n".join(lines)


def emit_report(report: ClaimReport, fmt: str = "json", *,
                include_timing: bool = False) -> bytes:
    """Serialize one report; UTF-8, LF line endings.

    csv: violation rows under header claim,param,observed,required, then
    one summary row.  json: the full report object whose last key is a
    summary record; elapsed is null unless include_timing is set, so
    default output is byte-identical across runs and worker counts.
    """
    return emit_reports([report], fmt, include_timing=include_timing)


def emit_reports(reports, fmt: str = "json", *,
                 include_timing: bool = False) -> bytes:
    """Serialize a sequence of reports as one document (see emit_report)."""
    reports = list(reports)
    if fmt == "csv":
        return _reports_csv(reports, include_timing).encode("utf-8")
    if fmt == "text":
        return _reports_text(reports, include_timing).encode("utf-8")
    if fmt != "json":
        raise ValueError(f"unknown format {fmt!r}")
    if len(reports) == 1:
        obj = _report_obj(reports[0], include_timing)
    else:
        total = sum(r.violations_total for r in reports)
        holds = all(r.holds for r in reports)
        obj = {
            "reports": [_report_obj(r, include_timing) for r in reports],
            "summary": f"claims={len(reports)} violations_total={total} "
                       f"holds={holds}",
        }
    return (json.dumps(obj, indent=2) + "\n").encode("utf-8")


def emit_compare(table: CompareTable, fmt: str = "csv") -> bytes:
    """Serialize a rule-comparison table; UTF-8, LF line endings."""
    if fmt == "csv":
        buf = io.StringIO()
        w = csv.writer(buf, lineterminator="\n")
        w.writerow(["n", *table.rule_names, "next_prime"])
        for row in table.rows:
            w.writerow([row.n, *(_cell(v) for v in row.values), row.next_prime])
        return buf.getvalue().encode("utf-8")
    if fmt != "text":
        raise ValueError(f"unknown format {fmt!r}")
    lines = []
    for row in table.rows:
        cells = " ".join(f"{name}={_cell(v)}"
                         for name, v in zip(table.rule_names, row.values))
        lines.append(f"n={row.n} {cells} next_prime={row.next_prime}")
    for note in table.notes:
        lines.append(f"note: {note}")
    lines.append("")
    return "\n".join(lines).encode("utf-8")


def _positive(name: str, value: int | None) -> None:
    if value is not None and value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value}")


def _write_lines(lines: Iterable[str], out: str | None, head: str = "") -> None:
    """Write head, then each string of lines as it comes, to the file out or stdout.

    The first string is made before out is opened, so input that the
    library refuses when the stream starts writes nothing and creates no
    file.
    """
    lines = iter(lines)
    first = next(lines, "")
    with (nullcontext(sys.stdout) if out is None
          else open(out, "w", encoding="utf-8", newline="")) as fh:
        fh.write(head + first)
        fh.writelines(lines)


def _cmd_verify(args) -> int:
    if args.cap < 0:
        raise ValueError(f"--cap must be >= 0, got {args.cap}")
    # merge and check every claim's parameters before any computation starts;
    # explicit flags override the claim's defaults
    plans = []
    for spec in CLAIMS:
        if args.claim not in ("all", spec.name):
            continue
        params = {}
        for field, default in spec.params.items():
            value = getattr(args, field)
            params[field] = default if value is None else value
            if field != "r_max":  # r starts at -2
                _positive(f"--{field.replace('_', '-')}", params[field])
        plans.append((spec, params))
    reports: list[ClaimReport] = []
    for spec, params in plans:
        batch = spec.run(params, args.boundary, segment_size=args.segment_size,
                         cap=args.cap, allow_large=args.allow_large,
                         progress=args.progress)
        for r in batch:
            print(f"# {r.claim_id.value} elapsed {r.elapsed:.2f}s",
                  file=sys.stderr)
        reports.extend(batch)
    payload = emit_reports(reports, args.format, include_timing=args.include_timing)
    _write_lines([payload.decode("utf-8")], args.out)
    if args.out is not None:
        for r in reports:
            print(f"summary: {_summary_text(r)}")
    return 1 if any(not r.holds for r in reports) else 0


def _parse_rules(spec: str | None) -> list[IntervalRule] | None:
    if spec is None:
        return None
    rules = []
    for name in spec.split(","):
        name = name.strip().lower()
        try:
            rules.append(RULES[RuleName(name)])
        except ValueError:
            known = ",".join(r.value for r in RuleName)
            raise ValueError(f"unknown rule {name!r}; known rules: {known}")
    return rules


def _cmd_compare(args) -> int:
    table = compare_rules(args.n_from, args.n_to, _parse_rules(args.rules),
                          segment_size=args.segment_size, allow_large=args.allow_large)
    if args.format == "csv":
        for note in table.notes:
            print(f"note: {note}", file=sys.stderr)
    _write_lines([emit_compare(table, args.format).decode("utf-8")], args.out)
    return 0


def _gaps_lines(records, fmt: str):
    if fmt == "csv":
        return (f"{r.n},{r.p_n},{r.p_next},{r.g_n}\n" for r in records)
    return (f"n={r.n} p_n={r.p_n} p_next={r.p_next} g_n={r.g_n}\n" for r in records)


def _cmd_gaps(args) -> int:
    kw = {"segment_size": args.segment_size, "allow_large": args.allow_large}
    if args.max_only:
        records = [max_gap_up_to(args.limit, **kw)]
    else:
        records = iterate_gaps(args.limit, **kw)
    head = "n,p_n,p_next,g_n\n" if args.format == "csv" else ""
    _write_lines(_gaps_lines(records, args.format), args.out, head)
    return 0


# Primes per string written.  A block holds a segment's primes, and formatting
# takes about 100 bytes of Python objects per prime, so whole blocks would
# hold several times the segment.
_PRIMES_PER_WRITE = 1 << 12


def _prime_lines(blocks):
    for block in blocks:
        for a in range(0, block.size, _PRIMES_PER_WRITE):
            yield "".join(f"{p}\n" for p in block[a : a + _PRIMES_PER_WRITE].tolist())


def _cmd_sieve(args) -> int:
    kw = {"segment_size": args.segment_size, "allow_large": args.allow_large}
    if args.nth is not None:
        if args.lo is not None or args.hi is not None:
            raise ValueError("--nth does not take a LO HI range")
        _positive("--nth", args.nth)
        lines = [f"{nth_prime(args.nth, **kw)}\n"]
    elif args.lo is None or args.hi is None:
        raise ValueError("sieve requires LO HI positional bounds or --nth N")
    elif args.count:
        lines = [f"{count_primes_in(Interval(args.lo, args.hi), **kw)}\n"]
    else:
        lines = _prime_lines(iter_prime_blocks(args.lo, args.hi, **kw))
    _write_lines(lines, args.out)
    return 0


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--segment-size", type=int, default=DEFAULT_SEGMENT_SIZE,
                   help="sieve window in integers (default %(default)s); small windows "
                        "are slow, as each one works through every base prime from 127 "
                        "on: a cold gap-upper to 1e8 takes about 8 s at 1024 against "
                        "0.07 s at the default")
    p.add_argument("--allow-large", action="store_true",
                   help="permit ranges wider than 1e9 integers")
    p.add_argument("--out", default=None, metavar="FILE",
                   help="write output to FILE instead of standard output")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="primespan",
        description="Prime-interval bounds: exhaustive verification, rule "
                    "comparison, gap enumeration, and sieving.")
    sub = parser.add_subparsers(dest="command", required=True)

    pv = sub.add_parser("verify", help="exhaustively verify one claim or all")
    pv.add_argument("claim", choices=[*(c.name for c in CLAIMS), "all"],
                    help="claim to check")
    for field, what in _PARAM_HELP.items():
        defaults = ", ".join(f"{c.name} {c.params[field]}"
                             for c in CLAIMS if field in c.params)
        pv.add_argument(f"--{field.replace('_', '-')}", type=int, default=None,
                        help=f"{what} (default {defaults})")
    pv.add_argument("--boundary", choices=["open", "closed"], default="open",
                    help="interval convention for "
                         + " and ".join(c.name for c in CLAIMS if c.boundary)
                         + " (default %(default)s)")
    pv.add_argument("--cap", type=int, default=VIOLATION_CAP,
                    help="max violations kept per claim (default %(default)s)")
    pv.add_argument("--format", choices=["text", "csv", "json"],
                    default="text", help="output format (default %(default)s)")
    pv.add_argument("--include-timing", action="store_true",
                    help="include wall time in serialized output (breaks "
                         "byte-identity across runs)")
    prog = pv.add_mutually_exclusive_group()
    prog.add_argument("--progress", dest="progress", action="store_true",
                      default=None, help="force progress display on")
    prog.add_argument("--no-progress", dest="progress", action="store_false",
                      help="force progress display off")
    _add_common(pv)
    pv.set_defaults(fn=_cmd_verify)

    pc = sub.add_parser("compare", help="tabulate g(n) under interval rules")
    pc.add_argument("--from", dest="n_from", type=int, required=True,
                    metavar="N", help="first n")
    pc.add_argument("--to", dest="n_to", type=int, required=True,
                    metavar="N", help="last n")
    pc.add_argument("--rules", default=None,
                    help="comma-separated rule names (default "
                         "bertrand,nagura,papergap)")
    pc.add_argument("--format", choices=["csv", "text"], default="csv",
                    help="output format (default %(default)s)")
    _add_common(pc)
    pc.set_defaults(fn=_cmd_compare)

    pg = sub.add_parser("gaps", help="enumerate prime gaps up to a limit")
    pg.add_argument("--limit", type=int, default=1_000_000,
                    help="largest p_next considered (default %(default)s)")
    pg.add_argument("--max-only", action="store_true",
                    help="print only the maximal gap record")
    pg.add_argument("--format", choices=["csv", "text"], default="csv",
                    help="output format (default %(default)s)")
    _add_common(pg)
    pg.set_defaults(fn=_cmd_gaps)

    ps = sub.add_parser("sieve", help="list or count primes in a range")
    ps.add_argument("lo", nargs="?", type=int, default=None,
                    help="range start (inclusive)")
    ps.add_argument("hi", nargs="?", type=int, default=None,
                    help="range end (inclusive)")
    ps.add_argument("--count", action="store_true",
                    help="print only the count of primes in [LO, HI]")
    ps.add_argument("--nth", type=int, default=None, metavar="N",
                    help="print the Nth prime instead of sieving a range")
    _add_common(ps)
    ps.set_defaults(fn=_cmd_sieve)
    return parser


def dispatch(argv: list[str] | None = None) -> int:
    """Parse argv and run; returns the process exit code."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.fn(args)
    except (ValueError, ThresholdError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (PrimespanError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {str(exc) or 'an allocation failed'}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(dispatch())


__all__ = ["dispatch", "main", "emit_report", "emit_reports", "emit_compare"]
