"""CLI tests: parsing, formats, exit codes, and file output."""

import csv
import io
import json
import tracemalloc
from pathlib import Path

import pytest

import primespan.sieve as sieve
from primespan import verify_gap_interval, verify_theorem3
from primespan.cli import dispatch, emit_compare, emit_report, emit_reports
from primespan.verify import ClaimSpec, compare_rules

GOLDEN = Path(__file__).parent / "golden"


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_t3_text(capsys):
    code, out, err = run(capsys, "verify", "t3", "--k-max", "1000",
                         "--no-progress")
    assert code == 0
    assert "summary: claim=T3 scanned=999 violations=0" in out
    assert "holds=True" in out
    assert "elapsed" in err


def test_verify_gap_interval_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "gap-interval", "--n-max", "100",
                       "--no-progress")
    assert code == 1
    assert "violation: claim=GapInterval param=n=2" in out


def test_verify_csv_round_trips(capsys):
    code, out, _ = run(capsys, "verify", "gap-interval", "--n-max", "100",
                       "--format", "csv", "--no-progress")
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["claim", "param", "observed", "required"]
    body = [r for r in rows[1:] if r[0] != "summary"]
    report = verify_gap_interval(100)
    assert [(r[1], int(r[2]), int(r[3])) for r in body] == [
        (v.param, v.observed, v.required) for v in report.violations]
    summary = rows[-1]
    assert summary[0] == "summary" and summary[2] == "9"


def test_verify_json_shape(capsys):
    code, out, _ = run(capsys, "verify", "gap-interval", "--n-max", "10",
                       "--format", "json", "--no-progress")
    assert code == 1
    obj = json.loads(out)
    assert obj["claim"] == "GapInterval"
    assert {"param": "n=2", "observed": 0, "required": 1} in obj["violations"]
    assert obj["elapsed"] is None
    assert list(obj)[-1] == "summary"


def test_verify_include_timing(capsys):
    _, out, _ = run(capsys, "verify", "t3", "--k-max", "100", "--format",
                    "json", "--include-timing", "--no-progress")
    assert isinstance(json.loads(out)["elapsed"], float)


def test_verify_all_small(capsys):
    code, out, _ = run(capsys, "verify", "all", "--k-max", "10", "--n-max",
                       "2000", "--r-max", "5", "--limit", "5000", "--format",
                       "json", "--no-progress")
    # gap-interval and the second margin family are honestly violated
    assert code == 1
    obj = json.loads(out)
    claims = [r["claim"] for r in obj["reports"]]
    assert claims == ["T1", "T2", "T3", "GapInterval", "Firoozbakht",
                      "GapUpper", "Prop4", "Prop6", "NthPrimeBounds",
                      "L1", "L2", "L3"]
    assert "holds=False" in obj["summary"]
    assert out == (GOLDEN / "verify_all_small.json").read_text(encoding="utf-8")


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "t3", "--k-max", "1000", "--format",
                       "json", "--out", str(path), "--no-progress")
    assert code == 0
    assert "summary: claim=T3" in out
    obj = json.loads(path.read_text())
    assert obj["claim"] == "T3" and obj["holds"] is True


def test_verify_deterministic_bytes_across_workers(capsys, monkeypatch, forks):
    # firoozbakht's pair stream sieves its 16 segments in one process per
    # usable CPU, each run from an empty summary table
    outs = []
    for cpus in (1, 2):
        monkeypatch.setattr(sieve, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)
        code, out, _ = run(capsys, "verify", "firoozbakht", "--limit", "1000000",
                           "--segment-size", "65536", "--format", "csv", "--no-progress")
        assert code == 0
        outs.append(out)
    assert outs[0] == outs[1] and len(forks) == 1


def test_verify_usage_errors(capsys):
    assert run(capsys, "verify", "bogus")[0] == 2
    assert run(capsys, "verify", "t1", "--k-max", "1")[0] == 2
    assert run(capsys, "verify", "t3", "--k-max", "0")[0] == 2
    assert run(capsys, "verify", "t3", "--k-max", "100", "--cap", "-1")[0] == 2
    assert run(capsys)[0] == 2


def test_compare_csv_exact(capsys):
    code, out, err = run(capsys, "compare", "--from", "240", "--to", "300")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n,bertrand,nagura,papergap,next_prime"
    assert lines[1] == "240,480,288,270,241"
    assert len(lines) == 62
    assert "does not follow from n + n/f(n)" in err


def test_compare_text_format(capsys):
    code, out, _ = run(capsys, "compare", "--from", "240", "--to", "241",
                       "--format", "text")
    assert code == 0
    assert "n=240 bertrand=480 nagura=288 papergap=270 next_prime=241" in out
    assert "note:" in out


def test_compare_custom_rules(capsys):
    code, out, _ = run(capsys, "compare", "--from", "30", "--to", "31",
                       "--rules", "bertrand,papergap")
    assert code == 0
    assert out.splitlines()[0] == "n,bertrand,papergap,next_prime"


def test_compare_errors(capsys):
    assert run(capsys, "compare", "--from", "1", "--to", "50",
               "--rules", "nagura")[0] == 2
    assert run(capsys, "compare", "--from", "10", "--to", "5")[0] == 2
    assert run(capsys, "compare", "--from", "10", "--to", "20",
               "--rules", "unknown")[0] == 2
    assert run(capsys, "compare", "--to", "20")[0] == 2


def test_gaps_csv(capsys):
    code, out, _ = run(capsys, "gaps", "--limit", "30")
    assert code == 0
    assert out.splitlines() == [
        "n,p_n,p_next,g_n", "1,2,3,1", "2,3,5,2", "3,5,7,2", "4,7,11,4",
        "5,11,13,2", "6,13,17,4", "7,17,19,2", "8,19,23,4", "9,23,29,6"]


def test_gaps_max_only(capsys):
    code, out, _ = run(capsys, "gaps", "--limit", "100", "--max-only")
    assert code == 0
    assert out.splitlines() == ["n,p_n,p_next,g_n", "24,89,97,8"]


def test_gaps_text(capsys):
    _, out, _ = run(capsys, "gaps", "--limit", "10", "--format", "text")
    assert out.splitlines()[0] == "n=1 p_n=2 p_next=3 g_n=1"


def test_gaps_out_file(tmp_path, capsys):
    path = tmp_path / "gaps.csv"
    code, out, _ = run(capsys, "gaps", "--limit", "30", "--out", str(path))
    assert code == 0 and out == ""
    assert path.read_text().splitlines()[-1] == "9,23,29,6"
    # a refused limit creates no file, not even one with the header
    refused = tmp_path / "refused.csv"
    assert run(capsys, "gaps", "--limit", "2", "--out", str(refused))[0] == 2
    assert not refused.exists()


def test_sieve_list(capsys):
    code, out, _ = run(capsys, "sieve", "0", "30")
    assert code == 0
    assert out.split() == ["2", "3", "5", "7", "11", "13", "17", "19",
                           "23", "29"]


def test_sieve_count(capsys):
    code, out, _ = run(capsys, "sieve", "0", "1000000", "--count")
    assert code == 0 and out.strip() == "78498"


def test_sieve_nth(capsys):
    code, out, _ = run(capsys, "sieve", "--nth", "1000")
    assert code == 0 and out.strip() == "7919"


def test_sieve_usage_errors(capsys):
    assert run(capsys, "sieve")[0] == 2
    assert run(capsys, "sieve", "0")[0] == 2
    assert run(capsys, "sieve", "0", "10", "--nth", "5")[0] == 2
    assert run(capsys, "sieve", "--nth", "0")[0] == 2
    assert run(capsys, "sieve", "10", "5")[0] == 2


def test_sieve_capacity_exit_1(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("PRIMESPAN_MEM_LIMIT", "64")
    code, _, err = run(capsys, "sieve", "0", "10000000", "--count")
    assert code == 1
    assert "error:" in err
    # a refused listing writes nothing and creates no file
    path = tmp_path / "primes.txt"
    assert run(capsys, "sieve", "0", "10000000")[:2] == (1, "")
    assert run(capsys, "sieve", "0", "10000000", "--out", str(path))[:2] == (1, "")
    assert not path.exists()


def test_sieve_streams_its_output(tmp_path, capsys):
    path = tmp_path / "primes.txt"
    tracemalloc.start()
    try:
        code = run(capsys, "sieve", "0", "10000000", "--segment-size", "65536",
                   "--out", str(path))[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    data = path.read_bytes()
    assert code == 0 and data.count(b"\n") == 664579 and data.endswith(b"9999991\n")
    assert peak < len(data) // 4
    assert run(capsys, "sieve", "0", "100")[1] == data[: data.index(b"101\n")].decode()


def test_verify_t3_capacity_exit_1(capsys):
    # refused before the per-k array is built, not by numpy's MemoryError
    code, out, err = run(capsys, "verify", "t3", "--k-max", str(10**15))
    assert code == 1
    assert "error:" in err and "Traceback" not in err
    assert out == ""


@pytest.mark.parametrize("exc", [MemoryError(), MemoryError("Unable to allocate 22.6 GiB")])
def test_verify_memory_error_exit_1(capsys, monkeypatch, exc):
    # a stand-in verifier raises as numpy does when an allocation fails
    def raising(*args, **kw):
        raise exc

    monkeypatch.setattr(ClaimSpec, "run", raising)
    code, out, err = run(capsys, "verify", "t2", "--no-progress")
    assert (code, out) == (1, "")
    assert err == f"error: out of memory: {str(exc) or 'an allocation failed'}\n"


def test_emit_report_formats_reject_unknown():
    r = verify_theorem3(100)
    with pytest.raises(ValueError):
        emit_report(r, "yaml")
    with pytest.raises(ValueError):
        emit_compare(compare_rules(30, 31), "yaml")


def test_emit_reports_multi_csv_single_header():
    reports = [verify_theorem3(100), verify_gap_interval(10)]
    text = emit_reports(reports, "csv").decode()
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["claim", "param", "observed", "required"]
    assert sum(1 for r in rows if r[0] == "summary") == 2
    assert sum(1 for r in rows if r[0] == "claim") == 1


def test_emit_report_lf_only():
    payload = emit_report(verify_gap_interval(100), "csv")
    assert b"\r" not in payload
    payload = emit_compare(compare_rules(240, 300), "csv")
    assert b"\r" not in payload
