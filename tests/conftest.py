"""Shared fixtures and the acceptance-criteria result banner."""

import re
import sys
from pathlib import Path

import pytest

import primespan.sieve as sieve

sys.path.insert(0, str(Path(__file__).parent))

_CRITERION_RE = re.compile(r"test_criterion_(\d+)")
_results: dict[int, bool] = {}


@pytest.fixture
def cold_summaries(monkeypatch):
    """Start the test with an empty pair-segment summary table, so that what
    it counts does not depend on which tests ran before it."""
    monkeypatch.setattr(sieve, "_summaries", sieve._NO_SUMMARIES)


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    if rep.when != "call":
        return
    m = _CRITERION_RE.search(item.name)
    if m:
        num = int(m.group(1))
        _results[num] = _results.get(num, True) and rep.passed


def pytest_terminal_summary(terminalreporter):
    if not _results:
        return
    terminalreporter.write_line("")
    terminalreporter.write_line("acceptance criteria:")
    for num in sorted(_results):
        status = "PASS" if _results[num] else "FAIL"
        terminalreporter.write_line(f"criterion {num}: {status}")
