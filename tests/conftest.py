"""Shared test configuration.

The acceptance module registers one line per criterion here; the summary
is printed after the test run so the pass/fail status and the wall time of
each criterion are visible in one place.
"""

import re
import time

import hypothesis
import pytest

hypothesis.settings.register_profile(
    "exact", deadline=None, max_examples=60, derandomize=True
)
hypothesis.settings.load_profile("exact")

ACCEPTANCE_RESULTS = {}
ACCEPTANCE_SECONDS = {}


def record_acceptance(number, label, ok, detail=""):
    ACCEPTANCE_RESULTS[number] = (label, bool(ok), detail)


@pytest.fixture(autouse=True)
def _time_acceptance_criterion(request):
    """Wall time of each test_criterion_<n>_* test, for the summary."""
    match = re.match(r"test_criterion_(\d+)_", request.node.name)
    start = time.perf_counter()
    yield
    if match:
        ACCEPTANCE_SECONDS[int(match.group(1))] = time.perf_counter() - start


def pytest_terminal_summary(terminalreporter):
    if not ACCEPTANCE_RESULTS:
        return
    terminalreporter.section("acceptance criteria")
    for number in sorted(ACCEPTANCE_RESULTS):
        label, ok, detail = ACCEPTANCE_RESULTS[number]
        line = "criterion %d (%s): %s" % (number, label, "PASS" if ok else "FAIL")
        if number in ACCEPTANCE_SECONDS:
            line += " in %.2fs" % ACCEPTANCE_SECONDS[number]
        if detail:
            line += " -- " + detail
        terminalreporter.write_line(line)
