"""Shared fixtures: the orbit table and the full classification are
expensive enough that the suite computes each once per session."""

import pytest

from hgstate import classifier as cf
from hgstate import geoment as gm
from hgstate import orbits as ob

# one "ACCEPTANCE n: PASS/FAIL" line per criterion, printed after the run
ACCEPTANCE_LINES: list[str] = []


@pytest.fixture(scope="session")
def orbit_table():
    return ob.enumerate_orbits()


@pytest.fixture(scope="session")
def classification(orbit_table):
    return cf.classify_all(table=orbit_table)


@pytest.fixture(scope="session")
def records(classification):
    return classification[0]


@pytest.fixture(scope="session")
def graph_records(classification):
    return classification[1]


@pytest.fixture(scope="session")
def solutions(classification):
    """The default-policy solve of every class rep, keyed by rep."""
    records, graphs = classification
    reps = [r.rep for r in records + graphs]
    return dict(zip(reps, gm.solve_codes(reps)))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)
