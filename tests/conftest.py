import pytest

from fmcalc.formal import trivial_tower
from fmcalc.numberring import TowerDescriptor

_ACCEPTANCE_RESULTS = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "test_acceptance" in report.nodeid:
        _ACCEPTANCE_RESULTS.append((report.nodeid.split("::")[-1], report.outcome))


def pytest_terminal_summary(terminalreporter):
    if not _ACCEPTANCE_RESULTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, outcome in _ACCEPTANCE_RESULTS:
        terminalreporter.write_line("%s: %s" % (name, outcome.upper()))


@pytest.fixture(scope="session")
def q2():
    return trivial_tower(2)


@pytest.fixture(scope="session")
def q3():
    return trivial_tower(3)


@pytest.fixture(scope="session")
def q5():
    return trivial_tower(5)


@pytest.fixture(scope="session")
def q2_sqrt2():
    return TowerDescriptor(2, [0, 1], [-2, 0, 1], "Q2(sqrt2)")


@pytest.fixture(scope="session")
def q2_cbrt2():
    return TowerDescriptor(2, [0, 1], [-2, 0, 0, 1], "Q2(x^3-2)")


@pytest.fixture(scope="session")
def q3_sqrt3():
    return TowerDescriptor(3, [0, 1], [-3, 0, 1], "Q3(sqrt3)")


@pytest.fixture(scope="session")
def q3_cbrt3():
    return TowerDescriptor(3, [0, 1], [-3, 0, 0, 1], "Q3(x^3-3)")


@pytest.fixture(scope="session")
def unram2_f2():
    return TowerDescriptor(2, [1, 1, 1], [0, 1], "unram f=2 over Q2")


@pytest.fixture(scope="session")
def unram3_f2():
    return TowerDescriptor(3, [1, 0, 1], [0, 1], "unram f=2 over Q3")


@pytest.fixture(scope="session")
def unram2_f3():
    return TowerDescriptor(2, [1, 1, 0, 1], [0, 1], "unram f=3 over Q2")
