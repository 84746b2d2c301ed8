import pathlib

import pytest

from mckay.groupfile import parse_group_file

GROUPS_DIR = pathlib.Path(__file__).resolve().parents[1] / "groups"

CORPUS = [
    "bd8",
    "bd12",
    "bt48",
    "trihedral27",
    "icosahedral60",
    "cyclic_7_124",
    "terminal_5_1423",
]

_closed = {}
_graded = {}


def group_path(name):
    return GROUPS_DIR / f"{name}.grp"


def closed_group(name):
    if name not in _closed:
        _closed[name] = parse_group_file(group_path(name)).close()
    return _closed[name]


def graded_table(name):
    from mckay.age import grade

    if name not in _graded:
        _graded[name] = grade(closed_group(name))
    return _graded[name]


ACCEPTANCE_RESULTS = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_RESULTS:
        terminalreporter.write_line("")
        for line in ACCEPTANCE_RESULTS:
            terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def corpus():
    """Loader callables shared by the whole suite (groups are cached)."""

    class Corpus:
        names = CORPUS
        path = staticmethod(group_path)
        closed = staticmethod(closed_group)
        graded = staticmethod(graded_table)

    return Corpus
