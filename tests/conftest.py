import pathlib

from mckay.cyclo import CycNum
from mckay.groupfile import parse_group_file
from mckay.linalg import RightMultiplier, row_terms

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


def mat_mul(a, b):
    """The matrix product a * b through the closure's row kernel
    `linalg.RightMultiplier`, one integer row of a at a time; each entry the
    kernel returns must already be in normal form."""
    times_b, field = RightMultiplier(b), b[0][0].field
    out = []
    for row in a:
        pairs = tuple((x.nums, x.den) for x in row)
        product = times_b(pairs, row_terms(pairs))
        out.append(tuple(CycNum(field, *pair) for pair in product))
        assert tuple((x.nums, x.den) for x in out[-1]) == product
    return tuple(out)


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
