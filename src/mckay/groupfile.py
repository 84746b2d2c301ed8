"""Group description files.

Two formats, both line oriented; '#' starts a comment, blank lines ignored.

Matrix format::

    format matrix
    dimension 2
    cyclotomic_order 4
    generator A
    z, 0
    0, -1*z
    generator B
    0, 1
    -1, 0

Entries are cyclotomic literals in the file-level root of unity ``z`` (a
sum of terms ``c`` or ``c*z^k`` with ``c`` an integer or fraction ``p/q``).
Rows are comma separated, one row per line.

Diagonal format::

    format diagonal
    dimension 4
    generator 5 : 1 4 2 3

Each generator line is ``generator r : a_1 ... a_n`` for (1/r)(a_1,...,a_n).
"""

from __future__ import annotations

from math import lcm

from .cyclo import LiteralSyntaxError, cyclotomic_field, parse_literal
from .errors import GroupFileError
from .matgroup import DEFAULT_CAP, MatrixGroup, close_group
from .record import Record
from .toric import DiagonalGroupSpec


class GroupFile(Record):
    __slots__ = ("format", "dimension", "cyclotomic_order", "generator_names",
                 "matrix_generators", "diagonal_generators", "inverse")
    def __init__(self, format: str, dimension: int, cyclotomic_order: int | None,
                 generator_names: list[str], matrix_generators: list[tuple[tuple, ...]],
                 diagonal_generators: list[tuple[int, tuple[int, ...]]],
                 inverse: bool = False):
        self.format = format  # "matrix" | "diagonal"
        self.dimension = dimension
        self.cyclotomic_order = cyclotomic_order
        self.generator_names = generator_names
        self.matrix_generators = matrix_generators  # sparse rows (matrix fmt)
        self.diagonal_generators = diagonal_generators  # (r, exponents)
        self.inverse = inverse  # close on the inverses of `matrix_generators`

    def to_spec(self) -> DiagonalGroupSpec:
        if self.format != "diagonal":
            raise GroupFileError("toric operations require the diagonal format")
        return DiagonalGroupSpec(self.dimension, tuple(self.diagonal_generators))

    def matrices(self):
        if self.format == "matrix":
            return self.matrix_generators
        return self.to_spec().matrices()

    def inverted(self) -> GroupFile:
        """The same file with every generator replaced by its inverse: the
        opposite identification of roots of unity (`--choice inverse`).  A
        diagonal generator's exponents flip here; matrix generators stay
        as they are, and `close` closes on their inverses."""
        return GroupFile(self.format, self.dimension, self.cyclotomic_order,
                         self.generator_names, self.matrix_generators,
                         [(r, tuple((r - a) % r for a in exps))
                          for r, exps in self.diagonal_generators],
                         self.format == "matrix" and not self.inverse)

    def close(self, cap: int = DEFAULT_CAP) -> MatrixGroup:
        return close_group(cyclotomic_field(self.cyclotomic_order), self.matrices(),
                           cap=cap, names=self.generator_names, inverse=self.inverse)


def _tokens(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].rstrip()
        if line.strip():
            yield lineno, line


def parse_group_file(path) -> GroupFile:
    with open(path, "rb") as handle:
        data = handle.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise GroupFileError(
            f"invalid UTF-8 byte 0x{data[err.start]:02x} at byte offset "
            f"{err.start}", data.count(b"\n", 0, err.start) + 1
        ) from None
    return parse_group_text(text)


def parse_group_text(text: str) -> GroupFile:
    lines = list(_tokens(text))
    pos = 0

    def peek():
        return lines[pos] if pos < len(lines) else (None, None)

    def expect_keyword(keyword):
        nonlocal pos
        lineno, line = peek()
        if line is None:
            raise GroupFileError(f"unexpected end of file, expected '{keyword}'")
        parts = line.split()
        if parts[0] != keyword:
            raise GroupFileError(f"expected '{keyword}', got '{parts[0]}'", lineno)
        pos += 1
        return lineno, parts[1:]

    def parse_int(token, lineno, what):
        try:
            return int(token)
        except ValueError:
            raise GroupFileError(f"invalid {what}: '{token}'", lineno) from None

    lineno, rest = expect_keyword("format")
    if rest != ["matrix"] and rest != ["diagonal"]:
        raise GroupFileError("format must be 'matrix' or 'diagonal'", lineno)
    fmt = rest[0]

    lineno, rest = expect_keyword("dimension")
    if len(rest) != 1:
        raise GroupFileError("dimension takes one value", lineno)
    dimension = parse_int(rest[0], lineno, "dimension")
    if dimension < 1:
        raise GroupFileError("dimension must be positive", lineno)

    order = None
    if fmt == "matrix":
        lineno, rest = expect_keyword("cyclotomic_order")
        if len(rest) != 1:
            raise GroupFileError("cyclotomic_order takes one value", lineno)
        order = parse_int(rest[0], lineno, "cyclotomic_order")
        if order < 1:
            raise GroupFileError("cyclotomic_order must be positive", lineno)

    names: list[str] = []
    matrix_generators = []
    diagonal_generators = []
    field = cyclotomic_field(order) if order else None

    while pos < len(lines):
        lineno, line = peek()
        parts = line.split()
        if parts[0] != "generator":
            raise GroupFileError(f"expected 'generator', got '{parts[0]}'", lineno)
        pos += 1
        if fmt == "matrix":
            name = parts[1] if len(parts) > 1 else f"g{len(names) + 1}"
            rows = []
            for _ in range(dimension):
                row_lineno, row_line = peek()
                if row_line is None:
                    raise GroupFileError(
                        f"generator '{name}' needs {dimension} rows", lineno
                    )
                pos += 1
                cells = row_line.split(",")
                if len(cells) != dimension:
                    raise GroupFileError(
                        f"expected {dimension} comma-separated entries, got "
                        f"{len(cells)}",
                        row_lineno,
                    )
                row = []
                offset = 0
                for column, cell in enumerate(cells):
                    try:
                        x = parse_literal(cell, field)
                    except LiteralSyntaxError as err:
                        raise GroupFileError(
                            err.reason, row_lineno, offset + err.position + 1
                        ) from None
                    if x:
                        row.append((column, x.nums, x.den))
                    offset += len(cell) + 1
                rows.append(tuple(row))
            matrix_generators.append(tuple(rows))
            names.append(name)
        else:
            body = line.split(None, 1)[1] if len(parts) > 1 else ""
            if ":" not in body:
                raise GroupFileError(
                    "diagonal generator syntax is 'generator r : a1 ... an'",
                    lineno,
                )
            head, tail = body.split(":", 1)
            r = parse_int(head.strip(), lineno, "generator order")
            exps = [parse_int(t, lineno, "exponent") for t in tail.split()]
            if len(exps) != dimension:
                raise GroupFileError(
                    f"expected {dimension} exponents, got {len(exps)}", lineno
                )
            for a in exps:
                if not 0 <= a < r:
                    raise GroupFileError(
                        f"exponent {a} out of range [0, {r})", lineno
                    )
            diagonal_generators.append((r, tuple(exps)))
            names.append(f"g{len(names) + 1}")

    if not names:
        raise GroupFileError("file declares no generators")

    if fmt == "diagonal":
        order = lcm(1, *(r for r, _ in diagonal_generators))

    return GroupFile(
        fmt, dimension, order, names, matrix_generators, diagonal_generators
    )
