"""Exception hierarchy shared across the library; each class carries the
exit code the command line ends with when it is raised."""


class McKayError(Exception):
    """Base class for all library errors; only its subclasses are raised."""


class GroupFileError(McKayError):
    """Malformed input file. Carries a 1-based line/column position."""

    exit_code = 2

    def __init__(self, message, line=None, column=None):
        self.line = line
        self.column = column
        if line is not None:
            where = f"line {line}" + (f", col {column}" if column is not None else "")
            message = f"{where}: {message}"
        super().__init__(message)


class RequirementError(McKayError):
    """A computation was requested on input that does not satisfy its preconditions."""

    exit_code = 3


class ClosureCapError(McKayError):
    """Group closure exceeded the element cap (group too large or infinite)."""

    exit_code = 4

    def __init__(self, cap):
        super().__init__(f"closure exceeded cap of {cap} elements; "
                         "group too large or infinite")


class FieldCapError(McKayError):
    """A cyclotomic field was requested past the largest supported order."""

    exit_code = 4

    def __init__(self, order, limit):
        super().__init__(f"cyclotomic order {order} exceeds the limit of {limit}")


class ProbeCapError(McKayError):
    """A valuation fingerprint would enumerate more monomials than allowed."""

    exit_code = 4

    def __init__(self, degree, dimension, count, limit):
        super().__init__(f"probe degree {degree} in dimension {dimension} "
                         f"gives {count} monomials, over the limit of {limit}")


class InternalInvariantError(McKayError):
    """A theory-guaranteed property failed to hold; always an implementation bug."""

    exit_code = 5
