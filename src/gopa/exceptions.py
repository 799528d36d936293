"""Exception hierarchy shared across the package: one class per outcome a caller
tells apart, which `gopa.cli.main` maps to an exit code and a stderr prefix."""


class GopaError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(GopaError):
    """A field of the input document is malformed or out of range: an empty
    cell, a rank outside its range, a repeated constraint, a coefficient of
    the wrong sign.

    `path` points at the offending field, e.g. ``alternative_ranks.E1.C2.A3``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class DomainError(GopaError):
    """An argument leaves the valid domain: a density parameter, a point at a
    breakpoint, utilities of the wrong shape, LP or statistics arrays of
    inconsistent shapes."""


class InfeasibleContext(GopaError):
    """The preference constraints of a cell admit no feasible utility."""


class NumericFailure(GopaError):
    """An iterative solve did not converge within its budget."""


class DegenerateError(GopaError):
    """A statistic is undefined for the given data: a zero aggregate, too
    few samples or experts, or too many experts to permute."""
