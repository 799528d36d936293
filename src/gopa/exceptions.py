"""Exception hierarchy shared across the package."""


class GopaError(Exception):
    """Base class for all errors raised by this package."""


# --- input validation -------------------------------------------------------

class ValidationError(GopaError):
    """A field of the input document is malformed or out of range.

    `path` points at the offending field, e.g. ``alternative_ranks.E1.C2.A3``.
    """

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


class EmptyCellError(ValidationError):
    """An (expert, attribute) cell has no ranked alternative at all."""


class ContextRangeError(ValidationError):
    """A preference constraint references a rank outside its legal range."""


class DuplicateConstraintError(ValidationError):
    """Two constraints of the same kind target the same rank in one cell."""


class SignError(ValidationError):
    """A preference coefficient violates its sign requirement."""


# --- utility structures and densities ---------------------------------------

class DomainError(GopaError):
    """A function argument or density parameter leaves the valid domain."""


# --- elicitation -------------------------------------------------------------

class InfeasibleContext(GopaError):
    """The preference constraints of a cell admit no feasible utility."""


class NumericFailure(GopaError):
    """An iterative solve did not converge within its budget."""


class BreakpointError(GopaError):
    """Evaluation requested exactly at a segment boundary."""


# --- second-stage solvers ----------------------------------------------------

class UtilityShapeError(GopaError):
    """Per-cell utilities are not normalized or violate rank dominance."""


class DecompositionUnsupported(GopaError):
    """Weight decomposition requires cells without missing/duplicate ranks."""


# --- linear programming ------------------------------------------------------

class DimensionError(GopaError):
    """Linear program arrays have inconsistent shapes."""


# --- statistics --------------------------------------------------------------

class DegenerateError(GopaError):
    """A statistic is undefined for the given data (e.g. zero aggregate)."""


class ShapeError(GopaError):
    """Statistical inputs have incompatible shapes."""


class TooManyExperts(GopaError):
    """Permutation sweep guard tripped (factorial growth)."""


class SampleSizeError(GopaError):
    """Too few samples for the requested estimator."""
