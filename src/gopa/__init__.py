"""Weight elicitation for multi-attribute group decisions from ordinal
rankings and partial preference information.

The pipeline has two stages: per-cell utilities are elicited by minimizing
cross-entropy to a global utility structure under the cell's preference
constraints, then expert, attribute, and alternative weights follow in closed
form.  A two-phase simplex, the package's one LP engine, tells an empty
preference context from ranks it forces to zero and double-checks the closed
forms, and consensus and sensitivity statistics qualify the group outcome.
"""

from .elicit_continuous import (
    PiecewiseDensity,
    breakpoints,
    cumulative_utilities,
    elicit_continuous,
    risk_preference,
)
from .elicit_discrete import (
    elicit_discrete,
    entropy_max_discrete,
    kkt_residual_discrete,
)
from .exceptions import (
    BreakpointError,
    ContextRangeError,
    DecompositionUnsupported,
    DegenerateError,
    DimensionError,
    DomainError,
    DuplicateConstraintError,
    EmptyCellError,
    GopaError,
    InfeasibleContext,
    NumericFailure,
    SampleSizeError,
    ShapeError,
    SignError,
    TooManyExperts,
    UtilityShapeError,
    ValidationError,
)
from .lpcheck import (
    LinearProgram,
    LPResult,
    build_gopa_lp,
    build_opa_lp,
    solve_lp,
    verify_efficiency,
)
from .metrics import (
    ConsensusReport,
    confidence_level,
    consensus_report,
    f_cdf,
    gcl,
    kendall_w,
    psd,
    ranks_from_weights,
    spearman,
)
from .model import (
    CellContext,
    PreferenceContext,
    RankingProblem,
    StructureMap,
    load_document,
    validate_context,
    validate_problem,
    validate_structures,
)
from .pipeline import elicit_utilities, solve_document
from .sensitivity import ScenarioStats, describe, permutation_stats
from .solver import WeightSolution, decompose, solve_gopa, solve_opa
from .structures import (
    TargetDensity,
    UtilityStructure,
    surrogate_weights,
    target_density,
)

__version__ = "0.1.0"
