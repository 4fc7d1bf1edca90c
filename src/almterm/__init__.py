"""almterm: termination certificates for flat constraint logic programs.

The pipeline: parse a flat program, split multi-atom bodies, encode the
per-rule decrease/nonnegativity implications as exact linear systems over
level-mapping coefficients, decide satisfiability with an exact rational
simplex, and hand any extracted certificate to an independent primal-side
verifier plus a small-step derivation sampler.
"""

__version__ = "0.1.0"

from .binarize import binarize
from .decider import (
    ALM_RECURRENT,
    NOT_ALM_RECURRENT,
    SOUND_YES,
    UNKNOWN,
    AlmSystem,
    Verdict,
    assemble,
    coeff_table,
    decide,
    extract_witness,
)
from .derivation import (
    BoundReport,
    BoundRun,
    DerivationState,
    Floundered,
    Trace,
    check_length_bound,
    ground_start,
    run_ground,
    step,
)
from .lp import (
    INFEASIBLE,
    OPTIMAL,
    UNBOUNDED,
    LinearSystem,
    LpOutcome,
    deduplicate,
    drop_redundant,
    entails,
    equivalent_systems,
    feasible_point,
    fm_project,
    minimize,
    project_constraints,
)
from .model import (
    DOMAINS,
    EQ,
    GEQ,
    N,
    Q,
    QPLUS,
    R,
    RPLUS,
    AlmtermError,
    Atom,
    Domain,
    LevelMapping,
    ModelError,
    Program,
    Rule,
    VariablePool,
    rat,
)
from .parser import (
    FlatnessError,
    ParseError,
    SourceSpan,
    parse_program,
    parse_rule,
    pretty_print,
)
from .verifier import RuleCheck, VerifyReport, verify

__all__ = [name for name in dir() if not name.startswith("_")]
