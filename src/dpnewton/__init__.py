"""dpnewton: an exact dynamic-programming laboratory.

Scalar LQ Riccati analysis (value iteration, policy iteration, rollout and
lookahead as Newton steps, stability regions), finite-MDP solvers with
exhaustive lookahead trees and certainty-equivalence variants, and
adaptive-control-by-rollout experiments, all in double precision with no
sampling.
"""

from .adaptive import (
    NominalDesign,
    ReplanTrace,
    SweepPoint,
    replan_simulation,
    robustness_sweep,
    superlinear_ratios,
)
from .errors import ConvergenceError, MDPValidationError
from .formats import load_mdp, save_mdp
from .lookahead import (
    LookaheadChoice,
    LookaheadSpec,
    lookahead_policy,
    nominal_outcome,
)
from .lq import (
    LinearGain,
    NewtonStepResult,
    ScalarLQProblem,
    StabilityRegion,
)
from .mdp import FiniteMDP, Outcome

__version__ = "0.1.0"

__all__ = [
    "ScalarLQProblem",
    "LinearGain",
    "NewtonStepResult",
    "StabilityRegion",
    "FiniteMDP",
    "Outcome",
    "MDPValidationError",
    "ConvergenceError",
    "LookaheadSpec",
    "LookaheadChoice",
    "lookahead_policy",
    "nominal_outcome",
    "NominalDesign",
    "SweepPoint",
    "ReplanTrace",
    "robustness_sweep",
    "replan_simulation",
    "superlinear_ratios",
    "load_mdp",
    "save_mdp",
    "__version__",
]
