"""The two typed failures the command line maps to exit codes.

MDPValidationError is a ValueError: invalid input, exit 2, like every other
ValueError and OSError.  ConvergenceError means an iterative solve ran out
of iterations: exit 3.  Anything else that escapes is a defect of the
program and exits 1.  check_budget keeps the two apart: a tolerance or an
iteration budget that no run could honour is invalid input, not a
non-convergence.  check_lookahead holds the one rule on (depth,
rollout_steps, base) that the MDP and the LQ lookahead share.
"""

from __future__ import annotations

__all__ = ["MDPValidationError", "ConvergenceError", "check_budget", "check_lookahead"]


class MDPValidationError(ValueError):
    """Invalid MDP data; path points at the first offending field."""

    def __init__(self, path: str, message: str):
        self.path = path
        super().__init__(f"{path}: {message}")


class ConvergenceError(RuntimeError):
    """An iterative solver ran out of iterations; residual is attached."""

    def __init__(self, message: str, residual: float):
        self.residual = residual
        super().__init__(f"{message} (residual {residual!r})")


def check_budget(tol: float = 0.0, max_iters: int = 0) -> None:
    """Reject a negative (or NaN) tolerance, which no residual can meet, and
    a negative iteration budget, with a ValueError naming the parameter."""
    if not tol >= 0.0:  # also true for NaN
        raise ValueError(f"tol must be a nonnegative real, got {tol!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters!r}")


def check_lookahead(depth: int, rollout_steps: int, base) -> None:
    """Reject a lookahead of no stages, a negative rollout, or a rollout
    with no base policy to roll out.  A bool is not a count."""
    if not isinstance(depth, int) or isinstance(depth, bool) or depth < 1:
        raise ValueError(f"depth must be an integer >= 1, got {depth!r}")
    if not isinstance(rollout_steps, int) or isinstance(rollout_steps, bool) or rollout_steps < 0:
        raise ValueError(f"rollout_steps must be an integer >= 0, got {rollout_steps!r}")
    if rollout_steps > 0 and base is None:
        raise ValueError("rollout_steps > 0 requires a base policy")
