"""The two typed failures the command line maps to exit codes.

MDPValidationError is a ValueError: invalid input, exit 2, like every other
ValueError and OSError.  ConvergenceError means an iterative solve ran out
of iterations: exit 3.  Anything else that escapes is a defect of the
program and exits 1.  check_budget keeps the two apart: a tolerance or an
iteration budget that no run could honour is invalid input, not a
non-convergence.  check_count is the one rule on counts, and check_lookahead
the one on (depth, rollout_steps, base) that both lookaheads share.
"""

from __future__ import annotations

__all__ = ["MDPValidationError", "ConvergenceError", "check_budget", "check_count",
           "check_lookahead"]


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


def check_count(value, name: str, minimum: int = 0) -> int:
    """value itself if it is an int of at least minimum, else a ValueError
    naming it.  A bool is not a count."""
    if not isinstance(value, int) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return value


def check_budget(tol: float = 0.0, max_iters: int = 0) -> None:
    """Reject a negative (or NaN) tolerance, which no residual can meet, and
    an iteration budget that is not a count, with a ValueError naming it."""
    if not tol >= 0.0:  # also true for NaN
        raise ValueError(f"tol must be a nonnegative real, got {tol!r}")
    check_count(max_iters, "max_iters")


def check_lookahead(depth: int, rollout_steps: int, base) -> None:
    """Reject a lookahead of no stages, a negative rollout, or a rollout
    with no base policy to roll out."""
    check_count(depth, "depth", 1)
    check_count(rollout_steps, "rollout_steps")
    if rollout_steps > 0 and base is None:
        raise ValueError("rollout_steps > 0 requires a base policy")
