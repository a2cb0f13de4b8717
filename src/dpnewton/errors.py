"""The two typed failures the command line maps to exit codes.

MDPValidationError is a ValueError: invalid input, exit 2, like every other
ValueError and OSError.  ConvergenceError means an iterative solve ran out
of iterations: exit 3.  Anything else that escapes is a defect of the
program and exits 1.  check_budget keeps the two apart: a tolerance or an
iteration budget that no run could honour is invalid input, not a
non-convergence.
"""

from __future__ import annotations

__all__ = ["MDPValidationError", "ConvergenceError", "check_budget"]


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


def check_budget(tol: float, max_iters: int = 0) -> None:
    """Reject a negative (or NaN) tolerance, which no residual can meet, and
    a negative iteration budget, with a ValueError naming the parameter."""
    if not tol >= 0.0:  # also true for NaN
        raise ValueError(f"tol must be a nonnegative real, got {tol!r}")
    if max_iters < 0:
        raise ValueError(f"max_iters must be nonnegative, got {max_iters!r}")
