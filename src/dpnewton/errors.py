"""The two typed failures the command line maps to exit codes.

MDPValidationError is a ValueError: invalid input, exit 2, like every other
ValueError and OSError.  ConvergenceError means an iterative solve ran out
of iterations: exit 3.  Anything else that escapes is a defect of the
program and exits 1.
"""

from __future__ import annotations

__all__ = ["MDPValidationError", "ConvergenceError"]


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
