"""Exception hierarchy for the CARMOT reproduction.

Every layer raises a subclass of :class:`ReproError` so callers can catch
tool errors without masking genuine Python bugs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class LexError(ReproError):
    """Raised by the MiniC lexer on malformed input text."""


class ParseError(ReproError):
    """Raised by the MiniC parser on syntactically invalid programs."""


class SemanticError(ReproError):
    """Raised by semantic analysis (undeclared names, type errors, ...)."""


class PragmaError(ReproError):
    """Raised when a ``#pragma carmot``/``#pragma omp`` directive is malformed."""


class LoweringError(ReproError):
    """Raised when AST-to-IR lowering encounters an unsupported construct."""


class IRVerifyError(ReproError):
    """Raised by the IR verifier when a module violates an IR invariant."""


class VMError(ReproError):
    """Base class for execution errors in the MiniC virtual machine."""


class MemoryFault(VMError):
    """Out-of-bounds, use-after-free, or otherwise invalid memory access."""


class TrapError(VMError):
    """Runtime trap (division by zero, stack overflow, bad call target)."""


class BudgetExceeded(TrapError):
    """An execution budget tripped (step, heap-byte, or recursion limit).

    Subclasses :class:`TrapError` so existing callers that treat budget
    trips as VM traps keep working; callers that must tell a budget trip
    from a program fault catch this type specifically.
    """


class RuntimeToolError(ReproError):
    """Raised by the CARMOT runtime (batching pipeline, FSA engine)."""


class RecommendationError(ReproError):
    """Raised when an abstraction recommendation cannot be generated."""


class WorkloadError(ReproError):
    """Raised by the benchmark workload registry (unknown kernel, bad input)."""
