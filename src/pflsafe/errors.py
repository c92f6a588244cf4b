"""Exception hierarchy shared by all pflsafe modules.

The CLI maps these onto process exit codes: schema/validation/domain
problems are "bad input" (exit 3), numerical failures are "computation
did not succeed" (exit 4).
"""
from __future__ import annotations


class PflError(Exception):
    """Base class for all errors raised by this package."""


class SchemaError(PflError):
    """An input file does not match its documented format."""


class ValidationError(PflError):
    """Values are well-formed but violate a stated invariant."""


class DomainError(PflError):
    """An argument is outside the domain of the requested computation."""


class StepSizeError(PflError):
    """Integrator step size too coarse for the fastest dynamics present."""


class ConstrainedDirectionError(PflError):
    """Contact direction is structurally inaccessible to the mechanism."""


class SweepError(PflError):
    """Workspace sweep could not produce a usable result."""


class ReportError(PflError):
    """Aggregation/report generation failed (e.g. a non-conservative variant)."""
