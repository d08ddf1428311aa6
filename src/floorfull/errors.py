"""Exception types shared across the toolkit."""

from __future__ import annotations


class FloorfullError(Exception):
    """Base class for all toolkit errors."""


class NotFoundWithinBound(FloorfullError):
    """A bounded search exhausted its budget without a hit.

    The search target is guaranteed to exist for a large enough bound.
    Every bound is a module constant (S_MAX for the Case III search,
    RHO_BUDGET for a Brent-rho split), so no rerun can find it.
    """


class VerificationFailure(FloorfullError):
    """A verdict failed: the CLI exits 1, printing `report` first if given.

    Raised by a failed certificate check or validation, a failed skip row
    (with the full SkipReport, so the failing rows can be inspected) and a
    missed squares witness target.
    """

    def __init__(self, message: str, report=None):
        super().__init__(message)
        self.report = report
