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

    def __init__(self, message: str, bound: int):
        super().__init__(message)
        self.bound = bound


class VerificationFailure(FloorfullError):
    """A certificate failed its numerical verification at some exponent m."""

    def __init__(self, message: str, m: int):
        super().__init__(message)
        self.m = m


class SkipViolation(FloorfullError):
    """The skip argument failed for some witness index k.

    Carries the full report so the failing rows can be inspected.
    """

    def __init__(self, message: str, k: int, report=None):
        super().__init__(message)
        self.k = k
        self.report = report


class WitnessFailure(FloorfullError):
    """The squares witness construction failed for some target exponent i."""

    def __init__(self, message: str, i: int):
        super().__init__(message)
        self.i = i
