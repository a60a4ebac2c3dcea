"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class DegeneratePointError(ValueError):
    """Homogeneous coordinates are all zero."""


class NoFrameError(ValueError):
    """No 5 points of the configuration form a projective frame."""


@dataclass(frozen=True, slots=True)
class StarViolation:
    """Witness for a failure of condition (*).

    Either the four centers themselves are coplanar (``point is None`` and
    ``plane`` holds all four center labels), or the non-center point
    ``point`` lies on the plane through the three center labels in
    ``plane``.  Labels are 1-based.
    """

    plane: tuple[int, ...]
    point: int | None = None

    def describe(self):
        if self.point is None:
            return "centers %s are coplanar" % (self.plane,)
        return "point %d lies on the plane through centers %s" % (self.point, self.plane)


class StarViolationError(ValueError):
    """Condition (*) fails; from the iterate, at the last step of ``partial_report``."""

    def __init__(self, violation: StarViolation, partial_report=None):
        self.violation = violation
        self.partial_report = partial_report
        msg = violation.describe()
        if partial_report is not None:
            msg = "at step %d: %s" % (partial_report.steps_completed, msg)
        super().__init__(msg)


class GenerationError(RuntimeError):
    """Random configuration sampling exhausted its retry budget."""


class FormatError(ValueError):
    """A JSON document does not match the expected schema."""


class UsageError(ValueError):
    """A caller's argument lies outside its documented range."""
