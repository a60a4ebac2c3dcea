"""Exception types shared across the package."""

from __future__ import annotations

from dataclasses import dataclass


class DegeneratePointError(ValueError):
    """Homogeneous coordinates are all zero."""


class FrameError(ValueError):
    """A 5-tuple meant to be a projective frame has a coplanar 4-subset.

    ``positions`` are 0-based positions into the offending 5-tuple.
    """

    def __init__(self, positions):
        self.positions = tuple(positions)
        super().__init__(
            "degenerate frame: points at positions %s are coplanar" % (self.positions,)
        )


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
    """Condition (*) fails for the chosen centers."""

    def __init__(self, violation: StarViolation, step: int | None = None):
        self.violation = violation
        self.step = step
        # set by the iteration driver so callers can persist what completed
        self.partial_report = None
        msg = violation.describe()
        if step is not None:
            msg = "at step %d: %s" % (step, msg)
        super().__init__(msg)


class GenerationError(RuntimeError):
    """Random configuration sampling exhausted its retry budget."""


class DimensionError(ValueError):
    """Operands live in lattices of different rank."""


class FormatError(ValueError):
    """A JSON document does not match the expected schema."""


class UsageError(ValueError):
    """A caller's argument lies outside its documented range."""
