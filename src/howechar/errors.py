"""Exception types shared across the library."""


class HowecharError(Exception):
    """Base class for all domain errors raised by this package."""


class CapExceeded(HowecharError):
    """An enumeration (Weyl group, tableau set, ...) exceeds its configured cap."""


class SingularPoint(HowecharError):
    """A torus point too close to the singular set for the requested evaluation."""


class NonConvergentDirection(HowecharError):
    """A geometric expansion was requested along a direction where it diverges."""


class PoleAtPoint(HowecharError):
    """Exact evaluation hit a vanishing denominator."""


class NotInCorrespondence(HowecharError):
    """A weight fails the admissibility constraints of the chosen dual pair."""


class NotMinimalKType(HowecharError):
    """The pairing coefficient for the proposed minimal K-type vanishes."""


class FormulaInconsistency(HowecharError):
    """An exact consistency check failed (non-integral or negative multiplicity)."""

