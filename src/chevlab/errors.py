"""Exception taxonomy for the whole package.

Three bases matter for the CLI exit-code mapping:
  CapError        -> exit 3 (an enumeration/memory cap was hit)
  HypothesisError -> exit 4 (a stated precondition does not hold)
  TheoremError    -> exit 5 (a checked mathematical statement failed; never expected)
Everything else is a plain usage error (exit 2 at the CLI boundary).
"""


class ArtifactError(Exception):
    """Base class for all package-specific errors."""


class CapError(ArtifactError):
    """A configurable size/enumeration cap was exceeded."""


class HypothesisError(ArtifactError):
    """A theorem hypothesis or operation precondition fails."""


class TheoremError(ArtifactError):
    """A verified mathematical statement came out false (build-failing)."""


class InvariantViolation(TheoremError):
    """An internal invariant of a computation does not hold (a bug)."""


# --- field layer ---

class NonPrimeCharacteristic(ArtifactError):
    pass


class ReducibleModulus(ArtifactError):
    pass


class DivisionByZero(ArtifactError):
    pass


# --- groups ---

class InadmissibleFamilyParameter(ArtifactError):
    pass


class ShapeMismatch(ArtifactError):
    pass


class BadCharacteristic(HypothesisError):
    pass


class SingularShift(ArtifactError):
    pass


class FamilyNotSupported(ArtifactError):
    pass


class BadEta(ArtifactError):
    pass


class GroupTooLarge(CapError):
    pass


class TorusTooLarge(CapError):
    pass


# --- varieties ---

class ArityMismatch(ArtifactError):
    pass


class AmbientTooLarge(CapError):
    pass


class AmbientMismatch(ArtifactError):
    pass


# --- degrees ---

class KTooLarge(ArtifactError):
    pass


# --- escape / growth ---

class NotHomogenizable(ArtifactError):
    pass


class NoEscapeWithinBall(ArtifactError):
    pass


class BallCapExceeded(CapError):
    pass


class NotGenerating(ArtifactError):
    pass


class SamplerStalled(ArtifactError):
    """A random sampler stopped finding new elements."""


class HypothesisFailed(HypothesisError):
    pass


class TheoremViolation(TheoremError):
    pass


# --- torus_lab ---

class ZeroEta(ArtifactError):
    pass


class RankDeficient(TheoremError):
    pass


class CompletionExhausted(CapError):
    """The randomized torus completion dead-ended on every restart."""


# --- constants ---

class RankTooSmall(HypothesisError):
    pass


class InequalityFailed(TheoremError):
    pass


class Indeterminate(ArtifactError):
    """A log-space comparison landed inside the slack band."""
