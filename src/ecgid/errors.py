"""Exception types shared across the ecgid package.

Every contract violation raises a named subclass of EcgidError so callers
(and the CLI, which maps them to exit code 2) can tell data problems apart
from programming errors.
"""


class EcgidError(Exception):
    """Base class for all ecgid data/contract errors."""


class InvariantViolation(EcgidError):
    """A domain object was constructed in a state its type forbids."""


# --- ingest ---------------------------------------------------------------

class MalformedFile(EcgidError):
    """Unparseable record/manifest/matrix file; message reports the line."""


class TooShort(EcgidError):
    """Record shorter than the 2-second minimum."""


class NonFiniteSample(EcgidError):
    """A sample parsed to NaN or infinity."""


class IoFailure(EcgidError):
    """Underlying OS failure while reading or writing a file."""


# --- dsp ------------------------------------------------------------------

class InvalidBand(EcgidError):
    """Band edges out of order, non-positive, or beyond Nyquist."""


class SignalTooShort(EcgidError):
    """Input shorter than the filter/operation needs."""


class WindowTooLong(EcgidError):
    """Analysis window longer than the data allows."""


# --- detect ---------------------------------------------------------------

class NoBeatsFound(EcgidError):
    """Fewer than 2 accepted R peaks."""


# --- segment --------------------------------------------------------------

class TooFewBeats(EcgidError):
    """Not enough detected peaks to form interior beats."""


class SegmentTooShort(EcgidError):
    """Resampler input (or target) below the 2-sample minimum."""


class OutOfTable(EcgidError):
    """Heart rate outside the piecewise dt lookup table."""


# --- features -------------------------------------------------------------

class DegenerateWindow(EcgidError):
    """All-zero window where a normalization divides by the signal energy."""


class TooFewRows(EcgidError):
    """Fit population smaller than the operation's minimum."""


class DimensionMismatch(EcgidError):
    """Row/model/feature dimensions disagree."""


# --- select ---------------------------------------------------------------

class TooFewSubjects(EcgidError):
    """Auxiliary cohort has fewer than 2 subjects."""


class MissingCondition(EcgidError):
    """A subject lacks rest or post-exercise rows where both are required."""


# --- classify -------------------------------------------------------------

class DegenerateClass(EcgidError):
    """A class with fewer than 2 training rows (or only one class)."""


class LengthMismatch(EcgidError):
    """Prediction/truth sequences of different lengths."""


# --- bench ----------------------------------------------------------------

class EmptyCohort(EcgidError):
    """No subject survived the split's minimum-row requirements."""


class StageFailure(EcgidError):
    """A pipeline stage failed; message carries subject and stage context."""
