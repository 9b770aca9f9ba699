"""Exception taxonomy.

Three families, matching the CLI exit codes: file format problems (exit 2),
input validation problems (exit 3), numerical failures (exit 4).
"""


class SegttaError(Exception):
    """Base class for every error raised by this package."""


# --- file format (exit 2) ---

class FormatError(SegttaError):
    """Bad magic, unsupported version or dtype, malformed header."""


class TruncatedFile(FormatError):
    """File ended before the declared payload was fully read."""


class ParseError(FormatError):
    """Manifest is not valid JSON or violates its structural contract."""


# --- validation (exit 3) ---

class ValidationError(SegttaError):
    """Inputs violate a documented precondition."""


class ShapeMismatch(ValidationError):
    """Array shape incompatible with the operation."""


class DimensionMismatch(ValidationError):
    """Feature dimensionality disagrees across inputs."""


class MissingFile(ValidationError):
    """An input file cannot be opened (it does not exist, is a directory, or
    its name is not a valid path), an output's directory does not exist, or
    an output cannot be written (a full disk)."""


class EmptyMask(ValidationError):
    """Label mask contains only ignore pixels."""


class EmptyRegion(ValidationError):
    """A region owns no pixels on the patch grid."""


class EmptyStore(ValidationError):
    """Support store holds no entries."""


class NoVisualSupport(ValidationError):
    """Requested class has no pooled support vectors."""


class InfeasibleSeparation(ValidationError):
    """Could not place class centroids at the requested angular separation."""


# --- numerics (exit 4) ---

class NumericalError(SegttaError):
    """A numerical invariant broke at runtime."""


class NearZeroRow(NumericalError):
    """Vector norm below tolerance where a unit vector is required."""


class NonFiniteGradient(NumericalError):
    """NaN or inf appeared in a gradient."""


class NonFiniteInput(NumericalError):
    """NaN or inf in input feature data."""


class TemperatureOverflow(NumericalError):
    """Scores divided by a softmax temperature overflow: the temperature is
    too small for them."""
