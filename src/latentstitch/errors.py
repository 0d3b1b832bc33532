"""Exception hierarchy shared across the toolkit.

The CLI maps the three branches onto exit codes: ConfigError -> 1,
DataError -> 2, NumericalError -> 3. A failure's kind is its branch and its
message; NotSPD is the one leaf, because mapfit catches it by name.
"""


class LatentStitchError(Exception):
    """Base class for every toolkit-specific error."""


class ConfigError(LatentStitchError):
    """Malformed or inconsistent experiment configuration."""


class DataError(LatentStitchError):
    """Malformed input data or an incompatible dataset combination."""


class NumericalError(LatentStitchError):
    """A numerical routine could not produce a reliable result."""


class NotSPD(NumericalError):
    """Cholesky hit a non-positive pivot; caller should add a ridge term."""
