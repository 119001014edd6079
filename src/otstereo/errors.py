"""Exception types shared across the package."""


class OtStereoError(Exception):
    """Base class for all errors raised by this package."""


class InvalidIntensityError(OtStereoError, ValueError):
    """Pixel intensity outside [0, 1] or not finite."""


class EmptyScanlineError(OtStereoError, ValueError):
    """A scanline carries no mass where some was required."""


class DimensionMismatchError(OtStereoError, ValueError):
    """Vector or matrix sizes do not agree."""


class SupportMismatchError(OtStereoError, ValueError):
    """A coordinate is zero in exactly one of two compared vectors."""


class InfeasibleProjectionError(OtStereoError, ValueError):
    """A marginal asks for mass on a row or column that has none."""


class WrongPathError(OtStereoError, ValueError):
    """A source row too light for shifted_sinkhorn or recover_occlusions."""


class MassMismatchError(OtStereoError, ValueError):
    """Two measures that must carry equal mass do not."""


class InstanceTooLargeError(OtStereoError, ValueError):
    """Exhaustive search requested beyond its size limit."""


class QuantizationError(OtStereoError, ValueError):
    """Measure entries do not sit on the requested mass grid."""


class NoPlateauError(OtStereoError, ValueError):
    """No repeated adjacent compression value to estimate the quotient from."""


class UnresolvedOcclusionError(OtStereoError, RuntimeError):
    """Occlusion recovery could not reconcile the scanline masses.

    Carries the partial report assembled so far in ``report``.
    """

    def __init__(self, message, report=None):
        super().__init__(message)
        self.report = report


class OutOfFrameError(OtStereoError, ValueError):
    """An object's shifted position falls outside the image."""


class SceneFormatError(OtStereoError, ValueError):
    """Scene description file failed to parse or validate."""

    def __init__(self, message, line=None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line
