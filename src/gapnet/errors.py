"""Exception hierarchy shared by all gapnet modules."""

import numbers


class GapnetError(Exception):
    """Base class for every contract violation raised by this package."""


def require_counts(error, least=1, **values):
    """Raise ``error`` naming the first value that is not an integer >= ``least``
    (a bool is not)."""
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < least:
            raise error(f"{name} must be an integer >= {least}, got {value!r}")


# tensor kernels
class ShapeMismatch(GapnetError):
    pass


class RankError(GapnetError):
    pass


class KernelTooLong(GapnetError):
    pass


class InvalidShape(GapnetError):
    pass


class NonFiniteTensor(GapnetError):
    pass


# nn layers
class NoCachedForward(GapnetError):
    pass


class InvalidRate(GapnetError):
    pass


# pipeline
class SpecInvalid(GapnetError):
    pass


# tensor container files
class BadMagic(GapnetError):
    pass


class UnsupportedVersion(GapnetError):
    pass


class UnsupportedDtype(GapnetError):
    pass


class TruncatedPayload(GapnetError):
    pass


class IoFailure(GapnetError):
    pass


# datasets and preprocessing
class ParseError(GapnetError):
    pass


class DuplicateId(GapnetError):
    pass


class EmptyImage(GapnetError):
    pass


class InvalidExtent(GapnetError):
    pass


class NonSquareRotation(GapnetError):
    pass


class TargetUnreachable(GapnetError):
    pass


class BadFractions(GapnetError):
    pass


# training
class EmptySplit(GapnetError):
    pass


class DivergedLoss(GapnetError):
    pass


# evaluation
class LengthMismatch(GapnetError):
    pass


class EmptyInput(GapnetError):
    pass


class EmptyMatrix(GapnetError):
    pass


# experiment driver
class ConfigInvalid(GapnetError):
    pass


class CheckpointMismatch(GapnetError):
    pass
