"""Exception hierarchy shared by all gapnet modules."""


class GapnetError(Exception):
    """Base class for every contract violation raised by this package."""


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
