"""Exception hierarchy shared by all modules."""


class AqmdsError(Exception):
    """Base class for every error raised by this package."""


class NotPrimePower(AqmdsError):
    pass


class CapExceeded(AqmdsError):
    """An enumeration or construction exceeded its configured size cap."""


class DivisionByZero(AqmdsError):
    pass


class FieldMismatch(AqmdsError):
    pass


class DimensionMismatch(AqmdsError):
    pass


class LengthMismatch(AqmdsError):
    pass


class RankDeficient(AqmdsError):
    pass


class ZeroCode(AqmdsError):
    pass


class PositionOutOfRange(AqmdsError):
    pass


class PreconditionFailed(AqmdsError):
    pass


class InvalidSpec(AqmdsError):
    pass


class InvalidRange(AqmdsError):
    pass


class NotCharTwo(AqmdsError):
    pass


class DegreeTooSmall(AqmdsError):
    pass


class NotNested(AqmdsError):
    pass


class NoFullWeightWord(AqmdsError):
    pass


class DimensionTooSmall(AqmdsError):
    pass


class RecipeInvalid(AqmdsError):
    pass


class VerificationFailed(AqmdsError):
    pass
