"""Exception types shared across the package."""


class MeetPDError(Exception):
    """Base class for all library errors."""


class DuplicateElementError(MeetPDError):
    """An element id occurs more than once."""


class CycleError(MeetPDError):
    """Cover edges close a cycle, so the relation is not antisymmetric."""


class NotASemilatticeError(MeetPDError):
    """Some pair of elements has no greatest lower bound."""


class AmbientNotEnumerableError(MeetPDError):
    """The ambient lattice cannot enumerate the lower set of an element."""


class PosetMismatchError(MeetPDError):
    """Operands are defined over different ordered domains."""


class NotMeetClosedError(MeetPDError):
    """The subset is not closed under pairwise meets."""


class NoLeastElementError(MeetPDError):
    """The domain has no least element."""


class DimensionMismatchError(MeetPDError):
    """Function arity does not match the number of subset factors."""


class EvaluationError(MeetPDError):
    """A user supplied function failed to produce a value."""


class InexactFunctionError(MeetPDError, ValueError):
    """An exact routine was given a function with float-derived values."""


class NegativeScalarError(MeetPDError):
    """Scaling a positive definite function needs a nonnegative scalar."""


class ArityMismatchError(MeetPDError):
    """Tuple arguments have different lengths."""


class ArityLimitError(MeetPDError, ValueError):
    """A lattice power was asked for an arity above posets.MAX_ARITY."""


class ExponentLimitError(MeetPDError, ValueError):
    """A power function was asked for an exponent beyond +-arith.MAX_EXPONENT."""


class UnknownBuiltinError(MeetPDError):
    """No builtin arithmetic function with that name."""
