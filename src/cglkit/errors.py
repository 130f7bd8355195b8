"""Exception types shared across the package."""


class CGLError(Exception):
    """Base class for every error raised by this library."""


class DivisionByZero(CGLError, ZeroDivisionError):
    pass


class ExponentOverflow(CGLError):
    """A parameter exponent reached 2^31 in absolute value."""


class NotAMonomial(CGLError):
    """A scalar was required to be a signed parameter monomial and is not."""


class ParseError(CGLError):
    """Syntax error in a scalar or polynomial source string.

    Carries the offset into the source plus the derived line/column so
    callers can point at the offending character.
    """

    def __init__(self, message, source="", pos=0):
        self.message = message
        self.source = source
        self.pos = pos
        prefix = source[:pos]
        self.line = prefix.count("\n") + 1
        self.col = pos - (prefix.rfind("\n") + 1) + 1
        super().__init__(f"{message} (line {self.line}, column {self.col})")


class UnknownGenerator(ParseError):
    pass


class DivergenceBudgetExceeded(CGLError):
    """Rewriting consumed its fuel budget without reaching normal form."""


class ZeroElement(CGLError):
    pass


class NotHomogeneous(CGLError):
    pass


class NoGradingDefined(CGLError):
    pass


class MissingHStar(CGLError):
    pass


class NotReversible(CGLError):
    pass


class NotInXi(CGLError):
    """Permutation is not admissible (some prefix image is not an interval)."""


class NoPredecessorSolution(CGLError):
    pass


class AmbiguousPredecessor(CGLError):
    pass


class InternalInconsistency(CGLError):
    pass


class NotFiltered(CGLError):
    pass


class SingularDegreeZeroPart(CGLError):
    pass


class MultiParameterUnsupported(CGLError):
    pass


class UnknownPreset(CGLError):
    pass


class MalformedPresentation(CGLError):
    """Structural problem with presentation data (shapes, indices, JSON)."""
