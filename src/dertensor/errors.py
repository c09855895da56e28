"""Exception taxonomy shared by every module.

All errors raised on purpose derive from EngineError so callers can catch one
type. HypothesisNotMet marks a precondition of a named verification claim;
the CLI maps it to its own exit code.
"""


class EngineError(Exception):
    pass


class ParseError(EngineError):
    """Bad literal or file content; the message quotes the offending text when given."""

    def __init__(self, message, text=None):
        super().__init__(message if text is None else f"{message} (in {text!r})")


class FieldMismatch(EngineError):
    pass


class DimensionMismatch(EngineError):
    pass


class DivisionByZero(EngineError):
    pass


class NotPrime(EngineError):
    pass


class CharDividesM(EngineError):
    pass


class NoPrimitiveRoot(EngineError):
    pass


class NotClosed(EngineError):
    pass


class SingularElement(EngineError):
    pass


class NotInvariant(EngineError):
    pass


class NotInDomain(EngineError):
    pass


class InternalCheckFailed(EngineError):
    """A self-check the code guarantees failed; always a bug, never user input."""


class HypothesisNotMet(EngineError):
    """A stated hypothesis of a verification claim does not hold.

    `hypothesis` names the failed item so reports and exit codes can cite it.
    """

    def __init__(self, message, hypothesis=None):
        super().__init__(message)
        self.hypothesis = hypothesis


class NotPerfect(HypothesisNotMet):
    def __init__(self, message="algebra is not perfect"):
        super().__init__(message, hypothesis="perfect")


class NotUnital(HypothesisNotMet):
    def __init__(self, message="algebra has no two-sided unit"):
        super().__init__(message, hypothesis="unital")


class NotCommutative(HypothesisNotMet):
    def __init__(self, message="algebra is not commutative"):
        super().__init__(message, hypothesis="commutative")


class NotAssociative(HypothesisNotMet):
    def __init__(self, message="algebra is not associative"):
        super().__init__(message, hypothesis="associative")


class NotAutomorphism(HypothesisNotMet):
    def __init__(self, message="map is not an algebra automorphism"):
        super().__init__(message, hypothesis="automorphism")


class WrongPeriod(HypothesisNotMet):
    def __init__(self, message="map does not have the declared period"):
        super().__init__(message, hypothesis="period")


class NoUnitFound(HypothesisNotMet):
    def __init__(self, message="no invertible element found in the required graded component"):
        super().__init__(message, hypothesis="graded-unit")


class NotUnitResidue(HypothesisNotMet):
    def __init__(self, message="declared graded-unit residue is not invertible mod m"):
        super().__init__(message, hypothesis="graded-unit")


class PsiNotIso(HypothesisNotMet):
    def __init__(self, message="canonical map onto the tensor centroid is not bijective"):
        super().__init__(message, hypothesis="psi-iso")
