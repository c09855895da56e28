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


class SingularElement(EngineError):
    pass


class NotInDomain(EngineError):
    pass


class InternalCheckFailed(EngineError):
    """A self-check the code guarantees failed; always a bug, never user input."""


class HypothesisNotMet(EngineError):
    """A stated hypothesis of a verification claim does not hold.

    `hypothesis` names the failed item so reports and exit codes can cite it:
    each subclass fixes its own, and a bare HypothesisNotMet is given one.
    """

    hypothesis = None

    def __init__(self, message, hypothesis=None):
        super().__init__(message)
        if hypothesis is not None:
            self.hypothesis = hypothesis


class NotPerfect(HypothesisNotMet):
    hypothesis = "perfect"


class NotUnital(HypothesisNotMet):
    hypothesis = "unital"


class NotCommutative(HypothesisNotMet):
    hypothesis = "commutative"


class NotAssociative(HypothesisNotMet):
    hypothesis = "associative"


class NotAutomorphism(HypothesisNotMet):
    hypothesis = "automorphism"


class WrongPeriod(HypothesisNotMet):
    hypothesis = "period"


class NoUnitFound(HypothesisNotMet):
    hypothesis = "graded-unit"


class NotUnitResidue(HypothesisNotMet):
    hypothesis = "graded-unit"


class PsiNotIso(HypothesisNotMet):
    hypothesis = "psi-iso"
