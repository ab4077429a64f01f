"""Exception hierarchy shared by all duinv modules."""


class DuinvError(Exception):
    """Base class for all errors raised by this package."""


# --- cyclotomic arithmetic ---

class ZeroConductor(DuinvError):
    """Conductor of a cyclotomic number must be a positive integer."""


class PromotionOverflow(DuinvError):
    """A binary operation would need a conductor above the supported cap."""


class DivisionByZero(DuinvError):
    """Inverse of the zero element was requested."""


# --- polynomials and rational functions ---

class ZeroPolynomial(DuinvError):
    """The zero polynomial was passed where a nonzero one is required."""


class NonNormalizableDenominator(DuinvError):
    """The denominator has no canonical Hilbert-series form."""


class NonRationalCollapse(DuinvError):
    """A quantity expected to be rational has irrational cyclotomic parts."""


class ZeroFunction(DuinvError):
    """The zero rational function has no leading term at infinity."""


# --- matrix groups ---

class SingularGenerator(DuinvError):
    """A group generator is not invertible."""


class GroupTooLarge(DuinvError):
    """Multiplicative closure exceeded the element cap."""


class InfiniteOrderSuspected(DuinvError):
    """Repeated powers of an element never reached the identity."""


# --- algebra actions ---

class NotAnAutomorphism(DuinvError):
    """The matrix does not act on the chosen algebra as a graded automorphism."""


class UnsupportedAutomorphism(DuinvError):
    """The action is legal but outside the shapes this package can expand."""


class NonMonomialMatrix(DuinvError):
    """Polynomial-ring actions are only supported for monomial matrices."""


class BireflectionMismatch(DuinvError):
    """The trace-series and matrix criteria for a bireflection disagree."""


# --- CLI ---

class ParseError(DuinvError):
    """Input text could not be parsed; carries the offending position."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position
