"""Exception types shared across the package."""


class JetCalcError(Exception):
    """Base class for all package errors."""


class DivisionByZero(JetCalcError, ZeroDivisionError):
    """Division by an expression whose canonical form is zero."""


class NotAPointFunction(JetCalcError):
    """u-differentiation requested on an expression containing proper jets."""


class InconsistentJetSubstitution(JetCalcError):
    """Replacing u_{ix} alone while higher jets are present."""


class RootNotInClass(JetCalcError):
    """Leading series coefficient has no n-th root in the rational class."""


class InsufficientPrecision(JetCalcError):
    """A series window is too shallow for the requested rank check."""


class NotConserved(JetCalcError):
    """Flux reconstruction requested for a non-conserved density."""


class ConstantF(JetCalcError):
    """The nonlinearity f(u) must be nonconstant."""


class NotQuadratic(JetCalcError):
    """f-normalization requires a genuinely quadratic polynomial."""


class UnsupportedEquationShape(JetCalcError):
    """Outside the obstruction scan's scope: leading coefficient, rank or constraint."""


class ExponentOverflow(JetCalcError):
    """A generator's exponent in a monomial exceeds poly.MAX_EXPONENT."""


class DslSyntaxError(JetCalcError):
    """Parse error with source position information."""

    def __init__(self, message: str, line: int, column: int, expected=()):
        super().__init__(f"{message} (line {line}, column {column})")
        self.line = line
        self.column = column
        self.expected = tuple(expected)
