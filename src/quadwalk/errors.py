"""Exception types shared across the package.

Errors that signal a broken contract (a check that must hold for every
valid model) derive from ContractViolation; a test that triggers one has
found a real bug, not a recoverable condition.
"""


class QuadwalkError(Exception):
    """Base class for all package errors."""


class ZeroDenominator(QuadwalkError):
    pass


class InvalidSupport(QuadwalkError):
    pass


class NonPositiveWeight(QuadwalkError):
    pass


class ModelFormatError(QuadwalkError):
    """Malformed model JSON (unknown keys, bad rationals, wrong support)."""


class ContractViolation(QuadwalkError):
    """An identity or table entry that must hold failed to verify."""


class ResidualNonZero(ContractViolation):
    def __init__(self, n, monomial, value):
        self.n = n
        self.monomial = monomial
        self.value = value
        super().__init__(
            f"functional equation residual nonzero at t^{n}, "
            f"monomial x^{monomial[0]} y^{monomial[1]}: {value}"
        )


class OffCurveInput(QuadwalkError):
    pass


class IdenticallyZeroOnCurve(QuadwalkError):
    pass


class UnsupportedDivisorInput(QuadwalkError):
    """curve_zeros got a factor outside the shapes it can solve exactly."""


class DegenerateWeights(ContractViolation):
    """A discriminant factor of the critical points vanished, which no
    valid model allows."""


class OrbitRegimeNotReached(ContractViolation):
    def __init__(self, window):
        self.window = window
        super().__init__(f"orbit valuation regime not certified within window {window}")


class TableCellMismatch(ContractViolation):
    pass


class SurdClassMismatch(ContractViolation):
    """Two elements with the same square q^2 D in distinct extensions
    have leading branch coefficients in different square classes, which
    square roots of one function cannot have."""


class IdentityFailed(ContractViolation):
    def __init__(self, name, residual):
        self.name = name
        self.residual = residual
        super().__init__(f"identity {name} left residual {residual}")


class CoverageGap(ContractViolation):
    pass


class OracleMismatch(ContractViolation):
    def __init__(self, n, detail=""):
        self.n = n
        super().__init__(f"closed form disagrees with enumeration at t^{n} {detail}")


class EvidenceFailed(ContractViolation):
    pass
