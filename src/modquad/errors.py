"""Exception types raised across the package."""


class ModquadError(Exception):
    """Base class for all package errors."""


class NotSkewSymmetric(ModquadError):
    """Matrix handed to vee() is not skew-symmetric within tolerance."""


class NonUnitAxis(ModquadError):
    """Rotation axis does not have unit norm."""


class InvalidParams(ModquadError):
    """Module or gain parameters violate their constraints."""


class EmptyStructure(ModquadError):
    """A structure needs at least one module."""


class OverlappingModules(ModquadError):
    """Two modules were placed in the same grid cell."""


class DegenerateStructure(ModquadError):
    """Torque rows of the design matrix are rank-deficient."""


class InvalidDOF(ModquadError):
    """Controllable DOF outside {4, 5, 6}."""


class InapplicableDesign(ModquadError):
    """Structure cannot hover with non-negative thrusts along its main thrust axis."""


class DegenerateThrust(ModquadError):
    """Commanded acceleration vector too small to define a thrust direction."""


class GimbalDegenerate(ModquadError):
    """Desired thrust direction parallel to the heading reference."""


class NonFiniteState(ModquadError):
    """Simulation diverged; carries the partial telemetry recorded so far."""

    def __init__(self, message, telemetry=None):
        super().__init__(message)
        self.telemetry = telemetry


class ParseError(ModquadError):
    """Config text is not valid YAML."""


class SchemaError(ModquadError):
    """Config parsed but violates the schema; carries one message per problem."""

    def __init__(self, problems):
        self.problems = list(problems)
        super().__init__("; ".join(self.problems))


class MalformedTelemetry(ModquadError):
    """Telemetry CSV is missing columns or contains unparseable rows."""
