"""Exception types shared across the package."""


class InfeasibleParametersError(ValueError):
    """The requested privacy budget cannot be met by any valid mechanism
    configuration (e.g. the blanket probability formula is at least 1)."""


class MalformedMessageError(ValueError):
    """A submitted message violates the protocol's wire format."""
