"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument is outside the range an operation accepts."""


class DomainError(ValueError):
    """A point lies outside the mathematical domain of an operation."""
