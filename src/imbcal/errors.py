"""Exception types shared across the package."""


class ParameterError(ValueError):
    """An argument or a config violates a documented precondition: exit 2."""


class FormatError(ValueError):
    """An input file does not conform to the expected format: exit 3."""
