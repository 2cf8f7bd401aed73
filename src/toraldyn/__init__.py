"""Exact cohomological dynamics of commuting automorphism groups of complex tori."""

__version__ = "0.1.0"


class ExactAlgebraError(ValueError):
    """A value the exact machinery cannot certify."""
