"""Exception types shared across the package."""


class DimensionMismatchError(ValueError):
    """Frame dimensions disagree with intrinsics or with another frame."""


class InsufficientDataError(ValueError):
    """Too few observations to pose the estimation problem."""


class DegenerateGeometryError(ValueError):
    """Observation geometry is rank-deficient (e.g. collinear targets)."""


class ContainerFormatError(ValueError):
    """A frame container blob violates the binary layout."""
