"""Exception hierarchy shared by all gridgauge modules."""


class GridGaugeError(Exception):
    """Base class for all gridgauge errors."""


class GridFormatError(GridGaugeError):
    """Malformed grid file or invalid connectivity, with the offending line."""

    def __init__(self, message, line=None):
        self.line = line
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)


class DegenerateStencilError(GridGaugeError):
    """Stencil has fewer than two neighbors or a vanishing centroid distance."""


class SingularStencilError(GridGaugeError):
    """Normal matrix of a least-squares stencil is numerically singular."""


class DegenerateGridError(GridGaugeError):
    """No cells, or more than half of them with unusable gradient stencils."""
