"""Exception types raised across the package."""

from __future__ import annotations


class SlopewatchError(Exception):
    """Base class for all package-specific failures."""


class CloudFormatError(SlopewatchError):
    """The byte stream does not conform to the declared file format."""


class NoOverlap(SlopewatchError):
    """No correspondence within the pairing distance on the first pass, or
    no compared vertex within reach of supported reference surface."""


class InsufficientGeometry(SlopewatchError):
    """Too few or degenerate point pairs for a pose fit: fewer than three
    usable, collinear ones, or a singular point-to-plane system."""


class DisconnectedViews(SlopewatchError):
    """The view similarity graph split into disjoint components.

    ``components`` lists the input cloud indices of each component.
    """

    def __init__(self, components: list[list[int]]):
        self.components = components
        named = "; ".join("{" + ", ".join(str(i) for i in c) + "}" for c in components)
        super().__init__(f"views form disconnected components: {named}")


class TooSparse(SlopewatchError):
    """Fewer points than the minimum required for slope partitioning."""


class NoConvergence(SlopewatchError):
    """Cloth settling did not reach the displacement tolerance.

    ``residual`` is the last per-iteration maximum particle displacement.
    """

    def __init__(self, residual: float, iterations: int):
        self.residual = residual
        self.iterations = iterations
        super().__init__(
            f"cloth not settled after {iterations} iterations "
            f"(residual {residual:.6f} m)"
        )


class DegenerateSurface(SlopewatchError):
    """A point set with no plane (fewer than 3 points, or collinear) or no
    surface spacing, no triangulation in projection, or a region without
    width or length."""


class UndefinedMotionVector(SlopewatchError):
    """A horizontal projection plane has no fall line, and no motion azimuth
    was given, so a region has no direction to be measured along."""


class PipelineStageError(SlopewatchError):
    """A pipeline stage failed; names the stage and chains the cause."""

    def __init__(self, stage: str, cause: BaseException):
        self.stage = stage
        super().__init__(f"stage '{stage}' failed: {cause!r}")
