"""Exception types shared across the package."""


class FlowGeoError(Exception):
    """Base class for all package errors."""


class BehindCameraError(FlowGeoError):
    """A 3-D point with non-positive depth was projected."""


class InvalidDepthError(FlowGeoError):
    """A non-positive or non-finite depth value was supplied."""


class DimensionError(FlowGeoError):
    """Grid shapes do not match or a grid is too small for an operation."""


class InvalidSceneError(FlowGeoError):
    """A scene file is malformed, or scene parameters violate positivity or
    placement invariants or overflow the rendering."""


class NonFiniteError(FlowGeoError, ValueError):
    """A grid holds non-finite values on pixels it marks valid."""


class NoValidPixelsError(FlowGeoError):
    """A masked reduction was requested over an empty valid set."""


class DegenerateTranslationError(FlowGeoError):
    """The translation is too small for the requested geometry: |t_3|
    below threshold for the divergence/depth relation, or zero for depth
    recovery."""


class FormatError(FlowGeoError):
    """A file does not conform to its declared on-disk format."""


class AbortedRunError(FlowGeoError):
    """An optimization run diverged; carries the partial trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace
