"""Exception types shared across the toolkit."""


class GridClustError(Exception):
    """Base class for every error raised by this package."""


class BoundsError(GridClustError, IndexError):
    """A cell index lies outside its grid."""


class UnitError(GridClustError, ValueError):
    """An operation received a field in unsupported units."""


class GridSizeError(GridClustError, ValueError):
    """The grid is too small for the requested stencil operation."""


class ParameterError(GridClustError, ValueError):
    """A parameter violates its documented range or ordering."""


class EmptyDomainError(GridClustError, ValueError):
    """An operation requires at least one valid (unmasked) cell."""


class ShapeMismatchError(GridClustError, ValueError):
    """Two grid products that must share a geometry do not."""


class CoverageError(GridClustError, ValueError):
    """Source and target grids do not overlap spatially."""


class YearLookupError(GridClustError, KeyError):
    """A requested year is not present in the series."""


class DatasetError(GridClustError, ValueError):
    """A dataset on disk violates the GTS directory format."""


class DomainError(GridClustError, ValueError):
    """Too few cells (or degenerate input) for the requested statistic."""


class InternalError(GridClustError, RuntimeError):
    """An internal consistency check failed (a bug, not a bad input)."""
