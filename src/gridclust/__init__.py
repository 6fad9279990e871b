"""Spatiotemporal clustering of gridded daily temperature data.

Two clustering routes over the same annual-mean inputs: centroid k-means on
per-cell time series, and watershed-based mining of recurring focus regions
(year-wise zones, frequent-focus cores, consensus map), plus comparison
metrics and terrain summaries.
"""

__version__ = "0.1.0"

from .errors import (  # noqa: F401
    BoundsError,
    CoverageError,
    DatasetError,
    DomainError,
    EmptyDomainError,
    GridClustError,
    GridSizeError,
    InternalError,
    ParameterError,
    ShapeMismatchError,
    UnitError,
    YearLookupError,
)
from .gridcore import (  # noqa: F401
    CalendarSpec,
    CellIndex,
    DailySeriesGrid,
    GridGeometry,
    ScalarField,
    ZoneMap,
    days_in_year,
    neighbors8,
    slope_field,
    to_celsius,
)
from .ingest import (  # noqa: F401
    AnnualMeanStack,
    DatasetManifest,
    annual_mean,
    build_annual_stack,
    load_annual_stack,
    load_dataset,
    resample,
    validate_dataset,
    write_dataset,
)
from .kmeans import FeatureMatrix, ClusterMap, build_features, run_kmeans, sweep_k  # noqa: F401
from .mistic import (  # noqa: F401
    Core,
    Foci,
    FocusFrequencyTable,
    FocusPoint,
    MisticParams,
    MisticResult,
    build_cores,
    classify_core,
    consensus_zone_map,
    detect_focus_points,
    mine_frequent_foci,
    run_mistic,
    watershed_zones,
)
from .analysis import (  # noqa: F401
    ClusterSummary,
    ClusterSummaryReport,
    ComparisonReport,
    ContingencyTable,
    adjusted_rand,
    cluster_summary,
    compare_maps,
    contingency,
    matched_jaccard,
)
