"""Event studies of asset prices around dated releases."""

from .design import DesignMatrix, StudySpec, build_design
from .errors import (
    CalendarError,
    ConfigError,
    DesignError,
    EstimationError,
    EventError,
    EventYieldError,
    IngestError,
    PermutationError,
    SeriesError,
)
from .estimators import (
    CumulativePath,
    HacCovariance,
    RegressionFit,
    accumulate_lad_path,
    constant_stats,
    cumulative_path,
    fit_lad,
    fit_ols,
    hac_covariance,
    hac_variance,
    median_change,
)
from .events import (
    Event,
    EventSet,
    GroupAssignment,
    Openness,
    align_events,
    split_by_country,
    split_by_median,
    split_by_openness,
    split_by_sign,
)
from .ingest import (
    RawTable,
    parse_event_table,
    parse_forecast_series,
    parse_fred_csv,
    parse_ohlc_csv,
    read_table,
    write_event_csv,
    write_fred_csv,
    write_table,
)
from .permutation import (
    PermutationResult,
    PermutationSpec,
    Statistic,
    coverage_assessment,
    draw_placebo,
    percentile_bands,
    permutation_comparison,
    permutation_group_level,
)
from .report import (
    StudyConfig,
    emit_paths,
    emit_placebo,
    format_cell,
    load_config,
    render_table,
    run_study,
)
from .series import (
    PriceSeries,
    ReturnSeries,
    TradingCalendar,
    Transform,
    align_event_date,
    to_returns,
)
from .synth import SynthSpec, generate_walk, inject_effects, weekday_calendar

__version__ = "0.1.0"
