"""Experiment harness: workloads, figure runners, and reporting."""

from .figures import (
    FIGURE5_CONFIGS,
    AccuracyResult,
    accuracy_sweep,
    baseline_numbers,
    estimator_report,
    partitioning_report,
    run_accuracy_config,
)
from .memory import (
    PAPER_SHAPE,
    CorpusShape,
    cpp_layout_model,
    project_to_paper_scale,
)
from .reporting import format_series, format_table, mib
from .workload import (
    QUERY_TYPES,
    QuerySpec,
    Workload,
    build_workload,
    derive_query_set,
)

__all__ = [
    "QuerySpec",
    "Workload",
    "build_workload",
    "derive_query_set",
    "QUERY_TYPES",
    "AccuracyResult",
    "run_accuracy_config",
    "accuracy_sweep",
    "baseline_numbers",
    "partitioning_report",
    "estimator_report",
    "FIGURE5_CONFIGS",
    "format_table",
    "format_series",
    "mib",
    "CorpusShape",
    "PAPER_SHAPE",
    "cpp_layout_model",
    "project_to_paper_scale",
]
