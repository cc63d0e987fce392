"""Evaluation harness: accuracy, detection delay, runner, table rendering."""

from .accuracy import (
    correctness_array,
    overall_accuracy,
    segment_accuracy,
    windowed_accuracy,
)
from .ascii_plots import ascii_scatter, hbar_chart, sparkline
from .delay import DelayReport, delay_report, detection_delay, detection_indices
from .parallel import (
    CellResult,
    ParallelExecutionError,
    ParallelRunner,
    make_grid,
    run_cell,
)
from .runner import MethodResult, compare_methods, evaluate_method
from .tables import format_paper_comparison, format_table

__all__ = [
    "correctness_array",
    "overall_accuracy",
    "windowed_accuracy",
    "segment_accuracy",
    "sparkline",
    "hbar_chart",
    "ascii_scatter",
    "DelayReport",
    "delay_report",
    "detection_delay",
    "detection_indices",
    "MethodResult",
    "evaluate_method",
    "compare_methods",
    "CellResult",
    "ParallelRunner",
    "ParallelExecutionError",
    "make_grid",
    "run_cell",
    "format_table",
    "format_paper_comparison",
]
