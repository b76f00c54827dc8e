"""Workload generation and evaluation harness for the paper's experiments."""

from .workloads import (
    BenchmarkSpec,
    FIXED_PIN_BENCHMARKS,
    MULTI_PIN_BENCHMARKS,
    generate_benchmark,
)
from .runner import (
    BenchRow,
    append_rows_json,
    rows_to_json,
    rows_to_table,
    run_cell,
)
from .scaling import fit_power_law
from .sweeps import SweepPoint, sweep_parameter, sweep_to_table

__all__ = [
    "BenchmarkSpec",
    "FIXED_PIN_BENCHMARKS",
    "MULTI_PIN_BENCHMARKS",
    "generate_benchmark",
    "BenchRow",
    "run_cell",
    "rows_to_table",
    "rows_to_json",
    "append_rows_json",
    "fit_power_law",
    "SweepPoint",
    "sweep_parameter",
    "sweep_to_table",
]
