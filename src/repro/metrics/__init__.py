"""Metric collection and plain-text reporting."""

from repro.metrics.report import format_ratio, format_table
from repro.metrics.timeseries import TimeSeries

__all__ = ["TimeSeries", "format_ratio", "format_table"]
