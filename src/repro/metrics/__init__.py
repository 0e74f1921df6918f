"""Prometheus-style metrics and the monitoring/stability pipeline (§VI)."""

from .monitor import MonitorError, Scraper, StabilityMonitor, TimeSeries
from .registry import (
    Counter,
    Family,
    Gauge,
    Histogram,
    MetricError,
    MetricsRegistry,
    Sample,
    percentile,
)

__all__ = [
    "MonitorError",
    "Scraper",
    "StabilityMonitor",
    "TimeSeries",
    "Counter",
    "Family",
    "Gauge",
    "Histogram",
    "MetricError",
    "MetricsRegistry",
    "Sample",
    "percentile",
]
