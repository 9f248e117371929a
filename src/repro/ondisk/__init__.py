"""The on-disk index: external bulk loading and measured query cost."""

from .builder import OnDiskBuilder, OnDiskIndex
from .measure import MeasurementResult, measure_knn

__all__ = [
    "OnDiskBuilder",
    "OnDiskIndex",
    "MeasurementResult",
    "measure_knn",
]
