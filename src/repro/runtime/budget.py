"""Declarative resource budgets for anytime prediction.

The paper's restricted-memory methods exist because resources are
bounded (Section 5: the cutoff and resampled trees trade accuracy for
memory and I/O).  :class:`Budget` makes that trade-off a first-class
*input*: a caller states how many charged disk operations, how many
wall-clock seconds, and how many sample bytes a prediction may spend,
and the :class:`~repro.runtime.governor.Governor` enforces it at the
prediction's natural boundaries -- returning the best estimate the
budget affords instead of silently overspending or hanging.

Charged I/O operations are counted in the units of the
:class:`~repro.disk.accounting.IOCost` ledger: one op is one seek or
one page transfer, exactly what the paper's experiment tables price.
A limit of ``None`` means unbounded, so ``Budget()`` is the ungoverned
status quo and costs nothing.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..disk.accounting import IOCost
from ..errors import InputValidationError

__all__ = ["Budget"]


@dataclass(frozen=True)
class Budget:
    """Spending limits for one governed prediction.

    ``max_io_ops`` caps charged disk operations (seeks + transfers, the
    ledger's unit); ``max_seconds`` is a wall-clock deadline measured
    on the monotonic clock; ``max_sample_bytes`` caps the bytes of
    sample points a method may hold in memory at once (8-byte float64
    coordinates, the in-process representation).  ``None`` disables the
    corresponding check.
    """

    max_io_ops: int | None = None
    max_seconds: float | None = None
    max_sample_bytes: int | None = None

    def __post_init__(self) -> None:
        if self.max_io_ops is not None and self.max_io_ops < 0:
            raise InputValidationError(
                f"max_io_ops must be non-negative, got {self.max_io_ops}"
            )
        if self.max_seconds is not None and self.max_seconds <= 0:
            raise InputValidationError(
                f"max_seconds must be positive, got {self.max_seconds}"
            )
        if self.max_sample_bytes is not None and self.max_sample_bytes < 0:
            raise InputValidationError(
                f"max_sample_bytes must be non-negative, "
                f"got {self.max_sample_bytes}"
            )

    @property
    def unlimited(self) -> bool:
        """True when no limit is set: governing this budget is a no-op."""
        return (
            self.max_io_ops is None
            and self.max_seconds is None
            and self.max_sample_bytes is None
        )

    @staticmethod
    def io_ops(cost: IOCost) -> int:
        """Charged operations in a ledger entry: seeks plus transfers."""
        return cost.seeks + cost.transfers
