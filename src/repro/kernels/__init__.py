"""Columnar leaf geometry and pluggable batched counting kernels.

Everything the paper predicts reduces to one primitive: count, for each
query region, the leaf pages it intersects.  This package owns that
primitive end to end -- the canonical structure-of-arrays
:class:`LeafGeometry` value that every tree and predictor produces and
caches, and the two interchangeable counting backends:

``reference``
    the per-query loop kept as the correctness oracle,
``numpy_batched``
    query-tiled blocked broadcasting with a memory cap and exact early
    pruning (the default).

Both return bit-identical ``per_query`` counts (the equivalence
property tests enforce it), so the selection -- made only by the
``REPRO_KERNEL`` environment variable, which :func:`get_kernel`
resolves on every dispatch -- is purely a performance knob and no
paper figure depends on it.

Every kernel also exposes the fused ``count_grid`` entry point -- one
geometry pass answering a whole (queries x radii) grid -- and
:class:`BatchPlan` describes a fused multi-request dispatch (member
segments plus the exact charged-op attribution split), the vocabulary
of the service coalescer.
"""

from .batch import BatchPlan, as_radii_grid
from .geometry import LeafGeometry
from .batched import DEFAULT_MEMORY_CAP_BYTES, MEMORY_CAP_ENV_VAR, NumpyBatchedKernel
from .reference import ReferenceKernel
from .registry import (
    DEFAULT_KERNEL,
    KERNEL_ENV_VAR,
    CountingKernel,
    available_kernels,
    default_kernel_name,
    get_kernel,
)

__all__ = [
    "DEFAULT_KERNEL",
    "DEFAULT_MEMORY_CAP_BYTES",
    "KERNEL_ENV_VAR",
    "MEMORY_CAP_ENV_VAR",
    "BatchPlan",
    "CountingKernel",
    "LeafGeometry",
    "NumpyBatchedKernel",
    "ReferenceKernel",
    "as_radii_grid",
    "available_kernels",
    "default_kernel_name",
    "get_kernel",
]
