"""The counting-kernel table.

A *kernel* answers the paper's one hot question -- how many leaf pages
does each query region intersect? -- for a whole workload at once,
against a :class:`~repro.kernels.geometry.LeafGeometry`.  There are two,
interchangeable by contract: both return **bit-identical**
``per_query`` counts (enforced by the equivalence property tests), so
the selection is purely a performance decision and no paper result can
change with it.

The ``REPRO_KERNEL`` environment variable is the one selector: every
counting site in the library calls :func:`get_kernel` with no name on
each dispatch, which resolves ``REPRO_KERNEL`` or else the default
(``numpy_batched``).  A name passed to :func:`get_kernel` addresses one
kernel directly, which is how the equivalence tests and the benchmarks
reach the ``reference`` oracle.  Unknown names raise the typed
:class:`~repro.errors.UnknownKernelError`; the facade resolves the
selection at construction, so a typo fails before any I/O is spent.
"""

from __future__ import annotations

import functools
import os
from typing import Protocol, runtime_checkable

import numpy as np

from ..errors import UnknownKernelError
from .batched import NumpyBatchedKernel
from .geometry import LeafGeometry
from .reference import ReferenceKernel

__all__ = [
    "CountingKernel",
    "DEFAULT_KERNEL",
    "KERNEL_ENV_VAR",
    "available_kernels",
    "default_kernel_name",
    "get_kernel",
]

#: the kernel an unqualified lookup resolves to when ``REPRO_KERNEL``
#: is unset
DEFAULT_KERNEL = "numpy_batched"

#: the environment variable that selects the kernel every counting site
#: uses (the CI kernel matrix sets it to run the whole suite per backend)
KERNEL_ENV_VAR = "REPRO_KERNEL"


@runtime_checkable
class CountingKernel(Protocol):
    """What a counting backend must provide.

    Both methods return an ``(q,)`` int64 array of per-query
    intersection counts and must be bit-identical across kernels for
    the same inputs -- the equivalence tests hold every backend to the
    ``reference`` oracle.
    """

    name: str

    def count_knn(
        self, geometry: LeafGeometry, queries: np.ndarray, radii: np.ndarray
    ) -> np.ndarray:
        """Leaves intersecting each query sphere ``B(queries[i], radii[i])``."""
        ...

    def count_range(
        self, geometry: LeafGeometry, q_lower: np.ndarray, q_upper: np.ndarray
    ) -> np.ndarray:
        """Leaves intersecting each closed box ``[q_lower[i], q_upper[i]]``."""
        ...

    def count_grid(
        self, geometry: LeafGeometry, centers: np.ndarray,
        radii_grid: np.ndarray,
    ) -> np.ndarray:
        """Fused (queries x radii) grid: one geometry pass, ``(g, q)`` counts.

        ``radii_grid`` is ``(g, q)`` (or ``(g,)``, broadcast to a
        constant radius per row); row ``r`` of the returned int64 array
        must be bit-identical to
        ``count_knn(geometry, centers, radii_grid[r])``.
        """
        ...


#: every kernel, by name
_KERNELS: dict[str, type] = {
    NumpyBatchedKernel.name: NumpyBatchedKernel,
    ReferenceKernel.name: ReferenceKernel,
}


def available_kernels() -> tuple[str, ...]:
    """Names that :func:`get_kernel` will resolve, sorted."""
    return tuple(sorted(_KERNELS))


def default_kernel_name() -> str:
    """The name an unqualified :func:`get_kernel` call resolves to.

    ``REPRO_KERNEL`` wins when set; otherwise ``DEFAULT_KERNEL``.
    """
    return os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL


@functools.cache
def _instance(name: str) -> CountingKernel:
    return _KERNELS[name]()


def get_kernel(name: str | None = None) -> CountingKernel:
    """The kernel called ``name``, or the selected one when ``None``.

    Instances are cached per name: kernels are stateless beyond their
    configuration, so one instance serves every predictor.  Raises
    :class:`~repro.errors.UnknownKernelError` for names not in the
    table.
    """
    resolved = name if name is not None else default_kernel_name()
    if resolved not in _KERNELS:
        raise UnknownKernelError(resolved, available=available_kernels())
    return _instance(resolved)
