"""The counting-kernel registry.

A *kernel* answers the paper's one hot question -- how many leaf pages
does each query region intersect? -- for a whole workload at once,
against a :class:`~repro.kernels.geometry.LeafGeometry`.  Kernels are
interchangeable by contract: every registered backend must return
**bit-identical** ``per_query`` counts (enforced by the equivalence
property tests), so selecting one is purely a performance decision and
no paper result can change with the selection.

Selection order: an explicit name beats the ``REPRO_KERNEL``
environment variable beats the default (``numpy_batched``).
Unknown names raise the typed :class:`~repro.errors.UnknownKernelError`
-- eagerly, so a typo fails before any I/O is spent.
"""

from __future__ import annotations

import os
import threading
from typing import Callable, Protocol, runtime_checkable

import numpy as np

from ..errors import UnknownKernelError
from .geometry import LeafGeometry

__all__ = [
    "CountingKernel",
    "DEFAULT_KERNEL",
    "KERNEL_ENV_VAR",
    "available_kernels",
    "default_kernel_name",
    "get_kernel",
    "register_kernel",
]

#: the kernel an unqualified lookup resolves to when no name or
#: ``REPRO_KERNEL`` chooses
DEFAULT_KERNEL = "numpy_batched"

#: environment variable consulted when no explicit name is given (this
#: is what the CI kernel matrix sets to run the whole suite per backend)
KERNEL_ENV_VAR = "REPRO_KERNEL"


@runtime_checkable
class CountingKernel(Protocol):
    """What a counting backend must provide.

    Both methods return an ``(q,)`` int64 array of per-query
    intersection counts and must be bit-identical across kernels for
    the same inputs -- the equivalence tests hold every registered
    backend to the ``reference`` oracle.
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


_factories: dict[str, Callable[[], CountingKernel]] = {}
_instances: dict[str, CountingKernel] = {}
_lock = threading.Lock()


def register_kernel(name: str, factory: Callable[[], CountingKernel]) -> None:
    """Register a kernel backend under ``name`` (idempotent by name)."""
    with _lock:
        _factories[name] = factory
        _instances.pop(name, None)


def available_kernels() -> tuple[str, ...]:
    """Names that :func:`get_kernel` will resolve, sorted."""
    with _lock:
        return tuple(sorted(_factories))


def default_kernel_name() -> str:
    """The name an unqualified :func:`get_kernel` call resolves to.

    ``REPRO_KERNEL`` wins when set; otherwise ``DEFAULT_KERNEL``.
    """
    return os.environ.get(KERNEL_ENV_VAR) or DEFAULT_KERNEL


def get_kernel(name: str | None = None) -> CountingKernel:
    """Resolve a kernel by name (argument > ``REPRO_KERNEL`` > default).

    Instances are cached per name: kernels are stateless beyond their
    configuration, so one instance serves every predictor.  Raises
    :class:`~repro.errors.UnknownKernelError` for names that are not
    registered.
    """
    resolved = name if name is not None else default_kernel_name()
    with _lock:
        instance = _instances.get(resolved)
        if instance is not None:
            return instance
        factory = _factories.get(resolved)
        if factory is None:
            raise UnknownKernelError(
                resolved, available=tuple(sorted(_factories))
            )
        instance = factory()
        _instances[resolved] = instance
        return instance
