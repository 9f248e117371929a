"""Phase splitting: the upper tree of the restricted-memory predictors.

Under a memory budget of ``M`` points, the mini-index is built in
phases (Section 4.2): a single *upper tree* on a sample of ``M`` points
covering levels ``height .. height - h_upper + 1`` of the full index,
and one *lower tree* per upper-tree leaf page, constructed afterwards by
either the cutoff or the resampled method.  This module builds the
upper tree, applies Theorem 1's compensation to its leaf pages, and
exposes the per-leaf data (grown box, sample points, full-data point
quota) the lower-tree constructions consume.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import InputValidationError
from ..kernels.geometry import LeafGeometry
from ..rtree.bulkload import BulkLoadConfig, PageLayout, build_tree
from .compensation import compensation_side_factor
from .topology import Topology

__all__ = ["UpperTree", "build_upper_tree", "resolve_h_upper"]


def resolve_h_upper(topology: Topology, h_upper: int | None, memory: int) -> int:
    """The upper-tree height a phased predictor should use.

    An explicit ``h_upper`` is validated against ``[2, height - 1]``
    (the phased regime of Section 4.5); one outside it, or any for a
    tree shorter than 3, raises
    :class:`~repro.errors.InputValidationError`.  Otherwise the Section 4.5.2
    heuristic chooses it, degrading gracefully at the edges: a tree too
    short to phase (height < 3) or a memory budget covering the whole
    dataset collapses to ``h_upper == height`` -- the single-phase
    mini-index of Section 3 -- and a budget too tight for the
    feasibility bounds falls back to the shallowest phased tree.
    """
    if h_upper is not None:
        if topology.height < 3:
            raise InputValidationError(
                f"h_upper {h_upper} given, but a height-{topology.height} "
                f"tree has no phased h_upper: phasing needs a tree of "
                f"height 3 or more (h_upper in [2, height - 1])"
            )
        if not 2 <= h_upper <= topology.height - 1:
            raise InputValidationError(
                f"h_upper {h_upper} outside [2, {topology.height - 1}]"
            )
        return h_upper
    if topology.height < 3 or memory >= topology.n_points:
        return topology.height
    try:
        return topology.best_h_upper(memory)
    except ValueError:
        return 2


@dataclass(frozen=True)
class UpperTree:
    """The built upper tree: its page layout, its grown leaf pages and
    the parameters used.

    ``geometry`` holds the non-empty leaves of ``layout`` (the rows
    where ``layout.full``), in leaf order, grown by ``growth_factor``:
    ``n_points`` is each leaf's sample occupancy and ``virtual_n`` the
    number of *full-dataset* points the corresponding subtree of the
    on-disk index would hold -- the quantities the lower-tree
    constructions budget with.  Leaf ``j``'s sample points are
    ``sample[layout.order[layout.bounds[0][j]:layout.bounds[0][j + 1]]]``.
    """

    layout: PageLayout
    geometry: LeafGeometry
    sample: np.ndarray
    topology: Topology
    h_upper: int
    sigma_upper: float
    growth_factor: float

    @property
    def leaf_level(self) -> int:
        return self.topology.upper_leaf_level(self.h_upper)

    @property
    def k(self) -> int:
        """Number of upper-tree leaf pages (the paper's ``k``)."""
        return int(self.layout.virtual_n.shape[0])


def build_upper_tree(
    sample: np.ndarray,
    topology: Topology,
    h_upper: int,
    *,
    config: BulkLoadConfig | None = None,
) -> UpperTree:
    """Build the upper tree on ``sample`` and grow its leaf pages.

    The sample's size relative to ``topology.n_points`` defines
    ``sigma_upper``; leaves are grown by
    ``delta(pts(height - h_upper + 1), sigma_upper)`` as in Section 4.2,
    all in one array operation.
    """
    sample = np.asarray(sample, dtype=np.float64)
    if not 1 <= h_upper <= topology.height:
        raise ValueError(f"h_upper {h_upper} outside [1, {topology.height}]")
    sigma_upper = min(sample.shape[0] / topology.n_points, 1.0)
    leaf_level = topology.upper_leaf_level(h_upper)
    layout = build_tree(sample, topology, config, stop_level=leaf_level)

    page_points = topology.pts(leaf_level)
    if sigma_upper >= 1.0:
        factor = 1.0
    else:
        try:
            factor = compensation_side_factor(page_points, sigma_upper)
        except ValueError:
            # Sampled pages expect <= 1 point: Theorem 1 is undefined
            # below a 1/C sampling rate (Section 3.3); fall back to the
            # raw sampled geometry rather than failing the prediction.
            factor = 1.0
    return UpperTree(
        layout=layout,
        geometry=layout.geometry().scaled(factor),
        sample=sample,
        topology=topology,
        h_upper=h_upper,
        sigma_upper=sigma_upper,
        growth_factor=factor,
    )
