"""The cutoff index tree predictor (Section 4.3).

After building and growing the upper tree, the cutoff method predicts
each lower tree *without touching the data again*: it assumes the
points inside an upper-tree leaf page are uniformly distributed and
replays the splits the bulk loader would perform -- under uniformity
the maximum-variance dimension is the maximum-extent dimension, and a
rank split at ``m`` of ``n`` points cuts the extent at fraction
``m / n``.  The resulting synthetic leaf pages tile each upper leaf.

Unlike the fully uniform models of Berchtold et al., uniformity is
assumed only *within* an upper-tree leaf whose geometry was measured
from the sample, and the real fanout/split schedule of the index is
used (the paper's key distinction).

I/O cost: only the query-point reads and the single dataset scan
(Eq. 3) -- the lower-tree synthesis is free.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from ..disk.pagefile import PointFile

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..runtime.governor import Governor
from ..kernels.geometry import LeafGeometry
from ..kernels.registry import get_kernel
from ..rtree.bulkload import BulkLoadConfig
from ..workload.queries import KNNWorkload, RangeWorkload
from .counting import PredictionResult, count_accesses
from .phases import build_upper_tree, resolve_h_upper
from .sampling_io import read_query_points, scan_and_sample
from .topology import Topology, split_child_counts, subtree_capacity

__all__ = ["CutoffModel", "synthesize_uniform_leaves"]


def synthesize_uniform_leaves(
    lower: np.ndarray,
    upper: np.ndarray,
    level: int,
    n_virtual: int,
    topology: Topology,
) -> tuple[np.ndarray, np.ndarray]:
    """Leaf boxes the bulk loader would create inside a uniform page.

    Recursively applies the loader's fanout and binary-division schedule
    to the box ``[lower, upper]`` holding ``n_virtual`` (hypothetical,
    uniform) points at tree ``level``, splitting the largest extent at
    the proportional position each time.  Returns stacked corners of
    the synthesized level-1 pages.
    """
    out_lower: list[np.ndarray] = []
    out_upper: list[np.ndarray] = []
    stack = [(np.array(lower, dtype=np.float64), np.array(upper, dtype=np.float64),
              level, n_virtual)]
    while stack:
        lo, hi, lvl, n = stack.pop()
        if lvl == 1:
            out_lower.append(lo)
            out_upper.append(hi)
            continue
        child_cap = subtree_capacity(lvl - 1, topology.c_data, topology.c_dir)
        fanout = max(1, int(np.ceil(n / child_cap)))
        pending = [(lo, hi, n, fanout)]
        while pending:
            plo, phi, pn, pf = pending.pop()
            if pf == 1:
                stack.append((plo, phi, lvl - 1, pn))
                continue
            n_left, n_right = split_child_counts(pn, pf, child_cap)
            dim = int(np.argmax(phi - plo))
            cut = plo[dim] + (phi[dim] - plo[dim]) * (n_left / pn)
            left_hi = phi.copy()
            left_hi[dim] = cut
            right_lo = plo.copy()
            right_lo[dim] = cut
            f_left = pf // 2
            pending.append((right_lo, phi, n_right, pf - f_left))
            pending.append((plo, left_hi, n_left, f_left))
    return np.stack(out_lower), np.stack(out_upper)


@dataclass(frozen=True)
class CutoffModel:
    """Restricted-memory predictor using uniform lower-tree synthesis.

    ``memory`` is ``M``, the number of points that fit in memory.  If
    ``h_upper`` is ``None`` the error-minimizing heuristic of Section
    4.5.2 chooses it.  The cutoff method has no lower bound on
    ``h_upper`` (Section 4.5.1); any value in ``[2, height - 1]`` is
    accepted.
    """

    c_data: int
    c_dir: int
    memory: int
    h_upper: int | None = None
    config: BulkLoadConfig | None = None

    def predict(
        self,
        file: PointFile,
        workload: KNNWorkload | RangeWorkload,
        rng: np.random.Generator,
        *,
        governor: "Governor | None" = None,
    ) -> PredictionResult:
        """Run Figure 5's algorithm against the paged dataset file.

        ``governor`` enables budget governance at the phase boundaries
        (query reads, scan, synthesis); checks charge nothing and draw
        no randomness, so an amply-budgeted governed run is
        bit-identical to an ungoverned one.
        """
        start_cost = file.disk.cost
        topology = Topology(file.n_points, self.c_data, self.c_dir)
        h_upper = self._resolve_h_upper(topology)

        if isinstance(workload, KNNWorkload):
            read_query_points(file, workload.query_ids)
        if governor is not None:
            governor.check("cutoff:read_query_points",
                           file.disk.cost - start_cost)
        n_sample = min(self.memory, file.n_points)
        if governor is not None:
            governor.admit_sample(n_sample, file.dim,
                                  phase="cutoff:scan_and_sample")
        sample = scan_and_sample(file, n_sample, rng)
        if governor is not None:
            governor.check("cutoff:scan_and_sample",
                           file.disk.cost - start_cost)
        upper = build_upper_tree(sample, topology, h_upper, config=self.config)

        leaf_lower: list[np.ndarray] = []
        leaf_upper: list[np.ndarray] = []
        for leaf in upper.leaves:
            if leaf.is_empty or leaf.virtual_n < 1:
                continue
            lo, hi = synthesize_uniform_leaves(
                leaf.lower, leaf.upper, upper.leaf_level, leaf.virtual_n, topology
            )
            leaf_lower.append(lo)
            leaf_upper.append(hi)
        if leaf_lower:
            geometry = LeafGeometry.from_corners(
                np.concatenate(leaf_lower), np.concatenate(leaf_upper)
            )
        else:
            geometry = LeafGeometry.empty(file.dim)

        if governor is not None:
            # Synthesis is free I/O, but a deadline can still pass here.
            governor.check("cutoff:synthesize",
                           file.disk.cost - start_cost)
        per_query = count_accesses(geometry, workload)
        return PredictionResult(
            per_query=per_query,
            io_cost=file.disk.cost - start_cost,
            detail={
                "h_upper": h_upper,
                "sigma_upper": upper.sigma_upper,
                "k_upper_leaves": upper.k,
                "n_predicted_leaves": geometry.k,
                "kernel": get_kernel().name,
            },
        )

    def _resolve_h_upper(self, topology: Topology) -> int:
        return resolve_h_upper(topology, self.h_upper, self.memory)
