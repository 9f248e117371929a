"""The per-query best-first search as the oracle for ``measure_knn``.

``repro.ondisk.measure.measure_knn`` replays the leaf reads of the
optimal k-NN search from blocked passes.  This is the search itself,
run once per query: it charges each visited leaf's pages in visiting
order and drops the head after every query.  The replay must match it
bit for bit -- per-query counts, ``IOCost``, and the read sequence.
"""

from __future__ import annotations

import numpy as np

from repro.ondisk.measure import MeasurementResult


def measure_by_search(index, workload) -> MeasurementResult:
    """Run the workload's k-NN queries on disk, charging leaf reads."""
    disk = index.file.disk
    start_cost = disk.cost
    per_query = np.zeros(workload.n_queries, dtype=np.int64)
    for i, query in enumerate(workload.queries):
        result = index.tree.knn(query, workload.k, collect_leaves=True)
        per_query[i] = result.leaf_accesses
        for leaf in result.accessed_leaves:
            first, count = index.leaf_page_span(leaf)
            disk.read(first, count)
        disk.drop_head()
    return MeasurementResult(per_query=per_query, io_cost=disk.cost - start_cost)
