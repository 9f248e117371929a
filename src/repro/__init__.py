"""Sampling-based cost prediction for high-dimensional index structures.

A from-scratch reproduction of Lang & Singh, "Modeling High-Dimensional
Index Structures using Sampling" (SIGMOD 2001): predict the number of
index leaf-page accesses a query workload incurs on a bulk-loaded
VAMSplit R*-tree by building a miniature index on a data sample,
compensating for sampling-induced page shrinkage, and counting
query-region/page intersections -- under explicit memory budgets and
with full I/O cost accounting on a simulated disk.

Typical use::

    import numpy as np
    from repro import IndexCostPredictor

    points = np.load("features.npy")            # (n, d) float matrix
    predictor = IndexCostPredictor(dim=points.shape[1], memory=10_000)
    workload = predictor.make_workload(points, n_queries=500, k=21)
    estimate = predictor.predict(points, workload, method="resampled")
    print(estimate.mean_accesses, estimate.io_cost)

See DESIGN.md for the system inventory and EXPERIMENTS.md for the
paper-vs-measured record of every reproduced table and figure.
"""

from .baselines import FractalCostModel, FractalEstimationError, UniformCostModel
from .core import (
    AnalyticalCostModel,
    CutoffModel,
    DynamicMiniIndexModel,
    IndexCostPredictor,
    MiniIndexModel,
    PredictionResult,
    ResampledModel,
    Topology,
    compensation_side_factor,
    compensation_volume_factor,
    page_capacities,
)
from .disk import (
    DiskParameters,
    FaultInjector,
    IOCost,
    PointFile,
    RedundancyPolicy,
    RetryPolicy,
    ScrubReport,
    SimulatedDisk,
)
from .errors import (
    ArtifactCorruptError,
    BudgetExceededError,
    CircuitOpenError,
    DeadlineExceededError,
    DegradedResultWarning,
    DiskError,
    InputValidationError,
    PredictionError,
    ReplicaUnavailableError,
    ReproError,
    ServiceOverloadedError,
    TenantQuotaExceededError,
    TornWriteError,
    TransientReadError,
    UnknownKernelError,
    UnrecoverableCorruptionError,
)
from .cluster import (
    ClusterResponse,
    PredictionCluster,
    Router,
    RoutingTable,
)
from .kernels import LeafGeometry, available_kernels, get_kernel
from .ondisk import MeasurementResult, OnDiskBuilder, OnDiskIndex, measure_knn
from .runtime import (
    Budget,
    CircuitBreaker,
    Governor,
    HedgeOutcome,
    run_hedged,
)
from .rtree import MBR, BulkLoadConfig, KNNResult, RStarTree, RTree
from .service import (
    ArtifactStore,
    FittedModel,
    PredictionService,
    ServiceResponse,
    TenantQuota,
    fit_model,
    load_artifact,
    save_artifact,
)
from .workload import (
    KNNWorkload,
    RangeWorkload,
    density_biased_knn_workload,
    density_biased_range_workload,
    exact_knn_radii,
)

__version__ = "1.0.0"

__all__ = [
    "FractalCostModel",
    "FractalEstimationError",
    "UniformCostModel",
    "AnalyticalCostModel",
    "CutoffModel",
    "DynamicMiniIndexModel",
    "IndexCostPredictor",
    "MiniIndexModel",
    "PredictionResult",
    "ResampledModel",
    "Topology",
    "compensation_side_factor",
    "compensation_volume_factor",
    "page_capacities",
    "DiskParameters",
    "FaultInjector",
    "IOCost",
    "PointFile",
    "RedundancyPolicy",
    "RetryPolicy",
    "ScrubReport",
    "SimulatedDisk",
    "ArtifactCorruptError",
    "BudgetExceededError",
    "CircuitOpenError",
    "DeadlineExceededError",
    "DegradedResultWarning",
    "DiskError",
    "InputValidationError",
    "PredictionError",
    "ReplicaUnavailableError",
    "ReproError",
    "ServiceOverloadedError",
    "TenantQuotaExceededError",
    "TornWriteError",
    "TransientReadError",
    "UnknownKernelError",
    "UnrecoverableCorruptionError",
    "ClusterResponse",
    "PredictionCluster",
    "Router",
    "RoutingTable",
    "LeafGeometry",
    "available_kernels",
    "get_kernel",
    "MeasurementResult",
    "OnDiskBuilder",
    "OnDiskIndex",
    "measure_knn",
    "Budget",
    "CircuitBreaker",
    "Governor",
    "HedgeOutcome",
    "run_hedged",
    "MBR",
    "BulkLoadConfig",
    "KNNResult",
    "RStarTree",
    "RTree",
    "ArtifactStore",
    "FittedModel",
    "PredictionService",
    "ServiceResponse",
    "TenantQuota",
    "fit_model",
    "load_artifact",
    "save_artifact",
    "KNNWorkload",
    "RangeWorkload",
    "density_biased_knn_workload",
    "density_biased_range_workload",
    "exact_knn_radii",
    "__version__",
]
