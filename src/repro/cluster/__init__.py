"""Sharded prediction cluster: similarity partitioning, per-shard
tuning, replica failover, failure-aware routing, anti-entropy repair,
elastic topology (epoch-fenced scale, split, merge, drift re-tune),
and an autonomous hysteresis-governed topology controller."""

from .chaos import (
    ClusterChaosOutcome,
    ClusterChaosScenario,
    assert_cluster_invariant,
    run_cluster_chaos,
)
from .cluster import ClusterPrediction, PredictionCluster
from .controller import TopologyController
from .elasticity import DriftDetector, DriftProposal, TopologyManager
from .partition import WorkloadPartition, partition_workload
from .replicas import Replica, shard_tenant
from .routing import ClusterResponse, Router, RoutingTable
from .tuning import ShardConfig, tune_shard

__all__ = [
    "ClusterChaosOutcome",
    "ClusterChaosScenario",
    "ClusterPrediction",
    "ClusterResponse",
    "DriftDetector",
    "DriftProposal",
    "PredictionCluster",
    "Replica",
    "Router",
    "RoutingTable",
    "ShardConfig",
    "TopologyController",
    "TopologyManager",
    "WorkloadPartition",
    "assert_cluster_invariant",
    "partition_workload",
    "run_cluster_chaos",
    "shard_tenant",
    "tune_shard",
]
