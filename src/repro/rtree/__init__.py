"""R-tree substrate: geometry, bulk loading, and search."""

from .bulkload import BulkLoadConfig, PageLayout, build_subtree, build_tree
from .geometry import MBR
from .io import load_tree, load_workload, save_tree, save_workload
from .kdb import KDBTree
from .node import InternalNode, LeafNode, Node
from .rstar import FrozenRStarTree, RStarTree
from .split import max_extent_dimension, max_variance_dimension
from .stats import (
    LeafStatistics,
    leaf_statistics,
    leaf_statistics_from_geometry,
    pairwise_overlap_count,
)
from .search import best_first_knn
from .sstree import Sphere, SSTree, sphere_radius_compensation
from .tree import KNNResult, RTree, TreeQueries

__all__ = [
    "BulkLoadConfig",
    "PageLayout",
    "build_subtree",
    "build_tree",
    "MBR",
    "load_tree",
    "load_workload",
    "save_tree",
    "save_workload",
    "KDBTree",
    "InternalNode",
    "LeafNode",
    "Node",
    "LeafStatistics",
    "leaf_statistics",
    "leaf_statistics_from_geometry",
    "pairwise_overlap_count",
    "max_extent_dimension",
    "max_variance_dimension",
    "FrozenRStarTree",
    "RStarTree",
    "best_first_knn",
    "Sphere",
    "SSTree",
    "sphere_radius_compensation",
    "KNNResult",
    "RTree",
    "TreeQueries",
]
