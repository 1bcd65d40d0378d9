"""Euclidean clustering: non-ground points -> object bounding boxes.

A grid-hashed single-linkage clustering (the classic euclidean cluster
extraction used by Autoware's object detector): points are bucketed into
cells of edge ``eps``; clusters grow over the 27-cell neighbourhood.
Clusters with too few points are discarded as noise.

The clusters are the connected components of the graph of occupied
cells, found with numpy set operations: one ``int64`` key per cell, a
``searchsorted`` join over the 13 forward neighbour offsets, and a
union-find over cell ids.  The per-point breadth-first search it
replaced lives on as the test oracle
:func:`repro.bench.reference.bfs_euclidean_clusters`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

import numpy as np

from repro.dds.qos import QosProfile
from repro.dds.topic import Topic
from repro.perception.pointcloud import PointCloud
from repro.ros.node import Node
from repro.sim.threads import Compute
from repro.sim.workload import AffineModel, ExecutionTimeModel


@dataclass(frozen=True)
class BoundingBox:
    """Axis-aligned box around one detected object."""

    x_min: float
    x_max: float
    y_min: float
    y_max: float
    z_min: float
    z_max: float
    point_count: int

    @property
    def center(self) -> Tuple[float, float, float]:
        """Box centroid."""
        return (
            (self.x_min + self.x_max) / 2,
            (self.y_min + self.y_max) / 2,
            (self.z_min + self.z_max) / 2,
        )

    @property
    def footprint_area(self) -> float:
        """Ground-plane area of the box."""
        return (self.x_max - self.x_min) * (self.y_max - self.y_min)


#: The 13 "forward" members of the 26-neighbourhood, grouped as
#: ``(dx, dy) -> dz values``: each unordered pair of adjacent cells is
#: joined once, from its lexicographically smaller cell.
_HALF_OFFSETS = (
    ((0, 0), (1,)),
    ((0, 1), (-1, 0, 1)),
    ((1, -1), (-1, 0, 1)),
    ((1, 0), (-1, 0, 1)),
    ((1, 1), (-1, 0, 1)),
)


def _axis_ranks(values: np.ndarray) -> Tuple[np.ndarray, int]:
    """Compress one axis of cell coordinates, keeping adjacency.

    Consecutive occupied values one cell apart get ranks one apart;
    farther apart, two apart.  So two cells are neighbours iff their
    ranks differ by at most one, whatever the raw magnitudes.  Ranks
    start at 1 and the returned radix leaves one free slot on each side,
    so a neighbour probe at rank +-1 never aliases another key digit.
    """
    uniq, inverse = np.unique(values, return_inverse=True)
    step = np.where(np.diff(uniq) == 1, 1, 2)
    ranks = np.concatenate(([1], 1 + np.cumsum(step)))
    return ranks[inverse], int(ranks[-1]) + 2


def _lookup(sorted_keys: np.ndarray, targets: np.ndarray):
    """Positions of *targets* in *sorted_keys* and a found mask."""
    pos = np.searchsorted(sorted_keys, targets)
    pos[pos == len(sorted_keys)] = 0
    return pos, sorted_keys[pos] == targets


def _components(n_cells: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """Root cell id of every cell's connected component.

    Union-find in rounds: every edge whose ends sit in different trees
    hooks the larger root under the smaller one, then pointer jumping
    flattens every tree to depth one.  Parents only ever decrease, so no
    cycle can form, and each round removes at least one root.
    """
    parent = np.arange(n_cells)
    while True:
        ra, rb = parent[src], parent[dst]
        differ = ra != rb
        if not differ.any():
            return parent
        ra, rb = ra[differ], rb[differ]
        np.minimum.at(parent, np.maximum(ra, rb), np.minimum(ra, rb))
        while True:
            grand = parent[parent]
            if np.array_equal(grand, parent):
                break
            parent = grand


def euclidean_clusters(
    xyz: np.ndarray, eps: float = 0.8, min_points: int = 8
) -> List[np.ndarray]:
    """Cluster points; returns index arrays, one per cluster.

    Two points belong to the same cluster if a chain of points with
    pairwise cell-adjacency (cell edge = eps) connects them -- the usual
    grid approximation of euclidean cluster extraction.  All points of
    one cell are mutually adjacent, so the clusters are the connected
    components of the 26-neighbour graph of *occupied cells*, computed
    here without a per-point loop.

    Order contract: clusters come in ascending order of their smallest
    point index, and each cluster lists its point indices ascending.
    Clusters with fewer than *min_points* points are dropped.
    """
    if len(xyz) == 0:
        return []
    cells = np.floor(xyz / eps).astype(np.int64)
    rx, _ = _axis_ranks(cells[:, 0])
    ry, size_y = _axis_ranks(cells[:, 1])
    rz, size_z = _axis_ranks(cells[:, 2])
    # Two-level keys: a column is an occupied (x, y) pair, a cell an
    # occupied (column, z) pair.  Every radix is at most 2n + 1 for n
    # points, so both keys fit in int64 for any cloud under ~1.5e9
    # points -- raw coordinates never enter a key.
    columns, column_of_point = np.unique(rx * size_y + ry, return_inverse=True)
    keys, first_of_cell, cell_of_point = np.unique(
        column_of_point * size_z + rz, return_index=True, return_inverse=True
    )
    cell_column = keys // size_z
    cell_z = keys - cell_column * size_z
    cell_xy = columns[cell_column]
    src, dst = [], []
    for (dx, dy), dzs in _HALF_OFFSETS:
        column, found = _lookup(columns, cell_xy + (dx * size_y + dy))
        base = np.flatnonzero(found)
        for dz in dzs:
            neighbour, hit = _lookup(
                keys, column[base] * size_z + cell_z[base] + dz
            )
            src.append(base[hit])
            dst.append(neighbour[hit])
    root = _components(len(keys), np.concatenate(src), np.concatenate(dst))
    # Label each point by the smallest point index of its component; a
    # stable sort on that label yields the order contract directly.
    first = np.full(len(keys), len(xyz))
    np.minimum.at(first, root, first_of_cell)
    label = first[root[cell_of_point]]
    order = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[order])) + 1
    return [g for g in np.split(order, bounds) if len(g) >= min_points]


def boxes_from_clusters(
    xyz: np.ndarray, clusters: List[np.ndarray]
) -> List[BoundingBox]:
    """Axis-aligned bounding boxes of the clustered points."""
    boxes = []
    for members in clusters:
        pts = xyz[members]
        boxes.append(
            BoundingBox(
                x_min=float(pts[:, 0].min()),
                x_max=float(pts[:, 0].max()),
                y_min=float(pts[:, 1].min()),
                y_max=float(pts[:, 1].max()),
                z_min=float(pts[:, 2].min()),
                z_max=float(pts[:, 2].max()),
                point_count=len(members),
            )
        )
    return boxes


@dataclass
class DetectedObjects:
    """Output message of the object-detection service."""

    frame_index: int
    stamp: int
    boxes: List[BoundingBox]

    @property
    def nbytes(self) -> int:
        """Approximate serialized size."""
        return 64 + 56 * len(self.boxes)


class EuclideanClusterDetector:
    """The object-detection service on ECU2.

    Subscribes to non-ground points, publishes detected objects.
    """

    def __init__(
        self,
        node: Node,
        topic_in: Topic,
        topic_out: Topic,
        qos: Optional[QosProfile] = None,
        cluster_model: Optional[ExecutionTimeModel] = None,
        eps: float = 0.8,
        min_points: int = 8,
    ):
        self.node = node
        self.cluster_model = cluster_model or AffineModel(
            base_ns=1_500_000, per_item_ns=900, noise=0.25
        )
        self.eps = eps
        self.min_points = min_points
        self.publisher = node.create_publisher(topic_out, qos=qos)
        self.detected_count = 0
        self.subscription = node.create_subscription(topic_in, self._on_cloud, qos=qos)

    def _on_cloud(self, sample):
        cloud: PointCloud = sample.data
        work = self.cluster_model.sample(
            self.node.ecu.sim.rng("detector"), size=len(cloud)
        )
        yield Compute(work)
        clusters = euclidean_clusters(cloud.xyz, eps=self.eps, min_points=self.min_points)
        boxes = boxes_from_clusters(cloud.xyz, clusters)
        self.publisher.publish(
            DetectedObjects(
                frame_index=cloud.frame_index, stamp=cloud.stamp, boxes=boxes
            )
        )
        self.detected_count += 1
