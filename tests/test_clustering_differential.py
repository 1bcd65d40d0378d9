"""Cell-graph euclidean clustering against the per-point BFS oracle.

``repro.perception.clustering.euclidean_clusters`` must return the same
clusters as :func:`repro.bench.reference.bfs_euclidean_clusters`: the
same count, the same order (ascending smallest member), the same member
sets and the same bounding boxes.  Members are additionally ascending
point indices, which the oracle does not promise.
"""

import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.perception.clustering as clustering
from repro.bench.reference import bfs_euclidean_clusters
from repro.perception import PerceptionStack, StackConfig
from repro.perception.clustering import boxes_from_clusters, euclidean_clusters


def assert_matches_oracle(xyz, eps, min_points):
    fast = euclidean_clusters(xyz, eps=eps, min_points=min_points)
    oracle = bfs_euclidean_clusters(xyz, eps=eps, min_points=min_points)
    assert len(fast) == len(oracle)
    for got, want in zip(fast, oracle):
        # Equal member sets, listed ascending, in the oracle's order.
        assert got.tolist() == sorted(want.tolist())
    assert boxes_from_clusters(xyz, fast) == boxes_from_clusters(xyz, oracle)
    return fast


@st.composite
def clouds(draw):
    eps = draw(st.floats(0.3, 2.0))
    min_points = draw(st.integers(1, 10))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    n = draw(st.integers(1, 80))
    kind = draw(st.sampled_from(["scatter", "on_grid", "one_cell"]))
    if kind == "scatter":
        scale = draw(st.sampled_from([2.0, 8.0, 20.0]))
        coord = st.floats(-scale, scale, allow_nan=False)
        points = draw(st.lists(st.tuples(coord, coord, coord),
                               min_size=n, max_size=n))
        xyz = np.array(points)
    elif kind == "on_grid":
        # Points exactly on multiples of eps: every coordinate sits on
        # a cell boundary.
        k = st.integers(-6, 6)
        points = draw(st.lists(st.tuples(k, k, k), min_size=n, max_size=n))
        xyz = np.array(points, dtype=np.float64) * eps
    else:
        cell = np.array(draw(st.tuples(*[st.integers(-50, 50)] * 3)))
        frac = st.floats(0.05, 0.95)
        offsets = draw(st.lists(st.tuples(frac, frac, frac),
                                min_size=n, max_size=n))
        xyz = (cell + np.array(offsets)) * eps
    duplicates = draw(st.lists(st.integers(0, n - 1), max_size=10))
    xyz = np.vstack([xyz, xyz[duplicates]]).astype(dtype)
    return xyz, eps, min_points


class TestAgainstOracle:
    @settings(max_examples=150, deadline=None)
    @given(cloud=clouds())
    def test_same_clusters_order_members_and_boxes(self, cloud):
        xyz, eps, min_points = cloud
        assert_matches_oracle(xyz, eps, min_points)

    def test_single_point(self):
        xyz = np.array([[-3.2, 0.0, 7.9]])
        assert [c.tolist() for c in assert_matches_oracle(xyz, 0.8, 1)] == [[0]]
        assert assert_matches_oracle(xyz, 0.8, 2) == []

    def test_all_points_in_one_cell(self):
        rng = np.random.default_rng(4)
        xyz = (np.array([-3.0, 5.0, 0.0]) + rng.uniform(0.1, 0.9, (40, 3)))
        clusters = assert_matches_oracle(xyz, 1.0, 8)
        assert [c.tolist() for c in clusters] == [list(range(40))]

    @pytest.mark.parametrize("broken", [False, True])
    def test_serpentine_chain(self, broken):
        """A boustrophedon of cells: rows run along y, so every other
        row is walked against the (x-major) key order, and rows meet
        only through one connector cell at alternating ends."""
        eps, rows, length = 1.0, 12, 40
        cells = []
        for row in range(rows):
            ys = range(length) if row % 2 == 0 else reversed(range(length))
            cells.extend((2 * row, y, 0) for y in ys)
            if row < rows - 1:
                cells.append((2 * row + 1, length - 1 if row % 2 == 0 else 0, 0))
        if broken:
            del cells[len(cells) // 2]
        # Shuffle so point order follows neither the path nor the keys.
        order = np.random.default_rng(5).permutation(len(cells))
        xyz = (np.array(cells, dtype=np.float64)[order] + 0.5) * eps
        clusters = assert_matches_oracle(xyz, eps, 1)
        assert len(clusters) == (2 if broken else 1)
        assert sum(len(c) for c in clusters) == len(cells)

        def best_of_3(fn):
            times = []
            for _ in range(3):
                t0 = time.perf_counter()
                fn(xyz, eps=eps, min_points=1)
                times.append(time.perf_counter() - t0)
            return min(times)

        assert best_of_3(euclidean_clusters) <= best_of_3(bfs_euclidean_clusters)

    def test_far_coordinates_do_not_alias(self):
        """Cell indices near +-1e10: a key packing raw cell indices into
        one int64 (21 bits per axis, say) wraps and can merge far
        cells.  Rank-compressed keys must keep every group apart."""
        eps = 1e-4
        step = np.arange(5)[:, None] * np.array([0.6 * eps, 0.0, 0.0])
        corners = np.array([
            [1e6, 1e6, 1e6],
            # Same 21-bit packed key as the first group: z carries 2**21
            # cells into y, and y is one cell lower.
            [1e6, 1e6 - eps, 1e6 + 2 ** 21 * eps],
            # x shifted by 2**22 cells: a 42-bit x shift wraps to 0.
            [1e6 + 2 ** 22 * eps, 1e6, 1e6],
            [-1e6, 1e6, -1e6],
            [1e6, -1e6, 1e6],
            [-1e6, -1e6, -1e6 + 3 * eps],
        ])
        xyz = np.vstack([corner + step for corner in corners])
        clusters = assert_matches_oracle(xyz, eps, 1)
        assert [c.tolist() for c in clusters] == [
            list(range(5 * g, 5 * g + 5)) for g in range(len(corners))
        ]


@pytest.mark.slow
class TestStackDetections:
    def test_every_detection_equals_the_oracle_boxes(self, monkeypatch):
        """Seed-1 stack, 12 frames: each published DetectedObjects
        carries exactly the boxes the BFS oracle gives for its cloud."""
        clouds_seen = []
        real = clustering.euclidean_clusters

        def recording(xyz, eps, min_points):
            clouds_seen.append((xyz.copy(), eps, min_points))
            return real(xyz, eps=eps, min_points=min_points)

        # The detector reaches the function through the module global.
        monkeypatch.setattr(clustering, "euclidean_clusters", recording)
        stack = PerceptionStack(StackConfig(seed=1))
        published = []
        publish = stack.detector.publisher.publish
        stack.detector.publisher.publish = lambda msg: (
            published.append(msg), publish(msg)
        )[1]
        stack.run(n_frames=12)
        assert len(published) == len(clouds_seen) >= 12
        assert any(msg.boxes for msg in published)
        for msg, (xyz, eps, min_points) in zip(published, clouds_seen):
            oracle = bfs_euclidean_clusters(xyz, eps=eps, min_points=min_points)
            assert msg.boxes == boxes_from_clusters(xyz, oracle)
