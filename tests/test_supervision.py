import io
import tracemalloc

import numpy as np
import pytest

from occfield import (
    Box,
    GroundSlab,
    PointCloud,
    QueryBatch,
    SamplingConfig,
    SceneSpec,
    UNLABELED,
    build_query_set,
    rays_from_pointcloud,
    read_query_batch,
    validate_against_oracle,
    write_query_batch,
)
from occfield.errors import EmptyBatchError
from occfield.supervision import DEGENERATE_RAY_EPS, _cloud_queries, _draw, _open_unit, _usable


class _FixedRng:
    """Stands in for a Generator, returning a constant for random()."""

    def __init__(self, value):
        self.value = value

    def random(self, shape=None):
        if shape is None:
            return self.value
        return np.full(shape, self.value)


def _point(p, o, t=0.0, cls=3):
    """A cloud of one point ``p`` seen from ``o``."""
    return PointCloud(np.asarray(p, float)[None], np.asarray(o, float)[None], [t], [cls], [False])


def _queries(point, cfg, rng=None):
    """(negative queries, positive queries, positive classes) of one cloud,
    drawn and generated as build_query_set does for a frame."""
    draws = _draw(point, cfg, np.random.default_rng(cfg.seed) if rng is None else rng)
    return _cloud_queries(point, cfg, _usable(point), *draws)


class TestNegativeQueries:
    def test_midpoint_example(self):
        cfg = SamplingConfig(n_neg_per_point=1, seed=0)
        point = _point([10.0, 0.0, 0.0], [0.0, 0.0, 0.0], t=0.25)
        neg_q = _queries(point, cfg, rng=_FixedRng(0.5))[0]
        np.testing.assert_array_equal(neg_q, [[5.0, 0.0, 0.0, 0.25]])

    def test_open_interval(self):
        cfg = SamplingConfig(n_neg_per_point=500, seed=3)
        point = _point([10.0, 0.0, 0.0], [0.0, 0.0, 0.0])
        xs = _queries(point, cfg)[0][:, 0]
        assert len(xs) == 500
        assert np.all(xs > 0.0) and np.all(xs < 10.0)

    def test_deterministic(self):
        cfg = SamplingConfig(n_neg_per_point=5, seed=11)
        point = _point([3.0, 4.0, 0.0], [0.0, 0.0, 0.0])
        np.testing.assert_array_equal(_queries(point, cfg)[0], _queries(point, cfg)[0])

    def test_degenerate_ray_skipped(self):
        cfg = SamplingConfig(n_neg_per_point=2, seed=0)
        point = _point([1.0, 0.0, 0.0], [1.0, 0.0, 1e-8])
        neg_q, pos_q, _ = _queries(point, cfg)
        assert len(neg_q) == len(pos_q) == 0 and not _usable(point).any()
        # its draws are still made, so later frames see the same stream
        assert _draw(point, cfg, np.random.default_rng(0))[0].shape == (1, 2)

    def test_rendering_rays_skip_the_same_returns(self):
        """A return 1e-7 m from its origin gives neither queries nor a
        rendering ray."""
        cloud = PointCloud(
            np.array([[5.0, 0.0, 0.0], [1e-7, 0.0, 0.0], [0.0, 0.0, -2.0]]),
            np.zeros((3, 3)), [0.0, 0.5, 1.0], [1, 2, 3], [False] * 3,
        )
        np.testing.assert_array_equal(_usable(cloud), [True, False, True])
        rays = rays_from_pointcloud(cloud)
        np.testing.assert_array_equal(rays.target_classes, [1, 3])
        np.testing.assert_array_equal(rays.times, [0.0, 1.0])
        np.testing.assert_array_equal(rays.target_depths, [5.0, 2.0])
        np.testing.assert_array_equal(rays.directions, [[1.0, 0.0, 0.0], [0.0, 0.0, -1.0]])


class TestPositiveQueries:
    def test_buffer_example(self):
        cfg = SamplingConfig(delta=0.4, n_pos_per_point=1, seed=0)
        point = _point([10.0, 0.0, 0.0], [0.0, 0.0, 0.0], t=0.5, cls=7)
        _, pos_q, pos_cls = _queries(point, cfg, rng=_FixedRng(0.5))  # r = 0.2
        assert len(pos_q) == 1
        assert pos_q[0, 0] == pytest.approx(10.2, abs=1e-12)
        assert tuple(pos_q[0, 1:]) == (0.0, 0.0, 0.5)
        assert pos_cls.tolist() == [7]

    def test_behind_surface_within_delta(self):
        cfg = SamplingConfig(delta=0.4, n_pos_per_point=300, seed=5)
        point = _point([6.0, 8.0, 0.0], [0.0, 0.0, 0.0], cls=1)
        q = _queries(point, cfg)[1][:, :3]
        assert len(q) == 300
        p = np.array([6.0, 8.0, 0.0])
        unit = p / 10.0
        r = (q - p) @ unit
        assert np.all(r > 0.0) and np.all(r < 0.4)
        # collinearity
        assert np.max(np.linalg.norm(q - p - r[:, None] * unit, axis=1)) < 1e-9

    def test_unlabeled_point_gives_no_semantic_target(self):
        cfg = SamplingConfig(n_pos_per_point=1, seed=0)
        point = _point([1.0, 0.0, 0.0], [0.0, 0.0, 0.0], cls=UNLABELED)
        assert _queries(point, cfg)[2].tolist() == [UNLABELED]


def _grid_cloud(rng, n, t, cls=2):
    origin = np.array([0.0, 0.0, 2.0])
    positions = rng.uniform(-10, 10, (n, 3))
    positions[:, 2] = 0.0
    return PointCloud(
        positions, np.broadcast_to(origin, (n, 3)).copy(), np.full(n, t),
        np.full(n, cls, np.uint16), np.zeros(n, bool),
    )


class TestBuildQuerySet:
    def test_count_arithmetic(self):
        # n points x f frames x (n_neg + n_pos) before balancing; the spec's
        # production numbers (30k x 7 x 4 ~ 840k) follow the same arithmetic
        rng = np.random.default_rng(0)
        clouds = [_grid_cloud(rng, 100, t) for t in (-1.0, 0.0, 1.0)]
        cfg = SamplingConfig(n_neg_per_point=2, n_pos_per_point=2, seed=0)
        batch = build_query_set(clouds, cfg)
        assert len(batch) == 100 * 3 * 4
        assert np.count_nonzero(batch.occupancy == 1) == np.count_nonzero(batch.occupancy == 0) == 600

    def test_balanced_when_counts_differ(self):
        rng = np.random.default_rng(1)
        clouds = [_grid_cloud(rng, 80, 0.0)]
        cfg = SamplingConfig(n_neg_per_point=3, n_pos_per_point=1, seed=0)
        batch = build_query_set(clouds, cfg)
        assert np.count_nonzero(batch.occupancy == 0) == np.count_nonzero(batch.occupancy == 1) == 80

    def test_backward_only_window_excludes_future(self):
        rng = np.random.default_rng(2)
        clouds = [_grid_cloud(rng, 50, t) for t in (-1.0, 0.0, 1.0)]
        cfg = SamplingConfig(t_min=-1.5, t_max=0.0, seed=0)
        batch = build_query_set(clouds, cfg)
        assert np.all(batch.queries[:, 3] <= 0.0)
        assert len(batch) == 50 * 2 * 4

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(3)
        clouds = [_grid_cloud(rng, 60, 0.0)]
        cfg = SamplingConfig(seed=9)
        a = build_query_set(clouds, cfg)
        b = build_query_set(clouds, cfg)
        np.testing.assert_array_equal(a.queries, b.queries)
        np.testing.assert_array_equal(a.occupancy, b.occupancy)

    def test_empty_error(self):
        with pytest.raises(EmptyBatchError):
            build_query_set([], SamplingConfig(seed=0))
        rng = np.random.default_rng(4)
        clouds = [_grid_cloud(rng, 10, 3.0)]  # outside window
        with pytest.raises(EmptyBatchError):
            build_query_set(clouds, SamplingConfig(t_min=-1.0, t_max=1.0, seed=0))

    def test_rigid_invariance(self):
        # transform-then-generate equals generate-then-transform (same seed)
        rng = np.random.default_rng(5)
        cloud = _grid_cloud(rng, 120, 0.0)
        cfg = SamplingConfig(seed=21)
        Q, _ = np.linalg.qr(rng.standard_normal((3, 3)))
        if np.linalg.det(Q) < 0:
            Q[:, 0] *= -1
        shift = np.array([2.0, -1.0, 0.5])

        def pose(points):
            return points @ Q.T + shift

        moved = PointCloud(
            pose(cloud.positions), pose(cloud.origins), cloud.times,
            cloud.class_ids, cloud.dynamic_flags,
        )
        a = build_query_set([moved], cfg)
        b = build_query_set([cloud], cfg)
        np.testing.assert_allclose(a.queries[:, :3], pose(b.queries[:, :3]), atol=1e-9)
        np.testing.assert_array_equal(a.occupancy, b.occupancy)



def _reference_build(clouds, cfg):
    """The query build before it wrote each query straight into its row:
    per-frame parts, concatenated, balanced by copies, then permuted."""
    rng = np.random.default_rng(cfg.seed)
    parts = []
    for pc in clouds:
        pc = pc.take(np.flatnonzero((pc.times >= cfg.t_min) & (pc.times <= cfg.t_max)))
        if not len(pc):
            continue
        n = len(pc)
        d = pc.positions - pc.origins
        norms = np.linalg.norm(d, axis=1)
        gi = np.flatnonzero(norms >= DEGENERATE_RAY_EPS)
        r_neg = _open_unit(rng, (n, cfg.n_neg_per_point))
        r_pos = _open_unit(rng, (n, cfg.n_pos_per_point)) * cfg.delta
        times = pc.times[gi]

        def timed(pts, k):
            return np.concatenate([pts.reshape(-1, 3), np.repeat(times, k)[:, None]], axis=1)

        neg = pc.origins[gi, None, :] + r_neg[gi, :, None] * d[gi, None, :]
        unit = d[gi] / norms[gi, None]
        pos = pc.positions[gi, None, :] + r_pos[gi, :, None] * unit[:, None, :]
        parts.append((
            timed(neg, cfg.n_neg_per_point),
            timed(pos, cfg.n_pos_per_point),
            np.repeat(pc.class_ids[gi], cfg.n_pos_per_point),
        ))
    neg_q, pos_q, pos_cls = (np.concatenate(col) for col in zip(*parts))
    m = min(len(neg_q), len(pos_q))
    if len(neg_q) > m:
        neg_q = neg_q[np.sort(rng.choice(len(neg_q), size=m, replace=False))]
    if len(pos_q) > m:
        keep = np.sort(rng.choice(len(pos_q), size=m, replace=False))
        pos_q, pos_cls = pos_q[keep], pos_cls[keep]
    perm = rng.permutation(2 * m)
    return QueryBatch(
        np.concatenate([neg_q, pos_q])[perm],
        np.concatenate([np.zeros(m, np.uint8), np.ones(m, np.uint8)])[perm],
        np.concatenate([np.full(m, UNLABELED, np.uint16), pos_cls])[perm],
    )


def _mixed_clouds(extra_degenerate=0):
    """Three frames: one with a degenerate ray and points outside [-1, 1] s,
    one entirely outside it, and one with several classes whose first
    `extra_degenerate` rays are degenerate."""
    rng = np.random.default_rng(8)
    a = _grid_cloud(rng, 400, 0.0)
    times = rng.choice([-2.0, -1.0, 0.0, 1.0, 2.0], 400)
    positions = a.positions.copy()
    positions[17], times[17] = a.origins[17], 0.0
    a = PointCloud(positions, a.origins, times, a.class_ids, a.dynamic_flags)
    b = _grid_cloud(rng, 300, 3.0)
    c = _grid_cloud(rng, 500, 0.5)
    positions = c.positions.copy()
    positions[:extra_degenerate] = c.origins[:extra_degenerate]
    c = PointCloud(positions, c.origins, c.times, rng.integers(0, 5, 500), c.dynamic_flags)
    return [a, b, c]


def _batch_bytes(batch):
    columns = (batch.queries, batch.occupancy, batch.classes)
    return sum(col.nbytes for col in columns)


class TestBuildMatchesReference:
    @pytest.mark.parametrize("counts", [(2, 2), (2, 3), (3, 2), (1, 4)])
    @pytest.mark.parametrize("extra_degenerate", [0, 3])
    def test_columns_bitwise_equal(self, counts, extra_degenerate):
        cfg = SamplingConfig(n_neg_per_point=counts[0], n_pos_per_point=counts[1],
                             t_min=-1.0, t_max=1.0, seed=4)
        clouds = _mixed_clouds(extra_degenerate)
        got, ref = build_query_set(clouds, cfg), _reference_build(clouds, cfg)
        for name in ("queries", "occupancy", "classes"):
            a, b = getattr(got, name), getattr(ref, name)
            assert a.dtype == b.dtype and a.shape == b.shape, name
            assert a.tobytes() == b.tobytes(), name

    def test_balanced_whole_window_build(self):
        rng = np.random.default_rng(9)
        clouds = [_grid_cloud(rng, 700, t) for t in (-1.0, 0.0, 1.0)]
        cfg = SamplingConfig(seed=2)
        got, ref = build_query_set(clouds, cfg), _reference_build(clouds, cfg)
        assert got.queries.tobytes() == ref.queries.tobytes()
        assert got.occupancy.tobytes() == ref.occupancy.tobytes()
        assert got.classes.tobytes() == ref.classes.tobytes()

    def test_peak_memory_below_three_batches(self):
        # the per-frame parts, the stacked columns and the permuted columns
        # were alive together at 4.2 batches; each row written once stays near 2
        rng = np.random.default_rng(10)
        clouds = [_grid_cloud(rng, 10_000, t) for t in (-1.0, -0.5, 0.0, 0.5, 1.0)]
        cfg = SamplingConfig(seed=0)
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            batch = build_query_set(clouds, cfg)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        assert len(batch) == 200_000
        assert peak < 3 * _batch_bytes(batch), peak / _batch_bytes(batch)


class TestOracleValidation:
    def test_clean_convex_scene(self):
        scene = SceneSpec((GroundSlab(-0.4, 0.0, 0), Box((6.0, 0.0, 1.0), (2.0, 2.0, 1.2), 1)), 20.0)
        from occfield import ScanSpec, raycast_scan

        scan = ScanSpec(
            timesteps=(0.0,), origin_start=(0.05, 0.1, 2.5),
            azimuth_count=60, elevation_count=20,
            elevation_min=-1.2, elevation_max=-0.05, max_range=40.0,
        )
        pc = raycast_scan(scene, scan)
        batch = build_query_set([pc], SamplingConfig(delta=0.3, seed=0))
        rep = validate_against_oracle(batch, scene)
        assert rep.negative_purity == 1.0
        assert rep.positive_purity > 0.97
        assert rep.semantic_agreement == 1.0

    def test_overshoot_fraction_on_thin_slab(self):
        # slab of thickness h probed straight down with delta = 10h: expected
        # occupied fraction of positives is h/delta = 0.1 (uniform r)
        h = 0.05
        scene = SceneSpec((GroundSlab(-h, 0.0, 0),), 20.0)
        n = 4000
        rng = np.random.default_rng(0)
        pos = np.column_stack([rng.uniform(-5, 5, n), rng.uniform(-5, 5, n), np.zeros(n)])
        org = pos.copy()
        org[:, 2] = 10.0
        pc = PointCloud(pos, org, np.zeros(n), np.zeros(n, np.uint16), np.zeros(n, bool))
        cfg = SamplingConfig(delta=10 * h, n_neg_per_point=1, n_pos_per_point=1, seed=1)
        rep = validate_against_oracle(build_query_set([pc], cfg), scene)
        p = h / (10 * h)
        sigma = np.sqrt(p * (1 - p) / n)
        assert abs(rep.positive_purity - p) < 4 * sigma
        assert rep.negative_purity == 1.0


class TestBatchIO:
    def test_round_trip(self):
        rng = np.random.default_rng(7)
        n = 64
        occ = rng.integers(0, 2, n).astype(np.uint8)
        cls = np.where(occ == 1, rng.integers(0, 4, n), UNLABELED).astype(np.uint16)
        batch = QueryBatch(rng.integers(-500, 500, (n, 4)) / 32.0, occ, cls)
        buf = io.BytesIO()
        write_query_batch(batch, buf)
        back = read_query_batch(io.BytesIO(buf.getvalue()))
        np.testing.assert_array_equal(back.queries, batch.queries)
        np.testing.assert_array_equal(back.occupancy, batch.occupancy)
        np.testing.assert_array_equal(back.classes, batch.classes)

    def test_write_holds_at_most_two_payloads(self):
        # the record array and the stream's buffer, and no third copy
        n = 200_000
        rng = np.random.default_rng(11)
        occ = (np.arange(n) % 2).astype(np.uint8)
        batch = QueryBatch(rng.uniform(-9, 9, (n, 4)), occ, np.where(occ == 1, 1, UNLABELED))
        buf = io.BytesIO()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            write_query_batch(batch, buf)
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        payload = 19 * n  # query <f4[4], occ u1, class <u2
        assert len(buf.getvalue()) == 4 + 14 + payload
        assert peak < 2.2 * payload, peak / payload

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_query_rejected(self, bad):
        q = np.zeros((3, 4))
        q[1, 3] = bad
        with pytest.raises(ValueError, match="finite"):
            QueryBatch(q, np.zeros(3, np.uint8), np.full(3, UNLABELED, np.uint16))

    def test_negative_with_class_rejected(self):
        with pytest.raises(ValueError):
            QueryBatch(np.zeros((1, 4)), np.array([0], np.uint8), np.array([2], np.uint16))
