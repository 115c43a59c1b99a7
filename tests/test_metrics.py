import io

import numpy as np
import pytest

from occfield import ContractionParams, FourierConfig, init_field_model, iou, predict_volume, ray_iou
from occfield import metrics
from occfield.config import MetricsConfig
from occfield.geometry import ray_box
from occfield.metrics import RayIoUConfig, first_hits
from occfield.pointcloud import ClassTable
from occfield.scene import FREE, VoxelVolume
from slab_oracle import exact_hits

# Dyadic grid values: face planes, cell indices and the floor() that assigns
# points to half-open cells are all exact in floating point.
MINS = np.array([-1.0, 0.5, -0.75])
CELL = 0.5
DIMS = (6, 5, 4)


def _random_volume(rng, p=0.2, n_classes=3):
    labels = np.where(rng.random(DIMS) < p, rng.integers(0, n_classes, DIMS), FREE)
    return VoxelVolume(labels.astype(np.int32), MINS, CELL)


def _unit(v):
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def _assert_agree(vol, origins, dirs):
    """first_hits against the exact oracle: same hits, depth within 1e-9, and
    a class among those whose cells the oracle enters at that depth."""
    hit, cls, depth = first_hits(vol, origins, dirs)
    o_hit, o_cls, o_depth = exact_hits(vol, origins, dirs)
    np.testing.assert_array_equal(hit, o_hit)
    np.testing.assert_allclose(depth[hit], o_depth[hit], rtol=0, atol=1e-9)
    assert np.all(cls[~hit] == FREE) and np.all(o_cls[~o_hit] == FREE)
    tied = np.zeros(hit.sum(), dtype=bool)
    for c in np.unique(vol.labels[vol.labels != FREE]):
        only_c = VoxelVolume(np.where(vol.labels == c, c, FREE), vol.mins, vol.cell_size)
        _, _, c_depth = exact_hits(only_c, origins[hit], dirs[hit])
        tied |= (cls[hit] == c) & (c_depth <= o_depth[hit] + 1e-9)
    assert tied.all(), np.flatnonzero(hit)[~tied]
    return hit


def _exact_pair(gt, o, d, pred):
    """What ``ray_iou`` asks ``first_hits`` for, from the slab oracle: patched
    over ``metrics.first_hits``, it makes ``ray_iou`` brute-force."""
    return (*exact_hits(gt, o, d), *exact_hits(pred, o, d))


class TestFirstHitsAgainstExactOracle:
    @pytest.mark.parametrize("seed", range(4))
    def test_rays_from_outside(self, seed):
        rng = np.random.default_rng(seed)
        vol = _random_volume(rng)
        center = (vol.mins + vol.maxs) / 2
        origins = center + 6.0 * _unit(rng.normal(size=(400, 3)))
        targets = vol.mins + rng.random((400, 3)) * (vol.maxs - vol.mins)
        hit = _assert_agree(vol, origins, _unit(targets - origins))
        assert 0 < hit.sum() < len(hit)

    @pytest.mark.parametrize("seed", range(4))
    def test_rays_starting_inside(self, seed):
        rng = np.random.default_rng(100 + seed)
        vol = _random_volume(rng)
        origins = vol.mins + rng.random((400, 3)) * (vol.maxs - vol.mins)
        dirs = _unit(rng.normal(size=(400, 3)))
        assert _assert_agree(vol, origins, dirs).any()
        # a ray that starts in an occupied cell hits it at depth 0
        idx = np.floor((origins - vol.mins) / vol.cell_size).astype(int)
        _, _, depth = first_hits(vol, origins, dirs)
        assert np.all(depth[vol.occupancy[tuple(idx.T)]] == 0.0)

    @pytest.mark.parametrize("seed", range(4))
    def test_axis_parallel_rays_on_and_off_face_planes(self, seed):
        rng = np.random.default_rng(200 + seed)
        vol = _random_volume(rng, p=0.3)
        n = 600
        axis = rng.integers(0, 3, n)
        sign = rng.choice([-1.0, 1.0], n)
        dirs = np.zeros((n, 3))
        dirs[np.arange(n), axis] = sign
        # start outside the grid along the ray's axis, anywhere across it
        origins = vol.mins - 1.0 + rng.random((n, 3)) * (vol.maxs - vol.mins + 2.0)
        origins[np.arange(n), axis] = np.where(sign > 0, vol.mins[axis] - 0.3, vol.maxs[axis] + 0.3)
        # snap the other coordinates of most rays onto face planes, the
        # grid's outer faces included, so many rays run along a face or an edge
        planes = vol.mins + rng.integers(0, np.array(vol.dims) + 1, (n, 3)) * vol.cell_size
        snap = (rng.random((n, 3)) < 0.6) & (np.arange(3) != axis[:, None])
        origins = np.where(snap, planes, origins)
        hit = _assert_agree(vol, origins, dirs)
        assert hit.any()

    def test_face_plane_ray_belongs_to_cells_above(self):
        labels = np.full((3, 2, 1), FREE, dtype=np.int32)
        labels[1, 0, 0] = 1  # below the plane y = 1
        labels[2, 1, 0] = 2  # above it
        vol = VoxelVolume(labels, (0.0, 0.0, 0.0), 1.0)
        o = np.array([[-1.0, 1.0, 0.5], [-1.0, 2.0, 0.5], [-1.0, 0.0, 0.5]])
        d = np.tile([1.0, 0.0, 0.0], (3, 1))
        for fn in (first_hits, exact_hits):
            hit, cls, depth = fn(vol, o, d)
            # y = 2 is the grid's upper face: outside every half-open cell
            np.testing.assert_array_equal(hit, [True, False, True])
            np.testing.assert_array_equal(cls[hit], [2, 1])
            np.testing.assert_array_equal(depth[hit], [3.0, 2.0])

    @pytest.mark.parametrize("seed", range(4))
    def test_entry_through_cell_edges_and_corners(self, seed):
        """Rays that enter an occupied cell exactly through one of its
        corners or edges.  The other cells at that corner or edge meet such a
        ray in one point only; whether a traversal steps through one of them
        is an axis tie-break that rounding decides, so they are left free."""
        rng = np.random.default_rng(300 + seed)
        for _ in range(40):
            vol = _random_volume(rng, p=0.15)
            cell = rng.integers(1, np.array(DIMS) - 1)
            corner = rng.integers(0, 2, 3)  # which corner of the cell
            point = vol.mins + (cell + corner) * CELL
            into = np.where(corner == 1, -1, 1)  # from that corner into the cell
            edge_axis = rng.integers(-1, 3)  # -1: through the corner itself
            if edge_axis >= 0:
                # slide along the edge parallel to this axis, off its ends
                point[edge_axis] += into[edge_axis] * CELL * rng.uniform(0.1, 0.9)
            shared = np.arange(3) != edge_axis
            for off in np.ndindex(2, 2, 2):
                off = np.array(off) * shared
                vol.labels[tuple(cell - off * into)] = FREE
            vol.labels[tuple(cell)] = rng.integers(0, 3)
            d = _unit(into * rng.uniform(0.2, 1.0, 3))
            o = point - rng.uniform(0.5, 4.0) * d
            assert _assert_agree(vol, o[None], d[None])[0]

    @staticmethod
    def _one_cell(cell, label=3):
        """A 2 x 2 x 1 grid of 1 m cells with only ``cell`` occupied."""
        labels = np.full((2, 2, 1), FREE, dtype=np.int32)
        labels[cell] = label
        return VoxelVolume(labels, (0.0, 0.0, 0.0), 1.0)

    @staticmethod
    def _assert_misses(vol, rays):
        for fn in (first_hits, exact_hits):
            hit, cls, depth = fn(vol, *rays)
            assert not hit[0] and cls[0] == FREE and depth[0] == np.inf

    # The ray crosses the corner (1, 1) diagonally, so cells (0, 1) and (1, 0)
    # meet it only there.  The traversal steps along x first at the corner:
    # it never enters (0, 1), and it leaves (1, 0) at the depth it entered.
    _CORNER = (np.array([[0.5, 0.5, 0.5]]), _unit(np.array([[1.0, 1.0, 0.0]])))

    def test_ray_through_a_corner_touching_only_the_occupied_cell(self):
        self._assert_misses(self._one_cell((0, 1, 0)), self._CORNER)

    def test_ray_through_a_corner_walks_through_a_cell_it_only_touches(self):
        self._assert_misses(self._one_cell((1, 0, 0)), self._CORNER)

    # A ray entering the grid at x = 0 along the face plane y = 1, leaving it
    # by 1e-16 per metre: it runs through the cells below the plane, but its
    # entry point rounds onto the plane and so into the cell above it.
    _NEAR_PLANE = (np.array([[-0.5, 1.0, 0.5]]), np.array([[1.0, -1e-16, 0.0]]))

    def test_ray_just_below_a_face_plane_misses_the_cell_above(self):
        self._assert_misses(self._one_cell((0, 1, 0)), self._NEAR_PLANE)

    def test_ray_just_below_a_face_plane_hits_at_its_entry(self):
        vol = self._one_cell((0, 0, 0))
        for fn in (first_hits, exact_hits):
            hit, cls, depth = fn(vol, *self._NEAR_PLANE)
            assert hit[0] and cls[0] == 3
            assert depth[0] == 0.5 and not np.signbit(depth[0])

    def test_corner_clip_shorter_than_a_tenth_of_a_cell(self):
        labels = np.full((3, 3, 1), FREE, dtype=np.int32)
        labels[1, 1, 0] = 2
        vol = VoxelVolume(labels, (0.0, 0.0, 0.0), 1.0)
        # x + y = 2.02 cuts a 0.028 m chord off the corner (1, 1) of cell (1, 1)
        o = np.array([[-1.0, 3.02, 0.5]])
        d = _unit(np.array([[1.0, -1.0, 0.0]]))
        for fn in (first_hits, exact_hits):
            hit, cls, depth = fn(vol, o, d)
            assert hit[0] and cls[0] == 2
            assert depth[0] == pytest.approx(2.0 * np.sqrt(2.0), abs=1e-12)

    def test_empty_volume_and_misses(self):
        vol = VoxelVolume(np.full(DIMS, FREE, dtype=np.int32), MINS, CELL)
        o = np.array([[0.0, 0.0, 0.0], [50.0, 50.0, 50.0]])
        d = _unit(np.array([[1.0, 1.0, 1.0], [1.0, 0.0, 0.0]]))
        for fn in (first_hits, exact_hits):
            hit, cls, depth = fn(vol, o, d)
            assert not hit.any() and np.all(cls == FREE) and np.all(np.isinf(depth))


def _walk_one_ray(vol, o, d):
    """Reference traversal of one ray through one volume in scalar steps, with
    the arithmetic of :func:`first_hits`: the same boundary times clamped at
    the entry, the same additions to them, the same lowest-axis tie-break and
    no hit in a cell left at the depth it was entered."""
    inside = (o >= vol.mins) & (o < vol.maxs)
    t_in, t_out = ray_box(o[None], d[None], vol.mins, vol.maxs, inside[None])
    t, t_out = max(t_in[0], 0.0), t_out[0]
    if not t <= t_out:
        return False, FREE, np.inf
    dims = vol.dims
    cur = [min(max(int(np.floor((o[a] + t * d[a] - vol.mins[a]) / vol.cell_size)), 0), dims[a] - 1)
           for a in range(3)]
    step = [int(np.sign(d[a])) for a in range(3)]
    tmax, tdelta = [], []
    for a in range(3):
        if d[a] == 0:
            tmax.append(np.inf)
            tdelta.append(np.inf)
        else:
            boundary = vol.mins[a] + (cur[a] + (step[a] > 0)) * vol.cell_size
            tmax.append(max(t, (boundary - o[a]) / d[a]))
            tdelta.append(vol.cell_size / abs(d[a]))
    while True:
        axis = min(range(3), key=lambda a: tmax[a])  # the first of equal times
        label = vol.labels[tuple(cur)]
        if label != FREE and tmax[axis] > t:
            return True, label, t
        if tmax[axis] > t_out:
            return False, FREE, np.inf
        cur[axis] += step[axis]
        t = tmax[axis]
        tmax[axis] += tdelta[axis]
        if not 0 <= cur[axis] < dims[axis]:
            return False, FREE, np.inf


def _ray_mix(rng, vol, n=150):
    """Rays from outside toward the grid, rays starting inside it, and
    axis-parallel rays, most of them running along face planes."""
    center = (vol.mins + vol.maxs) / 2
    o_out = center + 6.0 * _unit(rng.normal(size=(n, 3)))
    targets = vol.mins + rng.random((n, 3)) * (vol.maxs - vol.mins)
    o_in = vol.mins + rng.random((n, 3)) * (vol.maxs - vol.mins)
    axis = rng.integers(0, 3, n)
    d_par = np.zeros((n, 3))
    d_par[np.arange(n), axis] = rng.choice([-1.0, 1.0], n)
    planes = vol.mins + rng.integers(0, np.array(vol.dims) + 1, (n, 3)) * vol.cell_size
    o_par = np.where(rng.random((n, 3)) < 0.6, planes, o_in[rng.permutation(n)])
    o_par[np.arange(n), axis] -= 4.0 * d_par[np.arange(n), axis]
    origins = np.concatenate([o_out, o_in, o_par])
    dirs = np.concatenate([_unit(targets - o_out), _unit(rng.normal(size=(n, 3))), d_par])
    return origins, dirs


def _assert_bitwise(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and g.tobytes() == w.tobytes()


class TestJointTraversal:
    @pytest.mark.parametrize("seed", range(3))
    def test_one_walk_equals_separate_walks(self, seed):
        rng = np.random.default_rng(400 + seed)
        a, b = _random_volume(rng, p=0.1), _random_volume(rng, p=0.3)
        empty = VoxelVolume(np.full(DIMS, FREE, dtype=np.int32), MINS, CELL)
        same_as_a = VoxelVolume(a.labels.copy(), MINS, CELL)
        o, d = _ray_mix(rng, a)
        for vols in ((a, b, empty), (a, same_as_a), (empty, b), (b, a, same_as_a, empty)):
            joint = first_hits(vols[0], o, d, *vols[1:])
            _assert_bitwise(joint, [x for v in vols for x in first_hits(v, o, d)])
        hits = first_hits(a, o, d, b, empty)
        assert hits[0].any() and not hits[0].all() and hits[3].sum() > hits[0].sum()
        assert not hits[6].any() and np.all(np.isinf(hits[8]))

    def test_walk_matches_scalar_reference_bitwise(self):
        rng = np.random.default_rng(7)
        vol = _random_volume(rng, p=0.15)
        o, d = _ray_mix(rng, vol, n=100)
        hit, cls, depth = first_hits(vol, o, d)
        ref = [_walk_one_ray(vol, oi, di) for oi, di in zip(o, d)]
        np.testing.assert_array_equal(hit, [r[0] for r in ref])
        np.testing.assert_array_equal(cls, [r[1] for r in ref])
        assert depth.tobytes() == np.array([r[2] for r in ref], dtype=np.float64).tobytes()
        assert 0 < hit.sum() < len(hit)

    def test_volumes_on_other_grids_are_rejected(self):
        vol = _random_volume(np.random.default_rng(9))
        o, d = np.zeros((1, 3)), np.array([[1.0, 0.0, 0.0]])
        others = (
            VoxelVolume(vol.labels, MINS + 0.25, CELL),
            VoxelVolume(vol.labels, MINS, CELL / 2),
            VoxelVolume(vol.labels[:-1], MINS, CELL),
        )
        for other in others:
            with pytest.raises(ValueError, match="different grids"):
                first_hits(vol, o, d, other)
            with pytest.raises(ValueError, match="different grids"):
                first_hits(vol, o, d, vol, other)

    def test_ray_iou_walks_the_rays_once(self, monkeypatch):
        rng = np.random.default_rng(10)
        gt, pred = _random_volume(rng), _random_volume(rng)
        o, d = _ray_mix(rng, gt, n=30)
        cfg = RayIoUConfig(o, d)
        calls = []

        def counting(vol, origins, dirs, *others):
            calls.append((vol, *others))
            return first_hits(vol, origins, dirs, *others)

        monkeypatch.setattr(metrics, "first_hits", counting)
        rep = ray_iou(pred, gt, cfg)
        assert len(calls) == 1 and calls[0][0] is gt and calls[0][1] is pred
        monkeypatch.setattr(metrics, "first_hits", _exact_pair)
        np.testing.assert_array_equal(rep.ray_counts, ray_iou(pred, gt, cfg).ray_counts)


class TestRayIoUConfig:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("field", ["origins", "directions"])
    def test_non_finite_rays_are_rejected(self, field, bad):
        rays = {"origins": np.zeros((3, 3)), "directions": np.tile([0.0, 0.0, 1.0], (3, 1))}
        rays[field][1, 0] = bad
        with pytest.raises(ValueError, match="finite"):
            RayIoUConfig(**rays)

    def test_no_rays_is_allowed(self):
        cfg = RayIoUConfig(np.zeros((0, 3)), np.zeros((0, 3)))
        assert cfg.origins.shape == (0, 3)

    @pytest.mark.parametrize("taus", [(np.nan,), (1.0, np.inf), (np.nan, 2.0)])
    def test_non_finite_tolerances_are_rejected(self, taus):
        # a NaN tolerance matches no ray, so every RayIoU would read 0
        rays = {"origins": np.zeros((1, 3)), "directions": [[0.0, 0.0, 1.0]]}
        with pytest.raises(ValueError, match="tolerances must be finite"):
            RayIoUConfig(**rays, depth_tolerances=taus)
        with pytest.raises(ValueError, match="tolerances must be finite"):
            MetricsConfig(tolerances=taus)


class TestScores:
    def test_brute_force_matches_ray_iou(self, monkeypatch):
        rng = np.random.default_rng(11)
        gt = _random_volume(rng)
        pred = VoxelVolume(np.where(rng.random(DIMS) < 0.1, FREE, gt.labels), MINS, CELL)
        center = (gt.mins + gt.maxs) / 2
        origins = center + 5.0 * _unit(rng.normal(size=(300, 3)))
        cfg = RayIoUConfig(origins, _unit(center + rng.normal(size=(300, 3)) - origins), (0.25, 1.0))
        a = ray_iou(pred, gt, cfg)
        monkeypatch.setattr(metrics, "first_hits", _exact_pair)
        b = ray_iou(pred, gt, cfg)
        np.testing.assert_array_equal(a.ray_counts, b.ray_counts)
        np.testing.assert_array_equal(a.occ_ray_counts, b.occ_ray_counts)
        assert a.mean_rayiou == b.mean_rayiou and a.occupancy_rayiou == b.occupancy_rayiou

    def test_depth_tolerances(self):
        gt = np.full((8, 1, 1), FREE, dtype=np.int32)
        pred = gt.copy()
        gt[2] = 0
        pred[3] = 0  # the prediction's surface is 1.5 m further along the ray
        gt_v = VoxelVolume(gt, (0.0, 0.0, 0.0), 1.5)
        pred_v = VoxelVolume(pred, (0.0, 0.0, 0.0), 1.5)
        cfg = RayIoUConfig([[-1.0, 0.75, 0.75]], [[1.0, 0.0, 0.0]], (1.0, 2.0, 4.0))
        rep = ray_iou(pred_v, gt_v, cfg)
        # TP/(TP+FP+FN) is 0/2 at 1 m and 1/1 at 2 m and 4 m
        np.testing.assert_array_equal(rep.ray_counts[0, :, 0], [0, 1, 1])
        assert rep.mean_rayiou == pytest.approx(2.0 / 3.0)
        assert rep.occupancy_rayiou == pytest.approx(2.0 / 3.0)

    def test_iou_per_class(self):
        gt = np.array([[[0, 0, 1, FREE]]], dtype=np.int32)
        pred = np.array([[[0, 1, 1, 1]]], dtype=np.int32)
        rep = iou(VoxelVolume(pred, np.zeros(3), 1.0), VoxelVolume(gt, np.zeros(3), 1.0))
        np.testing.assert_allclose(rep.iou_per_class, [0.5, 1.0 / 3.0])
        assert rep.occupancy_iou == 0.75

    def test_grids_must_match(self):
        a = VoxelVolume(np.full((2, 2, 2), FREE, dtype=np.int32), np.zeros(3), 0.4)
        b = VoxelVolume(a.labels, np.zeros(3), np.float32(0.4))
        with pytest.raises(ValueError, match="grids differ"):
            iou(a, b)


class TestPredictVolume:
    @staticmethod
    def _model():
        model = init_field_model(
            ContractionParams(10.0, 0.8), n_classes=4, grid_size=8, grid_channels=4,
            fourier=FourierConfig(3, 1.0, 10.0), hidden_width=12, hidden_layers=2, seed=1,
        )
        rng = np.random.default_rng(3)
        for w, _ in model.layers:
            w += rng.standard_normal(w.shape)
        model.grid.data += rng.standard_normal(model.grid.data.shape)
        return model

    def test_chunk_size_does_not_change_labels(self, monkeypatch):
        model = self._model()
        maxs = MINS + CELL * np.array(DIMS)
        default = predict_volume(model, MINS, maxs, CELL, time=0.25)
        assert len(np.unique(default.labels)) > 2  # free and several classes
        for chunk in (7, default.labels.size):
            monkeypatch.setattr(metrics, "_CHUNK", chunk)
            other = predict_volume(model, MINS, maxs, CELL, time=0.25)
            np.testing.assert_array_equal(other.labels, default.labels)

    def test_extents_must_be_whole_cells(self):
        model = self._model()
        for maxs in (MINS + [3.0, 2.5, 2.2], MINS):
            with pytest.raises(ValueError, match="whole number of cells"):
                predict_volume(model, MINS, maxs, CELL)


# The scoring of the parent commit, kept as the reference for the one count
# table: its per-class voxel loop and its class x tolerance ray loop.
def _reference_iou(pred, gt, classes=None):
    n_classes = int(max(pred.labels.max(initial=FREE), gt.labels.max(initial=FREE)) + 1)
    if classes is not None:
        n_classes = max(n_classes, classes.n_classes)
    per_class = np.zeros(max(n_classes, 1))
    defined = np.zeros(max(n_classes, 1), dtype=bool)
    for c in range(n_classes):
        inter = int(np.sum((pred.labels == c) & (gt.labels == c)))
        union = int(np.sum((pred.labels == c) | (gt.labels == c)))
        if union > 0:
            per_class[c] = inter / union
            defined[c] = True
    p_occ, g_occ = pred.occupancy, gt.occupancy
    occ_union = int(np.sum(p_occ | g_occ))
    occ_iou = float(np.sum(p_occ & g_occ) / occ_union) if occ_union else 1.0
    mean = float(per_class[defined].mean()) if defined.any() else 1.0
    dyn = None
    if classes is not None:
        dmask = classes.dynamic_mask[: len(defined)] & defined[: classes.n_classes]
        dyn = float(per_class[: classes.n_classes][dmask].mean()) if dmask.any() else None
    return dict(
        n_classes=n_classes, iou_per_class=per_class, iou_defined=defined, mean_iou=mean,
        dynamic_mean_iou=dyn, occupancy_iou=occ_iou,
    )


def _reference_count_and_score(gt_hit, gt_cls, gt_depth, pr_hit, pr_cls, pr_depth, cfg, n_classes, classes):
    taus = cfg.depth_tolerances
    counts = np.zeros((n_classes, len(taus), 3), dtype=np.int64)
    occ_counts = np.zeros((len(taus), 3), dtype=np.int64)
    both = gt_hit & pr_hit
    close = np.full(len(gt_hit), np.inf)
    close[both] = np.abs(pr_depth[both] - gt_depth[both])
    for ti, tau in enumerate(taus):
        matched = both & (close <= tau)
        occ_counts[ti] = (
            int(matched.sum()), int((pr_hit & ~matched).sum()), int((gt_hit & ~matched).sum()),
        )
        cls_match = matched & (gt_cls == pr_cls)
        for c in range(n_classes):
            tp = int(np.sum(cls_match & (gt_cls == c)))
            fp = int(np.sum(pr_hit & (pr_cls == c))) - tp
            fn = int(np.sum(gt_hit & (gt_cls == c))) - tp
            counts[c, ti] = (tp, fp, fn)
    support = counts.sum(axis=(1, 2)) > 0
    per_class = np.ones(n_classes)
    for c in range(n_classes):
        if support[c]:
            denom = counts[c].sum(axis=1)
            per_class[c] = float(np.mean(counts[c, :, 0] / np.maximum(denom, 1)))
    occ_denom = occ_counts.sum(axis=1)
    zero_support = not (gt_hit.any() or pr_hit.any())
    occ_val = float(np.mean(occ_counts[:, 0] / np.maximum(occ_denom, 1))) if not zero_support else 1.0
    mean = float(per_class[support].mean()) if support.any() else 1.0
    dyn = None
    if classes is not None:
        dmask = classes.dynamic_mask[:n_classes] & support[: classes.n_classes]
        dyn = float(per_class[: classes.n_classes][dmask].mean()) if dmask.any() else None
    return dict(
        n_classes=n_classes, depth_tolerances=taus, rayiou_per_class=per_class,
        rayiou_support=counts.sum(axis=(1, 2)), mean_rayiou=mean, dynamic_mean_rayiou=dyn,
        occupancy_rayiou=occ_val, ray_counts=counts, occ_ray_counts=occ_counts, zero_support=zero_support,
    )


def _reference_ray_n_classes(pred, gt, classes):
    n_classes = int(max(pred.labels.max(initial=FREE), gt.labels.max(initial=FREE)) + 1)
    if classes is not None:
        n_classes = max(n_classes, classes.n_classes)
    return max(n_classes, 1)


def _assert_fields_bitwise(report, want):
    for name, value in want.items():
        got = getattr(report, name)
        if isinstance(value, np.ndarray):
            assert got.dtype == value.dtype and got.shape == value.shape, name
            assert got.tobytes() == value.tobytes(), name
        else:
            assert type(got) is type(value) and got == value, name
            assert repr(got) == repr(value), name  # -0.0 and 0.0 differ


def _table(rng, n):
    names = tuple(f"c{i}" for i in range(n))
    return ClassTable(names, rng.random(n), rng.random(n) < 0.5)


def _random_pair(rng, n_labels, p_gt, p_pred):
    gt = _random_volume(rng, p_gt, n_labels)
    # mostly agreeing with ground truth, so every count is exercised
    labels = np.where(rng.random(DIMS) < 0.7, gt.labels, _random_volume(rng, p_pred, n_labels).labels)
    return VoxelVolume(labels, MINS, CELL), gt


_TABLES = [None, 2, 3, 6]  # none, smaller than the labels, equal, larger


class TestOneCountTable:
    """``iou`` and ``ray_iou`` against the parent's two scorers, field by field.

    Moved on purpose: an unsupported class's RayIoU value is 0.0 where the
    parent had 1.0 (printed nowhere), ``n_classes`` of an all-free pair
    without a class table is 1 where the parent's voxel report had 0, and
    ``zero_support`` is gone (``occ_ray_counts`` all zero says it).
    """

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("table", _TABLES)
    def test_voxel_iou_matches_the_reference(self, seed, table):
        rng = np.random.default_rng(500 + seed)
        classes = None if table is None else _table(rng, table)
        pred, gt = _random_pair(rng, 3 + seed % 3, 0.3, 0.3)
        free = VoxelVolume(np.full(DIMS, FREE, dtype=np.int32), MINS, CELL)
        for p, g in ((pred, gt), (gt, gt), (free, gt), (pred, free), (free, free)):
            want = _reference_iou(p, g, classes)
            if want["n_classes"] == 0:
                want["n_classes"] = 1
            _assert_fields_bitwise(iou(p, g, classes), want)

    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("table", _TABLES)
    @pytest.mark.parametrize("taus", [(1.0,), (0.25, 1.0), (0.1, 0.3, 0.5, 0.9, 1.5, 2.0, 3.0, 4.0, 5.0, 8.0)])
    def test_ray_iou_of_random_hit_sets_matches_the_reference(self, monkeypatch, seed, table, taus):
        rng = np.random.default_rng(600 + seed)
        classes = None if table is None else _table(rng, table)
        pred, gt = _random_pair(rng, 4, 0.2, 0.2)
        n_classes = _reference_ray_n_classes(pred, gt, classes)
        n = 500
        cfg = RayIoUConfig(np.zeros((n, 3)), np.tile([1.0, 0.0, 0.0], (n, 1)), taus)
        hits = []
        for p_hit in (0.7, 0.6):
            hit = rng.random(n) < p_hit
            cls = np.where(hit, rng.integers(0, n_classes, n), FREE).astype(np.int32)
            # depths on a grid of 0.05 m, so some differences equal a tolerance
            depth = np.where(hit, rng.integers(0, 100, n) * 0.05, np.inf)
            hits += [hit, cls, depth]
        hits[4] = np.where((rng.random(n) < 0.5) & hits[0], hits[1], hits[4])  # agree on many classes
        for h in (hits, [hits[0] & False, hits[1], hits[2], hits[3] & False, hits[4], hits[5]]):
            h = list(h)
            for k in (0, 3):
                h[k + 1] = np.where(h[k], h[k + 1], FREE).astype(np.int32)
                h[k + 2] = np.where(h[k], h[k + 2], np.inf)
            want = _reference_count_and_score(*h, cfg, n_classes, classes)
            monkeypatch.setattr(metrics, "first_hits", lambda *args, h=tuple(h): h)
            got = ray_iou(pred, gt, cfg, classes)
            assert want.pop("zero_support") == (not got.occ_ray_counts.any())
            want["rayiou_per_class"][want["rayiou_support"] == 0] = 0.0
            _assert_fields_bitwise(got, want)

    @pytest.mark.parametrize("seed", range(3))
    @pytest.mark.parametrize("table", _TABLES)
    def test_ray_iou_of_walked_rays_matches_the_reference(self, seed, table):
        rng = np.random.default_rng(700 + seed)
        classes = None if table is None else _table(rng, table)
        pred, gt = _random_pair(rng, 3, 0.15, 0.15)
        free = VoxelVolume(np.full(DIMS, FREE, dtype=np.int32), MINS, CELL)
        o, d = _ray_mix(rng, gt, n=80)
        cfg = RayIoUConfig(o, d, (0.25, 0.5, 1.0))
        for p, g in ((pred, gt), (free, gt), (free, free)):
            n_classes = _reference_ray_n_classes(p, g, classes)
            want = _reference_count_and_score(*first_hits(g, o, d, p), cfg, n_classes, classes)
            got = ray_iou(p, g, cfg, classes)
            assert want.pop("zero_support") == (not got.occ_ray_counts.any())
            want["rayiou_per_class"][want["rayiou_support"] == 0] = 0.0
            _assert_fields_bitwise(got, want)


# A hand-built pair on a 5 x 1 x 1 grid of 1 m cells, scored with two rays
# along the row, one from each end, at tolerances 0.5 m and 1.0 m.
_GOLDEN_CLASSES = ClassTable(
    ("ground", "car", "tree", "sign"), np.full(4, 0.25), np.array([False, True, False, False])
)
_GOLDEN_RAYS = RayIoUConfig([[-1.0, 0.5, 0.5], [6.0, 0.5, 0.5]], [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0]], (0.5, 1.0))


def _golden_files(pred_labels, gt_labels, classes):
    def volume(labels):
        return VoxelVolume(np.array(labels, dtype=np.int32).reshape(5, 1, 1), np.zeros(3), 1.0)

    pred, gt = volume(pred_labels), volume(gt_labels)
    vox, ray = iou(pred, gt, classes), ray_iou(pred, gt, _GOLDEN_RAYS, classes)
    scores, counts = io.BytesIO(), io.BytesIO()
    metrics.write_metrics_csv(vox, ray, scores, classes)
    metrics.write_ray_counts_csv(ray, counts, classes)
    return scores.getvalue().decode(), counts.getvalue().decode()


def test_metrics_files_of_a_hand_built_pair():
    """ground matches everywhere; car (dynamic) is in neither volume, so no
    dynamic class has support; tree is hit 1 m apart by the ray from +x;
    sign has voxels but no ray reaches it first."""
    scores, counts = _golden_files([0, 3, 2, 2, 2], [0, 3, 3, 2, FREE], _GOLDEN_CLASSES)
    assert scores == (
        "class,iou,rayiou,support\n"
        "ground,1.000000,1.000000,2\n"
        "car,,,0\n"
        "tree,0.333333,0.500000,3\n"
        "sign,0.500000,,0\n"
        "# mean_iou,dyn_iou,occ_iou,mean_rayiou,dyn_rayiou,occ_rayiou\n"
        "0.611111,,0.800000,0.750000,,0.666667\n"
    )
    assert counts == (
        "class,tolerance,tp,fp,fn\n"
        "ground,0.5,1,0,0\nground,1.0,1,0,0\n"
        "car,0.5,0,0,0\ncar,1.0,0,0,0\n"
        "tree,0.5,0,1,1\ntree,1.0,1,0,0\n"
        "sign,0.5,0,0,0\nsign,1.0,0,0,0\n"
        "occupancy,0.5,1,1,1\noccupancy,1.0,2,0,0\n"
    )


def test_metrics_files_of_an_all_free_pair_without_a_class_table():
    scores, counts = _golden_files([FREE] * 5, [FREE] * 5, None)
    assert scores == (
        "class,iou,rayiou,support\n"
        "0,,,0\n"
        "# mean_iou,dyn_iou,occ_iou,mean_rayiou,dyn_rayiou,occ_rayiou\n"
        "1.000000,,1.000000,1.000000,,1.000000\n"
    )
    assert counts == (
        "class,tolerance,tp,fp,fn\n"
        "0,0.5,0,0,0\n0,1.0,0,0,0\n"
        "occupancy,0.5,0,0,0\noccupancy,1.0,0,0,0\n"
    )
