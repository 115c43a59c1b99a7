"""4D query generation from point clouds.

Negative (free) queries are drawn along the sensor ray strictly between the
origin and the surface point; positive (occupied) queries sit within a
buffer of depth ``delta`` behind the surface point along the same ray.
Batches are balanced to equal positive/negative counts and shuffled
deterministically.
"""

from __future__ import annotations

import dataclasses
import struct
from typing import Sequence

import numpy as np

from . import _format
from .errors import EmptyBatchError
from .pointcloud import UNLABELED, PointCloud
from .scene import SceneSpec, oracle_query_batch

__all__ = [
    "SamplingConfig",
    "QueryBatch",
    "build_query_set",
    "validate_against_oracle",
    "SupervisionReport",
    "write_query_batch",
    "read_query_batch",
]

DEGENERATE_RAY_EPS = 1e-6  # meters; rays shorter than this are skipped


@dataclasses.dataclass(frozen=True)
class SamplingConfig:
    delta: float = 0.4
    n_neg_per_point: int = 2
    n_pos_per_point: int = 2
    t_min: float = -1.5
    t_max: float = 1.5
    seed: int = 0

    def __post_init__(self):
        if not 0 < self.delta < np.inf:  # NaN fails this too
            raise ValueError("delta must be positive and finite")
        if min(self.n_neg_per_point, self.n_pos_per_point) < 1:  # else balancing keeps nothing
            raise ValueError("n_neg_per_point and n_pos_per_point must be at least 1")
        if not (self.t_min <= 0.0 <= self.t_max):  # NaN fails this too
            raise ValueError("temporal window [t_min, t_max] must contain the reference time 0")

    def window(self, pc: PointCloud) -> PointCloud:
        """The points of ``pc`` whose time lies in [t_min, t_max], the ones
        both training modes learn from."""
        inside = (pc.times >= self.t_min) & (pc.times <= self.t_max)
        return pc if inside.all() else pc.take(np.flatnonzero(inside))


class QueryBatch:
    """Column store of query samples: (x, y, z, t) queries, their occupancy
    target (1 occupied, 0 free) and their class target.

    ``classes`` uses the UNLABELED sentinel where no semantic target exists,
    which is always the case for free samples.
    """

    def __init__(self, queries: np.ndarray, occupancy: np.ndarray, classes: np.ndarray):
        n = len(queries)
        self.queries = np.asarray(queries, dtype=np.float64).reshape(n, 4)
        # min and max carry any NaN or infinity, without a full-size mask
        if not np.isfinite([self.queries.min(initial=0.0), self.queries.max(initial=0.0)]).all():
            raise ValueError("queries must be finite")
        self.occupancy = np.asarray(occupancy, dtype=np.uint8).reshape(n)
        if self.occupancy.max(initial=0) > 1:
            raise ValueError("occupancy must be 0 or 1")
        self.classes = np.asarray(classes, dtype=np.uint16).reshape(n)
        neg_labeled = (self.occupancy == 0) & (self.classes != UNLABELED)
        if neg_labeled.any():
            raise ValueError("negative samples must not carry semantic targets")

    def __len__(self) -> int:
        return len(self.queries)

    def take(self, indices: np.ndarray) -> "QueryBatch":
        idx = np.asarray(indices)
        return QueryBatch(self.queries[idx], self.occupancy[idx], self.classes[idx])


def _open_unit(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws in the open interval (0, 1); zeros are redrawn."""
    u = rng.random(shape)
    mask = u == 0.0
    while mask.any():
        u[mask] = rng.random(int(mask.sum()))
        mask = u == 0.0
    return u


def _usable(pc: PointCloud) -> np.ndarray:
    """Points whose ray |p - o| reaches DEGENERATE_RAY_EPS; the others give
    no query."""
    return np.linalg.norm(pc.positions - pc.origins, axis=1) >= DEGENERATE_RAY_EPS


def _draw(pc: PointCloud, cfg: SamplingConfig, rng: np.random.Generator):
    """Uniform draws of one frame, for every point, usable or not: (r_neg,
    r_pos).  r_neg (n, n_neg_per_point) ~ U(0, 1) open is drawn first, then
    r_pos (n, n_pos_per_point) ~ U(0, delta) open.  The draws depend only on
    the point count, so generation commutes with rigid transforms of the
    inputs.
    """
    r_neg = _open_unit(rng, (len(pc), cfg.n_neg_per_point))
    r_pos = _open_unit(rng, (len(pc), cfg.n_pos_per_point))
    r_pos *= cfg.delta
    return r_neg, r_pos


def _cloud_queries(pc: PointCloud, cfg: SamplingConfig, good, r_neg, r_pos):
    """Free and occupied queries for the usable points of ``pc`` from its draws.

    Per point, ``n_neg_per_point`` free samples at o + r (p - o) and
    ``n_pos_per_point`` occupied samples at p + r (p - o)/|p - o|, with the
    point's time and class.  Returns (neg_q, pos_q, pos_cls).
    """
    gi = slice(None) if good.all() else np.flatnonzero(good)

    def timed(pts, per_point):
        """(points, per_point, 3) positions as 4D queries at their point's time."""
        return np.concatenate(
            [pts.reshape(-1, 3), np.repeat(pc.times[gi], per_point)[:, None]], axis=1
        )

    d = pc.positions[gi] - pc.origins[gi]
    neg_pts = pc.origins[gi, None, :] + r_neg[gi, :, None] * d[:, None, :]
    neg_q = timed(neg_pts, cfg.n_neg_per_point)
    unit = d / np.linalg.norm(d, axis=1)[:, None]
    pos_pts = pc.positions[gi, None, :] + r_pos[gi, :, None] * unit[:, None, :]
    pos_q = timed(pos_pts, cfg.n_pos_per_point)
    pos_cls = np.repeat(pc.class_ids[gi], cfg.n_pos_per_point)
    return neg_q, pos_q, pos_cls


def _rows(rows: np.ndarray, n: int, keep: np.ndarray | None) -> np.ndarray:
    """Output row of each of ``n`` generated queries; -1 where balancing
    dropped it (``keep`` lists the sorted survivors, None keeps all)."""
    if keep is None:
        return rows
    dest = np.full(n, -1, dtype=rows.dtype)
    dest[keep] = rows
    return dest


def _scatter(dest: np.ndarray, pairs) -> None:
    """out[dest] = values for each (out, values) pair, skipping dest -1.

    Rows of a 2-D column move as opaque records, one copy per row rather
    than one per element.
    """
    kept = dest >= 0
    if not kept.all():
        dest = dest[kept]
        pairs = [(out, values[kept]) for out, values in pairs]
    for out, values in pairs:
        if out.ndim == 2:
            row = np.dtype((np.void, out.shape[1] * out.itemsize))
            out, values = out.view(row)[:, 0], np.ascontiguousarray(values).view(row)[:, 0]
        out[dest] = values


def build_query_set(clouds: Sequence[PointCloud], cfg: SamplingConfig) -> QueryBatch:
    """Balanced, shuffled 4D query batch from multi-frame point clouds.

    Points outside [t_min, t_max] are excluded.  Generation runs in frame
    order, negatives then positives per frame; the larger side is uniformly
    down-sampled to the smaller one and the batch is shuffled.  All
    randomness comes from cfg.seed, drawn in this order: every frame's
    r_neg then r_pos, the down-sampling choice, the shuffle permutation.

    The draws come first, so each query's final row is known before its
    geometry is computed: the batch's columns are allocated once, and every
    frame writes each of its queries once, straight into its final row.
    """
    if not clouds:
        raise EmptyBatchError("no point clouds given")
    rng = np.random.default_rng(cfg.seed)

    frames = []
    for pc in map(cfg.window, clouds):
        if len(pc):
            frames.append((pc, _usable(pc)))
    if not frames:
        raise EmptyBatchError("no usable points in the temporal window")
    usable = sum(int(np.count_nonzero(good)) for _, good in frames)
    n_neg, n_pos = usable * cfg.n_neg_per_point, usable * cfg.n_pos_per_point
    m = min(n_neg, n_pos)
    if m == 0:
        raise EmptyBatchError("balancing produced an empty batch")

    # the columns are allocated before the draws and the per-frame
    # temporaries, so none of those is left below them in the heap
    queries = np.empty((2 * m, 4))
    occupancy = np.empty(2 * m, np.uint8)
    classes = np.full(2 * m, UNLABELED, np.uint16)
    draws = [_draw(pc, cfg, rng) for pc, _ in frames]
    keep_neg = np.sort(rng.choice(n_neg, size=m, replace=False)) if n_neg > m else None
    keep_pos = np.sort(rng.choice(n_pos, size=m, replace=False)) if n_pos > m else None
    # stacked query j (kept negatives, then kept positives) is output row
    # rows[j], where the shuffle perm put it
    perm = rng.permutation(2 * m)
    rows = np.empty_like(perm)
    rows[perm] = np.arange(2 * m)
    np.greater_equal(perm, m, out=occupancy.view(bool))
    del perm
    neg_rows = _rows(rows[:m], n_neg, keep_neg)
    pos_rows = _rows(rows[m:], n_pos, keep_pos)

    i_neg = i_pos = 0
    for (pc, good), (r_neg, r_pos) in zip(frames, draws):
        neg_q, pos_q, pos_cls = _cloud_queries(pc, cfg, good, r_neg, r_pos)
        _scatter(neg_rows[i_neg:i_neg + len(neg_q)], [(queries, neg_q)])
        _scatter(pos_rows[i_pos:i_pos + len(pos_q)], [(queries, pos_q), (classes, pos_cls)])
        i_neg += len(neg_q)
        i_pos += len(pos_q)
    return QueryBatch(queries, occupancy, classes)


@dataclasses.dataclass(frozen=True)
class SupervisionReport:
    negative_purity: float
    positive_purity: float
    semantic_agreement: float
    negative_count: int
    positive_count: int

    def lines(self) -> str:
        return (
            f"negative_purity={self.negative_purity:.6f}\n"
            f"positive_purity={self.positive_purity:.6f}\n"
            f"semantic_agreement={self.semantic_agreement:.6f}\n"
            f"negative_count={self.negative_count}\n"
            f"positive_count={self.positive_count}\n"
        )


def validate_against_oracle(batch: QueryBatch, scene: SceneSpec) -> SupervisionReport:
    """Check supervision targets against the exact scene oracle.

    negative_purity: fraction of negatives the oracle marks free.
    positive_purity: fraction of positives the oracle marks occupied.
    semantic_agreement: among positives with a semantic target that the
    oracle marks occupied, the fraction whose class matches the oracle
    (1.0 when vacuous).
    """
    occ, cls = oracle_query_batch(scene, batch.queries[:, :3], batch.queries[:, 3])
    neg = batch.occupancy == 0
    pos = batch.occupancy == 1
    n_neg, n_pos = int(neg.sum()), int(pos.sum())
    neg_purity = float(np.mean(~occ[neg])) if n_neg else 1.0
    pos_purity = float(np.mean(occ[pos])) if n_pos else 1.0
    labeled = pos & (batch.classes != UNLABELED) & occ
    if labeled.any():
        agreement = float(np.mean(cls[labeled] == batch.classes[labeled]))
    else:
        agreement = 1.0
    return SupervisionReport(neg_purity, pos_purity, agreement, n_neg, n_pos)


_QS_MAGIC = b"QOQS"
_QS_VERSION = 1
_QS_HEADER = struct.Struct("<IQH")  # version, count, feature_dim (always 0)
_QS_RECORD = np.dtype([("query", "<f4", (4,)), ("occ", "u1"), ("class", "<u2")])


def write_query_batch(batch: QueryBatch, destination) -> None:
    """QOQS format (float32 payload)."""
    rec = np.zeros(len(batch), dtype=_QS_RECORD)
    rec["query"] = batch.queries
    rec["occ"] = batch.occupancy
    rec["class"] = batch.classes
    _format.write(destination, [_QS_MAGIC + _QS_HEADER.pack(_QS_VERSION, len(batch), 0), rec])


def read_query_batch(source) -> QueryBatch:
    f = _format.Reader(source, _QS_MAGIC, {_QS_VERSION: _QS_HEADER})
    _, count, feature_dim = f.header
    f.no_features(feature_dim)
    rec = f.array(_QS_RECORD, count)
    f.end()
    return QueryBatch(rec["query"], rec["occ"].copy(), rec["class"].copy())
