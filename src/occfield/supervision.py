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

from .errors import (
    BadMagicError,
    EmptyBatchError,
    FeatureDimMismatchError,
    FormatVersionError,
    TruncatedFileError,
)
from .pointcloud import UNLABELED, PointCloud
from .scene import SceneSpec, oracle_query_batch
from ._util import read_bytes, write_bytes

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
        if self.n_neg_per_point < 0 or self.n_pos_per_point < 0:
            raise ValueError("per-point counts must be non-negative")
        if not (self.t_min <= 0.0 <= self.t_max):
            raise ValueError("temporal window must contain the reference time 0")


class QueryBatch:
    """Column store of query samples.

    ``classes`` uses the UNLABELED sentinel where no semantic target exists;
    feature targets exist exactly for positive samples when feature_dim > 0.
    """

    def __init__(
        self,
        queries: np.ndarray,
        occupancy: np.ndarray,
        classes: np.ndarray,
        features: np.ndarray | None = None,
    ):
        n = len(queries)
        self.queries = np.asarray(queries, dtype=np.float64).reshape(n, 4)
        # min and max carry any NaN or infinity, without a full-size mask
        if not np.isfinite([self.queries.min(initial=0.0), self.queries.max(initial=0.0)]).all():
            raise ValueError("queries must be finite")
        self.occupancy = np.asarray(occupancy, dtype=np.uint8).reshape(n)
        self.classes = np.asarray(classes, dtype=np.uint16).reshape(n)
        if features is None:
            features = np.zeros((n, 0))
        feats = np.asarray(features, dtype=np.float64)
        if feats.ndim != 2 or feats.shape[0] != n:
            raise ValueError("features must have shape (n, feature_dim)")
        self.features = feats
        neg_labeled = (self.occupancy == 0) & (self.classes != UNLABELED)
        if neg_labeled.any():
            raise ValueError("negative samples must not carry semantic targets")

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __len__(self) -> int:
        return len(self.queries)

    def take(self, indices: np.ndarray) -> "QueryBatch":
        idx = np.asarray(indices)
        return QueryBatch(
            self.queries[idx], self.occupancy[idx], self.classes[idx], self.features[idx]
        )


def _open_unit(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws in the open interval (0, 1); zeros are redrawn."""
    u = rng.random(shape)
    mask = u == 0.0
    while mask.any():
        u[mask] = rng.random(int(mask.sum()))
        mask = u == 0.0
    return u


def _cloud_queries(pc: PointCloud, cfg: SamplingConfig, rng: np.random.Generator):
    """Free and occupied queries for every point of ``pc``.

    Per point, ``n_neg_per_point`` free samples at o + r (p - o), r ~ U(0, 1)
    open, and ``n_pos_per_point`` occupied samples at p + r (p - o)/|p - o|,
    r ~ U(0, delta) open, with the point's time, class and features.  The
    uniform draws depend only on the point count, so generation commutes
    with rigid transforms of the inputs.  r matrices are drawn up front;
    degenerate rays (|p - o| below DEGENERATE_RAY_EPS) are dropped afterwards
    and counted in ``skipped``.  Returns (neg_q, pos_q, pos_cls, pos_feat,
    skipped).
    """
    n = len(pc)
    d = pc.positions - pc.origins
    norms = np.linalg.norm(d, axis=1)
    good = norms >= DEGENERATE_RAY_EPS
    r_neg = _open_unit(rng, (n, cfg.n_neg_per_point))
    r_pos = _open_unit(rng, (n, cfg.n_pos_per_point)) * cfg.delta

    gi = np.flatnonzero(good)

    def timed(pts, per_point):
        """(points, per_point, 3) positions as 4D queries at their point's time."""
        return np.concatenate(
            [pts.reshape(-1, 3), np.repeat(pc.times[gi], per_point)[:, None]], axis=1
        )

    neg_pts = pc.origins[gi, None, :] + r_neg[gi, :, None] * d[gi, None, :]
    neg_q = timed(neg_pts, cfg.n_neg_per_point)
    unit = d[gi] / norms[gi, None]
    pos_pts = pc.positions[gi, None, :] + r_pos[gi, :, None] * unit[:, None, :]
    pos_q = timed(pos_pts, cfg.n_pos_per_point)
    pos_cls = np.repeat(pc.class_ids[gi], cfg.n_pos_per_point)
    pos_feat = np.repeat(pc.features[gi], cfg.n_pos_per_point, axis=0)
    skipped = int(n - good.sum())
    return neg_q, pos_q, pos_cls, pos_feat, skipped


def build_query_set(clouds: Sequence[PointCloud], cfg: SamplingConfig) -> QueryBatch:
    """Balanced, shuffled 4D query batch from multi-frame point clouds.

    Points outside [t_min, t_max] are excluded.  After per-point generation
    (frame order, negatives then positives per frame) the larger side is
    uniformly down-sampled to the smaller one and the batch is shuffled; all
    randomness comes from cfg.seed.
    """
    if not clouds:
        raise EmptyBatchError("no point clouds given")
    fdims = {c.feature_dim for c in clouds}
    if len(fdims) > 1:
        raise FeatureDimMismatchError(f"clouds disagree on feature_dim: {sorted(fdims)}")
    fdim = fdims.pop()
    rng = np.random.default_rng(cfg.seed)

    parts = []
    for pc in clouds:
        in_window = (pc.times >= cfg.t_min) & (pc.times <= cfg.t_max)
        sub = pc.take(np.flatnonzero(in_window))
        if len(sub):
            parts.append(_cloud_queries(sub, cfg, rng)[:4])

    if not parts:
        raise EmptyBatchError("no usable points in the temporal window")
    neg_q, pos_q, pos_cls, pos_feat = (np.concatenate(col) for col in zip(*parts))

    m = min(len(neg_q), len(pos_q))
    if m == 0:
        raise EmptyBatchError("balancing produced an empty batch")
    if len(neg_q) > m:
        keep = np.sort(rng.choice(len(neg_q), size=m, replace=False))
        neg_q = neg_q[keep]
    if len(pos_q) > m:
        keep = np.sort(rng.choice(len(pos_q), size=m, replace=False))
        pos_q, pos_cls, pos_feat = pos_q[keep], pos_cls[keep], pos_feat[keep]

    queries = np.concatenate([neg_q, pos_q])
    occupancy = np.concatenate([np.zeros(m, np.uint8), np.ones(m, np.uint8)])
    classes = np.concatenate([np.full(m, UNLABELED, np.uint16), pos_cls])
    features = np.concatenate([np.zeros((m, fdim)), pos_feat])
    perm = rng.permutation(2 * m)
    return QueryBatch(queries[perm], occupancy[perm], classes[perm], features[perm])


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
_QS_HEADER = struct.Struct("<IQH")  # version, count, feature_dim


def _sample_dtype(feature_dim: int) -> np.dtype:
    fields = [("query", "<f4", (4,)), ("occ", "u1"), ("class", "<u2")]
    if feature_dim:
        fields.append(("feature", "<f4", (feature_dim,)))
    return np.dtype(fields)


def write_query_batch(batch: QueryBatch, destination) -> None:
    """QOQS format (float32 payload)."""
    rec = np.zeros(len(batch), dtype=_sample_dtype(batch.feature_dim))
    rec["query"] = batch.queries.astype("<f4")
    rec["occ"] = batch.occupancy
    rec["class"] = batch.classes
    if batch.feature_dim:
        rec["feature"] = batch.features.astype("<f4")
    blob = _QS_MAGIC + _QS_HEADER.pack(_QS_VERSION, len(batch), batch.feature_dim)
    write_bytes(destination, blob + rec.tobytes())


def read_query_batch(source) -> QueryBatch:
    data = read_bytes(source)
    if len(data) < 4 or data[:4] != _QS_MAGIC:
        raise BadMagicError("not a QOQS query batch file")
    if len(data) < 4 + _QS_HEADER.size:
        raise TruncatedFileError("QOQS header truncated")
    version, count, feature_dim = _QS_HEADER.unpack_from(data, 4)
    if version != _QS_VERSION:
        raise FormatVersionError(f"unsupported QOQS version {version}")
    dtype = _sample_dtype(feature_dim)
    payload = data[4 + _QS_HEADER.size:]
    if len(payload) < count * dtype.itemsize:
        raise TruncatedFileError("QOQS payload truncated")
    rec = np.frombuffer(payload, dtype=dtype, count=count)
    feats = rec["feature"].astype(np.float64) if feature_dim else None
    return QueryBatch(
        rec["query"].astype(np.float64), rec["occ"].copy(), rec["class"].copy(), feats
    )
