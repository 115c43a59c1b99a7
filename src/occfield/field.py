"""Trainable implicit occupancy field.

A learnable feature grid over contracted BEV space feeds a small MLP head
that predicts an occupancy logit and semantic logits for any 4D query.  Gradients are computed analytically (closed-form
backprop, including the bilinear scatter back into the grid) and verified
against finite differences in the test suite.  Training uses Adam moments
with decoupled weight decay, linear warmup, and cosine decay.  Inference
(``forward_batch``) keeps no backprop cache and no derivatives.

Both training modes run through one loop (``_run_steps``) that keeps the
activations, squareplus derivatives and optimizer temporaries in buffers that
last the whole run (``_Workspace``, ``_AdamW``), so a step after the first
allocates no activation-sized array.
The rendering baseline evaluates each sample once: the coarse pass keeps its
cache, only the importance depths are added, and the cached rows are
gathered into sorted depth order: the bytes of one pass over all sorted
samples wherever rows agree bitwise across batch sizes (``_forward_raw``).
"""

from __future__ import annotations

import dataclasses
import itertools
import math
import struct
from typing import Sequence

import numpy as np

from . import _format
from .bev import BevGrid, bilinear_setup
from .errors import EmptyBatchError, TrainingDivergedError
from .geometry import ContractionParams, FourierConfig, fourier_encode_batch
from .pointcloud import UNLABELED, PointCloud
from .supervision import QueryBatch, _usable

__all__ = [
    "FieldModel",
    "TrainConfig",
    "LossReport",
    "RaySupervision",
    "init_field_model",
    "log_frequency_weights",
    "forward_batch",
    "loss",
    "backward",
    "Gradients",
    "train",
    "rays_from_pointcloud",
    "train_rendering_baseline",
    "write_field_model",
    "read_field_model",
    "write_loss_csv",
]

_ADAM_BETA1 = 0.9
_ADAM_BETA2 = 0.999
_ADAM_EPS = 1e-8
RENDER_EPS = 1e-3  # opacity-mass guard for fully transparent rays
_ADAM_CHUNK = 1 << 16  # elements per AdamW slice: no optimizer temporary copies the grid
_BLOCK_ROWS = 256  # rows per squareplus block: 256 x 160 float64 (330 kB) stay in L2 cache


def _squareplus(a: np.ndarray, b: np.ndarray, out: np.ndarray, deriv: bool) -> np.ndarray:
    """Smooth rectifier 0.5 * (x + sqrt(x*x + 4)) of x = a + b into ``out``;
    with ``deriv``, ``a`` then holds its derivative 0.5 * (1 + x / sqrt(x*x + 4)).

    Works through blocks of ``_BLOCK_ROWS`` rows so that each block's
    temporaries stay in cache.  Both forward passes use this one operation
    order, so their rows agree bit for bit.
    """
    s = np.empty((min(len(a), _BLOCK_ROWS), a.shape[1]))
    for i in range(0, len(a), _BLOCK_ROWS):
        x, h = a[i : i + _BLOCK_ROWS], out[i : i + _BLOCK_ROWS]
        x += b
        t = s[: len(x)]
        np.sqrt(np.add(np.multiply(x, x, out=t), 4.0, out=t), out=t)
        np.multiply(np.add(t, x, out=h), 0.5, out=h)
        if deriv:
            np.multiply(np.add(np.divide(x, t, out=x), 1.0, out=x), 0.5, out=x)
    return out


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    e = np.exp(x[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _softmax(z: np.ndarray) -> np.ndarray:
    m = z.max(axis=1, keepdims=True)
    e = np.exp(z - m)
    return e / e.sum(axis=1, keepdims=True)


class FieldModel:
    """Learnable contracted-BEV grid plus MLP decoder.

    The decoder input is the bilinearly interpolated grid feature
    concatenated with fourier(z) and fourier(t); the head is one linear
    layer split into [occupancy logit | semantic logits].
    """

    def __init__(
        self,
        grid: BevGrid,
        layers: list[tuple[np.ndarray, np.ndarray]],
        fourier: FourierConfig,
        n_classes: int,
    ):
        if n_classes < 1:
            raise ValueError(f"n_classes must be at least 1, got {n_classes}")
        self.grid = grid
        self.layers = layers
        self.fourier = fourier
        self.n_classes = int(n_classes)
        in_dim = grid.channels + 2 * fourier.output_dim(1)
        dims = [in_dim] + [w.shape[1] for w, _ in layers]
        for i, (w, b) in enumerate(layers):
            if w.shape[0] != dims[i] or b.shape != (w.shape[1],):
                raise ValueError("layer dimensions do not chain")
            if not (np.isfinite(w).all() and np.isfinite(b).all()):
                raise ValueError("layer weights and biases must be finite")
        if dims[-1] != 1 + n_classes:
            raise ValueError("head layout does not match final layer width")

    @property
    def contraction(self) -> ContractionParams:
        return self.grid.contraction

    @property
    def layer_sizes(self) -> list[int]:
        return [self.layers[0][0].shape[0]] + [w.shape[1] for w, _ in self.layers]

    def parameters(self) -> list[np.ndarray]:
        out = [self.grid.data]
        for w, b in self.layers:
            out.extend([w, b])
        return out


def init_field_model(
    contraction: ContractionParams,
    n_classes: int,
    grid_size: int = 128,
    grid_channels: int = 16,
    fourier: FourierConfig = FourierConfig(),
    hidden_width: int = 160,
    hidden_layers: int = 4,
    seed: int = 0,
) -> FieldModel:
    """He-initialized hidden layers, zero-initialized final head and grid."""
    rng = np.random.default_rng(seed)
    grid = BevGrid(grid_size, grid_size, grid_channels, contraction)
    in_dim = grid.channels + 4 * fourier.n_bands
    out_dim = 1 + n_classes
    sizes = [in_dim] + [hidden_width] * hidden_layers + [out_dim]
    layers = []
    for i in range(len(sizes) - 1):
        fan_in, fan_out = sizes[i], sizes[i + 1]
        if i == len(sizes) - 2:
            w = np.zeros((fan_in, fan_out))
        else:
            w = rng.standard_normal((fan_in, fan_out)) * np.sqrt(2.0 / fan_in)
        layers.append((w, np.zeros(fan_out)))
    return FieldModel(grid, layers, fourier, n_classes)


def log_frequency_weights(frequencies: np.ndarray) -> np.ndarray:
    """Per-class weights w_c proportional to -log(freq_c), normalized to mean 1."""
    f = np.clip(np.asarray(frequencies, dtype=np.float64), 1e-12, 1.0)
    w = -np.log(f)
    mean = w.mean()
    return np.ones_like(w) if mean <= 0 else w / mean


def _encode(model: FieldModel, queries: np.ndarray, out=None):
    """Decoder input [grid feature | fourier(z) | fourier(t)] (into ``out``
    when given) and bilinear footprint."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 4)
    iy, ix, bw = bilinear_setup(q[:, 0], q[:, 1], model.grid)
    g = np.einsum("nk,nkc->nc", bw, model.grid.data[iy, ix])
    enc = np.concatenate(
        [g, fourier_encode_batch(q[:, 2], model.fourier), fourier_encode_batch(q[:, 3], model.fourier)],
        axis=1, out=out,
    )
    return enc, iy, ix, bw


class _Workspace:
    """Row buffers for ``_forward_raw``'s cache, kept for a whole training run.

    Each cached array (head outputs, bilinear footprint, every activation and
    squareplus derivative) is a slot of ``rows`` rows; a forward pass fills
    rows [start, start + n) of every slot, so a step allocates no
    activation-sized array once the first step has filled the workspace.
    """

    def __init__(self, rows: int):
        self.rows = rows
        self.slots: dict = {}
        self.spares: dict = {}  # one per (columns, dtype): gather's target

    def slot(self, key, width: int, start: int, n: int, dtype=np.float64) -> np.ndarray:
        if key not in self.slots:
            self.slots[key] = np.empty((self.rows, width), dtype)
        return self.slots[key][start : start + n]

    def gather(self, order: np.ndarray) -> None:
        """Make row i of every slot the former row ``order[i]``.  Each slot is
        gathered into the spare of its kind and swapped with it, so the cache
        is never held twice."""
        n = len(order)
        for key, buf in self.slots.items():
            kind = (buf.shape[1], buf.dtype)
            spare = self.spares.pop(kind, None)
            spare = np.empty_like(buf) if spare is None else spare
            # mode="clip" writes straight into out; "raise" buffers a copy first
            np.take(buf[:n], order, axis=0, out=spare[:n], mode="clip")
            self.slots[key], self.spares[kind] = spare, buf


def _cached_rows(model: FieldModel, work: _Workspace, start: int, n: int):
    """Head outputs and backprop cache held in rows [start, start + n) of ``work``."""
    rows = {key: buf[start : start + n] for key, buf in work.slots.items()}
    out, depth = rows["out"], len(model.layers)
    cache = (
        rows["iy"], rows["ix"], rows["bw"],
        [rows[("act", i)] for i in range(depth)],
        [rows[("deriv", i)] for i in range(depth - 1)],
    )
    return out[:, 0], out[:, 1:], cache


def _forward_raw(model: FieldModel, queries: np.ndarray, work=None, start: int = 0):
    """Training forward pass; returns head outputs plus the backprop cache.

    Outputs and cache are rows [start, start + n) of ``work``, a
    ``_Workspace`` (a fresh one of start + n rows when None), so a training
    loop reuses one set of buffers and can evaluate a batch in parts.
    Squareplus runs in place and its derivative overwrites the
    pre-activation.  With a 6-column head (5 classes) a row's values agree
    bitwise across batch sizes, except in a one-row batch, which numpy
    multiplies as a matrix-vector product (``forward_batch`` pads it to two
    rows).  With a 4-column head they need not: at 160 hidden units OpenBLAS
    rounds batches of 2 to about 1,500 rows otherwise than the same rows of
    a 16,384-row batch, and 2,000 or 4,096 rows agree.
    """
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 4)
    n = len(q)
    work = _Workspace(start + n) if work is None else work
    slot = work.slot
    h, iy, ix, bw = _encode(model, q, slot(("act", 0), model.layer_sizes[0], start, n))
    for key, arr in (("iy", iy), ("ix", ix), ("bw", bw)):
        slot(key, arr.shape[1], start, n, arr.dtype)[...] = arr
    for i, (w, b) in enumerate(model.layers[:-1]):
        width = w.shape[1]
        a = np.matmul(h, w, out=slot(("deriv", i), width, start, n))
        h = _squareplus(a, b, slot(("act", i + 1), width, start, n), deriv=True)
    w, b = model.layers[-1]
    out = np.matmul(h, w, out=slot("out", w.shape[1], start, n))
    out += b
    return _cached_rows(model, work, start, n)


@dataclasses.dataclass
class Gradients:
    """Parameter gradients congruent to FieldModel: grid plus per-layer (dW, db)."""

    grid: np.ndarray
    layers: list[tuple[np.ndarray, np.ndarray]]


def _backward_from_output_grads(
    model: FieldModel, cache, d_occ_logit, d_sem_logits, grid_grad=None
) -> Gradients:
    """Backpropagate given gradients w.r.t. the raw head outputs; the grid
    gradient goes into ``grid_grad``, zeroed first, when one is given.

    Consumes ``cache``: each layer's input gradient overwrites that layer's
    activations once they have served its weight gradient, so the backward
    allocates no activation-sized array."""
    iy, ix, bw, acts, derivs = cache
    d = np.concatenate([np.asarray(d_occ_logit)[:, None], d_sem_logits], axis=1)
    grads: list[tuple[np.ndarray, np.ndarray]] = []
    for li in range(len(model.layers) - 1, -1, -1):
        w, _ = model.layers[li]
        grads.append((acts[li].T @ d, d.sum(axis=0)))
        d = np.matmul(d, w.T, out=acts[li])
        if li > 0:
            d *= derivs[li - 1]
    grads.reverse()
    d_g = d[:, : model.grid.channels]
    if grid_grad is None:
        grid_grad = np.zeros_like(model.grid.data)
    else:
        grid_grad.fill(0.0)
    for k in range(4):
        np.add.at(grid_grad, (iy[:, k], ix[:, k]), bw[:, k, None] * d_g)
    return Gradients(grid_grad, grads)


def forward_batch(model: FieldModel, queries: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized inference: (occ_prob (N,), semantic_probs (N,S)).
    Keeps no backprop cache: two buffers serve every hidden layer, and squareplus
    runs in place through ``_squareplus``, so outputs equal training's bit for bit.
    A one-row batch runs as two copies of its row, so that numpy multiplies it
    as a matrix; ``_forward_raw`` says when rows agree across batch sizes."""
    q = np.asarray(queries, dtype=np.float64).reshape(-1, 4)
    rows = len(q)
    h, a = _encode(model, np.repeat(q, 2, axis=0) if rows == 1 else q)[0], None
    for w, b in model.layers[:-1]:
        a = np.matmul(h, w, out=a if a is not None and a.shape[1] == w.shape[1] else None)
        # h is spent once a holds h @ w
        h = _squareplus(a, b, h if h.shape == a.shape else np.empty_like(a), deriv=False)
    w, b = model.layers[-1]
    out = (h @ w + b)[:rows]
    return _sigmoid(out[:, 0]), _softmax(out[:, 1:])


@dataclasses.dataclass(frozen=True)
class TrainConfig:
    """The ``[train]`` section plus a run's seed and class weights, range-checked
    when built: a bad value raises ValueError naming its key."""

    lambda_occ: float = 1.0
    lambda_sem: float = 0.5
    mode: str = "query"  # or "rendering"
    learning_rate: float = 1e-3
    warmup_steps: int = 200
    total_steps: int = 5000
    batch_size: int = 2048
    weight_decay: float = 1e-4
    grid_size: int = 128
    grid_channels: int = 16
    hidden_width: int = 160
    hidden_layers: int = 4
    k_hr: float = 40.0
    beta: float = 0.8
    fourier_bands: int = 16
    fourier_min: float = 1.0
    fourier_max: float = 10.0
    # rendering-supervision knobs (used by train_rendering_baseline only)
    render_near: float = 0.5
    render_far: float = 60.0
    render_coarse: int = 48
    render_importance: int = 16
    seed: int = 0
    class_weights: np.ndarray | None = None

    def __post_init__(self):
        for ok, message in (
            (self.mode in ("query", "rendering"), "mode must be 'query' or 'rendering'"),
            (min(self.total_steps, self.batch_size) >= 1,
             "total_steps and batch_size must be at least 1"),
            (self.lambda_occ >= 0 and self.lambda_sem >= 0,  # NaN fails this too
             "lambda_occ and lambda_sem must be non-negative"),
            (0 < self.render_near < self.render_far < np.inf,  # NaN fails this too
             "needs 0 < render_near < render_far, both finite"),
            (self.render_coarse >= 1 and self.render_importance >= 0,
             "render_coarse must be at least 1 and render_importance at least 0"),
            (min(self.hidden_width, self.grid_channels) >= 1 and self.grid_size >= 2,
             "hidden_width and grid_channels must be at least 1 and grid_size at least 2"),
            (min(self.hidden_layers, self.warmup_steps) >= 0,
             "hidden_layers and warmup_steps must be at least 0"),
            (0 < self.learning_rate < np.inf and 0 <= self.weight_decay < np.inf,
             "needs a finite learning_rate above 0 and a finite weight_decay of at least 0"),
        ):
            if not ok:
                raise ValueError(message)
        for keys, build in (
            ("k_hr, beta", self.contraction),
            ("fourier_bands, fourier_min, fourier_max", self.fourier),
        ):
            try:
                build()
            except ValueError as e:
                raise ValueError(f"{keys}: {e}") from None
        with np.errstate(over="ignore"):  # the model file stores these as float32
            stored = np.float32([self.k_hr, self.fourier_min, self.fourier_max, self.beta])
        if not (stored.min() > 0 and stored[:3].max() < np.inf and stored[3] < 1):
            raise ValueError("as float32, k_hr, fourier_min and fourier_max must be "
                             "positive and finite, and beta must lie in (0, 1)")

    def contraction(self) -> ContractionParams:
        return ContractionParams(self.k_hr, self.beta)

    def fourier(self) -> FourierConfig:
        return FourierConfig(self.fourier_bands, self.fourier_min, self.fourier_max)


@dataclasses.dataclass(frozen=True)
class LossReport:
    total: float
    occ: float
    sem: float


def _class_weights(model: FieldModel, cfg: TrainConfig) -> np.ndarray:
    if cfg.class_weights is None:
        return np.ones(model.n_classes)
    w = np.asarray(cfg.class_weights, dtype=np.float64)
    if w.shape != (model.n_classes,):
        raise ValueError("class_weights length must equal n_classes")
    return w


def _loss_terms(model: FieldModel, batch: QueryBatch, cfg: TrainConfig, indices=None, work=None):
    if len(batch) == 0:
        raise EmptyBatchError("loss over an empty batch")
    idx = np.arange(len(batch)) if indices is None else indices
    q = batch.queries[idx]
    occ_t = batch.occupancy[idx].astype(np.float64)
    cls_t = batch.classes[idx]
    occ_logit, sem_logits, cache = _forward_raw(model, q, work)
    n = len(idx)

    # occupancy: binary cross-entropy with logits, averaged over every sample
    occ_vec = np.maximum(occ_logit, 0) - occ_logit * occ_t + np.log1p(np.exp(-np.abs(occ_logit)))
    l_occ = float(occ_vec.mean())
    d_occ = (_sigmoid(occ_logit) - occ_t) * (cfg.lambda_occ / n)

    # semantics: class-weighted categorical cross-entropy over labeled positives
    w_c = _class_weights(model, cfg)
    sem_mask = (batch.occupancy[idx] == 1) & (cls_t != UNLABELED)
    n_sem = int(sem_mask.sum())
    d_sem = np.zeros_like(sem_logits)
    l_sem = 0.0
    if n_sem:
        z = sem_logits[sem_mask]
        c = cls_t[sem_mask].astype(int)
        m = z.max(axis=1, keepdims=True)
        lse = (m[:, 0] + np.log(np.exp(z - m).sum(axis=1)))
        wi = w_c[c]
        l_sem = float(np.mean(wi * (lse - z[np.arange(n_sem), c])))
        sm = _softmax(z)
        sm[np.arange(n_sem), c] -= 1.0
        d_sem[sem_mask] = sm * wi[:, None] * (cfg.lambda_sem / n_sem)

    total = cfg.lambda_occ * l_occ + cfg.lambda_sem * l_sem
    report = LossReport(total, l_occ, l_sem)
    return report, cache, d_occ, d_sem


def loss(model: FieldModel, batch: QueryBatch, cfg: TrainConfig) -> LossReport:
    """Weighted multi-task loss: total = lambda_occ * occ + lambda_sem * sem."""
    report, *_ = _loss_terms(model, batch, cfg)
    return report


def backward(
    model: FieldModel, batch: QueryBatch, cfg: TrainConfig, indices=None, grid_grad=None,
    work=None,
) -> tuple[Gradients, LossReport]:
    """Analytic gradients of the total loss for every parameter.

    Grid cells not touched by any query's bilinear footprint keep exactly
    zero gradient.  A given ``grid_grad`` array receives the grid gradient,
    and a given ``_Workspace`` holds the forward pass's cache.
    """
    report, cache, d_occ, d_sem = _loss_terms(model, batch, cfg, indices, work)
    return _backward_from_output_grads(model, cache, d_occ, d_sem, grid_grad), report


class _AdamW:
    """Adam moments with decoupled weight decay on weight-like parameters,
    updated in slices through two scratch slices kept across steps: with the
    train loops' reused grid gradient, no step allocates a grid-sized array,
    so peak memory does not depend on heap layout."""

    def __init__(self, params: list[np.ndarray], decay_mask: list[bool], cfg: TrainConfig):
        self.params = params
        self.decay_mask = decay_mask
        self.cfg = cfg
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]
        self.t = 0
        self._scratch = np.empty((2, 0))

    def lr_at(self, step: int) -> float:
        cfg = self.cfg
        if step < cfg.warmup_steps:
            return cfg.learning_rate * (step + 1) / max(1, cfg.warmup_steps)
        span = max(1, cfg.total_steps - cfg.warmup_steps)
        progress = (step - cfg.warmup_steps) / span
        return cfg.learning_rate * 0.5 * (1.0 + np.cos(np.pi * progress))

    def step(self, grads: list[np.ndarray], step_index: int) -> None:
        self.t += 1
        lr = self.lr_at(step_index)
        b1c = 1.0 - _ADAM_BETA1**self.t
        b2c = 1.0 - _ADAM_BETA2**self.t
        for arrays, decay in zip(zip(self.params, grads, self.m, self.v), self.decay_mask):
            parts = max(1, min(len(arrays[0]), arrays[0].size // _ADAM_CHUNK))
            for p, g, m, v in zip(*(np.array_split(a, parts) for a in arrays)):
                if self._scratch.shape[1] < p.size:
                    self._scratch = np.empty((2, p.size))
                t, u = (row[: p.size].reshape(p.shape) for row in self._scratch)
                # the operation order of m += (1 - b1) * g; v += (1 - b2) * g * g;
                # u = (m / b1c) / (sqrt(v / b2c) + eps) [+ wd * p]; p -= lr * u
                m *= _ADAM_BETA1
                m += np.multiply(g, 1.0 - _ADAM_BETA1, out=t)
                v *= _ADAM_BETA2
                v += np.multiply(np.multiply(g, 1.0 - _ADAM_BETA2, out=t), g, out=t)
                np.divide(m, b1c, out=u)
                u /= np.add(np.sqrt(np.divide(v, b2c, out=t), out=t), _ADAM_EPS, out=t)
                if decay:
                    u += np.multiply(p, self.cfg.weight_decay, out=t)
                p -= np.multiply(u, lr, out=u)


def _flatten_grads(g: Gradients) -> list[np.ndarray]:
    out = [g.grid]
    for dw, db in g.layers:
        out.extend([dw, db])
    return out


def _decay_mask(model: FieldModel) -> list[bool]:
    mask = [True]  # grid features decay
    for _ in model.layers:
        mask.extend([True, False])  # weights decay, biases do not
    return mask


def _run_steps(model: FieldModel, cfg: TrainConfig, rows: int, step_fn):
    """The training loop of both modes; deterministic given cfg.seed.

    ``step_fn(step, rng, work, grid_grad)`` draws its batch from ``rng``, runs
    its forward pass in ``work``, a ``_Workspace`` of ``rows`` rows, and returns
    (Gradients, LossReport) with the grid gradient in ``grid_grad``.
    """
    rng = np.random.default_rng(cfg.seed)
    opt = _AdamW(model.parameters(), _decay_mask(model), cfg)
    grid_grad = np.empty_like(model.grid.data)  # one for all steps: see _AdamW
    work = _Workspace(rows)
    history: list[LossReport] = []
    # overflow after a divergence is reported via TrainingDivergedError, not
    # as floating-point warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(cfg.total_steps):
            grads, report = step_fn(step, rng, work, grid_grad)
            if not np.isfinite(report.total):
                raise TrainingDivergedError(step)
            opt.step(_flatten_grads(grads), step)
            history.append(report)
    return model, history


def train(
    model: FieldModel, queries: QueryBatch, cfg: TrainConfig
) -> tuple[FieldModel, list[LossReport]]:
    """Mini-batch training on a query batch; deterministic given cfg.seed."""
    if len(queries) == 0:
        raise EmptyBatchError("cannot train on an empty batch")

    def step(index, rng, work, grid_grad):
        idx = rng.integers(0, len(queries), cfg.batch_size)
        return backward(model, queries, cfg, idx, grid_grad, work)

    return _run_steps(model, cfg, cfg.batch_size, step)


@dataclasses.dataclass
class RaySupervision:
    """Target depth/class per ray, the rendering baseline's supervision."""

    origins: np.ndarray
    directions: np.ndarray
    target_depths: np.ndarray
    target_classes: np.ndarray
    times: np.ndarray

    def __len__(self) -> int:
        return len(self.origins)


def rays_from_pointcloud(pc: PointCloud) -> RaySupervision:
    """Turn scan returns into rendering supervision: one ray per point that
    gives queries (see ``supervision._usable``)."""
    good = _usable(pc)
    if not good.all():
        pc = pc.take(np.flatnonzero(good))
    d = pc.positions - pc.origins
    depths = np.linalg.norm(d, axis=1)
    return RaySupervision(pc.origins, d / depths[:, None], depths, pc.class_ids, pc.times)


def _composite(depths, occ, sem=None):
    """Alpha-composite sorted samples along each ray (leading axis).

    Returns (trans, w, mass_eff, guarded, depth, sem): transmittance before
    each sample plus the one after the last, per-sample weights
    w_i = T_i o_i, the normalizing opacity mass floored at ``RENDER_EPS``,
    the rays where that floor is active (nearly transparent rays, whose
    rendered depth and semantics shrink toward zero), and the rendered depth
    and semantic probabilities, each normalized by the floored mass.  Without
    ``sem`` the rendered semantics are None.
    """
    trans = np.concatenate(
        [np.ones((len(depths), 1)), np.cumprod(1.0 - occ, axis=1)], axis=1
    )
    w = trans[:, :-1] * occ
    mass = w.sum(axis=1)
    guarded = mass < RENDER_EPS
    mass_eff = np.maximum(mass, RENDER_EPS)
    depth_r = (w * depths).sum(axis=1) / mass_eff
    sem_r = None if sem is None else (w[:, :, None] * sem).sum(axis=1) / mass_eff[:, None]
    return trans, w, mass_eff, guarded, depth_r, sem_r


def _composite_backward(
    depths, occ, sem, d_depth, d_sem_probs, w, trans, mass_eff, guarded,
    depth_val, sem_val,
):
    """Gradients of (rendered depth, rendered semantics) w.r.t. per-sample
    opacity and semantic probabilities; vectorized over rays (leading axis).

    The normalizing mass is treated as constant wherever the eps guard is
    active (subgradient of the max).
    """
    live = (~guarded).astype(np.float64)
    # dL/dw_i
    a = d_depth[:, None] * (depths - live[:, None] * depth_val[:, None]) / mass_eff[:, None]
    a = a + np.einsum(
        "rc,rnc->rn", d_sem_probs, sem - live[:, None, None] * sem_val[:, None, :]
    ) / mass_eff[:, None]
    d_sem = (w / mass_eff[:, None])[:, :, None] * d_sem_probs[:, None, :]
    # w_i = T_i o_i with T_i = prod_{j<i}(1 - o_j)
    aw = a * w
    tail = np.cumsum(aw[:, ::-1], axis=1)[:, ::-1]  # inclusive suffix sums
    suffix = np.concatenate([tail[:, 1:], np.zeros((len(depths), 1))], axis=1)
    d_occ = a * trans[:, :-1] - suffix / np.maximum(1.0 - occ, 1e-12)
    return d_occ, d_sem


def _ray_queries(org, dirs, times, depths) -> np.ndarray:
    """4D queries at ``depths`` (rays, samples) along each ray, ray-major."""
    pts = org[:, None, :] + depths[:, :, None] * dirs[:, None, :]
    return np.concatenate(
        [pts.reshape(-1, 3), np.repeat(times, depths.shape[1])[:, None]], axis=1
    )


def train_rendering_baseline(
    model: FieldModel, rays: RaySupervision, cfg: TrainConfig
) -> tuple[FieldModel, list[LossReport]]:
    """Image-space supervision baseline: L1 on rendered depth plus CE on
    rendered semantics, with exponentially spaced coarse samples and one
    round of importance resampling around the predicted depth.

    Each sample is evaluated once.  The coarse pass keeps its backprop cache
    in a ``_Workspace`` that lasts the whole run, the importance depths fill
    the rows after it, and every cached row is then gathered into the order
    of the sorted depths.  That is the order of one pass over all sorted
    samples, so compositing and backprop see the bytes of such a pass
    wherever rows agree across batch sizes (``_forward_raw``): with a 6-column
    head, except at ``batch_size`` 1 with one coarse or one importance
    sample, where a part is a single row.

    Reported losses reuse LossReport slots: ``occ`` holds the depth L1 term
    and ``sem`` the semantic term.
    """
    if len(rays) == 0:
        raise EmptyBatchError("no supervision rays")
    coarse = np.geomspace(cfg.render_near, cfg.render_far, cfg.render_coarse)
    b, nc, ni = cfg.batch_size, cfg.render_coarse, cfg.render_importance
    ns = nc + ni
    # each ray's samples in the workspace: coarse rows first, importance rows after
    rows = np.arange(b * ns)
    source = np.hstack([rows[: b * nc].reshape(b, nc), rows[b * nc :].reshape(b, ni)])
    w_c = _class_weights(model, cfg)

    def step(index, rng, work, grid_grad):
        idx = rng.integers(0, len(rays), cfg.batch_size)
        org = rays.origins[idx]
        dirs = rays.directions[idx]
        tgt_d = rays.target_depths[idx]
        tgt_c = rays.target_classes[idx]
        times = rays.times[idx]

        # coarse pass, cached, to place importance samples
        q = _ray_queries(org, dirs, times, np.broadcast_to(coarse, (b, nc)))
        occ_c = _sigmoid(_forward_raw(model, q, work)[0]).reshape(b, -1)
        d_pred = _composite(np.broadcast_to(coarse, (b, nc)), occ_c)[4]
        if not np.isfinite(d_pred).all():  # the fine depths would not be finite
            raise TrainingDivergedError(index)

        fine = d_pred[:, None] + rng.uniform(-1.0, 1.0, (b, ni))
        fine = np.clip(fine, cfg.render_near, cfg.render_far)
        _forward_raw(model, _ray_queries(org, dirs, times, fine), work, b * nc)
        # a stable argsort gives np.sort's depths; tied depths have equal rows
        samples = np.concatenate([np.broadcast_to(coarse, (b, nc)), fine], axis=1)
        order = np.argsort(samples, axis=1, kind="stable")
        depths = np.take_along_axis(samples, order, axis=1)
        work.gather(np.take_along_axis(source, order, axis=1).reshape(-1))
        occ_logit, sem_logits, cache = _cached_rows(model, work, 0, b * ns)
        occ = _sigmoid(occ_logit).reshape(b, ns)
        sem = _softmax(sem_logits).reshape(b, ns, model.n_classes)

        trans, w, mass_eff, guarded, depth_r, sem_r = _composite(depths, occ, sem)

        labeled = tgt_c != UNLABELED
        depth_err = depth_r - tgt_d
        l_depth = float(np.mean(np.abs(depth_err)))
        tiny = 1e-12
        l_sem = 0.0
        d_sem_r = np.zeros_like(sem_r)
        n_lab = int(labeled.sum())
        if n_lab:
            p_true = sem_r[labeled, tgt_c[labeled].astype(int)]
            wi = w_c[tgt_c[labeled].astype(int)]
            l_sem = float(np.mean(wi * -np.log(p_true + tiny)))
            d_sem_r[labeled, tgt_c[labeled].astype(int)] = (
                wi * (-1.0 / (p_true + tiny)) / n_lab
            )

        d_depth_r = np.sign(depth_err) / b
        d_occ_rows, d_sem_rows = _composite_backward(
            depths, occ, sem, d_depth_r, d_sem_r, w, trans, mass_eff, guarded,
            depth_r, sem_r,
        )
        d_occ_logit = (d_occ_rows * occ * (1.0 - occ)).reshape(-1)
        sm = sem.reshape(-1, model.n_classes)
        ds = d_sem_rows.reshape(-1, model.n_classes)
        d_sem_logits = sm * (ds - (ds * sm).sum(axis=1, keepdims=True))
        grads = _backward_from_output_grads(model, cache, d_occ_logit, d_sem_logits, grid_grad)
        return grads, LossReport(l_depth + l_sem, l_depth, l_sem)

    return _run_steps(model, cfg, b * ns, step)


_FM_MAGIC = b"QOFM"
_FM_VERSION = 1
_FM_COUNT = struct.Struct("<II")  # version, number of layer sizes
# n_classes, feature_dim (always 0), Fourier bands, min and max frequency,
# k_hr, beta, grid width, height and channels
_FM_HEAD = struct.Struct("<IIIff2f3I")


def write_field_model(model: FieldModel, destination) -> None:
    """QOFM format: architecture header then float32 parameters in order
    (grid C-order, then per layer W and b)."""
    sizes = model.layer_sizes
    head = (
        _FM_MAGIC
        + _FM_COUNT.pack(_FM_VERSION, len(sizes))
        + struct.pack(f"<{len(sizes)}I", *sizes)
        + _FM_HEAD.pack(
            model.n_classes,
            0,
            model.fourier.n_bands,
            model.fourier.min_freq,
            model.fourier.max_freq,
            model.contraction.k_hr,
            model.contraction.beta,
            model.grid.width,
            model.grid.height,
            model.grid.channels,
        )
    )
    params = (np.ascontiguousarray(p, dtype="<f4") for p in model.parameters())
    _format.write(destination, itertools.chain([head], params))


def read_field_model(source) -> FieldModel:
    f = _format.Reader(source, _FM_MAGIC, {_FM_VERSION: _FM_COUNT})
    _, n_sizes = f.header
    sizes = f.unpack(struct.Struct(f"<{n_sizes}I"))
    n_classes, feature_dim, n_bands, fmin, fmax, k_hr, beta, gw, gh, gc = f.unpack(_FM_HEAD)
    f.no_features(feature_dim)
    fourier = FourierConfig(n_bands, float(fmin), float(fmax))
    contraction = ContractionParams(float(k_hr), float(beta))

    def take(*shape):
        return f.array("<f4", math.prod(shape)).astype(np.float64).reshape(shape)

    grid = BevGrid(gw, gh, gc, contraction, take(gh, gw, gc))
    layers = [(take(m, n), take(n)) for m, n in zip(sizes, sizes[1:])]
    f.end()
    return FieldModel(grid, layers, fourier, n_classes)


def write_loss_csv(history: Sequence[LossReport], destination) -> None:
    """One row per step.  The ``vfm`` column is always 0: the field has no
    feature head, and the column keeps the file's layout."""
    lines = ["step,total,occ,sem,vfm\n"]
    for i, r in enumerate(history):
        lines.append(f"{i},{r.total:.10g},{r.occ:.10g},{r.sem:.10g},0\n")
    _format.write(destination, ["".join(lines).encode()])
