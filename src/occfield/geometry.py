"""Pure deterministic geometry: scene contraction, Fourier positional
encoding, and ray/box slab clipping.

Conventions used throughout the package:
  * ego frame: right-handed, z up, meters
  * contraction applies to x and y only; z and t are never contracted
"""

from __future__ import annotations

import dataclasses

import numpy as np

__all__ = [
    "ContractionParams",
    "FourierConfig",
    "contract_axis",
    "fourier_encode_batch",
    "ray_box",
]


@dataclasses.dataclass(frozen=True)
class ContractionParams:
    """Axis-aligned contraction of unbounded coordinates into (-1, 1).

    ``k_hr`` is the metric half-range kept at full resolution and ``beta``
    the fraction of the output interval spent on it.  The map is

        c(k) = beta * k/k_hr                        for |k/k_hr| <= 1
        c(k) = sign(k) * (1 - (1-beta) / |k/k_hr|)  otherwise

    which is odd, strictly increasing, and continuous at |k/k_hr| = 1.
    """

    k_hr: float = 40.0
    beta: float = 0.8

    def __post_init__(self):
        if not (np.isfinite(self.k_hr) and self.k_hr > 0):
            raise ValueError(f"k_hr must be positive, got {self.k_hr}")
        if not (0.0 < self.beta < 1.0):
            raise ValueError(f"beta must lie in (0, 1), got {self.beta}")


def contract_axis(kappa, p: ContractionParams):
    """Contract a metric coordinate (scalar or array) into (-1, 1)."""
    k = np.asarray(kappa, dtype=np.float64)
    if not np.all(np.isfinite(k)):
        raise ValueError("contract_axis requires finite input")
    kb = k / p.k_hr
    ab = np.abs(kb)
    # second branch is only read where ab > 1; clamp keeps the division safe
    far = np.sign(kb) * (1.0 - (1.0 - p.beta) / np.maximum(ab, 1.0))
    out = np.where(ab <= 1.0, p.beta * kb, far)
    return float(out) if np.isscalar(kappa) else out


@dataclasses.dataclass(frozen=True)
class FourierConfig:
    """Sinusoidal encoding with frequencies laid out log-linearly.

    Band k of n carries frequency min_freq * (max_freq/min_freq)**(k/(n-1)).
    """

    n_bands: int = 16
    min_freq: float = 1.0
    max_freq: float = 10.0

    def __post_init__(self):
        if self.n_bands < 1:
            raise ValueError("n_bands must be positive")
        if not (0.0 < self.min_freq <= self.max_freq < np.inf):
            raise ValueError("need 0 < min_freq <= max_freq, both finite")

    @property
    def frequencies(self) -> np.ndarray:
        if self.n_bands == 1:
            return np.array([self.min_freq], dtype=np.float64)
        r = np.arange(self.n_bands) / (self.n_bands - 1)
        return self.min_freq * (self.max_freq / self.min_freq) ** r

    def output_dim(self, input_dim: int = 1) -> int:
        return 2 * self.n_bands * input_dim


def fourier_encode_batch(values: np.ndarray, cfg: FourierConfig) -> np.ndarray:
    """Sinusoidal encoding of each row: [sin(f_k * v_d)..., cos(f_k * v_d)...].

    ``values`` has shape (N,) or (N, D); the result is (N, 2*n_bands*D),
    sines first (dim-major within the block), then cosines in the same order.
    """
    v = np.asarray(values, dtype=np.float64)
    if v.ndim == 1:
        v = v[:, None]
    phases = (v[:, :, None] * cfg.frequencies[None, None, :]).reshape(len(v), v.shape[1] * cfg.n_bands)
    return np.concatenate([np.sin(phases), np.cos(phases)], axis=1)


def ray_box(origins, dirs, lo, hi, inside=None) -> tuple[np.ndarray, np.ndarray]:
    """Slab test: (t_in, t_out) of rays ``origins + t * dirs`` through boxes
    [lo, hi]; a miss has t_in > t_out.  Arguments broadcast with coordinates
    (any number of axes) on the last axis.  A ray parallel to an axis is in
    that slab iff its origin is (closed), or where ``inside`` says so."""
    if inside is None:
        inside = (origins >= lo) & (origins <= hi)
    t_in, t_out = -np.inf, np.inf
    # one axis at a time: numpy is several times slower on a short last axis
    with np.errstate(divide="ignore", invalid="ignore"):
        for a in range(dirs.shape[-1]):
            o, d, ins = origins[..., a], dirs[..., a], inside[..., a]
            t1 = (lo[..., a] - o) / d
            t2 = (hi[..., a] - o) / d
            parallel = d == 0
            near = np.where(parallel, np.where(ins, -np.inf, np.inf), np.minimum(t1, t2))
            far = np.where(parallel, np.where(ins, np.inf, -np.inf), np.maximum(t1, t2))
            t_in, t_out = np.maximum(t_in, near), np.minimum(t_out, far)
    return t_in, t_out
