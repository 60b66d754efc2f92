"""Demagnetizing field: FFT multiplier on a zero-padded box, and the
depolarization-tensor shortcut for spatially constant magnetization.

The field h_d(m) solves curl h_d = 0, div(h_d + m_ext0) = 0 on the whole
space, where m_ext0 is m extended by zero outside the body. In Fourier
variables this is the multiplier -xi (xi . m_hat) / |xi|^2, a negated
rank-one orthogonal projection, so the discrete operator is exactly
non-positive, symmetric, and L2-bounded by 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
import scipy.fft

from .grid import (
    DomainMask,
    EllipsoidSpec,
    Grid3,
    ModeMismatchError,
    _check_field,
    apply_mask,
    constant_field,
)


@dataclass(frozen=True)
class FftDemag:
    """Fourier-multiplier demag operator on a zero-padded copy of the grid.

    Padding (>= 2x per axis) emulates the whole-space convolution; the
    residual wrap-around of periodic images is the dominant discretization
    error at desk scale.
    """

    grid: Grid3
    padded_shape: tuple[int, int, int]

    def __post_init__(self):
        for n, npad in zip(self.grid.shape, self.padded_shape):
            if n > 1 and npad < 2 * n:
                raise ValueError("padding must be >= 2x per axis")

    @staticmethod
    def for_grid(g: Grid3, pad_factor: int = 2) -> "FftDemag":
        padded = tuple(max(pad_factor * n, 1) for n in g.shape)
        return FftDemag(g, padded)

    @cached_property
    def _spectrum(self):
        """Frequencies (kx, ky, kz) of the padded real transform, and
        |xi|^2 with the zero mode set to 1 (that mode is mapped to 0);
        built on first use, then read-only."""
        npx, npy, npz = self.padded_shape
        kx = np.fft.fftfreq(npx, d=self.grid.hx)[:, None, None]
        ky = np.fft.fftfreq(npy, d=self.grid.hy)[None, :, None]
        kz = np.fft.rfftfreq(npz, d=self.grid.hz)[None, None, :]
        k2 = kx**2 + ky**2 + kz**2
        k2[0, 0, 0] = 1.0
        for a in (kx, ky, kz, k2):
            a.flags.writeable = False
        return (kx, ky, kz), k2


@dataclass(frozen=True)
class TensorDemag:
    """Depolarization tensor model: h_d(m) = -D m for constant m.

    Only valid on single-cell (macrospin) grids, where the magnetization is
    constant by construction.
    """

    D: np.ndarray  # (3, 3), symmetric positive definite

    def __post_init__(self):
        D = np.asarray(self.D, dtype=float)
        if D.shape != (3, 3) or not np.allclose(D, D.T, atol=1e-12):
            raise ValueError("D must be a symmetric 3x3 matrix")
        if np.any(np.linalg.eigvalsh(D) <= 0):
            raise ValueError("D must be positive definite")
        object.__setattr__(self, "D", D)


DemagModel = FftDemag | TensorDemag


def _fft_field(model: FftDemag, m: np.ndarray, g: Grid3, mask: DomainMask,
               shape: tuple[int, int, int]) -> np.ndarray:
    """Demag field of m on the leading shape-sized corner of the padded
    box; ModeMismatchError unless the model was built for g.

    Works one component at a time to keep peak memory low on large grids.
    """
    _check_field(m, g)
    if model.grid.shape != g.shape:
        raise ModeMismatchError("demag model was built for a different grid")
    mm = apply_mask(m, mask)
    ks, k2 = model._spectrum
    kdotm = None
    for i, k in enumerate(ks):
        # rfftn zero-pads the component up to the padded shape
        fm = scipy.fft.rfftn(mm[..., i], s=model.padded_shape)
        fm *= k
        kdotm = fm if kdotm is None else kdotm + fm
    coeff = kdotm / k2
    coeff *= -1.0
    coeff[0, 0, 0] = 0.0
    del mm, fm, kdotm  # free them before the inverse transforms
    sx, sy, sz = shape
    h = np.empty(shape + (3,))
    for i, k in enumerate(ks):
        hi = scipy.fft.irfftn(coeff * k, s=model.padded_shape)
        h[..., i] = hi[:sx, :sy, :sz]
    return h


def demag_field(model: DemagModel, m: np.ndarray, g: Grid3,
                mask: DomainMask) -> np.ndarray:
    """Demagnetizing field of m, restricted to the grid box."""
    if isinstance(model, FftDemag):
        return _fft_field(model, m, g, mask, g.shape)
    _check_field(m, g)
    if not g.is_macrospin:
        raise ModeMismatchError(
            "tensor demag model is only valid on single-cell grids")
    return apply_mask(m @ model.D.T * -1.0, mask)


def demag_field_padded(model: FftDemag, m: np.ndarray, g: Grid3,
                       mask: DomainMask) -> np.ndarray:
    """Like demag_field but returning the field on the whole padded box
    (used by the norm-bound diagnostics)."""
    return _fft_field(model, m, g, mask, model.padded_shape)


def demag_tensor_estimate(e: EllipsoidSpec, resolution: int) -> np.ndarray:
    """Depolarization tensor of an ellipsoid, estimated with the FFT operator.

    Builds a resolution^3 staircase mask of the ellipsoid, applies the demag
    operator to each constant unit field e_i, and volume-averages -h_d over
    the body. Converges toward the exact tensor (trace 1) under refinement.

    The padding factor is 4 here (above the operator's 2x minimum): the
    wrap-around bias scales with the body's volume fraction of the padded
    box, and the tight bounding box would otherwise dominate the estimate.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    n = resolution
    g = Grid3(n, n, n, 2 * e.a / n, 2 * e.b / n, 2 * e.c / n)
    mask = DomainMask.ellipsoid(g, e)
    model = FftDemag.for_grid(g, 4)
    D = np.zeros((3, 3))
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = 1.0
        h = demag_field(model, constant_field(g, ei, mask), g, mask)
        for j in range(3):
            D[j, i] = -float(np.mean(h[..., j][mask.inside]))
    # symmetrize away roundoff
    return 0.5 * (D + D.T)


def depolarization_tensor(e: EllipsoidSpec, resolution: int) -> np.ndarray:
    """Depolarization tensor of an ellipsoid: exactly I/3 for a sphere
    (a == c), else demag_tensor_estimate at the given resolution."""
    if e.a == e.c:
        return np.eye(3) / 3.0
    return demag_tensor_estimate(e, resolution)
