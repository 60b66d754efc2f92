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

    def _frequencies(self):
        npx, npy, npz = self.padded_shape
        kx = np.fft.fftfreq(npx, d=self.grid.hx)[:, None, None]
        ky = np.fft.fftfreq(npy, d=self.grid.hy)[None, :, None]
        kz = np.fft.rfftfreq(npz, d=self.grid.hz)[None, None, :]
        return kx, ky, kz


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


DemagModel = FftDemag | TensorDemag


def _multiplier_coeff(model: FftDemag, m: np.ndarray, g: Grid3,
                      mask: DomainMask) -> np.ndarray:
    """Spectral coefficient -(xi . m_hat)/|xi|^2 of the padded transform.

    Works one component at a time to keep peak memory low on large grids.
    """
    nx, ny, nz = g.shape
    mm = apply_mask(m, mask)
    kx, ky, kz = model._frequencies()
    kdotm = None
    pad = np.zeros(model.padded_shape)
    for i, k in enumerate((kx, ky, kz)):
        pad[...] = 0.0
        pad[:nx, :ny, :nz] = mm[..., i]
        fm = scipy.fft.rfftn(pad)
        fm *= k
        kdotm = fm if kdotm is None else kdotm + fm
    k2 = kx**2 + ky**2 + kz**2
    k2[0, 0, 0] = 1.0  # zero mode mapped to 0 below
    coeff = kdotm / k2
    coeff *= -1.0
    coeff[0, 0, 0] = 0.0
    return coeff


def demag_field(model: DemagModel, m: np.ndarray, g: Grid3,
                mask: DomainMask) -> np.ndarray:
    """Demagnetizing field of m, restricted to the grid box."""
    _check_field(m, g)
    if isinstance(model, TensorDemag):
        if not g.is_macrospin:
            raise ModeMismatchError(
                "tensor demag model is only valid on single-cell grids")
        return apply_mask(m @ model.D.T * -1.0, mask)

    if model.grid.shape != g.shape:
        raise ModeMismatchError("demag model was built for a different grid")
    nx, ny, nz = g.shape
    coeff = _multiplier_coeff(model, m, g, mask)
    h = np.empty(g.shape + (3,))
    for i, k in enumerate(model._frequencies()):
        hi = scipy.fft.irfftn(coeff * k, s=model.padded_shape)
        h[..., i] = hi[:nx, :ny, :nz]
    return h


def demag_field_padded(model: FftDemag, m: np.ndarray, g: Grid3,
                       mask: DomainMask) -> np.ndarray:
    """Like demag_field but returning the field on the whole padded box
    (used by the norm-bound diagnostics)."""
    _check_field(m, g)
    coeff = _multiplier_coeff(model, m, g, mask)
    h = np.empty(model.padded_shape + (3,))
    for i, k in enumerate(model._frequencies()):
        h[..., i] = scipy.fft.irfftn(coeff * k, s=model.padded_shape)
    return h


def demag_tensor_estimate(e: EllipsoidSpec, resolution: int,
                          pad_factor: int = 4) -> np.ndarray:
    """Depolarization tensor of an ellipsoid, estimated with the FFT operator.

    Builds a resolution^3 staircase mask of the ellipsoid, applies the demag
    operator to each constant unit field e_i, and volume-averages -h_d over
    the body. Converges toward the exact tensor (trace 1) under refinement.

    pad_factor defaults to 4 here (above the operator's 2x minimum): the
    wrap-around bias scales with the body's volume fraction of the padded
    box, and the tight bounding box would otherwise dominate the estimate.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    n = resolution
    g = Grid3(n, n, n, 2 * e.a / n, 2 * e.b / n, 2 * e.c / n)
    mask = DomainMask.ellipsoid(g, e)
    model = FftDemag.for_grid(g, pad_factor)
    D = np.zeros((3, 3))
    for i in range(3):
        ei = np.zeros(3)
        ei[i] = 1.0
        h = demag_field(model, constant_field(g, ei, mask), g, mask)
        for j in range(3):
            D[j, i] = -float(np.mean(h[..., j][mask.inside]))
    # symmetrize away roundoff
    return 0.5 * (D + D.T)
