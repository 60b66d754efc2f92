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
)


@dataclass(frozen=True)
class FftDemag:
    """Fourier-multiplier demag operator on a zero-padded copy of the grid.

    Padding (>= 2x per axis) emulates the whole-space convolution; the
    residual wrap-around of periodic images is the dominant discretization
    error at desk scale.

    One cell is refused: every nonzero mode of its padded box is Nyquist.

    The model owns the complex work buffers of its transforms, so one model
    is not for concurrent calls from several threads.
    """

    grid: Grid3
    padded_shape: tuple[int, int, int]

    def __post_init__(self):
        if self.grid.is_macrospin:
            raise ValueError("a one-cell grid takes TensorDemag, not FftDemag")
        shape = self.padded_shape
        if not (len(shape) == 3 and all(
                isinstance(n, (int, np.integer)) and n >= 1 for n in shape)):
            raise ValueError(
                f"padded_shape must be three ints >= 1, got {shape!r}")
        object.__setattr__(self, "padded_shape", tuple(map(int, shape)))
        for n, npad in zip(self.grid.shape, self.padded_shape):
            if n > 1 and npad < 2 * n:
                raise ValueError("padding must be >= 2x per axis")

    @staticmethod
    def for_grid(g: Grid3, pad_factor: int = 2) -> "FftDemag":
        padded = tuple(max(pad_factor * n, 1) for n in g.shape)
        return FftDemag(g, padded)

    @cached_property
    def _spectrum(self):
        """Real factors of the multiplier, for float views of the padded
        complex spectrum: kx, ky, kz with each kz twice, and -1/|k|^2
        laid out so too (0 at k = 0); built on first use, then read-only."""
        npx, npy, npz = self.padded_shape
        kx = np.fft.fftfreq(npx, d=self.grid.hx)[:, None, None]
        ky = np.fft.fftfreq(npy, d=self.grid.hy)[None, :, None]
        kz = np.fft.rfftfreq(npz, d=self.grid.hz).repeat(2)[None, None, :]
        k2 = kx**2 + ky**2 + kz**2
        k2[0, 0, :2] = np.inf
        q = -1.0 / k2
        for a in (kx, ky, kz, q):
            a.flags.writeable = False
        return (kx, ky, kz), q

    @cached_property
    def _buffers(self) -> dict:
        """Complex work buffers of _fft_field, keyed by output shape; each
        built on first use of its shape."""
        return {}


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

    @cached_property
    def rows(self) -> tuple[tuple[float, float, float], ...]:
        """The rows of D as floats, for the one-cell field."""
        return tuple(map(tuple, self.D.tolist()))


DemagModel = FftDemag | TensorDemag


def _fft_field(model: FftDemag, m: np.ndarray, g: Grid3, mask: DomainMask,
               shape: tuple[int, int, int]) -> np.ndarray:
    """Demag field of m on the leading shape-sized corner of the padded
    box; ModeMismatchError unless the model was built for g's shape and
    spacings.

    One-axis passes, each over only the lines that hold data or are kept.
    The complex passes run in place on the model's buffers (each pass's
    result is used, so a copying scipy.fft stays correct); the multiplier
    is real, so it is applied on float views of them. The result is a new
    array.
    """
    _check_field(m, g)
    if model.grid.shape != g.shape or model.grid.spacings != g.spacings:
        raise ModeMismatchError("demag model was built for a different grid")
    (kx, ky, kz), q = model._spectrum
    px, py, pz = model.padded_shape
    nx, ny = g.shape[:2]
    sx, sy, sz = shape
    bufs = model._buffers.get(shape)
    if bufs is None:
        nkz = pz // 2 + 1
        bufs = model._buffers[shape] = (
            np.empty((3, sx, py, nkz), complex),  # y passes, sx >= nx
            np.empty((2, px, py, nkz), complex))  # x passes
    fy, fx = bufs
    # forward: z over the nx*ny data lines, y over nx*nkz lines
    mm = np.moveaxis(apply_mask(m, mask), -1, 0)
    f = fy[:, :nx]
    f[:, :, :ny] = scipy.fft.rfft(mm, n=pz, axis=-1)
    f[:, :, ny:] = 0.0
    f = scipy.fft.fft(f, axis=2, overwrite_x=True)
    # x over the whole padded box; ky and kz do not vary along x, so it
    # takes two fields, f_x and ky f_y + kz f_z
    fx[:, nx:] = 0.0
    fx[0, :nx] = f[0]
    np.multiply(f[1].view(float), ky, out=fx[1, :nx].view(float))
    np.multiply(f[2].view(float), kz, out=f[2].view(float))
    fx[1, :nx] += f[2]
    f = scipy.fft.fft(fx, axis=1, overwrite_x=True)
    # c = -(kx F_x + F_yz) / |k|^2 in f[0] (0 at k = 0), kx c in f[1]
    c = f[0].view(float)
    c *= kx
    c += f[1].view(float)
    c *= q
    np.multiply(c, kx, out=f[1].view(float))
    # inverse: x over c and kx c, then y over the sx kept planes of
    # kx c, ky c and c
    f = scipy.fft.ifft(f, axis=1, overwrite_x=True)
    fy[0] = f[1, :sx]
    np.multiply(f[0, :sx].view(float), ky, out=fy[1].view(float))
    fy[2] = f[0, :sx]
    f = scipy.fft.ifft(fy, axis=2, overwrite_x=True)
    # z over the sx*sy kept lines, c times kz first
    f = f[:, :, :sy]
    np.multiply(f[2].view(float), kz, out=f[2].view(float))
    hp = scipy.fft.irfft(f, n=pz, axis=-1)
    return np.moveaxis(hp[..., :sz], 0, -1).copy()


def demag_field(model: DemagModel, m: np.ndarray, g: Grid3,
                mask: DomainMask) -> np.ndarray:
    """Demagnetizing field of m, restricted to the grid box."""
    if isinstance(model, FftDemag):
        return _fft_field(model, m, g, mask, g.shape)
    _check_field(m, g)
    if not g.is_macrospin:
        raise ModeMismatchError(
            "tensor demag model is only valid on single-cell grids")
    return m @ model.D.T * -1.0


def demag_field_padded(model: FftDemag, m: np.ndarray, g: Grid3,
                       mask: DomainMask) -> np.ndarray:
    """Like demag_field but returning the field on the whole padded box
    (used by the norm-bound diagnostics)."""
    return _fft_field(model, m, g, mask, model.padded_shape)


def demag_tensor_estimate(e: EllipsoidSpec, resolution: int) -> np.ndarray:
    """Depolarization tensor of an ellipsoid, estimated with the FFT operator.

    D[i, j] is the body average of -h_d(e_j)_i on a resolution^3 staircase
    mask. With chi the body's indicator on the padded box,
    -h_d(e_j)^ = k k_j chi^ / |k|^2, so by Parseval
    D = sum_{k != 0} |chi^(k)|^2 k k^T / |k|^2 / (N_body N_pad): one forward
    transform, exactly symmetric. Its trace is exactly 1 - N_body / N_pad
    at every resolution, not the exact tensor's 1: refinement keeps the
    body's share of the padded box, and so this wrap-around bias.

    The padding factor is 4 here (above the operator's 2x minimum): at 2x
    around the tight bounding box the bias would dominate the estimate.

    The sum runs one kz plane at a time, from one z transform of the n^2
    data lines, so no array of the padded box's size is built: the largest
    are that transform's zero-padded input and output, about 32 n^3 bytes
    each, and the transform runs about 11 n^2 lines of 4n.
    """
    if resolution < 16:
        raise ValueError("resolution must be >= 16")
    n, npad = resolution, 4 * resolution
    g = Grid3(n, n, n, 2 * e.a / n, 2 * e.b / n, 2 * e.c / n)
    chi = DomainMask.ellipsoid(g, e).inside
    kx, ky = np.fft.fftfreq(npad, d=g.hx), np.fft.fftfreq(npad, d=g.hy)
    kz = np.fft.rfftfreq(npad, d=g.hz)
    kxy2 = kx[:, None]**2 + ky**2
    fz = scipy.fft.rfft(chi.astype(float), n=npad, axis=2)
    # the three 2-D marginals of p = |chi^|^2 / |k|^2 carry every entry of D
    pxy = np.zeros((npad, npad))
    pxz, pyz = np.empty((npad, kz.size)), np.empty((npad, kz.size))
    for j in range(kz.size):
        f = scipy.fft.fft(scipy.fft.fft(fz[..., j], n=npad, axis=1),
                          n=npad, axis=0)
        k2 = kxy2 + kz[j]**2
        if j == 0:
            k2[0, 0] = np.inf  # drops the zero mode
        p = f.real**2 + f.imag**2
        p /= k2
        # inner kz planes stand for their mirror images too (4n is even)
        if 0 < j < kz.size - 1:
            p *= 2.0
        pxy += p
        pxz[:, j], pyz[:, j] = p.sum(axis=1), p.sum(axis=0)
    dxy, dxz, dyz = kx @ pxy @ ky, kx @ pxz @ kz, ky @ pyz @ kz
    D = np.array([[kx**2 @ pxy.sum(axis=1), dxy, dxz],
                  [dxy, ky**2 @ pxy.sum(axis=0), dyz],
                  [dxz, dyz, kz**2 @ pxz.sum(axis=0)]])
    return D / (chi.sum() * npad**3)


def depolarization_tensor(e: EllipsoidSpec, resolution: int) -> np.ndarray:
    """Depolarization tensor of an ellipsoid: exactly I/3 for a sphere
    (a == c), else demag_tensor_estimate at the given resolution."""
    if e.a == e.c:
        return np.eye(3) / 3.0
    return demag_tensor_estimate(e, resolution)
