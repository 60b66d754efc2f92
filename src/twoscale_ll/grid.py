"""Rectangular-grid discretization: vector fields on a masked box, the
mirror-ghost Neumann Laplacian with its cosine spectrum (which holds on the
full box only), and the discrete L2/H1/H2 inner products.

Vector fields are plain numpy arrays of shape (nx, ny, nz, 3), collocated at
cell centers. Values on cells outside the domain mask are kept at zero.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np


class ShapeMismatchError(ValueError):
    """Field array shape does not match the grid it is used with."""


class DegenerateCellError(ValueError):
    """A masked cell holds a zero vector where a direction is required."""


class ModeMismatchError(ValueError):
    """An operator was applied where it does not hold: the cosine spectrum
    on a masked domain, or a demag model on a grid it was not built for."""


@dataclass(frozen=True)
class Grid3:
    """Cell counts, spacings and origin of a rectangular grid.

    A 1x1x1 grid is the macrospin degenerate case (no spatial structure).
    """

    nx: int
    ny: int
    nz: int
    hx: float = 1.0
    hy: float = 1.0
    hz: float = 1.0
    origin: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        if min(self.nx, self.ny, self.nz) < 1:
            raise ValueError("cell counts must be >= 1")
        if not (self.hx > 0 and self.hy > 0 and self.hz > 0):
            raise ValueError("cell spacings must be > 0")
        # a tuple even when given an array, so a grid can key a cache
        object.__setattr__(self, "origin", tuple(map(float, self.origin)))

    @property
    def shape(self) -> tuple[int, int, int]:
        return (self.nx, self.ny, self.nz)

    @property
    def spacings(self) -> tuple[float, float, float]:
        return (self.hx, self.hy, self.hz)

    @property
    def cell_volume(self) -> float:
        return self.hx * self.hy * self.hz

    @property
    def is_macrospin(self) -> bool:
        return self.shape == (1, 1, 1)

    def cell_centers(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Coordinate arrays (broadcastable to the grid shape)."""
        ox, oy, oz = self.origin
        x = ox + (np.arange(self.nx) + 0.5) * self.hx
        y = oy + (np.arange(self.ny) + 0.5) * self.hy
        z = oz + (np.arange(self.nz) + 0.5) * self.hz
        return (
            x[:, None, None],
            y[None, :, None],
            z[None, None, :],
        )


def _box_center(g: Grid3) -> tuple[float, float, float]:
    """Center of the grid box."""
    return tuple(o + n * h / 2
                 for o, n, h in zip(g.origin, g.shape, g.spacings))


@dataclass(frozen=True)
class EllipsoidSpec:
    """Axis-aligned ellipsoid with semi-axes a >= b >= c > 0."""

    a: float
    b: float
    c: float

    def __post_init__(self):
        if not (self.a >= self.b >= self.c > 0):
            raise ValueError("semi-axes must satisfy a >= b >= c > 0")


@dataclass(frozen=True)
class DomainMask:
    """Per-cell indicator of the magnetic body inside the bounding grid."""

    inside: np.ndarray  # bool, shape (nx, ny, nz)
    cell_volume: float

    def __post_init__(self):
        # a read-only copy, so the cached facts below cannot go stale
        object.__setattr__(self, "inside", np.array(self.inside, dtype=bool))
        self.inside.flags.writeable = False
        if not np.any(self.inside):
            raise ValueError("mask must contain at least one cell")
        if self.cell_volume <= 0:
            raise ValueError("cell volume must be > 0")

    @property
    def volume(self) -> float:
        return float(np.count_nonzero(self.inside)) * self.cell_volume

    @cached_property
    def is_full_box(self) -> bool:
        """Whether the body fills the grid box, the one domain on which the
        cosine modes diagonalize laplacian_neumann."""
        return bool(np.all(self.inside))

    @cached_property
    def face_weights(self) -> dict[int, np.ndarray]:
        """Per axis, whether each interior face joins two body cells, shaped
        to scale a vector field; the stencil skips them on the full box."""
        return {axis: (self.inside[lo] & self.inside[hi])[..., None]
                for axis, lo, hi, _ in _faces(Grid3(*self.inside.shape))}

    @cached_property
    def bounding_box(self) -> tuple[slice, slice, slice]:
        """Index slices of the smallest box of cells that holds the body."""
        return tuple(slice(int(i.min()), int(i.max()) + 1)
                     for i in np.nonzero(self.inside))

    @staticmethod
    def full(g: Grid3) -> "DomainMask":
        return DomainMask(np.ones(g.shape, dtype=bool), g.cell_volume)

    @staticmethod
    def ellipsoid(g: Grid3, e: EllipsoidSpec) -> "DomainMask":
        """Staircase mask of an axis-aligned ellipsoid centered in the box."""
        x, y, z = g.cell_centers()
        cx, cy, cz = _box_center(g)
        r2 = ((x - cx) / e.a) ** 2 + ((y - cy) / e.b) ** 2 \
            + ((z - cz) / e.c) ** 2
        return DomainMask(r2 <= 1.0, g.cell_volume)


def _check_field(u: np.ndarray, g: Grid3) -> None:
    if u.shape != g.shape + (3,):
        raise ShapeMismatchError(
            f"field shape {u.shape} does not match grid {g.shape + (3,)}")


def constant_field(g: Grid3, v, mask: DomainMask) -> np.ndarray:
    """Field equal to the 3-vector v on masked cells, zero outside."""
    u = np.zeros(g.shape + (3,))
    u[...] = np.asarray(v, dtype=float)
    return apply_mask(u, mask)


def apply_mask(u: np.ndarray, mask: DomainMask) -> np.ndarray:
    """u, zeroed outside the body; on the full box u itself, not a copy."""
    if mask.is_full_box:
        return u
    return np.where(mask.inside[..., None], u, 0.0)


def _faces(g: Grid3):
    """Yield (axis, lo, hi, h) for every axis with more than one cell: lo
    and hi index the two cells on either side of each interior face."""
    for axis, (n, h) in enumerate(zip(g.shape, g.spacings)):
        if n > 1:
            pre = (slice(None),) * axis
            yield axis, pre + (slice(0, n - 1),), pre + (slice(1, n),), h


def _face_flux(u: np.ndarray, axis: int, lo: tuple, hi: tuple, h: float,
               mask: DomainMask) -> np.ndarray:
    """(u[hi] - u[lo]) / h^2 on faces between two masked cells, zero on
    faces that touch an outside cell.

    An outside neighbor acts as a mirror ghost: its value equals the center
    value, so its face carries nothing. This is the discrete homogeneous
    Neumann condition, and it keeps the stencil symmetric.
    """
    du = u[hi] - u[lo]
    if not mask.is_full_box:
        du *= mask.face_weights[axis]
    du /= h**2
    return du


def laplacian_neumann(u: np.ndarray, g: Grid3, mask: DomainMask) -> np.ndarray:
    """7-point Laplacian with mirror ghost cells across the mask boundary."""
    _check_field(u, g)
    out = np.zeros_like(u)
    for axis, lo, hi, h in _faces(g):
        q = _face_flux(u, axis, lo, hi, h, mask)
        out[lo] += q
        out[hi] -= q
    return out


@lru_cache(maxsize=8)
def neumann_eigenvalues(g: Grid3) -> np.ndarray:
    """Eigenvalues of -laplacian_neumann on the full box, indexed by cosine
    mode (kx, ky, kz); cached per grid and read-only.

    Mode k along an axis of n cells is cos(pi k (i + 1/2) / n), the type-II
    DCT basis, with eigenvalue (2/h^2)(1 - cos(pi k / n)); the 3-D
    eigenvalue is the sum over axes. On a masked domain the stencil has
    other eigenvectors, see require_full_box.
    """
    mu = [(2.0 / h**2) * (1.0 - np.cos(np.pi * np.arange(n) / n))
          for n, h in zip(g.shape, g.spacings)]
    out = mu[0][:, None, None] + mu[1][None, :, None] + mu[2][None, None, :]
    out.flags.writeable = False
    return out


def require_full_box(mask: DomainMask, what: str) -> None:
    """Reject a masked domain for an operation built on the cosine spectrum."""
    if not mask.is_full_box:
        raise ModeMismatchError(f"{what} requires a full-box domain mask")


def dot3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise scalar product of two vector fields."""
    return np.einsum("...k,...k->...", u, v)


def cross3(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Pointwise cross product (manual expansion, faster than numpy's
    cross on small arrays)."""
    out = np.empty_like(u)
    out[..., 0] = u[..., 1] * v[..., 2] - u[..., 2] * v[..., 1]
    out[..., 1] = u[..., 2] * v[..., 0] - u[..., 0] * v[..., 2]
    out[..., 2] = u[..., 0] * v[..., 1] - u[..., 1] * v[..., 0]
    return out


def inner_products(u: np.ndarray, v: np.ndarray, g: Grid3,
                   mask: DomainMask) -> dict[str, float]:
    """Discrete L2, H1 and H2 inner products over the masked cells.

    h1 adds the summed gradient pairing, -(u | Lap v) by parts; h2 adds the
    Laplacian pairing (norm-equivalent to the full H2 product on the
    Neumann domain).
    """
    _check_field(u, g)
    _check_field(v, g)
    dV = mask.cell_volume
    w = mask.inside
    l2 = float(np.sum(dot3(u, v)[w])) * dV
    lu = laplacian_neumann(u, g, mask)
    lv = lu if v is u else laplacian_neumann(v, g, mask)
    h1 = l2 - float(np.sum(dot3(u, lv)[w])) * dV
    h2 = l2 + float(np.sum(dot3(lu, lv)[w])) * dV
    return {"l2": l2, "h1": h1, "h2": h2}


def norm_l2(u: np.ndarray, g: Grid3, mask: DomainMask) -> float:
    dV = mask.cell_volume
    return float(np.sqrt(np.sum(dot3(u, u)[mask.inside]) * dV))


def normalize_pointwise(u: np.ndarray, mask: DomainMask) -> np.ndarray:
    """Scale every masked cell to unit Euclidean norm."""
    norms = np.sqrt(dot3(u, u))
    zero = norms == 0.0
    if np.any(zero):
        bad = mask.inside & zero
        if np.any(bad):
            cell = tuple(int(i) for i in np.argwhere(bad)[0])
            raise DegenerateCellError(f"zero vector at masked cell {cell}")
        norms = np.where(zero, 1.0, norms)
    return apply_mask(u / norms[..., None], mask)


def mean_magnetization(u: np.ndarray, mask: DomainMask) -> np.ndarray:
    """Volume average of u over the masked cells."""
    w = mask.inside
    return np.asarray([float(np.mean(u[..., k][w])) for k in range(3)])
