"""Shared builders for the test suite."""

import numpy as np
import pytest

from twoscale_ll.demag import FftDemag, TensorDemag
from twoscale_ll.grid import DomainMask, Grid3, constant_field
from twoscale_ll.schedule import FieldSchedule


@pytest.fixture
def box12():
    g = Grid3(12, 12, 12, 1 / 12, 1 / 12, 1 / 12)
    return g, DomainMask.full(g)


@pytest.fixture
def macrospin():
    g = Grid3(1, 1, 1)
    return g, DomainMask.full(g)


@pytest.fixture
def demag12(box12):
    g, _ = box12
    return FftDemag.for_grid(g)


@pytest.fixture
def sphere_tensor():
    return TensorDemag(np.eye(3) / 3.0)


@pytest.fixture
def static_field():
    return FieldSchedule.constant(0.7, (0.0, 0.0, 1.0))


def random_unit_field(g, mask, seed):
    rng = np.random.default_rng(seed)
    u = rng.standard_normal(g.shape + (3,))
    n = np.sqrt(np.sum(u**2, axis=-1, keepdims=True))
    return np.where(mask.inside[..., None], u / n, 0.0)


def up_field(g, mask):
    return constant_field(g, (0.0, 0.0, 1.0), mask)


def face_pairing(u, v, g, mask):
    """Sum over the faces that join two body cells of (du . dv) / h^2,
    times the cell volume: the summed gradient pairing, written face by
    face, independent of laplacian_neumann."""
    total = 0.0
    for axis, h in enumerate(g.spacings):
        lo, hi = [slice(None)] * 3, [slice(None)] * 3
        lo[axis], hi[axis] = slice(None, -1), slice(1, None)
        both = mask.inside[tuple(lo)] & mask.inside[tuple(hi)]
        du, dv = np.diff(u, axis=axis), np.diff(v, axis=axis)
        total += np.sum(np.sum(du * dv, axis=-1)[both]) / h**2
    return total * mask.cell_volume
