"""Grid, Neumann Laplacian and inner products."""

import re

import numpy as np
import pytest

from twoscale_ll.grid import (
    DegenerateCellError,
    DomainMask,
    EllipsoidSpec,
    Grid3,
    ShapeMismatchError,
    constant_field,
    cross3,
    dot3,
    inner_products,
    laplacian_neumann,
    mean_magnetization,
    neumann_eigenvalues,
    normalize_pointwise,
)

from conftest import face_pairing


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid3(0, 4, 4)
    with pytest.raises(ValueError):
        Grid3(4, 4, 4, hx=-1.0)
    for h in ("hx", "hy", "hz"):
        with pytest.raises(ValueError, match="spacings must be > 0"):
            Grid3(4, 4, 4, **{h: float("nan")})
    g = Grid3(1, 1, 1)
    assert g.is_macrospin
    assert not Grid3(2, 1, 1).is_macrospin


def test_cell_centers_offsets():
    g = Grid3(2, 2, 2, 0.5, 0.5, 0.5, origin=(-0.5, -0.5, -0.5))
    x, y, z = g.cell_centers()
    assert np.allclose(x.ravel(), [-0.25, 0.25])
    assert np.allclose(z.ravel(), [-0.25, 0.25])


def test_ellipsoid_spec_ordering():
    with pytest.raises(ValueError):
        EllipsoidSpec(1.0, 2.0, 1.0)
    with pytest.raises(ValueError):
        EllipsoidSpec(1.0, 1.0, 0.0)


def test_ellipsoid_mask_volume_converges():
    e = EllipsoidSpec(1.0, 0.8, 0.6)
    exact = 4.0 / 3.0 * np.pi * e.a * e.b * e.c
    errs = []
    for n in (16, 32):
        g = Grid3(n, n, n, 2.2 / n, 2.2 / n, 2.2 / n,
                  origin=(-1.1, -1.1, -1.1))
        mask = DomainMask.ellipsoid(g, e)
        errs.append(abs(mask.volume - exact) / exact)
    assert errs[1] < errs[0]
    assert errs[1] < 0.05


def test_mask_requires_cells():
    g = Grid3(4, 4, 4, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        DomainMask(np.zeros(g.shape, dtype=bool), g.cell_volume)
    with pytest.raises(ValueError, match="cell volume must be > 0"):
        DomainMask(np.ones(g.shape, dtype=bool), 0.0)


def test_mask_inside_is_a_read_only_copy():
    g = Grid3(4, 3, 2)
    inside = np.ones(g.shape, dtype=int)
    mask = DomainMask(inside, g.cell_volume)
    assert mask.inside.dtype == bool and not np.shares_memory(mask.inside,
                                                              inside)
    with pytest.raises(ValueError):
        mask.inside[0, 0, 0] = False
    inside[0, 0, 0] = 0
    assert mask.is_full_box and mask.face_weights[0].all()


def test_laplacian_of_constant_is_zero():
    g = Grid3(8, 6, 5, 0.1, 0.2, 0.15)
    mask = DomainMask.full(g)
    u = constant_field(g, (0.3, -1.2, 0.5), mask)
    assert np.max(np.abs(laplacian_neumann(u, g, mask))) == 0.0
    # same on a staircase ellipsoid mask (mirror ghosts across the boundary)
    ge = Grid3(8, 8, 8, 0.25, 0.25, 0.25)
    me = DomainMask.ellipsoid(ge, EllipsoidSpec(1.0, 0.9, 0.8))
    ue = constant_field(ge, (0.3, -1.2, 0.5), me)
    assert np.max(np.abs(laplacian_neumann(ue, ge, me))) == 0.0
    # every field on one cell is constant: the stencil has no faces there,
    # so the Laplacian is an exact zero
    g1 = Grid3(1, 1, 1)
    m1 = DomainMask.full(g1)
    u1 = np.random.default_rng(0).standard_normal((1, 1, 1, 3))
    assert np.all(laplacian_neumann(u1, g1, m1) == 0.0)


def test_laplacian_cosine_eigenfield():
    # products of cos(pi k (i + 1/2) / n) are exact eigenvectors of the
    # mirror-ghost stencil, with the eigenvalues of neumann_eigenvalues
    for g, k in ((Grid3(16, 1, 1, 0.1, 1.0, 1.0), (3, 0, 0)),
                 (Grid3(8, 6, 5, 0.1, 0.2, 0.15), (3, 2, 4))):
        mask = DomainMask.full(g)
        x, y, z = (np.cos(np.pi * kk * (np.arange(n) + 0.5) / n)
                   for kk, n in zip(k, g.shape))
        mode = x[:, None, None] * y[None, :, None] * z[None, None, :]
        u = np.zeros(g.shape + (3,))
        u[..., 2] = mode
        lam = -neumann_eigenvalues(g)[k]
        lap = laplacian_neumann(u, g, mask)
        assert np.allclose(lap[..., 2], lam * mode, atol=1e-11)
        assert np.max(np.abs(lap[..., :2])) == 0.0


def test_neumann_eigenvalues_cached_read_only():
    g = Grid3(6, 5, 4, 0.1, 0.2, 0.3)
    lam = neumann_eigenvalues(g)
    assert neumann_eigenvalues(Grid3(6, 5, 4, 0.1, 0.2, 0.3)) is lam
    with pytest.raises(ValueError):
        lam[0, 0, 0] = 1.0


def _stencil_domains(box):
    """The given full box, a staircase ellipsoid mask, and a grid with one
    degenerate (single-cell) axis."""
    ge = Grid3(10, 10, 10, 0.25, 0.25, 0.25)
    gd = Grid3(10, 1, 7, 0.1, 1, 0.2)
    me = DomainMask.ellipsoid(ge, EllipsoidSpec(1.0, 0.9, 0.8))
    return (("box", box, DomainMask.full(box)),
            ("ellipsoid", ge, me),
            ("degenerate axis", gd, DomainMask.full(gd)))


def test_green_identity_symmetric():
    for name, g, mask in _stencil_domains(Grid3(7, 6, 5, 0.11, 0.13, 0.17)):
        rng = np.random.default_rng(0)
        u = rng.standard_normal(g.shape + (3,))
        v = rng.standard_normal(g.shape + (3,))
        dV = mask.cell_volume
        a = np.sum(dot3(laplacian_neumann(u, g, mask), v)) * dV
        b = np.sum(dot3(u, laplacian_neumann(v, g, mask))) * dV
        assert abs(a - b) <= 1e-12 * max(abs(a), 1.0), name
        # summation by parts: the H1 pairing read off the Laplacian is the
        # L2 pairing plus the gradient pairing summed face by face
        ip = inner_products(u, v, g, mask)
        h1 = ip["l2"] + face_pairing(u, v, g, mask)
        assert ip["h1"] == pytest.approx(h1, rel=1e-12), name


def test_laplacian_matches_face_by_face_reference():
    # every interior face, weighted by whether it joins two body cells,
    # sends its flux (u[j] - u[i]) w / h^2 to i and takes it from j; per
    # axis all i-sides first, in the order laplacian_neumann adds them
    for name, g, mask in _stencil_domains(Grid3(7, 6, 5, 0.11, 0.13, 0.17)):
        u = np.random.default_rng(4).standard_normal(g.shape + (3,))
        ref = np.zeros_like(u)
        for axis, (n, h) in enumerate(zip(g.shape, g.spacings)):
            e = np.eye(3, dtype=int)[axis]
            faces = [(i, tuple(np.add(i, e))) for i in np.ndindex(g.shape)
                     if i[axis] < n - 1]
            q = {i: (u[j] - u[i]) * float(mask.inside[i] and mask.inside[j])
                 / h**2 for i, j in faces}
            for i, j in faces:
                ref[i] += q[i]
            for i, j in faces:
                ref[j] -= q[i]
        lap = laplacian_neumann(u, g, mask)
        assert lap.tobytes() == ref.tobytes(), name


def test_inner_products_ordering_and_symmetry():
    g = Grid3(6, 5, 4, 0.15, 0.2, 0.25)
    mask = DomainMask.full(g)
    rng = np.random.default_rng(2)
    u = rng.standard_normal(g.shape + (3,))
    v = rng.standard_normal(g.shape + (3,))
    ip_uv = inner_products(u, v, g, mask)
    ip_vu = inner_products(v, u, g, mask)
    for key in ("l2", "h1", "h2"):
        assert ip_uv[key] == pytest.approx(ip_vu[key], rel=1e-12)
    ip = inner_products(u, u, g, mask)
    assert 0.0 <= ip["l2"] <= ip["h1"]
    assert ip["l2"] <= ip["h2"]


def test_shape_mismatch_raises():
    g = Grid3(4, 4, 4, 0.1, 0.1, 0.1)
    mask = DomainMask.full(g)
    bad = np.zeros((4, 4, 5, 3))
    with pytest.raises(ShapeMismatchError):
        laplacian_neumann(bad, g, mask)


def test_normalize_pointwise_unit_and_idempotent():
    g = Grid3(5, 5, 5, 0.1, 0.1, 0.1)
    mask = DomainMask.full(g)
    rng = np.random.default_rng(3)
    u = rng.standard_normal(g.shape + (3,)) * 3.0
    m = normalize_pointwise(u, mask)
    norms = np.sqrt(dot3(m, m))[mask.inside]
    assert np.max(np.abs(norms - 1.0)) < 1e-15
    again = normalize_pointwise(m, mask)
    assert np.max(np.abs(again - m)) < 1e-15
    # (1,1,1) -> (1,1,1)/sqrt(3)
    ones = constant_field(g, (1.0, 1.0, 1.0), mask)
    assert np.allclose(normalize_pointwise(ones, mask)[mask.inside],
                       np.ones(3) / np.sqrt(3.0))


def test_normalize_pointwise_degenerate_cell():
    g = Grid3(3, 1, 1)
    mask = DomainMask.full(g)
    u = constant_field(g, (1.0, 0.0, 0.0), mask)
    u[1, 0, 0] = 0.0
    with pytest.raises(DegenerateCellError):
        normalize_pointwise(u, mask)


def test_normalize_pointwise_matches_where_formula_on_stencil_domains():
    for name, g, mask in _stencil_domains(Grid3(7, 6, 5, 0.11, 0.13, 0.17)):
        u = np.random.default_rng(6).standard_normal(g.shape + (3,))
        # zero outside the body, but for one cell (if there is one)
        outside = np.argwhere(~mask.inside)
        u[~mask.inside] = 0.0
        if len(outside):
            u[tuple(outside[0])] = (1.0, 2.0, 3.0)
        # the formula with one where() for the safe norms and one for the
        # mask, kept as the oracle
        norms = np.sqrt(dot3(u, u))
        safe = np.where(norms == 0.0, 1.0, norms)
        want = np.where(mask.inside[..., None], u / safe[..., None], 0.0)
        got = normalize_pointwise(u, mask)
        assert got.tobytes() == want.tobytes(), name
        assert np.all(got[~mask.inside] == 0.0), name
        cell = tuple(int(i) for i in np.argwhere(mask.inside)[-1])
        u[cell] = 0.0
        with pytest.raises(DegenerateCellError, match=re.escape(str(cell))):
            normalize_pointwise(u, mask)


def test_mean_magnetization_examples():
    g = Grid3(4, 4, 4, 0.1, 0.1, 0.1)
    mask = DomainMask.full(g)
    up = constant_field(g, (0.0, 0.0, 1.0), mask)
    assert np.allclose(mean_magnetization(up, mask), [0.0, 0.0, 1.0])
    half = up.copy()
    half[:2, :, :, 2] = -1.0
    assert np.allclose(mean_magnetization(half, mask), 0.0)
    gm = Grid3(1, 1, 1)
    mm = DomainMask.full(gm)
    v = constant_field(gm, (0.6, 0.0, 0.8), mm)
    assert np.allclose(mean_magnetization(v, mm), [0.6, 0.0, 0.8])


def test_cross3_matches_numpy():
    rng = np.random.default_rng(4)
    u = rng.standard_normal((3, 2, 2, 3))
    v = rng.standard_normal((3, 2, 2, 3))
    assert np.allclose(cross3(u, v), np.cross(u, v))
