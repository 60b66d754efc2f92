"""Demagnetizing field operator and depolarization tensor estimates."""

import tracemalloc

import numpy as np
import pytest

from twoscale_ll.demag import (
    FftDemag,
    ModeMismatchError,
    TensorDemag,
    demag_field,
    demag_field_padded,
    demag_tensor_estimate,
    depolarization_tensor,
)
from twoscale_ll.grid import (
    DomainMask,
    EllipsoidSpec,
    Grid3,
    constant_field,
)

from conftest import random_unit_field


def test_tensor_validation():
    with pytest.raises(ValueError):
        TensorDemag(np.array([[1.0, 0.5], [0.5, 1.0]]))
    with pytest.raises(ValueError):
        TensorDemag(np.array([[1.0, 0.2, 0.0],
                              [0.0, 1.0, 0.0],
                              [0.0, 0.0, 1.0]]))  # not symmetric
    with pytest.raises(ValueError):
        TensorDemag(np.diag([1.0, 1.0, -0.1]))  # not positive definite


def test_tensor_macrospin_only():
    g = Grid3(2, 2, 2, 0.5, 0.5, 0.5)
    mask = DomainMask.full(g)
    m = constant_field(g, (0.0, 0.0, 1.0), mask)
    with pytest.raises(ModeMismatchError):
        demag_field(TensorDemag(np.eye(3) / 3), m, g, mask)


def test_tensor_field_is_minus_Dm():
    g = Grid3(1, 1, 1)
    mask = DomainMask.full(g)
    D = np.diag([0.2, 0.3, 0.5])
    m = constant_field(g, (0.6, 0.0, 0.8), mask)
    h = demag_field(TensorDemag(D), m, g, mask)
    assert np.allclose(h[0, 0, 0], -D @ np.array([0.6, 0.0, 0.8]))


def test_tensor_from_nested_lists_is_minus_Dm():
    g = Grid3(1, 1, 1)
    mask = DomainMask.full(g)
    D = [[1 / 3, 0, 0], [0, 1 / 3, 0], [0, 0, 1 / 3]]
    m = constant_field(g, (0.6, 0.0, 0.8), mask)
    h = demag_field(TensorDemag(D), m, g, mask)
    assert np.allclose(h[0, 0, 0], -np.asarray(D) @ np.array([0.6, 0.0, 0.8]))


def test_fft_padding_minimum():
    g = Grid3(8, 8, 8, 0.1, 0.1, 0.1)
    with pytest.raises(ValueError):
        FftDemag(g, (12, 16, 16))
    FftDemag.for_grid(g)  # 2x default is fine


def test_fft_grid_mismatch():
    g = Grid3(8, 8, 8, 0.1, 0.1, 0.1)
    g2 = Grid3(6, 6, 6, 0.1, 0.1, 0.1)
    model = FftDemag.for_grid(g)
    mask2 = DomainMask.full(g2)
    m = constant_field(g2, (0.0, 0.0, 1.0), mask2)
    with pytest.raises(ModeMismatchError):
        demag_field(model, m, g2, mask2)
    # a 16^3 field fits inside the 16^3 padded box of the 8^3 model, so
    # only the grid check stops a silently wrong padded field
    g3 = Grid3(16, 16, 16, 0.1, 0.1, 0.1)
    mask3 = DomainMask.full(g3)
    with pytest.raises(ModeMismatchError):
        demag_field_padded(model, constant_field(g3, (0.0, 0.0, 1.0), mask3),
                           g3, mask3)
    # same shape, other spacings: the multiplier's frequencies differ
    unit = FftDemag.for_grid(Grid3(8, 8, 8))
    g4 = Grid3(8, 8, 8, 1.0, 2.0, 3.0)
    mask4 = DomainMask.full(g4)
    m4 = constant_field(g4, (0.0, 0.0, 1.0), mask4)
    with pytest.raises(ModeMismatchError):
        demag_field(unit, m4, g4, mask4)
    with pytest.raises(ModeMismatchError):
        demag_field_padded(unit, m4, g4, mask4)
    # the origin does not enter the operator
    g5 = Grid3(8, 8, 8, origin=(-4.0, -4.0, -4.0))
    mask5 = DomainMask.full(g5)
    demag_field(unit, constant_field(g5, (0.0, 0.0, 1.0), mask5), g5, mask5)


def test_fft_refuses_a_one_cell_grid():
    # every nonzero mode of the 2x2x2 box is a Nyquist mode, where the
    # multiplier gives a cube a hard axis along a body diagonal
    g = Grid3(1, 1, 1)
    with pytest.raises(ValueError, match="TensorDemag"):
        FftDemag(g, (2, 2, 2))
    with pytest.raises(ValueError, match="TensorDemag"):
        FftDemag.for_grid(g)


@pytest.mark.parametrize("padded", [(8, 8), (8, 8, 0), (8, 8, -3),
                                    (8.0, 8, 1), (8, 8, 8, 8)])
def test_fft_padded_shape_must_be_three_ints(padded):
    g = Grid3(4, 4, 1)
    with pytest.raises(ValueError, match="three ints >= 1"):
        FftDemag(g, padded)
    assert FftDemag(g, (8, np.int64(8), 1)).padded_shape == (8, 8, 1)


def _textbook_field(model, m, mask, shape):
    """-k (k . m^) / |k|^2 with full rfftn/irfftn on the padded box, then
    restricted to the leading shape-sized corner."""
    g = model.grid
    px, py, pz = model.padded_shape
    k = (np.fft.fftfreq(px, d=g.hx)[:, None, None],
         np.fft.fftfreq(py, d=g.hy)[None, :, None],
         np.fft.rfftfreq(pz, d=g.hz)[None, None, :])
    mm = np.where(mask.inside[..., None], m, 0.0)
    mh = [np.fft.rfftn(mm[..., i], s=model.padded_shape,
                        axes=(0, 1, 2)) for i in range(3)]
    k2 = k[0]**2 + k[1]**2 + k[2]**2
    k2[0, 0, 0] = 1.0
    kdotm = (k[0] * mh[0] + k[1] * mh[1] + k[2] * mh[2]) / k2
    kdotm[0, 0, 0] = 0.0
    sx, sy, sz = shape
    return np.stack([np.fft.irfftn(-ki * kdotm, s=model.padded_shape,
                                   axes=(0, 1, 2))
                     [:sx, :sy, :sz] for ki in k], axis=-1)


@pytest.mark.parametrize("g,spec,padded", [
    pytest.param(Grid3(16, 16, 16, 1 / 16, 1 / 16, 1 / 16), None, None,
                 id="box16"),
    pytest.param(Grid3(12, 10, 8, 2 / 12, 1.6 / 10, 1.2 / 8,
                       origin=(-1, -0.8, -0.6)),
                 EllipsoidSpec(1.0, 0.8, 0.6), None, id="ellipsoid"),
    pytest.param(Grid3(10, 9, 8, 0.1, 0.23, 0.05), None, None,
                 id="anisotropic"),
    pytest.param(Grid3(8, 8, 1, 0.1, 0.1, 0.1), None, None, id="flat"),
    pytest.param(Grid3(4, 5, 5, 0.3, 0.2, 0.1), None, (9, 10, 11),
                 id="odd_pad"),
    pytest.param(Grid3(1, 1, 6, 0.2, 0.3, 0.1), None, None, id="column"),
])
def test_fft_field_matches_the_textbook_transform(g, spec, padded):
    mask = (DomainMask.full(g) if spec is None
            else DomainMask.ellipsoid(g, spec))
    model = FftDemag.for_grid(g) if padded is None else FftDemag(g, padded)
    rng = np.random.default_rng(3)
    # alternate padded and restricted calls with new m on one model, so a
    # buffer left stale by an earlier call would show
    for _ in range(2):
        for shape, field in ((g.shape, demag_field),
                             (model.padded_shape, demag_field_padded)):
            m = rng.standard_normal(g.shape + (3,))
            want = _textbook_field(model, m, mask, shape)
            h = field(model, m, g, mask)
            assert h.shape == shape + (3,)
            assert np.max(np.abs(h - want)) <= 1e-13 * np.max(np.abs(want))
            # the result is the caller's: writing into it changes nothing,
            # and a second call gives the same field bit for bit
            first = h.copy()
            h[...] = np.nan
            assert np.array_equal(field(model, m, g, mask), first)
    # the multiplier's real factors are shared by every call
    (kx, ky, kz), q = model._spectrum
    for a in (kx, ky, kz, q):
        assert not a.flags.writeable


def test_operator_symmetric_nonpositive_contractive():
    # the multiplier is a negated rank-one projection: symmetric,
    # non-positive, L2 norm <= 1 (all measured on the padded box)
    g = Grid3(10, 9, 8, 0.1, 0.11, 0.12)
    mask = DomainMask.full(g)
    model = FftDemag.for_grid(g)
    rng = np.random.default_rng(0)
    u = rng.standard_normal(g.shape + (3,))
    v = rng.standard_normal(g.shape + (3,))
    hu = demag_field_padded(model, u, g, mask)
    hv = demag_field_padded(model, v, g, mask)
    nx, ny, nz = g.shape
    suv = float(np.sum(hu[:nx, :ny, :nz] * v))
    svu = float(np.sum(hv[:nx, :ny, :nz] * u))
    assert abs(suv - svu) <= 1e-12 * max(abs(suv), 1.0)
    quad = float(np.sum(hu[:nx, :ny, :nz] * u))
    assert quad <= 1e-12
    assert np.sqrt(np.sum(hu**2)) <= np.sqrt(np.sum(u**2)) * (1.0 + 1e-12)


def test_restricted_field_matches_padded_restriction():
    g = Grid3(6, 6, 6, 0.1, 0.1, 0.1)
    mask = DomainMask.full(g)
    model = FftDemag.for_grid(g)
    m = random_unit_field(g, mask, 7)
    h = demag_field(model, m, g, mask)
    hp = demag_field_padded(model, m, g, mask)
    assert np.allclose(h, hp[:6, :6, :6])


def test_sphere_interior_field_near_minus_third():
    n = 32
    g = Grid3(n, n, n, 4.0 / n, 4.0 / n, 4.0 / n, origin=(-2.0, -2.0, -2.0))
    mask = DomainMask.ellipsoid(g, EllipsoidSpec(1.0, 1.0, 1.0))
    model = FftDemag.for_grid(g)
    m = constant_field(g, (0.0, 0.0, 1.0), mask)
    h = demag_field(model, m, g, mask)
    x, y, z = g.cell_centers()
    core = mask.inside & (x**2 + y**2 + z**2 < 0.8**2)
    mean = np.array([h[..., k][core].mean() for k in range(3)])
    assert abs(mean[2] + 1.0 / 3.0) < 0.03 / 3.0
    assert np.max(np.abs(mean[:2])) < 0.01


def test_tensor_estimate_sphere():
    D = demag_tensor_estimate(EllipsoidSpec(1.0, 1.0, 1.0), 24)
    assert abs(np.trace(D) - 1.0) < 0.03
    assert np.max(np.abs(np.diag(D) - 1.0 / 3.0)) < 0.03 / 3.0
    assert np.max(np.abs(D - np.diag(np.diag(D)))) < 1e-6


def test_tensor_estimate_prolate_ordering():
    # long axis has the smallest depolarization factor
    D = demag_tensor_estimate(EllipsoidSpec(3.0, 1.0, 1.0), 24)
    d = np.diag(D)
    assert d[0] < d[1]
    assert d[0] < d[2]
    assert d[1] == pytest.approx(d[2], rel=0.05)
    # analytic prolate factor N_a = (1-e^2)/e^3 (atanh e - e), e^2 = 1-(c/a)^2
    e = np.sqrt(1.0 - (1.0 / 3.0) ** 2)
    Na = (1.0 - e**2) / e**3 * (np.arctanh(e) - e)
    assert d[0] == pytest.approx(Na, rel=0.08)


@pytest.mark.parametrize("spec", [EllipsoidSpec(1.0, 0.8, 0.6),
                                  EllipsoidSpec(3.0, 1.0, 1.0)])
def test_tensor_estimate_matches_the_operator(spec):
    # reference: the body mean of -h_d(e_j) from the padded FFT operator;
    # n = 20 pads to 80 points, which is not a power of two
    for n in (16, 20):
        g = Grid3(n, n, n, 2 * spec.a / n, 2 * spec.b / n, 2 * spec.c / n)
        mask = DomainMask.ellipsoid(g, spec)
        model = FftDemag.for_grid(g, 4)
        R = np.zeros((3, 3))
        for j in range(3):
            m = constant_field(g, np.eye(3)[j], mask)
            h = demag_field(model, m, g, mask)
            for i in range(3):
                R[i, j] = -np.mean(h[..., i][mask.inside])
        D = demag_tensor_estimate(spec, n)
        assert np.max(np.abs(D - R)) <= 1e-15
        assert np.array_equal(D, D.T)
        # the wrap-around bias: trace 1 - N_body / N_pad, exactly
        n_body = int(np.count_nonzero(mask.inside))
        assert abs(np.trace(D) - (1.0 - n_body / (4 * n) ** 3)) <= 1e-14


def test_tensor_estimate_symmetric_with_its_trace_at_48():
    spec, n = EllipsoidSpec(1.0, 0.8, 0.6), 48
    D = demag_tensor_estimate(spec, n)
    assert np.array_equal(D, D.T)
    g = Grid3(n, n, n, 2 * spec.a / n, 2 * spec.b / n, 2 * spec.c / n)
    n_body = int(np.count_nonzero(DomainMask.ellipsoid(g, spec).inside))
    assert abs(np.trace(D) - (1.0 - n_body / (4 * n) ** 3)) <= 1e-14


def test_tensor_estimate_never_builds_the_padded_spectrum():
    # the (4n)^3 padded spectrum alone would take 17 MB at n = 32
    tracemalloc.start()
    try:
        demag_tensor_estimate(EllipsoidSpec(3.0, 1.0, 1.0), 32)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5e6


def test_depolarization_tensor_rule():
    # exact I/3 for any sphere; the FFT estimate for anything else
    for r in (1.0, 2.5):
        D = depolarization_tensor(EllipsoidSpec(r, r, r), 16)
        assert np.array_equal(D, np.eye(3) / 3.0)
    prolate = EllipsoidSpec(3.0, 1.0, 1.0)
    assert np.array_equal(depolarization_tensor(prolate, 16),
                          demag_tensor_estimate(prolate, 16))


def test_tensor_estimate_resolution_floor():
    with pytest.raises(ValueError):
        demag_tensor_estimate(EllipsoidSpec(1.0, 1.0, 1.0), 8)
