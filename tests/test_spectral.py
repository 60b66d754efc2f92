"""Cosine-mode projector on the box and its commutator with the flow map."""

import numpy as np
import pytest

from twoscale_ll.demag import FftDemag
from twoscale_ll.dynamics import SolverConfig, integrate
from twoscale_ll.grid import (
    DomainMask,
    EllipsoidSpec,
    Grid3,
    constant_field,
    laplacian_neumann,
    normalize_pointwise,
)
from twoscale_ll.linearization import sample_admissible_perturbation
from twoscale_ll.schedule import FieldSchedule
from twoscale_ll.spectral import (
    ModeMismatchError,
    commutator_PkF,
    project_Pk,
)

from conftest import random_unit_field, up_field


def test_basis_k_bounds():
    g = Grid3(4, 4, 4, 0.1, 0.1, 0.1)
    mask = DomainMask.full(g)
    u = np.zeros(g.shape + (3,))
    project_Pk(u, 1, g, mask)
    project_Pk(u, 64, g, mask)
    with pytest.raises(ValueError):
        project_Pk(u, 0, g, mask)
    with pytest.raises(ValueError):
        project_Pk(u, 65, g, mask)


def test_full_projector_is_identity(box12):
    g, mask = box12
    u = random_unit_field(g, mask, 0)
    k_full = g.nx * g.ny * g.nz
    assert np.max(np.abs(project_Pk(u, k_full, g, mask) - u)) < 1e-12


def test_projector_idempotent_and_contractive(box12):
    g, mask = box12
    rng = np.random.default_rng(1)
    u = rng.standard_normal(g.shape + (3,))
    for k in (1, 8, 100):
        pu = project_Pk(u, k, g, mask)
        assert np.max(np.abs(project_Pk(pu, k, g, mask) - pu)) < 1e-12
        assert np.sum(pu**2) <= np.sum(u**2) * (1.0 + 1e-12)


def _boxes(box12):
    """The cubic 12^3 box and an anisotropic, non-cubic one."""
    g = Grid3(12, 10, 8, 0.1, 0.12, 0.15)
    return box12, (g, DomainMask.full(g))


def test_projector_orthogonality(box12):
    # (P_k u | (1 - P_k) u)_L2 = 0
    for g, mask in _boxes(box12):
        rng = np.random.default_rng(2)
        u = rng.standard_normal(g.shape + (3,))
        pu = project_Pk(u, 50, g, mask)
        ip = float(np.sum(pu * (u - pu)))
        assert abs(ip) < 1e-10 * np.sum(u**2)


def test_projector_keeps_constants():
    g = Grid3(6, 6, 6, 0.2, 0.2, 0.2)
    mask = DomainMask.full(g)
    c = constant_field(g, (0.3, -0.7, 0.1), mask)
    assert np.allclose(project_Pk(c, 1, g, mask), c, atol=1e-13)


def test_projector_commutes_with_laplacian(box12):
    for g, mask in _boxes(box12):
        rng = np.random.default_rng(3)
        u = rng.standard_normal(g.shape + (3,))
        for k in (5, 40):
            a = project_Pk(laplacian_neumann(u, g, mask), k, g, mask)
            b = laplacian_neumann(project_Pk(u, k, g, mask), g, mask)
            assert np.max(np.abs(a - b)) < 1e-10 * np.max(np.abs(a) + 1.0)


def test_masked_domain_rejected():
    g = Grid3(8, 8, 8, 0.25, 0.25, 0.25)
    mask = DomainMask.ellipsoid(g, EllipsoidSpec(1.0, 0.9, 0.8))
    u = np.zeros(g.shape + (3,))
    with pytest.raises(ModeMismatchError):
        project_Pk(u, 4, g, mask)


def _evolved_slice():
    """Smooth unit field: a perturbed constant equilibrium evolved briefly."""
    n = 16
    g = Grid3(n, n, n, 1.0 / n, 1.0 / n, 1.0 / n)
    mask = DomainMask.full(g)
    demag = FftDemag.for_grid(g)
    sched = FieldSchedule.constant(0.7, (0.0, 0.0, 1.0))
    m_eq = up_field(g, mask)
    m0 = normalize_pointwise(
        m_eq + sample_admissible_perturbation(m_eq, 0.3, 2, g, mask), mask)
    cfg = SolverConfig(epsilon=0.2, alpha=1.0, T=0.1, dt=5e-4,
                       integrator="semi-implicit-spectral")
    _, m = integrate(m0, cfg, g, mask, demag, sched, sample_every=1000)
    return m, cfg, g, mask, demag, sched


def test_commutator_vanishes_at_full_k():
    m, cfg, g, mask, demag, sched = _evolved_slice()
    k_full = g.nx * g.ny * g.nz
    c = commutator_PkF(m, k_full, 0.0, cfg, g, mask, demag, sched)
    scale = commutator_PkF(m, 8, 0.0, cfg, g, mask, demag, sched)
    assert c < 1e-8 * max(scale, 1.0)
