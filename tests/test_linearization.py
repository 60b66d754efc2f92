"""Linearization around equilibria: decomposition, closed forms, scans."""

import numpy as np
import pytest

from twoscale_ll.demag import FftDemag, TensorDemag, demag_field
from twoscale_ll.dynamics import SolverConfig, parabolic_rhs_F
from twoscale_ll.grid import (
    DomainMask,
    EllipsoidSpec,
    Grid3,
    constant_field,
    cross3,
    dot3,
    norm_l2,
    normalize_pointwise,
)
from twoscale_ll.linearization import (
    ConstantEquilibrium,
    constant_equilibrium_apply,
    dissipation_scan,
    h2_quadratic_form,
    linearized_apply,
    remainder_apply,
    sample_admissible_perturbation,
)
from twoscale_ll.schedule import FieldSchedule

from conftest import random_unit_field, up_field

UZ = np.array([0.0, 0.0, 1.0])


def test_constant_equilibrium_validation():
    with pytest.raises(ValueError):
        ConstantEquilibrium(np.array([0.0, 0.0, 2.0]), 1 / 3, 0.5, +1)
    with pytest.raises(ValueError):
        ConstantEquilibrium(UZ, 1 / 3, 0.5, 2)
    with pytest.raises(ValueError):
        ConstantEquilibrium(UZ, -0.1, 0.5, +1)
    for d, lam in ((np.nan, 0.5), (np.inf, 0.5), (1 / 3, np.nan),
                   (1 / 3, np.inf)):
        with pytest.raises(ValueError, match="both finite"):
            ConstantEquilibrium(UZ, d, lam, +1)
    with pytest.raises(ValueError, match="unit vector"):
        ConstantEquilibrium(np.array([0.0, np.nan, 1.0]), 1 / 3, 0.5, +1)
    ce = ConstantEquilibrium(UZ, 1 / 3, 0.5, +1)
    ce.check_eigenvector(np.eye(3) / 3.0)
    with pytest.raises(ValueError):
        ce.check_eigenvector(np.diag([0.2, 0.3, 0.5]))


def test_admissible_perturbation_constraint(box12):
    # delta = normalize(m_eq + s tau) - m_eq gives |delta|^2 + 2 m_eq.delta = 0
    g, mask = box12
    m_eq = up_field(g, mask)
    for s in (0.05, 0.3):
        delta = sample_admissible_perturbation(m_eq, s, 4, g, mask)
        lhs = dot3(delta, delta) + 2.0 * dot3(m_eq, delta)
        assert np.max(np.abs(lhs[mask.inside])) < 1e-14
        norms = np.sqrt(dot3(m_eq + delta, m_eq + delta))[mask.inside]
        assert np.max(np.abs(norms - 1.0)) < 1e-14
    with pytest.raises(ValueError):
        sample_admissible_perturbation(m_eq, 1.5, 4, g, mask)


def test_decomposition_is_exact(box12, demag12, static_field):
    # F(m_eq + delta) - F(m_eq) = L delta + R(delta) holds identically
    g, mask = box12
    cfg = SolverConfig(epsilon=1.0, alpha=0.8, T=1.0, dt=1e-3)
    m_eq = up_field(g, mask)
    for s, seed in ((0.05, 1), (0.4, 2)):
        delta = sample_admissible_perturbation(m_eq, s, seed, g, mask)
        f1 = parabolic_rhs_F(0.0, m_eq + delta, cfg, g, mask, demag12,
                             static_field)
        f0 = parabolic_rhs_F(0.0, m_eq, cfg, g, mask, demag12, static_field)
        ld = linearized_apply(0.0, m_eq, delta, cfg.alpha, g, mask, demag12,
                              static_field)
        rd = remainder_apply(0.0, m_eq, delta, cfg.alpha, g, mask, demag12,
                             static_field)
        gap = f1 - f0 - ld - rd
        scale = max(np.max(np.abs(f1 - f0)), 1.0)
        assert np.max(np.abs(gap)) < 1e-11 * scale


def _box_and_ellipsoid(box12):
    """The 12^3 unit box and an EllipsoidSpec(1, 0.8, 0.6) mask in a 12^3
    grid, each with its FFT demag operator."""
    ge = Grid3(12, 12, 12, 2.0 / 12, 1.6 / 12, 1.2 / 12)
    me = DomainMask.ellipsoid(ge, EllipsoidSpec(1.0, 0.8, 0.6))
    return tuple((g, mask, FftDemag.for_grid(g))
                 for g, mask in (box12, (ge, me)))


def test_decomposition_is_exact_off_the_sphere(box12, static_field):
    # L and R expand the F that is computed, exchange term -alpha (m.Lap m) m
    # included, so the split is exact for a non-unit delta about a
    # non-uniform m_eq as well
    cfg = SolverConfig(epsilon=1.0, alpha=0.8, T=1.0, dt=1e-3)
    for g, mask, demag in _box_and_ellipsoid(box12):
        args = (g, mask, demag, static_field)
        m_eq = random_unit_field(g, mask, 7)
        rng = np.random.default_rng(8)
        delta = np.where(mask.inside[..., None],
                         0.1 * rng.standard_normal(g.shape + (3,)), 0.0)
        f1 = parabolic_rhs_F(0.0, m_eq + delta, cfg, *args)
        f0 = parabolic_rhs_F(0.0, m_eq, cfg, *args)
        ld = linearized_apply(0.0, m_eq, delta, cfg.alpha, *args)
        rd = remainder_apply(0.0, m_eq, delta, cfg.alpha, *args)
        gap = np.max(np.abs(f1 - f0 - ld - rd))
        assert gap <= 1e-12 * np.max(np.abs(f1 - f0)), g.spacings


def test_tangent_linearization_is_the_derivative_along_the_sphere(
        box12, static_field):
    # for pointwise-tangent delta, the central difference of F through
    # normalize(m_eq +- s delta) tends to L delta, its error falling 4x as
    # s halves
    cfg = SolverConfig(epsilon=1.0, alpha=0.8, T=1.0, dt=1e-3)
    for g, mask, demag in _box_and_ellipsoid(box12):
        args = (g, mask, demag, static_field)
        m_eq = random_unit_field(g, mask, 7)
        tau = random_unit_field(g, mask, 9)
        delta = tau - dot3(tau, m_eq)[..., None] * m_eq
        ld = linearized_apply(0.0, m_eq, delta, cfg.alpha, *args)
        errs = []
        for s in (1e-2, 5e-3, 2.5e-3):
            fp, fm = (parabolic_rhs_F(
                0.0, normalize_pointwise(m_eq + r * delta, mask), cfg, *args)
                for r in (s, -s))
            errs.append(np.max(np.abs((fp - fm) / (2.0 * s) - ld)))
        ratios = np.array(errs[:-1]) / np.array(errs[1:])
        assert np.all(np.abs(ratios - 4.0) < 0.05), (g.spacings, ratios)
        assert errs[-1] < 1e-4 * np.max(np.abs(ld)), g.spacings


def test_decomposition_macrospin(macrospin, sphere_tensor, static_field):
    g, mask = macrospin
    cfg = SolverConfig(epsilon=1.0, alpha=1.3, T=1.0, dt=1e-3)
    m_eq = up_field(g, mask)
    delta = constant_field(g, (0.3, -0.2, 0.0), mask)
    delta = (np.sqrt(1.0 - 0.13) - 1.0) * m_eq + delta  # stay on the sphere
    f1 = parabolic_rhs_F(0.0, m_eq + delta, cfg, g, mask, sphere_tensor,
                         static_field)
    f0 = parabolic_rhs_F(0.0, m_eq, cfg, g, mask, sphere_tensor,
                         static_field)
    ld = linearized_apply(0.0, m_eq, delta, cfg.alpha, g, mask, sphere_tensor,
                          static_field)
    rd = remainder_apply(0.0, m_eq, delta, cfg.alpha, g, mask, sphere_tensor,
                         static_field)
    assert np.max(np.abs(f1 - f0 - ld - rd)) < 1e-14


def test_remainder_is_second_order(box12, demag12, static_field):
    # ||R(delta)|| ~ s^2: halving s quarters the remainder norm
    g, mask = box12
    m_eq = up_field(g, mask)
    norms = []
    for s in (0.08, 0.04, 0.02):
        delta = sample_admissible_perturbation(m_eq, s, 6, g, mask)
        rd = remainder_apply(0.0, m_eq, delta, 1.0, g, mask, demag12,
                             static_field)
        norms.append(norm_l2(rd, g, mask))
    slopes = np.log2(np.array(norms[:-1]) / np.array(norms[1:]))
    assert np.all(slopes > 1.8)
    assert np.all(slopes < 2.2)


def test_closed_form_matches_general_linearization(macrospin):
    g, mask = macrospin
    D = np.diag([0.2, 0.3, 0.5])
    demag = TensorDemag(D)
    alpha = 0.9
    for lam, sign in ((0.7, +1), (0.7, -1), (0.0, +1)):
        ce = ConstantEquilibrium(UZ, 0.5, lam, sign)
        ce.check_eigenvector(D)
        sched = FieldSchedule.constant(lam, UZ)
        m_eq = constant_field(g, sign * UZ, mask)
        rng = np.random.default_rng(11)
        delta = np.zeros(g.shape + (3,))
        delta[0, 0, 0] = rng.standard_normal(3)
        a = constant_equilibrium_apply(ce, delta, alpha, g, mask, demag)
        b = linearized_apply(0.0, m_eq, delta, alpha, g, mask, demag, sched)
        assert np.max(np.abs(a - b)) < 1e-13


def test_linearization_vanishes_exactly_at_zero_field(macrospin,
                                                      sphere_tensor):
    # at +-u along an axis with lambda = 0 on the sphere, L = 0: the terms
    # of each pair are equal floats, so the dissipation scan's lambda = 0
    # ratios are 0, not the sign of a rounding error
    g, mask = macrospin
    sched = FieldSchedule.constant(0.0, UZ)
    rng = np.random.default_rng(5)
    for sign in (+1, -1):
        m_eq = constant_field(g, sign * UZ, mask)
        delta = rng.standard_normal(g.shape + (3,))
        ld = linearized_apply(0.0, m_eq, delta, 0.9, g, mask, sphere_tensor,
                              sched)
        assert np.all(ld == 0.0)


def test_closed_form_matches_on_grid(box12, demag12):
    # constant u with the FFT operator on the full box: both routes agree
    g, mask = box12
    lam = 0.4
    m_eq = up_field(g, mask)
    hd_z = demag_field(demag12, m_eq, g, mask)[..., 2][mask.inside]
    d = -float(np.mean(hd_z))
    ce = ConstantEquilibrium(UZ, d, lam, +1)
    sched = FieldSchedule.constant(lam, UZ)
    delta = sample_admissible_perturbation(m_eq, 0.2, 3, g, mask)
    a = constant_equilibrium_apply(ce, delta, 1.0, g, mask, demag12)
    b = linearized_apply(0.0, m_eq, delta, 1.0, g, mask, demag12, sched)
    # agreement is limited by how uniform h_d(u) is over the box
    spread = float(np.max(np.abs(hd_z + d)))
    assert np.max(np.abs(a - b)) < 10.0 * spread + 1e-12


def test_macrospin_form_value(macrospin):
    # at +-u the H2 form on tangent delta equals -+ alpha lam |delta ^ u|^2
    # once the self-field terms cancel (sphere: D = I/3, h_d delta = -delta/3)
    g, mask = macrospin
    demag = TensorDemag(np.eye(3) / 3.0)
    alpha, lam = 1.2, 0.8
    for sign in (+1, -1):
        ce = ConstantEquilibrium(UZ, 1 / 3, lam, sign)
        m_eq = constant_field(g, sign * UZ, mask)
        sched = FieldSchedule.constant(lam, UZ)
        delta = constant_field(g, (0.25, -0.1, 0.0), mask)  # tangent
        val = h2_quadratic_form(0.0, m_eq, delta, alpha, g, mask, demag,
                                sched)
        dxu = cross3(delta, constant_field(g, UZ, mask))
        expect = -sign * alpha * lam * float(np.sum(dot3(dxu, dxu)))
        expect *= mask.cell_volume
        assert val == pytest.approx(expect, rel=1e-12, abs=1e-14)


def test_dissipation_scan_dichotomy(macrospin):
    g, mask = macrospin
    D = np.eye(3) / 3.0
    lambdas = [0.0, 0.05, 0.2, 0.5, 1.0]
    out = dissipation_scan(D, UZ, lambdas, alpha=1.0, s=0.2, n_samples=6,
                           g=g, mask=mask, seed=0)
    rows = {(r["lam"], r["sign"]): r["worst_ratio"] for r in out["rows"]}
    # + branch strictly dissipative for lam > 0, - branch never
    for lam in lambdas[1:]:
        assert rows[(lam, +1)] < 0.0
        assert rows[(lam, -1)] > 0.0
    assert rows[(0.0, +1)] == pytest.approx(0.0, abs=1e-12)
    assert out["plus_branch_negative_from"] == 0.05
    # worst ratio scales like -alpha*lam on the sphere
    ratio = np.array([rows[(lam, +1)] for lam in lambdas[1:]])
    slope = np.polyfit(lambdas[1:], ratio, 1)[0]
    assert slope == pytest.approx(-1.0, abs=0.01)


def test_dissipation_scan_grid_mode_rejected(box12):
    g, mask = box12
    with pytest.raises(ValueError):
        dissipation_scan(np.eye(3) / 3.0, UZ, [0.5], 1.0, 0.2, 2, g, mask)


def test_dissipation_scan_refuses_a_non_eigenvector(macrospin):
    # +-u is an equilibrium only when D u = d u; off an eigenvector the
    # ratios would describe no equilibrium at all
    g, mask = macrospin
    u = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    with pytest.raises(ValueError, match="not an eigenvector"):
        dissipation_scan(np.diag([0.2, 0.3, 0.5]), u, [0.5], 1.0, 0.2, 2,
                         g, mask)
