"""Time integration: field assembly, step properties, energy, relaxation."""

from dataclasses import replace

import numpy as np
import pytest
import scipy.fft

from twoscale_ll import dynamics
from twoscale_ll.demag import FftDemag, TensorDemag, demag_field
from twoscale_ll.dynamics import (
    BlowUpError,
    RunRecord,
    SolverConfig,
    energy,
    equilibrium_residual,
    integrate,
    ll_rhs,
    parabolic_rhs_F,
    relax_to_equilibrium,
    resolve_dt,
    step,
    total_field,
)
from twoscale_ll.grid import (
    DegenerateCellError,
    DomainMask,
    EllipsoidSpec,
    Grid3,
    ModeMismatchError,
    ShapeMismatchError,
    apply_mask,
    constant_field,
    cross3,
    dot3,
    inner_products,
    laplacian_neumann,
    neumann_eigenvalues,
    norm_l2,
    normalize_pointwise,
)
from twoscale_ll.linearization import sample_admissible_perturbation
from twoscale_ll.schedule import (
    BumpEnvelope,
    FieldSchedule,
    FixedDirection,
    RotatingDirection,
    eval_h_ext,
)

from conftest import face_pairing, random_unit_field, up_field


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.0, alpha=1.0, T=1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.1, alpha=-1.0, T=1.0)
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.1, alpha=1.0, T=1.0, integrator="rk4")
    with pytest.raises(ValueError):
        SolverConfig(epsilon=0.1, alpha=1.0, T=1.0, dt=0.0)
    # NaN fails every comparison, so each check is written as not x > 0
    for bad in ({"epsilon": np.nan}, {"alpha": np.nan}, {"T": np.nan},
                {"dt": np.nan}):
        with pytest.raises(ValueError):
            SolverConfig(**{"epsilon": 0.1, "alpha": 1.0, "T": 1.0, **bad})


def test_resolve_dt_policy():
    g = Grid3(10, 10, 10, 0.1, 0.1, 0.1)
    cfg = SolverConfig(epsilon=0.2, alpha=1.0, T=1.0,
                       integrator="projected-explicit")
    assert resolve_dt(cfg, g) == pytest.approx(0.2 * 0.2 * 0.01 / 6.0)
    fixed = SolverConfig(epsilon=0.2, alpha=1.0, T=1.0, dt=1e-3)
    assert resolve_dt(fixed, g) == 1e-3
    with pytest.raises(ValueError):
        resolve_dt(SolverConfig(epsilon=0.2, alpha=1.0, T=1.0,
                                integrator="semi-implicit-spectral"), g)
    # the policy value is shortened to divide T
    short = SolverConfig(epsilon=0.2, alpha=1.0, T=0.01234,
                         integrator="projected-explicit")
    dt = resolve_dt(short, g)
    assert dt <= 0.2 * 0.2 * 0.01 / 6.0
    assert short.T / dt == pytest.approx(round(short.T / dt), rel=1e-12)


@pytest.mark.parametrize("alpha", [1e-3, 0.01, 0.1, 0.25, 0.5, 1.0, 2.0,
                                   10.0])
def test_default_explicit_step_is_stable_for_every_alpha(alpha):
    # the midpoint rule amplifies a mode with Lap = -mu by |1 + z + z^2/2|,
    # z = (dt/eps) mu (-alpha + i); a step 0.2 eps h^2 / (6 alpha) amplifies
    # the top mode of 8^3 for alpha <= 0.25 (7.1 at alpha = 0.1)
    g = Grid3(8, 8, 8, 1 / 8, 1 / 8, 1 / 8)
    mu = float(np.max(neumann_eigenvalues(g)))
    cfg = SolverConfig(epsilon=0.1, alpha=alpha, T=0.0,
                       integrator="projected-explicit")
    z = resolve_dt(cfg, g) / cfg.epsilon * mu * complex(-alpha, 1.0)
    assert abs(1.0 + z + z * z / 2.0) <= 1.0


def test_default_explicit_step_converges_at_small_alpha(static_field):
    # alpha = 0.1: the default step and its half agree to O(dt^2); with a
    # step 0.2 eps h^2 / (6 alpha) the two end about 250 (H2) apart
    g, mask, demag = _box8()
    m_eq = up_field(g, mask)
    m0 = normalize_pointwise(
        m_eq + sample_admissible_perturbation(m_eq, 0.3, 2, g, mask), mask)
    cfg = SolverConfig(epsilon=0.1, alpha=0.1, T=0.01,
                       integrator="projected-explicit")
    dt = resolve_dt(cfg, g)
    runs = [integrate(m0, replace(cfg, dt=d), g, mask, demag, static_field,
                      sample_every=10**6)[1] for d in (dt, dt / 2)]
    d = runs[0] - runs[1]
    assert np.sqrt(inner_products(d, d, g, mask)["h2"]) < 0.01


def test_run_record_validation():
    t = np.array([0.0, 1.0])
    col = np.zeros(2)
    with pytest.raises(ValueError):
        RunRecord(t, np.zeros(3), np.zeros((2, 3)), col, col, col)
    with pytest.raises(ValueError):
        RunRecord(np.array([1.0, 0.0]), col, np.zeros((2, 3)), col, col, col)
    with pytest.raises(ValueError):
        RunRecord(t, col, np.zeros((5, 3)), col, col, col)


def test_total_field_assembly(box12, demag12, static_field):
    g, mask = box12
    m = random_unit_field(g, mask, 0)
    h = total_field(0.0, m, g, mask, demag12, static_field)
    manual = (laplacian_neumann(m, g, mask)
              + demag_field(demag12, m, g, mask)
              + eval_h_ext(static_field, 0.0, g, mask))
    assert np.allclose(h, manual)


def test_parabolic_equivalence(box12, demag12, static_field):
    # alpha Lap m + F(t, m) = eps * LL right-hand side on unit fields
    g, mask = box12
    cfg = SolverConfig(epsilon=0.3, alpha=1.1, T=1.0, dt=1e-3)
    for seed in range(5):
        m = random_unit_field(g, mask, seed)
        lhs = cfg.alpha * laplacian_neumann(m, g, mask) \
            + parabolic_rhs_F(0.0, m, cfg, g, mask, demag12, static_field)
        rhs = cfg.epsilon * ll_rhs(0.0, m, cfg, g, mask, demag12,
                                   static_field)
        assert np.max(np.abs(lhs - rhs)) < 1e-10 * np.max(np.abs(rhs))


@pytest.mark.parametrize("shape", ["box", "ellipsoid"])
def test_F_is_the_three_cross_product_formula_off_the_sphere(shape,
                                                            static_field):
    # F writes m ^ (m ^ a) as (m.a) m - |m|^2 a, which holds for every m:
    # the linearization checks evaluate F at m_eq + delta, off the sphere
    g = Grid3(10, 8, 6, 0.1, 0.125, 1 / 6)
    mask = DomainMask.full(g) if shape == "box" else \
        DomainMask.ellipsoid(g, EllipsoidSpec(0.5, 0.4, 0.3))
    demag = FftDemag.for_grid(g)
    cfg = SolverConfig(epsilon=0.3, alpha=0.7, T=1.0, dt=1e-3)
    rng = np.random.default_rng(11)
    for scale in (0.5, 1.0, 3.0):
        m = apply_mask(scale * rng.standard_normal(g.shape + (3,)), mask)
        lap = laplacian_neumann(m, g, mask)
        a = demag_field(demag, m, g, mask) \
            + eval_h_ext(static_field, 0.0, g, mask)
        want = apply_mask(
            cross3(m, a + lap) - cfg.alpha * dot3(m, lap)[..., None] * m
            - cfg.alpha * cross3(m, cross3(m, a)), mask)
        got = parabolic_rhs_F(0.0, m, cfg, g, mask, demag, static_field)
        assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))


@pytest.mark.parametrize("integrator",
                         ["projected-explicit", "semi-implicit-spectral"])
def test_step_unit_output(box12, demag12, static_field, integrator):
    g, mask = box12
    cfg = SolverConfig(epsilon=0.2, alpha=1.0, T=1.0, dt=2e-4,
                       integrator=integrator)
    m = random_unit_field(g, mask, 3)
    out = step(0.0, m, cfg.dt, cfg, g, mask, demag12, static_field)
    norms = np.sqrt(dot3(out, out))[mask.inside]
    assert np.max(np.abs(norms - 1.0)) < 1e-14


@pytest.mark.parametrize("integrator",
                         ["projected-explicit", "semi-implicit-spectral"])
def test_step_fixed_point_at_equilibrium(macrospin, static_field, integrator):
    g, mask = macrospin
    demag = TensorDemag(np.eye(3) / 3.0)
    m_eq = up_field(g, mask)  # aligned with the field: exact equilibrium
    assert equilibrium_residual(0.0, m_eq, g, mask, demag,
                                static_field) < 1e-14
    cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=1.0, dt=1e-3,
                       integrator=integrator)
    out = step(0.0, m_eq, cfg.dt, cfg, g, mask, demag, static_field)
    assert np.max(np.abs(out - m_eq)) < 1e-10


def test_semi_implicit_step_rejects_masked_domain(static_field):
    # the cosine solve belongs to the stencil on the full box only
    g = Grid3(8, 8, 8, 0.25, 0.25, 0.25)
    mask = DomainMask.ellipsoid(g, EllipsoidSpec(1.0, 0.9, 0.8))
    cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=1.0, dt=1e-3,
                       integrator="semi-implicit-spectral")
    with pytest.raises(ModeMismatchError):
        step(0.0, up_field(g, mask), cfg.dt, cfg, g, mask,
             FftDemag.for_grid(g), static_field)


@pytest.mark.parametrize("alpha", [1.0, 2.0])
def test_semi_implicit_step_unshifted_for_alpha_at_least_one(static_field,
                                                            alpha):
    # (eps/dt - alpha Lap) m+ = (eps/dt) m + F(t, m), to the last bit
    g, mask, demag = _box8()
    cfg = SolverConfig(epsilon=0.1, alpha=alpha, T=1.0, dt=2e-3)
    s = cfg.epsilon / cfg.dt
    m = random_unit_field(g, mask, 5)
    rhs = s * m + parabolic_rhs_F(0.0, m, cfg, g, mask, demag, static_field)
    fr = scipy.fft.dctn(rhs, type=2, norm="ortho", axes=(0, 1, 2))
    want = normalize_pointwise(scipy.fft.idctn(
        fr / (s + alpha * neumann_eigenvalues(g))[..., None], type=2,
        norm="ortho", axes=(0, 1, 2)), mask)
    out = step(0.0, m, cfg.dt, cfg, g, mask, demag, static_field)
    assert np.array_equal(out, want)


def test_semi_implicit_step_below_alpha_one_converges_to_first_order(
        static_field):
    # alpha = 0.5: the unshifted step amplifies the top modes of 8^3 for
    # dt/eps above 0.0018 and ends in noise; the shifted one meets the
    # explicit run with an H2 distance that halves with dt
    g, mask, demag = _box8()
    m_eq = up_field(g, mask)
    m0 = normalize_pointwise(
        m_eq + sample_admissible_perturbation(m_eq, 0.3, 2, g, mask), mask)
    eps, alpha, T = 0.1, 0.5, 0.05

    def final(integrator, dt=None):
        cfg = SolverConfig(epsilon=eps, alpha=alpha, T=T,
                           integrator=integrator, dt=dt)
        return integrate(m0, cfg, g, mask, demag, static_field,
                         sample_every=10**6)[1]

    ref = final("projected-explicit")
    dist = []
    for dt_over_eps in (0.01, 0.005, 0.0025):
        d = final("semi-implicit-spectral", dt_over_eps * eps) - ref
        dist.append(np.sqrt(inner_products(d, d, g, mask)["h2"]))
    assert dist[-1] < 0.03
    for coarse, fine in zip(dist, dist[1:]):
        assert 1.8 < coarse / fine < 3.0


def test_precession_conserves_field_projection(macrospin, sphere_tensor):
    # nearly undamped macrospin: m.u is conserved to O(dt^3) per step
    g, mask = macrospin
    sched = FieldSchedule.constant(1.0, (0.0, 0.0, 1.0))
    m = constant_field(g, np.array([0.6, 0.0, 0.8]), mask)
    dt = 1e-3
    cfg = SolverConfig(epsilon=0.05, alpha=1e-12, T=1.0, dt=dt,
                       integrator="projected-explicit")
    out = step(0.0, m, dt, cfg, g, mask, sphere_tensor, sched)
    drift = abs(out[0, 0, 0, 2] - 0.8)
    assert drift < 10.0 * (dt / 0.05) ** 3


def _one_cell_case(name):
    """(demag, schedule) on one cell: a non-diagonal tensor, a rotating
    field under an off-centre bump (chi < 1 at the cell), or a fixed
    direction."""
    tensor = TensorDemag(np.array([[0.30, 0.05, 0.02],
                                   [0.05, 0.25, 0.01],
                                   [0.02, 0.01, 0.45]]))
    sweep = FieldSchedule(np.array([[0.0, 0.7], [1.0, -0.4]]),
                          RotatingDirection((0.0, 0.2, 1.0), (1.0, 0.0, 0.0),
                                            0.9))
    if name == "tensor":
        return tensor, sweep
    if name == "fixed":
        return tensor, FieldSchedule(sweep.knots,
                                     FixedDirection((0.3, -0.2, 1.0)))
    bump = BumpEnvelope((0.2, 0.7, 0.4), 1.0)
    assert 0.0 < bump.values(Grid3(1, 1, 1))[0, 0, 0] < 1.0
    return tensor, FieldSchedule(sweep.knots, sweep.direction, bump)


@pytest.mark.parametrize("integrator",
                         ["projected-explicit", "semi-implicit-spectral"])
@pytest.mark.parametrize("case", ["tensor", "bump", "fixed"])
def test_one_cell_matches_the_array_formulas(macrospin, integrator, case):
    # the float one-cell path against the grid formulas written out here
    g, mask = macrospin
    demag, sched = _one_cell_case(case)
    cfg = SolverConfig(epsilon=0.05, alpha=0.7, T=1.0, dt=0.01,
                       integrator=integrator)
    dt, s = cfg.dt, cfg.epsilon / cfg.dt

    def rhs(t, m):
        mxh = cross3(m, total_field(t, m, g, mask, demag, sched))
        return (mxh - cfg.alpha * cross3(m, mxh)) / cfg.epsilon

    rng = np.random.default_rng(0)
    for _ in range(20):
        m = normalize_pointwise(rng.standard_normal((1, 1, 1, 3)), mask)
        t = rng.uniform(0.0, 0.9)
        got = ll_rhs(t, m, cfg, g, mask, demag, sched)
        assert got.shape == m.shape
        assert np.max(np.abs(got - rhs(t, m))) <= 1e-15 * np.max(np.abs(got))
        if integrator == "projected-explicit":
            mh = normalize_pointwise(m + 0.5 * dt * rhs(t, m), mask)
            want = normalize_pointwise(m + dt * rhs(t + 0.5 * dt, mh), mask)
        else:
            F = parabolic_rhs_F(t, m, cfg, g, mask, demag, sched)
            want = normalize_pointwise((s * m + F) / s, mask)
        out = step(t, m, dt, cfg, g, mask, demag, sched)
        assert out.shape == m.shape
        assert np.max(np.abs(out - want)) <= 1e-15


@pytest.mark.parametrize("integrator",
                         ["projected-explicit", "semi-implicit-spectral"])
def test_one_cell_tensor_field_stays_in_floats(macrospin, monkeypatch,
                                               integrator):
    # with a TensorDemag, a one-cell stage builds no (1, 1, 1, 3) field
    # array: neither demag_field nor eval_h_ext is called
    g, mask = macrospin
    demag, sched = _one_cell_case("tensor")
    cfg = SolverConfig(epsilon=0.05, alpha=0.7, T=1.0, dt=0.01,
                       integrator=integrator)
    m = normalize_pointwise(np.array([[[[0.3, -0.4, 0.8]]]]), mask)
    want = ll_rhs(0.3, m, cfg, g, mask, demag, sched), \
        step(0.3, m, cfg.dt, cfg, g, mask, demag, sched)
    calls = []
    for name in ("demag_field", "eval_h_ext"):
        monkeypatch.setattr(dynamics, name,
                            lambda *a, name=name: calls.append(name))
    got = ll_rhs(0.3, m, cfg, g, mask, demag, sched), \
        step(0.3, m, cfg.dt, cfg, g, mask, demag, sched)
    assert calls == []
    assert all(np.array_equal(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize("integrator",
                         ["projected-explicit", "semi-implicit-spectral"])
@pytest.mark.parametrize("n", [1, 2])
def test_step_error_contract(integrator, n):
    g = Grid3(n, n, n, 1.0 / n, 1.0 / n, 1.0 / n)
    mask = DomainMask.full(g)
    demag = TensorDemag(np.eye(3) / 3.0) if n == 1 else FftDemag.for_grid(g)
    cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=1.0, dt=0.2,
                       integrator=integrator)
    fine = FieldSchedule.constant(0.7, (0.0, 0.0, 1.0))
    m = up_field(g, mask)
    bad = np.zeros((2 * n, n, n, 3))
    bad[..., 2] = 1.0
    with pytest.raises(ShapeMismatchError):
        ll_rhs(0.0, bad, cfg, g, mask, demag, fine)
    with pytest.raises(ShapeMismatchError):
        step(0.0, bad, cfg.dt, cfg, g, mask, demag, fine)
    with pytest.raises(DegenerateCellError):
        step(0.0, np.zeros_like(m), cfg.dt, cfg, g, mask, demag, fine)
    # non-finite from the first evaluation: a finite field of 1e308 across
    # m, whose torque over eps overflows; and, explicit only, a field that
    # jumps to it after t = 1, so that of the step from t = 0.95 only the
    # midpoint stage at t + dt/2 = 1.05 sees it (the schedule refuses
    # non-finite amplitudes themselves)
    tilted = FixedDirection((1.0, 0.0, 1.0))
    huge = FieldSchedule(np.array([[0.0, 1e308], [2.0, 1e308]]), tilted)
    late = FieldSchedule(np.array([[0.0, 0.7], [1.0, 0.7], [1.01, 1e308],
                                   [2.0, 1e308]]), tilted)
    cases = [(0.5, huge)]
    if integrator == "projected-explicit":
        cases.append((0.95, late))
    for t, sched in cases:
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(BlowUpError) as exc:
                step(t, m, cfg.dt, cfg, g, mask, demag, sched)
        assert exc.value.time == t + cfg.dt


def test_energy_gradient_is_total_field(box12, demag12, static_field):
    # dE(m)[v] = -(h_T | v) for tangent directions, up to roundoff
    g, mask = box12
    cfg = SolverConfig(epsilon=1.0, alpha=1.0, T=1.0, dt=1e-3)
    m = random_unit_field(g, mask, 9)
    rng = np.random.default_rng(10)
    v = rng.standard_normal(g.shape + (3,))
    v = np.where(mask.inside[..., None], v, 0.0)
    s = 1e-6
    e_plus = energy(0.0, m + s * v, cfg, g, mask, demag12, static_field)
    e_minus = energy(0.0, m - s * v, cfg, g, mask, demag12, static_field)
    dE = (e_plus - e_minus) / (2.0 * s)
    h = total_field(0.0, m, g, mask, demag12, static_field)
    pairing = -float(np.sum(dot3(h, v)[mask.inside])) * mask.cell_volume
    assert dE == pytest.approx(pairing, rel=1e-6, abs=1e-8)


def test_energy_is_the_three_term_sum(box12, demag12, static_field,
                                     sphere_tensor):
    # E read off the field equals 1/2 |grad m|^2 - 1/2 m.h_d - m.h_ext,
    # the first summed face by face, on unit and non-unit fields alike
    ge = Grid3(12, 12, 12, 2.0 / 12, 1.6 / 12, 1.2 / 12)
    g1 = Grid3(1, 1, 1)
    domains = ((box12[0], box12[1], demag12),
               (ge, DomainMask.ellipsoid(ge, EllipsoidSpec(1.0, 0.8, 0.6)),
                FftDemag.for_grid(ge)),
               (g1, DomainMask.full(g1), sphere_tensor))
    cfg = SolverConfig(epsilon=1.0, alpha=1.0, T=1.0, dt=1e-3)
    for g, mask, demag in domains:
        rng = np.random.default_rng(4)
        m_free = np.where(mask.inside[..., None],
                          1.5 * rng.standard_normal(g.shape + (3,)), 0.0)
        for m in (random_unit_field(g, mask, 3), m_free):
            w, dV = mask.inside, mask.cell_volume
            hd = demag_field(demag, m, g, mask)
            he = eval_h_ext(static_field, 0.0, g, mask)
            want = (0.5 * face_pairing(m, m, g, mask)
                    - (0.5 * np.sum(dot3(m, hd)[w])
                       + np.sum(dot3(m, he)[w])) * dV)
            got = energy(0.0, m, cfg, g, mask, demag, static_field)
            assert got == pytest.approx(want, rel=1e-13, abs=0.0), g.shape


def test_energy_decay_identity_first_order(box12, demag12, static_field):
    g, mask = box12
    m_eq = up_field(g, mask)
    m0 = m_eq + sample_admissible_perturbation(m_eq, 0.3, 2, g, mask)
    defects = []
    for dt in (4e-4, 2e-4):
        cfg = SolverConfig(epsilon=0.5, alpha=1.0, T=0.0, dt=dt,
                           integrator="projected-explicit")
        e0 = energy(0.0, m0, cfg, g, mask, demag12, static_field)
        m1 = step(0.0, m0, dt, cfg, g, mask, demag12, static_field)
        e1 = energy(dt, m1, cfg, g, mask, demag12, static_field)
        h = total_field(0.0, m0, g, mask, demag12, static_field)
        pred = -(cfg.alpha / cfg.epsilon) * norm_l2(
            cross3(m0, h), g, mask) ** 2
        defects.append(abs((e1 - e0) / dt - pred) / abs(pred))
    assert defects[0] < 0.08
    assert defects[1] < 0.65 * defects[0]


def test_blow_up_raises_with_partial_record(macrospin, sphere_tensor):
    g, mask = macrospin
    sched = FieldSchedule.constant(50.0, (0.0, 0.0, 1.0))
    # far from unit length, the quadratic m x (m x h) term overflows in the
    # first step, before the step renormalizes
    m0 = constant_field(g, (1e200, 0.0, 0.0), mask)
    cfg = SolverConfig(epsilon=1e-6, alpha=1.0, T=1.0, dt=0.1,
                       integrator="projected-explicit")
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(BlowUpError) as exc:
            integrate(m0, cfg, g, mask, sphere_tensor, sched)
    assert exc.value.record is not None
    assert len(exc.value.record.times) >= 1


def test_blow_up_in_reference_keeps_partial_record(macrospin, sphere_tensor,
                                                  static_field):
    g, mask = macrospin
    m0 = up_field(g, mask)
    cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=0.1, dt=1e-2,
                       integrator="projected-explicit")
    calls = []

    def reference(t):
        calls.append(t)
        if len(calls) == 3:
            raise BlowUpError(t)
        return m0
    with pytest.raises(BlowUpError) as exc:
        integrate(m0, cfg, g, mask, sphere_tensor, static_field,
                  reference=reference)
    rec = exc.value.record
    assert rec is not None
    assert np.allclose(rec.times, [0.0, 0.01])
    assert rec.mean.shape == (2, 3)


def test_integrate_sampling_and_columns(macrospin, sphere_tensor,
                                        static_field):
    g, mask = macrospin
    m0 = up_field(g, mask)
    cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=0.1, dt=1e-3,
                       integrator="projected-explicit")
    rec, m_final = integrate(m0, cfg, g, mask, sphere_tensor, static_field,
                             sample_every=10,
                             reference=lambda t: m0)
    assert len(rec.times) == 11
    assert np.all(np.diff(rec.times) > 0)
    assert rec.lam[0] == pytest.approx(0.7)
    assert np.all(rec.dist_h2 < 1e-10)  # started at the equilibrium
    assert np.allclose(m_final, m0, atol=1e-10)


def test_integrate_ends_at_T_or_refuses(macrospin, sphere_tensor,
                                        static_field, monkeypatch):
    # a dt that does not divide T used to stop short (0.4) or overshoot (0.6)
    g, mask = macrospin
    m0 = up_field(g, mask)
    for dt in (0.4, 0.6):
        cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=1.0, dt=dt,
                           integrator="projected-explicit")
        with pytest.raises(ValueError, match=f"dt = {dt} .* T = 1.0"):
            integrate(m0, cfg, g, mask, sphere_tensor, static_field)
    # the explicit CFL policy (T / dt = 3.6 before shortening) ends at T
    g4 = Grid3(4, 1, 1, 0.5, 1.0, 1.0)
    mask4 = DomainMask.full(g4)
    cfg = SolverConfig(epsilon=1.0, alpha=1.0, T=0.03,
                       integrator="projected-explicit")
    rec, _ = integrate(up_field(g4, mask4), cfg, g4, mask4,
                       FftDemag.for_grid(g4), static_field)
    assert len(rec.times) == 5
    assert rec.times[-1] == pytest.approx(0.03, rel=1e-12)
    # a run that spans its schedule samples its last row at T itself,
    # though t0 + n dt rounds past it: 70 * 0.01 and 7 * (0.9 / 7)
    for T, dt in ((0.7, 0.01), (0.9, 0.9 / 7)):
        sched = FieldSchedule(np.array([[0.0, 0.7], [T, 0.7]]))
        cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=T, dt=dt,
                           integrator="projected-explicit")
        rec, _ = integrate(m0, cfg, g, mask, sphere_tensor, sched)
        assert rec.times[-1] == T
    # a run past the schedule's end is refused before its first step
    monkeypatch.setattr(dynamics, "step", None)
    cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=2.0, dt=0.01,
                       integrator="projected-explicit")
    with pytest.raises(ValueError, match="T = 2.0 .* ends at t = 0.9"):
        integrate(m0, cfg, g, mask, sphere_tensor, sched)


def test_integrate_starts_at_the_schedule_start(macrospin, sphere_tensor):
    g, mask = macrospin
    sched = FieldSchedule(np.array([[2.0, 0.7], [3.0, 0.7]]))
    cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=0.05, dt=0.01,
                       integrator="projected-explicit")
    rec, _ = integrate(up_field(g, mask), cfg, g, mask, sphere_tensor, sched)
    assert rec.times[0] == 2.0
    assert rec.times[-1] == pytest.approx(2.05, rel=1e-12)


def test_relax_to_equilibrium_macrospin(macrospin, sphere_tensor,
                                        static_field):
    g, mask = macrospin
    m0 = constant_field(g, np.array([1.0, 0.0, 0.2]) / np.sqrt(1.04), mask)
    m_eq, converged = relax_to_equilibrium(m0, 0.0, 1e-10, 50.0, 1.0, g,
                                           mask, sphere_tensor, static_field)
    assert converged
    assert np.allclose(m_eq[0, 0, 0], [0.0, 0.0, 1.0], atol=1e-5)


@pytest.mark.parametrize("tol, alpha, message", [
    pytest.param(np.nan, 1.0, "tol must be >= 0", id="nan-tol"),
    pytest.param(-1.0, 1.0, "tol must be >= 0", id="negative-tol"),
    pytest.param(1e-10, -1.0, "alpha must be > 0", id="negative-alpha"),
    pytest.param(1e-10, 0.0, "alpha must be > 0", id="zero-alpha"),
    pytest.param(1e-10, np.nan, "alpha must be > 0", id="nan-alpha")])
def test_relax_to_equilibrium_refuses_tol_and_alpha(macrospin, sphere_tensor,
                                                    static_field, tol, alpha,
                                                    message):
    # each of these ran the whole budget unconverged, alpha < 0 as an
    # anti-damping flow
    g, mask = macrospin
    with pytest.raises(ValueError, match=message):
        relax_to_equilibrium(up_field(g, mask), 0.0, tol, 50.0, alpha, g,
                             mask, sphere_tensor, static_field)


def test_relax_to_equilibrium_non_finite_start_blows_up(macrospin,
                                                       sphere_tensor,
                                                       static_field):
    g, mask = macrospin
    m0 = np.full(g.shape + (3,), np.nan)
    with pytest.raises(BlowUpError) as exc:
        relax_to_equilibrium(m0, 1.5, 1e-10, 50.0, 1.0, g, mask,
                             sphere_tensor, static_field)
    assert exc.value.time == 1.5


def test_relax_to_equilibrium_freezes_a_moving_field(macrospin,
                                                     sphere_tensor):
    # rotating field, relaxed at t = 0.3: the fixed point must be the
    # equilibrium at 0.3, not at a later time
    g, mask = macrospin
    sched = FieldSchedule(
        np.array([[0.0, 5.0], [10.0, 5.0]]),
        RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5))
    m0 = constant_field(g, (0.0, 0.0, 1.0), mask)
    m_eq, converged = relax_to_equilibrium(m0, 0.3, 1e-10, 50.0, 1.0, g,
                                           mask, sphere_tensor, sched)
    assert converged
    assert np.allclose(m_eq[0, 0, 0], sched.direction.at(0.3), atol=1e-9)


def _box8():
    g = Grid3(8, 8, 8, 1 / 8, 1 / 8, 1 / 8)
    return g, DomainMask.full(g), FftDemag.for_grid(g)


def test_relax_to_equilibrium_damping_flow_on_box(static_field):
    # semi-implicit damping-only flow from a tilted start: below tol, unit,
    # energy not raised, and the equilibrium of a tight solve from
    # elsewhere (same basin)
    g, mask, demag = _box8()
    cfg = SolverConfig(epsilon=0.1, alpha=1.0, T=1.0)  # for energy
    m0 = constant_field(g, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), mask)
    m_eq, converged = relax_to_equilibrium(m0, 0.0, 1e-6, 50.0, 1.0, g,
                                           mask, demag, static_field)
    assert converged
    assert equilibrium_residual(0.0, m_eq, g, mask, demag,
                                static_field) < 1e-6
    assert np.max(np.abs(np.sqrt(dot3(m_eq, m_eq)) - 1.0)) <= 1e-12
    assert energy(0.0, m_eq, cfg, g, mask, demag, static_field) \
        <= energy(0.0, m0, cfg, g, mask, demag, static_field)
    other = constant_field(g, np.array([0.6, -0.8, 1.0]) / np.sqrt(2.0), mask)
    m_ref, converged = relax_to_equilibrium(other, 0.0, 1e-10, 50.0, 1.0, g,
                                            mask, demag, static_field)
    assert converged
    assert np.max(np.abs(m_eq - m_ref)) < 1e-5


def test_relax_to_equilibrium_on_box_without_dt(static_field):
    # no step to set: the full box takes the cosine-preconditioned step
    # from 0.05, where a plain explicit step from 0.05 stalls near 1.5e-5
    g, mask, demag = _box8()
    m0 = constant_field(g, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), mask)
    m_eq, converged = relax_to_equilibrium(m0, 0.0, 1e-8, 50.0, 1.0, g,
                                           mask, demag, static_field)
    assert converged
    assert equilibrium_residual(0.0, m_eq, g, mask, demag,
                                static_field) < 1e-8


def test_relax_to_equilibrium_one_step_is_the_semi_implicit_step(
        static_field):
    # tol = 0 and max_T = 0.05, the first step on the full box, take
    # exactly one damped step. On unit fields it equals the semi-implicit
    # step with the damping half of F as its right-hand side, solved in
    # the cosine basis:
    # (1/tau - alpha Lap) m+ = m/tau + alpha (|grad m|^2 m
    #                                         - m ^ (m ^ (h_d + h_ext)))
    g, mask, demag = _box8()
    m0 = random_unit_field(g, mask, 4)
    h_de = demag_field(demag, m0, g, mask) \
        + eval_h_ext(static_field, 0.0, g, mask)
    gsq = -dot3(m0, laplacian_neumann(m0, g, mask))
    dt = 0.05
    for alpha in (1.0, 0.3):
        m1, converged = relax_to_equilibrium(m0, 0.0, 0.0, dt, alpha, g,
                                             mask, demag, static_field)
        assert not converged
        rhs = m0 / dt + alpha * (gsq[..., None] * m0
                                 - cross3(m0, cross3(m0, h_de)))
        denom = 1.0 / dt + alpha * neumann_eigenvalues(g)
        fr = scipy.fft.dctn(rhs, type=2, norm="ortho", axes=(0, 1, 2))
        ref = normalize_pointwise(scipy.fft.idctn(
            fr / denom[..., None], type=2, norm="ortho", axes=(0, 1, 2)),
            mask)
        assert np.max(np.abs(m1 - ref)) <= 1e-13 * np.max(np.abs(ref))


def test_relax_to_equilibrium_on_ellipsoid_mask():
    # masked domains take the box's step: P is the cosine solve on the
    # body's bounding box, from tau = 0.05; the field stays unit inside and
    # zero outside
    g = Grid3(12, 12, 12, 2.0 / 12, 1.6 / 12, 1.2 / 12)
    mask = DomainMask.ellipsoid(g, EllipsoidSpec(1.0, 0.8, 0.6))
    demag = FftDemag.for_grid(g)
    sched = FieldSchedule.constant(0.7, (1.0, 0.0, 0.0))
    m0 = constant_field(g, np.array([1.0, 0.0, 1.0]) / np.sqrt(2.0), mask)
    m_eq, converged = relax_to_equilibrium(m0, 0.0, 1e-6, 50.0, 1.0, g,
                                           mask, demag, sched)
    assert converged
    assert equilibrium_residual(0.0, m_eq, g, mask, demag, sched) < 1e-6
    norms = np.sqrt(dot3(m_eq, m_eq))
    assert np.max(np.abs(norms[mask.inside] - 1.0)) <= 1e-12
    assert np.all(norms[~mask.inside] == 0.0)


def _count_field_evaluations(monkeypatch) -> list[int]:
    """Count the calls of dynamics.total_field; the relaxation makes one
    per iteration."""
    import twoscale_ll.dynamics as dynamics
    calls = [0]

    def counted(*args):
        calls[0] += 1
        return total_field(*args)

    monkeypatch.setattr(dynamics, "total_field", counted)
    return calls


@pytest.mark.parametrize("n, side", [(12, None), (16, 3.0)])
def test_masked_relaxation_is_preconditioned_on_the_bounding_box(
        monkeypatch, n, side):
    # the body fills its box (side None), or sits in a box of side 3 whose
    # faces it does not touch: there the cosine solve runs on the body's
    # bounding box, so its mirror faces lie close to the body's boundary
    e = EllipsoidSpec(1.0, 0.8, 0.6)
    h = (2.0 * e.a / n, 2.0 * e.b / n, 2.0 * e.c / n) if side is None \
        else (side / n,) * 3
    g = Grid3(n, n, n, *h)
    mask = DomainMask.ellipsoid(g, e)
    demag = FftDemag.for_grid(g)
    sched = FieldSchedule.constant(0.7, (1.0, 0.3, 0.2))
    u = np.array([1.0, 0.3, 0.2]) / np.linalg.norm([1.0, 0.3, 0.2])
    calls = _count_field_evaluations(monkeypatch)
    m_eq, converged = relax_to_equilibrium(constant_field(g, u, mask), 0.0,
                                           1e-6, 50.0, 1.0, g, mask, demag,
                                           sched)
    assert converged
    assert calls[0] <= 80
    assert equilibrium_residual(0.0, m_eq, g, mask, demag, sched) < 1e-6


def test_masked_relaxation_budget_is_max_T_over_first_step(monkeypatch):
    # every domain starts at 0.05, so tol 0 (never met) runs exactly
    # ceil(max_T / 0.05) steps and evaluates the field once more
    g = Grid3(12, 12, 12, 2.0 / 12, 1.6 / 12, 1.2 / 12)
    mask = DomainMask.ellipsoid(g, EllipsoidSpec(1.0, 0.8, 0.6))
    sched = FieldSchedule.constant(0.7, (1.0, 0.3, 0.2))
    calls = _count_field_evaluations(monkeypatch)
    _, converged = relax_to_equilibrium(
        constant_field(g, (1.0, 0.0, 0.0), mask), 0.0, 0.0, 0.5, 1.0, g,
        mask, FftDemag.for_grid(g), sched)
    assert not converged
    assert calls[0] == 11


def test_relax_to_equilibrium_safeguard_recovers_a_large_dt():
    # under a field of amplitude 60 the first step 0.05 of the full box is
    # too large: with the floor fixed the residual stays near 27; halving
    # the step floor still converges
    g, mask, demag = _box8()
    sched = FieldSchedule(
        np.array([[0.0, 60.0], [10.0, 60.0]]),
        RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5))
    m_eq, converged = relax_to_equilibrium(up_field(g, mask), 0.3, 1e-8,
                                           50.0, 1.0, g, mask, demag, sched)
    assert converged
    assert equilibrium_residual(0.3, m_eq, g, mask, demag, sched) < 1e-8


def test_integrate_explicit_on_ellipsoid_unit_and_energy_decreasing():
    g = Grid3(12, 12, 12, 2.0 / 12, 1.6 / 12, 1.2 / 12)
    mask = DomainMask.ellipsoid(g, EllipsoidSpec(1.0, 0.8, 0.6))
    demag = FftDemag.for_grid(g)
    sched = FieldSchedule.constant(0.7, (0.0, 0.0, 1.0))
    m_eq = up_field(g, mask)
    m0 = m_eq + sample_admissible_perturbation(m_eq, 0.3, 2, g, mask)
    cfg = SolverConfig(epsilon=0.5, alpha=1.0, T=0.02,
                       integrator="projected-explicit")
    rec, m = integrate(m0, cfg, g, mask, demag, sched)
    norms = np.sqrt(dot3(m, m))
    assert np.max(np.abs(norms[mask.inside] - 1.0)) <= 1e-12
    assert np.all(np.diff(rec.energy) <= 0.0)
    assert rec.energy[-1] < rec.energy[0]
