"""Two-scale Landau-Lifshitz evolution: total field, the LL right-hand
side, the parabolic reformulation, stiff time integration, energy, and the
frozen-time relaxation flow used to produce equilibria."""

from __future__ import annotations

from dataclasses import dataclass
from math import ceil, isfinite, sqrt
from typing import Callable

import numpy as np
import scipy.fft

from .demag import DemagModel, demag_field
from .grid import (
    DegenerateCellError,
    DomainMask,
    Grid3,
    ModeMismatchError,
    _check_field,
    apply_mask,
    cross3,
    dot3,
    inner_products,
    laplacian_neumann,
    mean_magnetization,
    neumann_eigenvalues,
    norm_l2,
    normalize_pointwise,
    require_full_box,
)
from .schedule import FieldSchedule, _envelope_values, eval_h_ext


class BlowUpError(RuntimeError):
    """Integration produced non-finite values."""

    def __init__(self, t: float, record: "RunRecord | None" = None):
        super().__init__(f"non-finite field values at t = {t}")
        self.time = t
        self.record = record


@dataclass(frozen=True)
class SolverConfig:
    """Time integration parameters for the fast LL flow."""

    epsilon: float
    alpha: float
    T: float
    integrator: str = "semi-implicit-spectral"  # or "projected-explicit"
    dt: float | None = None

    def __post_init__(self):
        if not (self.epsilon > 0 and self.alpha > 0 and self.T >= 0):
            raise ValueError("epsilon, alpha must be > 0 and T >= 0")
        if self.integrator not in ("projected-explicit", "semi-implicit-spectral"):
            raise ValueError(f"unknown integrator {self.integrator!r}")
        if self.dt is not None and not self.dt > 0:
            raise ValueError("dt must be > 0")


def resolve_dt(cfg: SolverConfig, g: Grid3) -> float:
    """Fixed dt if given, else for explicit runs the step
    0.2 eps h^2 / (6 max(alpha, alpha^(-1/3))), finest h, shortened to
    divide T when T > 0. The midpoint rule amplifies a mode Lap = -mu by
    |1 + z + z^2/2|, z = (dt/eps) mu (-alpha + i), mu <= 12 / h^2. The
    region where that is <= 1 meets the imaginary axis only at 0, so below
    alpha = 1 the precession, not the diffusion, bounds |z|, as alpha^(1/3)."""
    if cfg.dt is not None:
        return cfg.dt
    if cfg.integrator == "projected-explicit" and not g.is_macrospin:
        h2 = min(h**2 for h, n in zip(g.spacings, g.shape) if n > 1)
        a = cfg.alpha
        dt = 0.2 * cfg.epsilon * h2 / (6.0 * max(a, a ** (-1.0 / 3.0)))
        return cfg.T / ceil(cfg.T / dt) if cfg.T > 0 else dt
    raise ValueError("dt must be set: there is no default step on a "
                     "one-cell grid or for semi-implicit-spectral")


def _n_steps(T: float, dt: float) -> int:
    """Number of steps of size dt that make up T; ValueError unless dt
    divides T (relative tolerance 1e-9)."""
    n = int(round(T / dt))
    if abs(n * dt - T) > 1e-9 * T:
        raise ValueError(f"dt = {dt} does not divide T = {T}")
    return n


def _check_span(T: float, sched: FieldSchedule) -> None:
    """ValueError unless a run over T from sched.t_min ends in the schedule."""
    if sched.t_min + T > sched.t_max:
        raise ValueError(f"T = {T} from t = {sched.t_min} outlives the "
                         f"schedule, which ends at t = {sched.t_max}")


@dataclass
class RunRecord:
    """Sampled diagnostics of one run (columns of equal length)."""

    times: np.ndarray
    lam: np.ndarray
    mean: np.ndarray       # (n, 3)
    energy: np.ndarray
    residual: np.ndarray   # ||m ^ h_T||_L2
    dist_h2: np.ndarray    # H2 distance to the reference field (nan if none)

    def __post_init__(self):
        n = len(self.times)
        for col in (self.lam, self.energy, self.residual, self.dist_h2):
            if len(col) != n:
                raise ValueError("record columns must have equal length")
        if np.shape(self.mean) != (n, 3):
            raise ValueError(f"record mean must have shape ({n}, 3)")
        if np.any(np.diff(self.times) < 0):
            raise ValueError("record times must be increasing")


def _fields(t, m, g, mask, demag, sched) -> tuple[np.ndarray, np.ndarray]:
    """(a, h): a = h_d(m) + h_ext(t) and h_T = Lap m + a, new and unmasked."""
    a = demag_field(demag, m, g, mask)
    a += eval_h_ext(sched, t, g, mask)
    h = laplacian_neumann(m, g, mask)
    h += a
    return a, h


def total_field(t: float, m: np.ndarray, g: Grid3, mask: DomainMask,
                demag: DemagModel, sched: FieldSchedule) -> np.ndarray:
    """h_T = exchange Laplacian + demag + exterior field."""
    return apply_mask(_fields(t, m, g, mask, demag, sched)[1], mask)


def _ll_torque3(m, h, alpha: float, eps: float) -> tuple[float, ...]:
    """(1/eps) [ m ^ h - alpha m ^ (m ^ h) ] for three floats each of m and
    h, where numpy's per-call cost would outweigh the arithmetic."""
    m0, m1, m2 = m
    h0, h1, h2 = h
    c0 = m1 * h2 - m2 * h1
    c1 = m2 * h0 - m0 * h2
    c2 = m0 * h1 - m1 * h0
    return ((c0 - alpha * (m1 * c2 - m2 * c1)) / eps,
            (c1 - alpha * (m2 * c0 - m0 * c2)) / eps,
            (c2 - alpha * (m0 * c1 - m1 * c0)) / eps)


def _unit3(v) -> tuple[float, ...]:
    """The three floats v scaled to unit norm (nan stays nan)."""
    v0, v1, v2 = v
    n = sqrt(v0 * v0 + v1 * v1 + v2 * v2)
    if n == 0.0:
        raise DegenerateCellError("zero vector at masked cell (0, 0, 0)")
    return (v0 / n, v1 / n, v2 / n)


def ll_rhs(t: float, m: np.ndarray, cfg: SolverConfig, g: Grid3,
           mask: DomainMask, demag: DemagModel,
           sched: FieldSchedule) -> np.ndarray:
    """(1/eps) [ m ^ h_T - alpha m ^ (m ^ h_T) ].

    One cell has no interior face, so there h_T = h_d + h_ext exactly, and
    the field and the torque are taken in floats: h_d = -D m from the
    TensorDemag's rows and h_ext = lambda(t) chi u(t).
    """
    if g.is_macrospin:
        _check_field(m, g)
        m3 = m.ravel().tolist()
        try:
            rows = demag.rows  # an FftDemag here was built for another grid
        except AttributeError:
            raise ModeMismatchError("one cell takes TensorDemag") from None
        m0, m1, m2 = m3
        hd = [-(a * m0 + b * m1 + c * m2) for a, b, c in rows]
        lam = sched.amplitude(t) * _envelope_values(sched.envelope, g).item()
        h = [a + lam * u for a, u in zip(hd, sched.direction.at(t).tolist())]
        return np.array(_ll_torque3(m3, h, cfg.alpha,
                                    cfg.epsilon)).reshape(m.shape)
    h = total_field(t, m, g, mask, demag, sched)
    mxh = cross3(m, h)
    return (mxh - cfg.alpha * cross3(m, mxh)) / cfg.epsilon


def parabolic_rhs_F(t: float, m: np.ndarray, cfg: SolverConfig, g: Grid3,
                    mask: DomainMask, demag: DemagModel,
                    sched: FieldSchedule) -> np.ndarray:
    """F(t,m) = m ^ h_T + alpha (|m|^2 a - (m.h_T) m), a = h_d + h_ext.

    As m ^ (m ^ a) = (m.a) m - |m|^2 a for every m, and on unit fields
    -m.Lap(m) is the discrete |grad m|^2 (the half-sum of the squared
    one-sided differences), F is the paper's m ^ h_T + alpha |grad m|^2 m
    - alpha m ^ (m ^ a), and alpha*Lap(m) + F reproduces the LL right-hand
    side exactly (discrete counterpart of the parabolic reformulation).
    """
    a, h = _fields(t, m, g, mask, demag, sched)
    out = cross3(m, h)
    out += (cfg.alpha * dot3(m, m))[..., None] * a
    out -= (cfg.alpha * dot3(m, h))[..., None] * m
    return apply_mask(out, mask)


def _cosine_solve(rhs: np.ndarray, shift: float, alpha: float, g: Grid3,
                  mask: DomainMask) -> np.ndarray:
    """Solve (shift - alpha Lap) u = rhs in the Neumann cosine basis of the
    body's bounding box of cells, zero outside it: the exact inverse on the
    full box and on one cell, an SPD preconditioner on a mask."""
    box = mask.bounding_box
    sub = rhs[box]
    lam = neumann_eigenvalues(Grid3(*sub.shape[:3], *g.spacings))
    fr = scipy.fft.dctn(sub, type=2, norm="ortho", axes=(0, 1, 2))
    fr /= (shift + alpha * lam)[..., None]
    out = np.zeros_like(rhs)
    out[box] = scipy.fft.idctn(fr, type=2, norm="ortho", axes=(0, 1, 2),
                               overwrite_x=True)
    return out


def step(t: float, m: np.ndarray, dt: float, cfg: SolverConfig, g: Grid3,
         mask: DomainMask, demag: DemagModel,
         sched: FieldSchedule) -> np.ndarray:
    """One time step; always returns a unit field on the mask.

    semi-implicit-spectral solves in the cosine basis of the box, so it
    raises ModeMismatchError on a masked domain. It treats beta Lap
    implicitly and the exchange precession m ^ Lap m inside F explicitly;
    a mode with Lap = -mu and z = mu dt/eps is amplified by
    |1 + (beta - alpha) z +- i z| / (1 + beta z), which is at most 1 for
    every z iff beta >= (1 + alpha^2) / (2 alpha). So beta = alpha for
    alpha >= 1; below 1 the shift beta > alpha keeps the step stable, at a
    first-order error that grows with (beta - alpha) z.

    One cell steps in floats: there Lap = 0, F = eps ll_rhs, and the
    cosine solve only divides by the shift eps/dt, so both integrators end
    with m + dt k.
    """
    if g.is_macrospin:
        k = ll_rhs(t, m, cfg, g, mask, demag, sched).ravel().tolist()
        m3 = m.ravel().tolist()
        if cfg.integrator == "projected-explicit":
            mh = _unit3([a + 0.5 * dt * b for a, b in zip(m3, k)])
            k = ll_rhs(t + 0.5 * dt, np.array(mh).reshape(m.shape), cfg, g,
                       mask, demag, sched).ravel().tolist()
        out = [a + dt * b for a, b in zip(m3, k)]
        if not all(map(isfinite, out)):
            raise BlowUpError(t + dt)
        return np.array(_unit3(out)).reshape(m.shape)
    if cfg.integrator == "projected-explicit":
        k1 = ll_rhs(t, m, cfg, g, mask, demag, sched)
        mh = normalize_pointwise(m + 0.5 * dt * k1, mask)
        k2 = ll_rhs(t + 0.5 * dt, mh, cfg, g, mask, demag, sched)
        out = m + dt * k2
    else:
        # (eps/dt - beta Lap) m+ = (eps/dt) m + F(t, m) - (beta - alpha) Lap m
        require_full_box(mask, "the semi-implicit-spectral integrator")
        alpha = cfg.alpha
        beta = alpha if alpha >= 1.0 else (1.0 + alpha**2) / (2.0 * alpha)
        rhs = parabolic_rhs_F(t, m, cfg, g, mask, demag, sched)
        rhs += (cfg.epsilon / dt) * m
        if beta > alpha:
            rhs -= (beta - alpha) * laplacian_neumann(m, g, mask)
        out = _cosine_solve(rhs, cfg.epsilon / dt, beta, g, mask)
    if not np.all(np.isfinite(out)):
        raise BlowUpError(t + dt)
    return normalize_pointwise(out, mask)


def energy(t: float, m: np.ndarray, cfg: SolverConfig, g: Grid3,
           mask: DomainMask, demag: DemagModel,
           sched: FieldSchedule) -> float:
    """E = 1/2 int |grad m|^2 - 1/2 int m.h_d(m) - int m.h_ext(t).

    Evaluated as the quadratic form of the field, -1/2 (m | h_T + h_ext):
    by summation by parts -(m | Lap m) is the sum of |m_j - m_i|^2 / h^2
    over the faces joining two body cells, times the cell volume, so the
    discrete energy gradient is exactly -h_T and the decay identity holds
    up to time-discretization error only.
    """
    h = total_field(t, m, g, mask, demag, sched) \
        + eval_h_ext(sched, t, g, mask)
    return -0.5 * float(np.sum(dot3(m, h)[mask.inside])) * mask.cell_volume


def equilibrium_residual(t: float, m: np.ndarray, g: Grid3, mask: DomainMask,
                         demag: DemagModel, sched: FieldSchedule) -> float:
    """L2 norm of the torque m ^ h_T (zero exactly at equilibria)."""
    h = total_field(t, m, g, mask, demag, sched)
    return norm_l2(cross3(m, h), g, mask)


def integrate(m0: np.ndarray, cfg: SolverConfig, g: Grid3, mask: DomainMask,
              demag: DemagModel, sched: FieldSchedule,
              sample_every: int = 1,
              reference: Callable[[float], np.ndarray] | None = None,
              ) -> tuple[RunRecord, np.ndarray]:
    """Advance the LL flow from t0 = sched.t_min over T, sampling diagnostics.

    The step dt must divide T (relative tolerance 1e-9), so the run ends
    at t0 + T, where its last row is sampled; otherwise ValueError, as for
    a run that outlives the schedule. reference(t), when given, supplies the
    field against which the H2 distance column is measured. On a blow-up,
    in a step or in reference(t), the rows sampled so far are attached to
    the raised BlowUpError.
    """
    if sample_every < 1:
        raise ValueError("sample_every must be >= 1")
    _check_span(cfg.T, sched)
    dt = resolve_dt(cfg, g) if cfg.T > 0 else 1.0
    n_steps = _n_steps(cfg.T, dt)
    rows: list[tuple] = []

    def sample(t, m):
        row = (t, sched.amplitude(t), mean_magnetization(m, mask),
               energy(t, m, cfg, g, mask, demag, sched),
               equilibrium_residual(t, m, g, mask, demag, sched))
        if reference is None:
            dist = np.nan
        else:
            d = m - reference(t)
            dist = np.sqrt(inner_products(d, d, g, mask)["h2"])
        rows.append(row + (dist,))  # whole rows only, even if reference fails

    def build():
        times, lam, mean, en, res, dist = \
            [np.asarray(c) for c in zip(*rows)] if rows else [np.empty(0)] * 6
        return RunRecord(times, lam, mean.reshape(-1, 3), en, res, dist)

    t0 = sched.t_min
    m = m0
    try:
        sample(t0, m)
        for i in range(n_steps):
            m = step(t0 + i * dt, m, dt, cfg, g, mask, demag, sched)
            if i + 1 == n_steps:
                sample(t0 + cfg.T, m)  # t0 + n dt may round past it
            elif (i + 1) % sample_every == 0:
                sample(t0 + (i + 1) * dt, m)
    except BlowUpError as err:
        raise BlowUpError(err.time, build()) from None
    return build(), m


def relax_to_equilibrium(m0: np.ndarray, t_frozen: float, tol: float,
                         max_T: float, alpha: float, g: Grid3,
                         mask: DomainMask, demag: DemagModel,
                         sched: FieldSchedule) -> tuple[np.ndarray, bool]:
    """Frozen-time relaxation: run a damping-only pseudo-time flow, with
    h_ext held at its t_frozen value, until the torque residual
    ||m ^ h_T||_L2 drops below tol; returns (field, whether it did).

    Equilibria solve m ^ h_T = 0, which does not involve the precession
    term, so the flow is dm/dtau = -alpha g with g = m ^ (m ^ h_T). A step
    of size tau is one damped step m+ = m - P(alpha g), then renormalized,
    with P = (1/tau - alpha Lap)^-1 the cosine solve on the body's bounding
    box of cells. On the full box and unit fields this is the exchange-
    implicit step (1/tau - alpha Lap) m+ = m/tau - alpha (Lap m + g), the
    damping part of F on the right; on one cell P = tau. On a mask P only
    preconditions: it is symmetric positive definite, so the fixed points
    m ^ h_T = 0 do not depend on it. Every domain starts at tau = 0.05, the
    floor of the Barzilai-Borwein (BB2) steps tau = (s.y) / (alpha y.y)
    that follow (s, y: the changes of m and g). BB2 steps may raise the
    residual for a while by design; a rise after a step at the floor means
    the floor is too large, so it is halved. A stall without a rise leaves
    the floor in place, so a first step near the stability limit
    2 / (alpha lambda) of the stiffest damping mode lambda may use up the
    budget of ceil(max_T / 0.05) steps unconverged.
    """
    if not max_T >= 0:
        raise ValueError(f"max_T must be >= 0, got {max_T}")
    if not tol >= 0:
        raise ValueError(f"tol must be >= 0, got {tol}")
    if not alpha > 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    tau = floor = 0.05
    n_steps = ceil(max_T / tau)
    m = m0
    prev = None  # (m, m ^ (m ^ h_T), residual) before the last step
    for i in range(n_steps + 1):
        mxh = cross3(m, total_field(t_frozen, m, g, mask, demag, sched))
        res = norm_l2(mxh, g, mask)
        if res < tol:
            return m, True
        if i == n_steps:
            return m, False
        grad = cross3(m, mxh)
        if prev is not None:
            if res > prev[2] and tau == floor:
                floor *= 0.5
            s = m - prev[0]
            y = grad - prev[1]
            sy = float(np.sum(s * y))
            tau = max(floor, sy / (alpha * float(np.sum(y * y)))) \
                if sy > 0 else floor
        prev = (m, grad, res)
        out = m - _cosine_solve(alpha * grad, 1.0 / tau, alpha, g, mask)
        if not np.all(np.isfinite(out)):
            raise BlowUpError(t_frozen)
        m = normalize_pointwise(out, mask)
