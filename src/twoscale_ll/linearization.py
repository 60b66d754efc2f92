"""Linearized stability machinery around equilibria: the linear operator L
and quadratic remainder R of the parabolic form, their specialization at
the constant equilibria +-u of an ellipsoid, the H2 dissipation quadratic
form, admissible-perturbation sampling, and the lambda scan that locates
the dissipative regime."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.fft

from .demag import DemagModel, TensorDemag, demag_field
from .grid import (
    DomainMask,
    Grid3,
    apply_mask,
    constant_field,
    cross3,
    dot3,
    inner_products,
    laplacian_neumann,
    normalize_pointwise,
)
from .schedule import FieldSchedule, eval_h_ext


@dataclass(frozen=True)
class ConstantEquilibrium:
    """Constant equilibrium +-u of an ellipsoid under the field lambda*u,
    where u is a unit eigenvector of the depolarization tensor with
    eigenvalue d."""

    u: np.ndarray
    d: float
    lam: float
    sign: int  # +1 or -1

    def __post_init__(self):
        u = np.asarray(self.u, dtype=float)
        if not abs(np.linalg.norm(u) - 1.0) <= 1e-10:
            raise ValueError("u must be a unit vector")
        if self.sign not in (+1, -1):
            raise ValueError("sign must be +1 or -1")
        if not (0 < self.d < np.inf and 0 <= self.lam < np.inf):
            raise ValueError("d must be > 0 and lambda >= 0, both finite")
        object.__setattr__(self, "u", u)

    def check_eigenvector(self, D: np.ndarray) -> None:
        if np.max(np.abs(D @ self.u - self.d * self.u)) > 1e-10:
            raise ValueError("u is not an eigenvector of D for eigenvalue d")


def linearized_apply(t: float, m_eq: np.ndarray, delta: np.ndarray,
                     alpha: float, g: Grid3, mask: DomainMask,
                     demag: DemagModel, sched: FieldSchedule) -> np.ndarray:
    """Linear part L(t, m_eq) delta of F(t, m_eq + delta) alone, for any
    delta, tangent or not.

    The flow's full linearization is alpha*Lap(delta) + L delta: the two
    agree on one cell, where Lap vanishes, but not on a grid.

    Seven terms: the two exchange couplings of F's -alpha (m.Lap m) m,
    -alpha [(m_eq.Lap m_eq) delta + (delta.Lap m_eq + m_eq.Lap delta) m_eq],
    the torque of delta against h_T(m_eq), the torque of m_eq against
    (Lap + h_d)(delta), and the three damping couplings through
    h_d(m_eq) + h_ext.
    """
    hde = demag_field(demag, m_eq, g, mask) + eval_h_ext(sched, t, g, mask)
    hd_delta = demag_field(demag, delta, g, mask)
    lap_eq = laplacian_neumann(m_eq, g, mask)
    lap_delta = laplacian_neumann(delta, g, mask)
    # -(x.Lap y) as dot3(-x, Lap y), which is +0, not -0, where Lap y = 0,
    # so one cell keeps the signs of its zeros
    mixed = dot3(-delta, lap_eq) + dot3(-m_eq, lap_delta)
    out = (alpha * (dot3(-m_eq, lap_eq)[..., None] * delta
                    + mixed[..., None] * m_eq)
           + cross3(delta, hde + lap_eq)
           + cross3(m_eq, lap_delta + hd_delta)
           - alpha * cross3(delta, cross3(m_eq, hde))
           - alpha * cross3(m_eq, cross3(delta, hde))
           - alpha * cross3(m_eq, cross3(m_eq, hd_delta)))
    return apply_mask(out, mask)


def remainder_apply(t: float, m_eq: np.ndarray, delta: np.ndarray,
                    alpha: float, g: Grid3, mask: DomainMask,
                    demag: DemagModel, sched: FieldSchedule) -> np.ndarray:
    """Quadratic-and-cubic remainder R(t, m_eq)(delta) of the expansion, so
    that F(m_eq + delta) - F(m_eq) = L delta + R(delta) for any delta.

    Its exchange part is the rest of -alpha (m.Lap m) m,
    -alpha [(delta.Lap m_eq + m_eq.Lap delta) delta
    + (delta.Lap delta)(m_eq + delta)].
    """
    hde = demag_field(demag, m_eq, g, mask) + eval_h_ext(sched, t, g, mask)
    hd_delta = demag_field(demag, delta, g, mask)
    lap_eq = laplacian_neumann(m_eq, g, mask)
    lap_delta = laplacian_neumann(delta, g, mask)
    # -(x.Lap y) as dot3(-x, Lap y), as in linearized_apply
    mixed = dot3(-delta, lap_eq) + dot3(-m_eq, lap_delta)
    out = (alpha * (mixed[..., None] * delta
                    + dot3(-delta, lap_delta)[..., None] * (m_eq + delta))
           + cross3(delta, lap_delta + hd_delta)
           - alpha * cross3(delta, cross3(delta, hde))
           - alpha * cross3(delta, cross3(m_eq, hd_delta))
           - alpha * cross3(m_eq, cross3(delta, hd_delta))
           - alpha * cross3(delta, cross3(delta, hd_delta)))
    return apply_mask(out, mask)


def constant_equilibrium_apply(ce: ConstantEquilibrium, delta: np.ndarray,
                               alpha: float, g: Grid3, mask: DomainMask,
                               demag: DemagModel) -> np.ndarray:
    """Closed form of L at the constant equilibria +-u, where Lap u = 0:

        (lam -+ d) delta ^ u  +- u ^ (Lap delta + h_d delta)
        + alpha (d -+ lam) u ^ (delta ^ u) - alpha u ^ (u ^ h_d delta)
        - alpha (u.Lap delta) u.

    The last term vanishes on tangent delta.
    """
    s = float(ce.sign)
    u = constant_field(g, ce.u, mask)
    hd_delta = demag_field(demag, delta, g, mask)
    lap_delta = laplacian_neumann(delta, g, mask)
    out = ((ce.lam - s * ce.d) * cross3(delta, u)
           + s * cross3(u, lap_delta + hd_delta)
           + alpha * (ce.d - s * ce.lam) * cross3(u, cross3(delta, u))
           - alpha * cross3(u, cross3(u, hd_delta))
           - alpha * dot3(u, lap_delta)[..., None] * u)
    return apply_mask(out, mask)


def h2_quadratic_form(t: float, m_eq: np.ndarray, delta: np.ndarray,
                      alpha: float, g: Grid3, mask: DomainMask,
                      demag: DemagModel, sched: FieldSchedule) -> float:
    """(L delta | delta)_L2 + (Lap L delta | Lap delta)_L2."""
    Ld = linearized_apply(t, m_eq, delta, alpha, g, mask, demag, sched)
    return inner_products(Ld, delta, g, mask)["h2"]


def _smooth_random_field(g: Grid3, mask: DomainMask,
                         rng: np.random.Generator) -> np.ndarray:
    """Random field built from the lowest three Neumann cosine modes per
    axis of the box (discretely Neumann-compatible by construction)."""
    coeffs = np.zeros(g.shape + (3,))
    kx, ky, kz = (min(3, n) for n in g.shape)
    coeffs[:kx, :ky, :kz, :] = rng.standard_normal((kx, ky, kz, 3))
    tau = scipy.fft.idctn(coeffs, type=2, norm="ortho", axes=(0, 1, 2))
    return apply_mask(tau, mask)


def sample_admissible_perturbation(m_eq: np.ndarray, s: float, seed: int,
                                   g: Grid3, mask: DomainMask) -> np.ndarray:
    """Random admissible perturbation: delta = normalize(m_eq + s*tau) - m_eq
    with tau a smooth random tangent field. Guarantees |m_eq + delta| = 1
    exactly and the sphere constraint |delta|^2 = -2 m_eq . delta + O(s^3)
    behavior."""
    if not 0 < s < 1:
        raise ValueError("perturbation size s must be in (0, 1)")
    rng = np.random.default_rng(seed)
    tau = _smooth_random_field(g, mask, rng)
    tau = tau - dot3(tau, m_eq)[..., None] * m_eq
    # normalize the typical tangent magnitude so s sets the actual scale
    w = mask.inside
    rms = float(np.sqrt(np.mean(dot3(tau, tau)[w])))
    if rms == 0.0:
        raise ValueError("degenerate tangent sample; change the seed")
    tau = tau / rms
    delta = normalize_pointwise(m_eq + s * tau, mask) - m_eq
    return apply_mask(delta, mask)


def dissipation_scan(D: np.ndarray, u: np.ndarray, lambdas, alpha: float,
                     s: float, n_samples: int, g: Grid3, mask: DomainMask,
                     seed: int = 0) -> dict:
    """Rayleigh-quotient scan of the H2 form over admissible perturbations.

    For each lambda and each sign, reports the worst-case (largest) value of
    (L delta | delta)_H2 / ||delta||_H2^2 over sampled admissible delta,
    and an empirical dissipation constant for the + branch. Also reports
    the smallest lambda at which the + branch is uniformly negative over
    the samples.
    """
    D = np.asarray(D, dtype=float)
    u = np.asarray(u, dtype=float)
    d = float(u @ D @ u)
    if not g.is_macrospin:
        raise ValueError("dissipation_scan currently runs in macrospin mode")
    if n_samples < 1:
        raise ValueError("n_samples must be >= 1")
    demag = TensorDemag(D)
    rows = []
    threshold = None
    for lam in lambdas:
        sched = FieldSchedule.constant(lam, u)
        for sign in (+1, -1):
            # +-u is an equilibrium only if u is an eigenvector of D
            ConstantEquilibrium(u, d, float(lam), sign).check_eigenvector(D)
            m_eq = constant_field(g, sign * u, mask)
            worst = -np.inf
            for j in range(n_samples):
                delta = sample_admissible_perturbation(
                    m_eq, s, seed + j, g, mask)
                num = h2_quadratic_form(0.0, m_eq, delta, alpha, g, mask,
                                        demag, sched)
                den = inner_products(delta, delta, g, mask)["h2"]
                worst = max(worst, num / den)
            c_lin = -worst if (sign == +1 and worst < 0) else np.nan
            rows.append({"lam": float(lam), "sign": sign,
                         "worst_ratio": worst, "c_lin": c_lin})
            if sign == +1 and worst < 0 and threshold is None:
                threshold = float(lam)
    return {"rows": rows, "plus_branch_negative_from": threshold}
