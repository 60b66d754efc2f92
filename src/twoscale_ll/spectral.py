"""Neumann cosine eigenbasis on the full box, the Galerkin projector onto
the first k modes of 1 - Laplacian, and the commutator diagnostic between
the projector and the parabolic nonlinearity."""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import scipy.fft

from .demag import DemagModel
from .dynamics import SolverConfig, parabolic_rhs_F
from .grid import (
    DomainMask,
    Grid3,
    ModeMismatchError,  # re-exported: raised by require_full_box
    inner_products,
    neumann_eigenvalues,
    require_full_box,
)
from .schedule import FieldSchedule


@lru_cache(maxsize=8)
def _mode_order(g: Grid3) -> np.ndarray:
    """Flat indices of all cosine mode triples, ordered by the eigenvalue
    of A = 1 - Laplacian (discrete), ties broken in C order (lexicographic)."""
    flat = (1.0 + neumann_eigenvalues(g)).ravel()
    return np.argsort(flat, kind="stable")


def project_Pk(u: np.ndarray, k: int, g: Grid3,
               mask: DomainMask) -> np.ndarray:
    """L2-orthogonal projection onto the first k Neumann cosine modes,
    applied componentwise."""
    require_full_box(mask, "spectral projection")
    n_total = g.nx * g.ny * g.nz
    if not 1 <= k <= n_total:
        raise ValueError(f"k must be in [1, {n_total}]")
    keep = np.zeros(n_total, dtype=bool)
    keep[_mode_order(g)[:k]] = True
    coeffs = scipy.fft.dctn(u, type=2, norm="ortho", axes=(0, 1, 2))
    coeffs = coeffs * keep.reshape(g.shape)[..., None]
    return scipy.fft.idctn(coeffs, type=2, norm="ortho", axes=(0, 1, 2))


def commutator_PkF(n: np.ndarray, k: int, t_frozen: float, cfg: SolverConfig,
                   g: Grid3, mask: DomainMask, demag: DemagModel,
                   sched: FieldSchedule) -> float:
    """H1 norm of P_k F(t, n) - F(t, P_k n) (raw commutator, P_k n not
    renormalized)."""
    require_full_box(mask, "spectral projection")
    Fn = parabolic_rhs_F(t_frozen, n, cfg, g, mask, demag, sched)
    FPn = parabolic_rhs_F(t_frozen, project_Pk(n, k, g, mask), cfg, g, mask,
                          demag, sched)
    comm = project_Pk(Fn, k, g, mask) - FPn
    return float(np.sqrt(inner_products(comm, comm, g, mask)["h1"]))
