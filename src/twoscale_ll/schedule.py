"""Slowly varying exterior field: piecewise-linear amplitude, fixed or
rotating unit direction, optional smooth radial envelope."""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from functools import lru_cache
from math import cos, isfinite, sin

import numpy as np

from .grid import DomainMask, Grid3, apply_mask


def _finite(v) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if not np.all(np.isfinite(v)):
        raise ValueError(f"direction must be finite, got {v.tolist()}")
    return v


def _unit(v, zero: str = "direction must be nonzero") -> np.ndarray:
    """v / |v|, first divided by max |v_i| where |v|^2 under- or overflows."""
    v = _finite(v)
    with np.errstate(over="ignore"):
        n = np.linalg.norm(v)
    if not 0 < n < np.inf and np.any(v):
        v = v / np.max(np.abs(v))
        n = np.linalg.norm(v)
    if n == 0:
        raise ValueError(zero)
    return v / n


@dataclass(frozen=True)
class FixedDirection:
    u: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "u", _unit(self.u))

    def at(self, t: float) -> np.ndarray:
        return self.u

    def rate(self, t: float) -> np.ndarray:
        return np.zeros(3)


@dataclass(frozen=True)
class RotatingDirection:
    """Great-circle rotation at angular rate omega, starting at u0 and
    turning toward u1 (within their common plane)."""

    u0: np.ndarray
    u1: np.ndarray
    omega: float

    def __post_init__(self):
        if not isfinite(self.omega):
            raise ValueError(f"omega must be finite, got {self.omega}")
        u0, u1 = _unit(self.u0), _finite(self.u1)
        with np.errstate(over="ignore", invalid="ignore"):
            p = u1 - np.dot(u1, u0) * u0
        if not np.all(np.isfinite(p)):
            # (u1 . u0) overflowed: project u1 scaled by its largest |u1_i|
            u1 = u1 / np.max(np.abs(u1))
            p = u1 - np.dot(u1, u0) * u0
        u1 = _unit(p, "u1 must not be parallel to u0")
        object.__setattr__(self, "u0", u0)
        object.__setattr__(self, "u1", u1)
        object.__setattr__(self, "_pairs", tuple(zip(u0.tolist(),
                                                     u1.tolist())))

    def at(self, t: float) -> np.ndarray:
        """cos(omega t) u0 + sin(omega t) u1, taken in floats."""
        c, s = cos(self.omega * t), sin(self.omega * t)
        return np.array([c * a + s * b for a, b in self._pairs])

    def rate(self, t: float) -> np.ndarray:
        w = self.omega
        return w * (-np.sin(w * t) * self.u0 + np.cos(w * t) * self.u1)


@dataclass(frozen=True)
class ConstantEnvelope:
    def values(self, g: Grid3) -> np.ndarray:
        return np.ones(g.shape)


@dataclass(frozen=True)
class BumpEnvelope:
    """Smooth compactly supported radial bump, 1 at the center, 0 outside
    radius R: exp(1 - 1/(1 - (r/R)^2))."""

    center: tuple[float, float, float]
    radius: float

    def __post_init__(self):
        if not self.radius > 0:
            raise ValueError("bump radius must be > 0")
        # a tuple even when given an array, so the envelope can key a cache
        object.__setattr__(self, "center", tuple(map(float, self.center)))

    def values(self, g: Grid3) -> np.ndarray:
        x, y, z = g.cell_centers()
        r2 = ((x - self.center[0]) ** 2 + (y - self.center[1]) ** 2
              + (z - self.center[2]) ** 2) / self.radius**2
        out = np.zeros(np.broadcast_shapes(x.shape, y.shape, z.shape))
        r2 = np.broadcast_to(r2, out.shape)
        inside = r2 < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        return out


@dataclass(frozen=True)
class FieldSchedule:
    """h_ext(t, x) = lambda(t) * chi(x) * u(t).

    lambda is piecewise linear through the given (t, value) knots; u is a
    fixed or slowly rotating unit direction; chi is a spatial envelope with
    values in [0, 1].
    """

    knots: np.ndarray  # (n, 2): times (strictly increasing), amplitudes
    direction: FixedDirection | RotatingDirection = field(
        default_factory=lambda: FixedDirection(np.array([0.0, 0.0, 1.0])))
    envelope: ConstantEnvelope | BumpEnvelope = field(
        default_factory=ConstantEnvelope)

    def __post_init__(self):
        knots = np.atleast_2d(np.asarray(self.knots, dtype=float))
        if knots.shape[1] != 2 or knots.shape[0] < 1:
            raise ValueError("knots must be an (n, 2) array of (t, lambda)")
        for col, name in enumerate(("times", "amplitudes")):
            if not np.all(np.isfinite(knots[:, col])):
                raise ValueError(f"knot {name} must be finite")
        if knots.shape[0] > 1 and np.any(np.diff(knots[:, 0]) <= 0):
            raise ValueError("knot times must be strictly increasing")
        object.__setattr__(self, "knots", knots)
        ts, vs = knots[:, 0].tolist(), knots[:, 1].tolist()
        slopes = [(v1 - v0) / (t1 - t0)
                  for t0, t1, v0, v1 in zip(ts, ts[1:], vs, vs[1:])]
        object.__setattr__(self, "_pieces", (ts, vs, slopes))

    @staticmethod
    def constant(lam: float, u) -> "FieldSchedule":
        return FieldSchedule(np.array([[0.0, lam], [1e30, lam]]),
                             FixedDirection(np.asarray(u, dtype=float)))

    @property
    def t_min(self) -> float:
        return self._pieces[0][0]

    @property
    def t_max(self) -> float:
        return self._pieces[0][-1]

    def _check_t(self, t: float) -> None:
        ts = self._pieces[0]
        if not ts[0] <= t <= ts[-1]:
            raise ValueError(
                f"time {t} outside schedule range [{ts[0]}, {ts[-1]}]")

    def amplitude(self, t: float) -> float:
        """np.interp through the knots, in floats: the knot value at a
        knot, else slope * (t - t_j) + v_j on the piece [t_j, t_j+1)."""
        self._check_t(t)
        ts, vs, slopes = self._pieces
        j = bisect_right(ts, t) - 1
        if ts[j] == t:
            return vs[j]
        return slopes[j] * (t - ts[j]) + vs[j]

    def amplitude_rate(self, t: float) -> float:
        """Piecewise-constant slope, one-sided from the right at knots."""
        self._check_t(t)
        ts, _, slopes = self._pieces
        if not slopes:
            return 0.0
        return slopes[min(bisect_right(ts, t), len(slopes)) - 1]


@lru_cache(maxsize=8)
def _envelope_values(env, g: Grid3) -> np.ndarray:
    """env.values(g), cached per envelope and grid and read-only."""
    out = env.values(g)
    out.flags.writeable = False
    return out


def eval_h_ext(s: FieldSchedule, t: float, g: Grid3,
               mask: DomainMask) -> np.ndarray:
    """Sample lambda(t) chi(x) u(t) at cell centers (zero outside mask)."""
    lam = s.amplitude(t)
    chi = _envelope_values(s.envelope, g)
    u = s.direction.at(t)
    return apply_mask(lam * chi[..., None] * u, mask)


def d_dt_h_ext(s: FieldSchedule, t: float, g: Grid3,
               mask: DomainMask) -> np.ndarray:
    """Exact time derivative of the schedule (right derivative at knots)."""
    lam = s.amplitude(t)
    dlam = s.amplitude_rate(t)
    chi = _envelope_values(s.envelope, g)
    u = s.direction.at(t)
    du = s.direction.rate(t)
    return apply_mask(chi[..., None] * (dlam * u + lam * du), mask)
