"""Exterior field schedules: amplitude interpolation, directions, envelopes."""

import warnings

import numpy as np
import pytest

from twoscale_ll.grid import DomainMask, EllipsoidSpec, Grid3
from twoscale_ll.schedule import (
    _envelope_values,
    BumpEnvelope,
    ConstantEnvelope,
    FieldSchedule,
    FixedDirection,
    RotatingDirection,
    d_dt_h_ext,
    eval_h_ext,
)


def test_knot_validation():
    with pytest.raises(ValueError):
        FieldSchedule(np.array([[0.0, 1.0], [0.0, 2.0]]))
    with pytest.raises(ValueError):
        FieldSchedule(np.array([[1.0, 1.0], [0.5, 2.0]]))
    with pytest.raises(ValueError):
        FieldSchedule(np.zeros((0, 2)))
    # amplitude bisects the knot times; NaN or inf would break the search
    for t in (np.nan, np.inf):
        with pytest.raises(ValueError, match="knot times must be finite"):
            FieldSchedule(np.array([[0.0, 1.0], [t, 2.0]]))
    # a NaN or inf amplitude would interpolate to NaN and end in a blow-up
    for v in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="knot amplitudes must be finite"):
            FieldSchedule(np.array([[0.0, v], [1.0, 1.0]]))


def test_amplitude_interpolation_and_range():
    s = FieldSchedule(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 0.0]]))
    assert s.amplitude(0.0) == 1.0
    assert s.amplitude(2.0) == 3.0
    assert s.amplitude(1.0) == pytest.approx(2.0)
    assert s.amplitude(3.0) == pytest.approx(1.5)
    with pytest.raises(ValueError):
        s.amplitude(-0.1)
    with pytest.raises(ValueError):
        s.amplitude(4.1)


def _same_float(a: float, b: float) -> bool:
    """a and b are the same double (sign of zero included) or both NaN."""
    return float(a).hex() == float(b).hex() or (np.isnan(a) and np.isnan(b))


def test_amplitude_is_np_interp_bit_for_bit():
    rng = np.random.default_rng(11)
    for n in (1, 2, 3, 8):
        for _ in range(25):
            ts = np.cumsum(rng.uniform(1e-3, 2.0, n)) - rng.uniform(0, 3)
            vs = rng.standard_normal(n) * 10.0 ** rng.integers(-3, 4)
            if n > 2 and rng.uniform() < 0.3:
                bad = vs.copy()
                bad[rng.integers(n)] = np.nan
                with pytest.raises(ValueError, match="amplitudes must be"):
                    FieldSchedule(np.column_stack([ts, bad]))
            s = FieldSchedule(np.column_stack([ts, vs]))
            times = list(ts) + list(rng.uniform(ts[0], ts[-1], 20)) \
                + [np.nextafter(t, ts[-1]) for t in ts] \
                + [np.nextafter(t, ts[0]) for t in ts]
            for t in times:
                t = float(t)
                assert _same_float(s.amplitude(t), np.interp(t, ts, vs)), \
                    (ts, vs, t)
            for t in (np.nextafter(ts[0], -np.inf),
                      np.nextafter(ts[-1], np.inf), np.nan):
                with pytest.raises(ValueError, match="outside schedule"):
                    s.amplitude(float(t))


def test_rotating_direction_at_is_the_array_formula():
    # math and numpy may each round cos and sin differently by an ulp
    rng = np.random.default_rng(12)
    for _ in range(300):
        d = RotatingDirection(rng.standard_normal(3), rng.standard_normal(3),
                              rng.uniform(-5.0, 5.0))
        t = rng.uniform(0.0, 50.0)
        c, s = np.cos(d.omega * t), np.sin(d.omega * t)
        got = d.at(t)
        assert isinstance(got, np.ndarray) and got.shape == (3,)
        assert np.all(np.abs(got - (c * d.u0 + s * d.u1))
                      <= np.spacing(np.abs(c * d.u0) + np.abs(s * d.u1)))


def test_amplitude_rate_right_sided():
    s = FieldSchedule(np.array([[0.0, 1.0], [2.0, 3.0], [4.0, 0.0]]))
    assert s.amplitude_rate(1.0) == pytest.approx(1.0)
    assert s.amplitude_rate(2.0) == pytest.approx(-1.5)  # right slope at knot
    assert s.amplitude_rate(4.0) == pytest.approx(-1.5)  # clamped last piece


def test_one_knot_schedule_has_zero_rate():
    # a single knot is a constant amplitude defined at one instant
    g = Grid3(2, 2, 2)
    mask = DomainMask.full(g)
    s = FieldSchedule(np.array([[0.5, 2.0]]))
    assert s.amplitude(0.5) == 2.0
    assert s.amplitude_rate(0.5) == 0.0
    dh = d_dt_h_ext(s, 0.5, g, mask)
    assert dh.shape == g.shape + (3,) and not dh.any()


def test_constant_schedule_helper():
    s = FieldSchedule.constant(0.4, (0.0, 1.0, 0.0))
    assert s.amplitude(0.0) == 0.4
    assert s.amplitude(1e6) == 0.4
    assert s.amplitude_rate(123.0) == 0.0


def test_fixed_direction_unit():
    d = FixedDirection(np.array([0.0, 0.0, 2.0]))
    assert np.allclose(d.at(3.0), [0.0, 0.0, 1.0])
    assert np.allclose(d.rate(3.0), 0.0)
    with pytest.raises(ValueError, match="direction must be nonzero"):
        FixedDirection(np.zeros(3))


def test_directions_normalize_huge_and_tiny_vectors():
    # their sums of squares over- and underflow; neither may come out as a
    # zero direction or be refused as a zero vector
    want = np.array([1.0, 1.0, 0.0]) / np.sqrt(2.0)
    for scale in (1e200, 1e-200):
        u = FixedDirection((scale, scale, 0.0)).u
        np.testing.assert_allclose(u, want, rtol=1e-15, atol=0.0)
    d = RotatingDirection((1e200, 0.0, 0.0), (0.0, 1e300, 0.0), 0.1)
    assert np.array_equal(d.at(0.0), [1.0, 0.0, 0.0])
    assert np.array_equal(d.u1, [0.0, 1.0, 0.0])
    d = RotatingDirection((1e-200, 0.0, 0.0), (1.0, 1e-300, 0.0), 0.1)
    assert np.array_equal(d.u1, [0.0, 1.0, 0.0])
    # (u1 . u0) overflows for this finite u1; the projection must still give
    # the direction that u1 scaled by 1/1.5e308 gives, with no warning
    u0, u1 = (1.0, 1.0, 0.0), np.array([1.5e308, 1.5e308, 1e308])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        d = RotatingDirection(u0, u1, 0.1)
    want = RotatingDirection(u0, u1 / 1.5e308, 0.1).u1
    np.testing.assert_allclose(d.u1, want, rtol=0.0, atol=1e-15)
    assert abs(d.u1[2] - 1.0) < 1e-15
    # an ordinary u1 is projected as written, without the rescaling
    u0n = np.array(u0) / np.sqrt(2.0)
    u1 = np.array([0.3, -0.2, 0.9])
    p = u1 - np.dot(u1, u0n) * u0n
    d = RotatingDirection(u0, u1, 0.1)
    assert d.u1.tobytes() == (p / np.linalg.norm(p)).tobytes()


def test_rotating_direction_near_parallel_u1():
    # a tilt of 1e-12 off u0: one projection leaves rounding of 1e-16 along
    # u0, 1e-4 of what is left; the second projection removes it
    d = RotatingDirection((1.0, 1.0, 0.0), (1.0, 1.0, 1e-12), 0.1)
    assert abs(np.dot(d.u0, d.u1)) < 1e-15
    np.testing.assert_allclose(d.u1, [0.0, 0.0, 1.0], rtol=0.0, atol=1e-15)
    for t in (0.0, 1.0, 7.3):
        assert abs(np.linalg.norm(d.at(t)) - 1.0) < 1e-15
    # a tilt of 1e-20 is below the projection's rounding: no direction
    with pytest.raises(ValueError, match="parallel to u0"):
        RotatingDirection((1.0, 1.0, 0.0), (1.0, 1.0, 1e-20), 0.1)


@pytest.mark.parametrize("bad", [(np.nan, 0.0, 1.0), (np.inf, 0.0, 1.0),
                                 (0.0, -np.inf, 0.0)])
def test_directions_refuse_non_finite_input(bad):
    # a NaN direction used to run on to a blow-up, an infinite one to NaN
    with pytest.raises(ValueError, match="direction must be finite"):
        FixedDirection(bad)
    with pytest.raises(ValueError, match="direction must be finite"):
        RotatingDirection(bad, (1.0, 0.0, 0.0), 0.5)
    with pytest.raises(ValueError, match="direction must be finite"):
        RotatingDirection((0.0, 1.0, 0.0), bad, 0.5)
    for omega in (np.nan, np.inf):
        with pytest.raises(ValueError, match="omega must be finite"):
            RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), omega)


def test_rotating_direction_great_circle():
    d = RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.5)
    for t in (0.0, 0.7, 2.0):
        u = d.at(t)
        assert np.linalg.norm(u) == pytest.approx(1.0)
        # derivative orthogonal to u, magnitude omega
        r = d.rate(t)
        assert abs(np.dot(u, r)) < 1e-14
        assert np.linalg.norm(r) == pytest.approx(0.5)
    # finite-difference check of the rate
    eps = 1e-7
    fd = (d.at(1.0 + eps) - d.at(1.0 - eps)) / (2.0 * eps)
    assert np.allclose(fd, d.rate(1.0), atol=1e-7)
    with pytest.raises(ValueError):
        RotatingDirection((0.0, 0.0, 1.0), (0.0, 0.0, -2.0), 0.5)


def test_bump_envelope_refuses_a_radius_not_above_zero():
    # a NaN radius would put no cell inside: a zero field, silently
    for r in (0.0, -1.0, np.nan):
        with pytest.raises(ValueError, match="bump radius must be > 0"):
            BumpEnvelope((0.0, 0.0, 0.0), r)


def test_bump_envelope_support_and_values():
    g = Grid3(16, 16, 16, 1 / 8, 1 / 8, 1 / 8, origin=(-1.0, -1.0, -1.0))
    env = BumpEnvelope((0.0, 0.0, 0.0), 0.5)
    chi = env.values(g)
    x, y, z = g.cell_centers()
    r2 = np.broadcast_to(x**2 + y**2 + z**2, chi.shape)
    assert np.all(chi[r2 >= 0.25] == 0.0)
    assert np.all(chi[r2 < 0.25] > 0.0)
    assert chi.max() <= 1.0
    # exact value at a sample point
    i = np.unravel_index(np.argmax(-r2), chi.shape)
    assert chi[i] == pytest.approx(np.exp(1.0 - 1.0 / (1.0 - r2[i] / 0.25)))


def test_eval_h_ext_assembly():
    g = Grid3(4, 4, 4, 0.25, 0.25, 0.25)
    mask = DomainMask.full(g)
    s = FieldSchedule(np.array([[0.0, 2.0], [1.0, 4.0]]),
                      FixedDirection(np.array([0.0, 1.0, 0.0])),
                      ConstantEnvelope())
    h = eval_h_ext(s, 0.5, g, mask)
    assert np.allclose(h[..., 1], 3.0)
    assert np.allclose(h[..., 0], 0.0)


def test_d_dt_h_ext_matches_finite_difference():
    g = Grid3(3, 3, 3, 0.3, 0.3, 0.3)
    mask = DomainMask.full(g)
    s = FieldSchedule(np.array([[0.0, 0.2], [5.0, 1.2]]),
                      RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.3))
    t, eps = 1.3, 1e-6
    fd = (eval_h_ext(s, t + eps, g, mask)
          - eval_h_ext(s, t - eps, g, mask)) / (2.0 * eps)
    assert np.allclose(fd, d_dt_h_ext(s, t, g, mask), atol=1e-6)


def test_envelope_values_cached_read_only_and_results_fresh():
    # list center and array origin: the cache key must still hash
    g = Grid3(8, 8, 8, 0.25, 0.25, 0.25, origin=np.array([-1.0, -1.0, -1.0]))
    env = BumpEnvelope([0.1, 0.0, -0.1], 0.8)
    s = FieldSchedule(np.array([[0.0, 0.2], [5.0, 1.2]]),
                      RotatingDirection((0.0, 0.0, 1.0), (1.0, 0.0, 0.0), 0.3),
                      env)
    t = 1.3
    chi = env.values(g)[..., None]
    lam, dlam = s.amplitude(t), s.amplitude_rate(t)
    u, du = s.direction.at(t), s.direction.rate(t)
    for mask in (DomainMask.full(g),
                 DomainMask.ellipsoid(g, EllipsoidSpec(1.0, 0.8, 0.6))):
        w = mask.inside[..., None]
        for got, want in (
                (eval_h_ext(s, t, g, mask), np.where(w, lam * chi * u, 0.0)),
                (d_dt_h_ext(s, t, g, mask),
                 np.where(w, chi * (dlam * u + lam * du), 0.0))):
            assert got.tobytes() == want.tobytes()
            assert got.flags.writeable
            got[...] = 7.0  # a caller may scale or overwrite its result
    cached = _envelope_values(env, g)
    assert _envelope_values(BumpEnvelope((0.1, 0.0, -0.1), 0.8),
                            Grid3(8, 8, 8, 0.25, 0.25, 0.25,
                                  origin=(-1.0, -1.0, -1.0))) is cached
    assert np.array_equal(cached, env.values(g))
    with pytest.raises(ValueError):
        cached[0, 0, 0] = 1.0
