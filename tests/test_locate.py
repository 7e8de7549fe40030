"""Amplitude-ratio trilateration and TDOA least-squares solvers."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from foldloc.locate import (DIVERGENCE_SCALES, InsufficientAnchorsError,
                            TowerObservation, sample_to_distance, solve_tdoa,
                            trilaterate_ratio)

FS = 1.92e6
M_PER_SAMPLE = 156.25


def _circle_towers(center, radius, degrees):
    ang = np.deg2rad(degrees)
    return center + radius * np.stack([np.cos(ang), np.sin(ang)], axis=1)


def _dist(pos, p):
    return np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1])


def _err(est, p):
    return float(np.hypot(est.position[0] - p[0], est.position[1] - p[1]))


# ------------------------------------------------------ unit conversion


def test_sample_to_distance():
    assert sample_to_distance(1.0, FS) == pytest.approx(M_PER_SAMPLE)
    assert sample_to_distance(0.0, FS) == 0.0
    assert sample_to_distance(8.0, FS) == pytest.approx(8 * M_PER_SAMPLE)
    assert sample_to_distance(-2.0, FS) == pytest.approx(-2 * M_PER_SAMPLE)
    with pytest.raises(ValueError):
        sample_to_distance(1.0, 0.0)


# ------------------------------------------------------ ratio solver


def test_ratio_equidistant_point():
    center = np.array([500.0, 300.0])
    pos = _circle_towers(center, 1000.0, [10, 130, 250])
    obs = [TowerObservation(tuple(p), amplitude=2.0) for p in pos]
    est = trilaterate_ratio(obs)
    assert _err(est, center) < 1e-3
    assert est.objective_value < 1e-12
    assert est.warning is None


def test_ratio_inverse_distance_amplitudes():
    pos = _circle_towers(np.array([500.0, 300.0]), 1000.0, [10, 130, 250])
    truth = np.array([800.0, -200.0])
    obs = [TowerObservation(tuple(p), amplitude=1.0 / di)
           for p, di in zip(pos, _dist(pos, truth))]
    est = trilaterate_ratio(obs)
    diam = max(float(np.hypot(*(a - b))) for a in pos for b in pos)
    assert _err(est, truth) < 0.005 * diam


def test_ratio_scale_invariance():
    pos = _circle_towers(np.array([0.0, 0.0]), 1500.0, [35, 160, 280])
    truth = np.array([300.0, 450.0])
    d = _dist(pos, truth)
    est1 = trilaterate_ratio([TowerObservation(tuple(p), amplitude=1.0 / di)
                              for p, di in zip(pos, d)])
    # doubling is exact in floats, so the ratios and search path match
    est2 = trilaterate_ratio([TowerObservation(tuple(p), amplitude=2.0 / di)
                              for p, di in zip(pos, d)])
    assert est1.position == est2.position


def test_ratio_translation_equivariance():
    pos = _circle_towers(np.array([0.0, 0.0]), 1200.0, [20, 140, 260])
    truth = np.array([250.0, -100.0])
    shift = np.array([5000.0, -3000.0])
    d = _dist(pos, truth)
    a = trilaterate_ratio([TowerObservation(tuple(p), amplitude=1.0 / di)
                           for p, di in zip(pos, d)])
    b = trilaterate_ratio([TowerObservation(tuple(p + shift), amplitude=1.0 / di)
                           for p, di in zip(pos, d)])
    assert abs(b.position[0] - a.position[0] - shift[0]) < 1e-3
    assert abs(b.position[1] - a.position[1] - shift[1]) < 1e-3


def test_ratio_two_towers_raises():
    with pytest.raises(InsufficientAnchorsError):
        trilaterate_ratio([TowerObservation((0.0, 0.0), 1.0),
                           TowerObservation((100.0, 0.0), 1.0)])


def test_ratio_collinear_warning():
    obs = [TowerObservation((float(x), 0.0), amplitude=1.0)
           for x in (0, 1000, 2000)]
    est = trilaterate_ratio(obs)
    assert est.warning is not None and "collinear" in est.warning


def test_ratio_zero_amplitude_floored():
    pos = _circle_towers(np.array([0.0, 0.0]), 800.0, [15, 135, 255])
    obs = [TowerObservation(tuple(p), amplitude=a)
           for p, a in zip(pos, (1.0, 0.5, 0.0))]
    est = trilaterate_ratio(obs)
    assert est.warning is not None and "floored" in est.warning


# ------------------------------------------------------ TDOA solver


def test_tdoa_noiseless_exact():
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    truth = np.array([700.0, 500.0])
    toa = _dist(towers, truth) / M_PER_SAMPLE
    obs = [TowerObservation(tuple(t), toa_samples=ti)
           for t, ti in zip(towers, toa)]
    est = solve_tdoa(obs)
    assert _err(est, truth) < 1e-3
    assert est.objective_value < 1e-20


def test_tdoa_equal_arrivals_pin_the_bisector():
    # equal TOA at the two base towers forces x = 1000 exactly
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1800.0]])
    truth = np.array([1000.0, 700.0])
    toa = _dist(towers, truth) / M_PER_SAMPLE
    obs = [TowerObservation(tuple(t), toa_samples=ti)
           for t, ti in zip(towers, toa)]
    est = solve_tdoa(obs)
    assert abs(est.position[0] - 1000.0) < 1e-3
    assert abs(est.position[1] - 700.0) < 1e-3


def test_tdoa_common_bias_cancels():
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    truth = np.array([400.0, 900.0])
    toa = _dist(towers, truth) / M_PER_SAMPLE
    base = solve_tdoa([TowerObservation(tuple(t), toa_samples=ti)
                       for t, ti in zip(towers, toa)])
    biased = solve_tdoa([TowerObservation(tuple(t), toa_samples=ti + 1234.5)
                         for t, ti in zip(towers, toa)])
    assert abs(biased.position[0] - base.position[0]) < 1e-6
    assert abs(biased.position[1] - base.position[1]) < 1e-6


def test_tdoa_translation_equivariance():
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    truth = np.array([650.0, 480.0])
    shift = np.array([-7000.0, 2500.0])
    toa = _dist(towers, truth) / M_PER_SAMPLE
    a = solve_tdoa([TowerObservation(tuple(t), toa_samples=ti)
                    for t, ti in zip(towers, toa)])
    b = solve_tdoa([TowerObservation(tuple(t + shift), toa_samples=ti)
                    for t, ti in zip(towers, toa)])
    assert abs(b.position[0] - a.position[0] - shift[0]) < 1e-3
    assert abs(b.position[1] - a.position[1] - shift[1]) < 1e-3


def test_tdoa_requires_toa():
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    obs = [TowerObservation(tuple(t), amplitude=1.0) for t in towers]
    with pytest.raises(ValueError):
        solve_tdoa(obs)


def test_tdoa_two_towers_raises():
    with pytest.raises(InsufficientAnchorsError):
        solve_tdoa([TowerObservation((0.0, 0.0), toa_samples=0.0),
                    TowerObservation((100.0, 0.0), toa_samples=0.1)])


def test_tdoa_residual_consistent_with_noise():
    """Fitted time residual stays below 3x the injected noise energy:
    each pair differences two arrivals, so its variance is 2 sigma^2."""
    rng = np.random.default_rng(4)
    towers = np.array([[0.0, 0.0], [2000.0, 0.0],
                       [1000.0, 1732.0], [2100.0, 1900.0]])
    truth = np.array([900.0, 800.0])
    d = _dist(towers, truth)
    sigma_samples = 0.05
    sigma_t = sigma_samples / FS
    n_pairs = 6
    bound = 3.0 * n_pairs * 2.0 * sigma_t ** 2
    objs = []
    for _ in range(50):
        toa = d / M_PER_SAMPLE + rng.normal(scale=sigma_samples, size=4)
        obs = [TowerObservation(tuple(t), toa_samples=ti)
               for t, ti in zip(towers, toa)]
        objs.append(solve_tdoa(obs).objective_value)
    assert max(objs) <= bound
    assert np.median(objs) <= n_pairs * 2.0 * sigma_t ** 2


def test_tdoa_far_estimate_is_not_converged():
    """Frame origins 0/1500/3000/4500 samples left in the arrival times
    drive the search millions of metres off; the optimizer stops cleanly
    there, but such an estimate is reported as diverged."""
    towers = np.array([[0.0, 0.0], [6000.0, 0.0], [0.0, 6000.0],
                       [6000.0, 6000.0]])
    toa = _dist(towers, (2000.0, 2500.0)) / M_PER_SAMPLE
    far = solve_tdoa([TowerObservation(tuple(t), toa_samples=ti + o)
                      for t, ti, o in zip(towers, toa, (0, 1500, 3000, 4500))])
    off = np.hypot(*(np.array(far.position) - towers.mean(axis=0)))
    assert off > DIVERGENCE_SCALES * 6000.0 * np.sqrt(2)
    assert not far.converged
    assert "diverged" in far.warning
    near = solve_tdoa([TowerObservation(tuple(t), toa_samples=ti)
                       for t, ti in zip(towers, toa)])
    assert near.converged and near.warning is None


# ------------------------------------------------------ TDOA properties

TDOA = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def _tdoa_fixes(draw, spread=0.25, sigma=0.1, even=True):
    """(towers, truth, arrivals): 3-6 towers on a circle of radius 1-5 km
    about a random centre, spread evenly round it with some jitter or,
    unless even, at any angles, a receiver within spread radii of the
    centre, and its arrival times in detector samples, the geometric
    delays plus a common bias and Gaussian timing noise of a drawn sigma
    up to sigma samples."""
    n = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    radius = rng.uniform(1000.0, 5000.0)
    ang = 2 * np.pi * (np.arange(n) + rng.uniform(-0.3, 0.3, n)) / n \
        if even else rng.uniform(0.0, 2 * np.pi, n)
    center = rng.uniform(-1e4, 1e4, 2)
    towers = _circle_towers(center, radius, np.rad2deg(ang))
    truth = center + rng.uniform(-spread, spread, 2) * radius
    toa = _dist(towers, truth) / M_PER_SAMPLE + rng.uniform(0.0, 1e4) + \
        rng.normal(scale=rng.uniform(0.0, sigma), size=n)
    return towers, truth, toa


def _tdoa_obs(towers, toa):
    return [TowerObservation(tuple(t), toa_samples=float(ti))
            for t, ti in zip(towers, toa)]


def _least_squares_reference(towers, toa, start):
    """scipy's least_squares over (x, y, b) on the clock-form residuals
    m_i - |p - t_i| - b, from start with its clock fitted. It works
    about the towers' centroid with the analytic Jacobian, and takes the
    residuals in extended precision (np.longdouble) so that their float64
    rounding does not stop it short of the minimum."""
    from scipy.optimize import least_squares
    center = towers.mean(axis=0)
    t = (towers - center).astype(np.longdouble)
    m = np.array([sample_to_distance(x, FS) for x in toa])
    m = (m - m.mean()).astype(np.longdouble)

    def parts(q):
        q = np.asarray(q, dtype=np.longdouble)
        dx, dy = t[:, 0] - q[0], t[:, 1] - q[1]
        d = np.sqrt(dx * dx + dy * dy)
        return dx, dy, d, m - d - q[2]

    def jac(q):
        dx, dy, d, _ = parts(q)
        return np.column_stack((dx / d, dy / d, -np.ones(len(d)))
                               ).astype(np.float64)

    x0 = np.asarray(start) - center
    b0 = float(parts([*x0, 0.0])[3].mean())
    res = least_squares(lambda q: parts(q)[3].astype(np.float64),
                        [*x0, b0], jac=jac, method="lm", xtol=1e-15,
                        ftol=1e-15, gtol=1e-15)
    return res.x[:2] + center


@TDOA
@given(_tdoa_fixes())
def test_tdoa_matches_scipy_least_squares(fix):
    """On 3-6 towers with timing noise, the estimate is the minimum that
    scipy's least_squares finds from the true position, within 1e-6 m."""
    towers, truth, toa = fix
    est = solve_tdoa(_tdoa_obs(towers, toa))
    assert est.converged and est.warning is None
    assert _err(est, _least_squares_reference(towers, toa, truth)) <= 1e-6


@TDOA
@given(_tdoa_fixes(), st.floats(-np.pi, np.pi),
       st.tuples(st.floats(-1e5, 1e5), st.floats(-1e5, 1e5)))
def test_tdoa_translation_and_rotation_equivariance(fix, angle, shift):
    towers, _truth, toa = fix
    rot = np.array([[np.cos(angle), -np.sin(angle)],
                    [np.sin(angle), np.cos(angle)]])
    a = solve_tdoa(_tdoa_obs(towers, toa))
    b = solve_tdoa(_tdoa_obs(towers @ rot.T + shift, toa))
    assert _err(b, rot @ np.array(a.position) + shift) <= 1e-6


@TDOA
@given(_tdoa_fixes(), st.floats(-1e5, 1e5))
def test_tdoa_common_bias_cancels_for_any_bias(fix, bias):
    towers, _truth, toa = fix
    a = solve_tdoa(_tdoa_obs(towers, toa))
    b = solve_tdoa(_tdoa_obs(towers, toa + bias))
    assert _err(b, a.position) <= 1e-6


@TDOA
@given(_tdoa_fixes(), st.data())
def test_tdoa_per_tower_offset_cancels_through_observations(fix, data):
    """Adding o seconds to one DB cell's frame_time_origin_s and o times
    DETECTOR_RATE_HZ to its detection's delay leaves the estimate as it
    was: `harness._observations` takes each cell's origin off its delay."""
    from foldloc.detect import Detection
    from foldloc.frontend import DETECTOR_RATE_HZ, CellConfig
    from foldloc.harness import _observations
    from foldloc.lte import Pci
    from foldloc.scenario import CellDatabase
    towers, _truth, toa = fix
    origins = np.array(data.draw(st.lists(
        st.integers(0, 6000), min_size=len(towers), max_size=len(towers))),
        dtype=float)
    k = data.draw(st.integers(0, len(towers) - 1))
    whole = data.draw(st.integers(-20000, 20000))
    frac = data.draw(st.floats(0.0, 1.0, exclude_max=True))

    def estimate(extra_s, extra_delay, extra_sub):
        cells, dets = [], []
        for i, (t, o, a) in enumerate(zip(towers, origins, toa + origins)):
            mine = i == k
            cells.append(CellConfig(
                Pci(i), 2.145e9 + 2e7 * i, position=tuple(t),
                frame_time_origin_s=o / DETECTOR_RATE_HZ
                + (extra_s if mine else 0.0)))
            dets.append(Detection(
                Pci(i), int(np.floor(a)) + (extra_delay if mine else 0), 0.9,
                1.0, a - np.floor(a) + (extra_sub if mine else 0.0)))
        obs, skipped = _observations(dets, CellDatabase(cells))
        assert skipped == []
        return solve_tdoa(obs)

    plain = estimate(0.0, 0, 0.0)
    moved = estimate((whole + frac) / DETECTOR_RATE_HZ, whole, frac)
    assert _err(moved, plain.position) <= 1e-6
    assert _err(plain, solve_tdoa(_tdoa_obs(towers, toa)).position) <= 1e-6


@TDOA
@given(_tdoa_fixes(spread=5.0, sigma=0.0, even=False))
def test_tdoa_noiseless_recovery(fix):
    """Without timing noise the estimate is the truth within 1e-3 m, from
    towers at any angles and receivers up to five tower radii out. With
    three towers the closed form may have a second exact root: then the
    estimate is whichever is nearer the towers' centroid, so a truth that
    is not comes back as an exact fit nearer the centroid. An exact fit
    is converged unless it lies over DIVERGENCE_SCALES scene scales out,
    as a receiver far from clustered towers can."""
    from foldloc.locate import _scene_scale
    towers, truth, toa = fix
    est = solve_tdoa(_tdoa_obs(towers, toa))
    center = towers.mean(axis=0)
    off = np.hypot(*(np.array(est.position) - center))
    assert est.converged == (off <= DIVERGENCE_SCALES * _scene_scale(towers))
    if len(towers) > 3 or _err(est, truth) <= 1e-3:
        assert _err(est, truth) <= 1e-3
        return
    fit = _dist(towers, truth) - _dist(towers, est.position)
    assert np.ptp(fit) <= 1e-6
    assert off < np.hypot(*(truth - center))


def test_tdoa_three_towers_keep_the_root_nearer_the_centroid():
    """A receiver at (-6000, -4000) outside an equilateral triangle of
    towers: its arrivals have a second exact solution near the triangle.
    least_squares from each point stays there, both fit exactly, and the
    solve returns the one nearer the centroid."""
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    truth = np.array([-6000.0, -4000.0])
    toa = _dist(towers, truth) / M_PER_SAMPLE
    est = solve_tdoa(_tdoa_obs(towers, toa))
    assert est.converged
    near = np.array(est.position)
    center = towers.mean(axis=0)
    assert np.hypot(*(near - center)) < 0.2 * np.hypot(*(truth - center))
    assert np.ptp(_dist(towers, truth) - _dist(towers, near)) <= 1e-6
    assert _err(est, _least_squares_reference(towers, toa, near)) <= 1e-6
    far = _least_squares_reference(towers, toa, truth)
    assert np.hypot(*(far - truth)) <= 1e-3


def test_tdoa_three_towers_drop_a_negative_range_root():
    """A root R < 0 of the closed form's quadratic fits the squared
    equations only. Here it lies nearer the centroid than the true root;
    kept, it sent the search 920 km off."""
    towers = np.array([[-1302.0, 1518.0], [-1667.0, -1106.0],
                       [-1557.0, 1256.0]])
    truth = np.array([1979.0, 2493.0])
    est = solve_tdoa(_tdoa_obs(towers, _dist(towers, truth) / M_PER_SAMPLE))
    assert est.converged
    assert _err(est, truth) <= 1e-3


_NOISY_FIVE = (np.array([[2967.0, -443.0], [1408.0, 2649.0], [-2897.0, 779.0],
                         [-2743.0, -1215.0], [-116.0, -2998.0]]),
               np.array([15.52, 20.37, 23.46, 20.81, 16.23]))


def test_tdoa_converges_at_a_noisy_minimum():
    """Five towers with 0.3-sample timing noise. Within a micrometre of
    the minimum the fall in r.r is below the rounding of either sum, so
    the solve takes it from the distances' changes: a difference of the
    two sums rejected the last steps there and left the gradient over its
    tolerance, not converged."""
    towers, toa = _NOISY_FIVE
    est = solve_tdoa(_tdoa_obs(towers, toa))
    assert est.converged and est.warning is None
    assert _err(est, _least_squares_reference(
        towers, toa, towers.mean(axis=0))) <= 1e-6


def test_a_step_test_passed_short_of_the_minimum_fails_the_gradient_test(
        monkeypatch):
    """A step tolerance of 1% of the scene ends the search after its first
    step, metres short of the minimum: the gradient test catches it."""
    from foldloc import locate
    monkeypatch.setattr(locate, "_XTOL", 1e-2)
    towers, toa = _NOISY_FIVE
    est = solve_tdoa(_tdoa_obs(towers, toa))
    assert est.iterations == 1 and not est.converged
    assert est.warning.startswith("not converged: gradient")


def test_damped_step_solves_the_damped_normal_equations():
    """`_damped_step`'s LDL^T in Python floats solves (a + mu I) s = -g
    to rounding, downhill, for J^T J of random geometries and for an
    exactly singular one (every tower in one direction, as from far off),
    whose factorization the damping's floor keeps defined."""
    from foldloc.locate import _MU_MIN, _damped_step
    rng = np.random.default_rng(7)
    jts = []
    for n in (3, 4, 6):
        for _ in range(20):
            u = rng.normal(size=(n, 2))
            jts.append(np.vstack([(u / np.hypot(*u.T)[:, None]).T,
                                  -np.ones(n)]))
    jts.append(np.vstack([np.ones(5), np.zeros(5), -np.ones(5)]))
    for jt in jts:
        a, g = jt @ jt.T, jt @ rng.normal(scale=100.0, size=jt.shape[1])
        for mu in (_MU_MIN, 1e-3, 10.0):
            s = np.array(_damped_step(a.tolist(), g.tolist(), mu))
            lhs = (a + mu * np.eye(3)) @ s
            assert np.abs(lhs + g).max() <= 1e-12 * (
                np.abs(a).max() * np.abs(s).max() + np.abs(g).max())
            assert s @ g < 0.0


def test_tdoa_walk_to_infinity_stops_finite_on_its_cap():
    """Five towers whose noisy arrivals fit best at infinity: the search
    walks outward, where the Jacobian's position columns and its clock
    column become dependent, until its iteration cap; the estimate comes
    back finite, not converged and named diverged."""
    from foldloc.locate import _LM_MAXITER
    towers = [(-190.1, -2015.8), (-2017.2, 1690.7), (-1686.1, 921.9),
              (-1103.3, 1461.0), (-1229.5, 323.1)]
    toa = [6.042, 12.681, 18.946, 13.757, 7.928]
    est = solve_tdoa([TowerObservation(t, toa_samples=x)
                      for t, x in zip(towers, toa)])
    assert np.isfinite(est.position).all()
    assert est.iterations == _LM_MAXITER and not est.converged
    assert "iteration cap" in est.warning and "diverged" in est.warning


def test_ratio_far_estimate_is_not_converged(monkeypatch):
    """The ratio search stays near the towers on every input tried, so a
    far optimizer result is injected."""
    from scipy.optimize import OptimizeResult

    from foldloc import locate
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    obs = [TowerObservation(tuple(t), amplitude=1.0) for t in towers]
    far = OptimizeResult(x=np.array([1000.0, 1e6]), fun=0.0, success=True,
                         status=0)
    monkeypatch.setattr(locate, "_simplex", lambda *a: (far, 1))
    est = trilaterate_ratio(obs)
    assert est.position == (1000.0, 1e6)
    assert not est.converged
    assert "diverged" in est.warning


def test_solvers_deterministic():
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    truth = np.array([820.0, 610.0])
    d = _dist(towers, truth)
    robs = [TowerObservation(tuple(t), amplitude=1.0 / di)
            for t, di in zip(towers, d)]
    tobs = [TowerObservation(tuple(t), toa_samples=di / M_PER_SAMPLE)
            for t, di in zip(towers, d)]
    r1, r2 = trilaterate_ratio(robs), trilaterate_ratio(robs)
    t1, t2 = solve_tdoa(tobs), solve_tdoa(tobs)
    assert r1.position == r2.position and r1.iterations == r2.iterations
    assert t1.position == t2.position and t1.iterations == t2.iterations


def test_solvers_table_calls_the_module_attributes(monkeypatch):
    """Each SOLVERS entry looks its solver up when called, so a wrapper
    bound to the module attribute (as the benchmark's tracer binds one)
    sees every call, and the result is the solver's own."""
    from foldloc import locate
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    d = _dist(towers, np.array([820.0, 610.0]))
    obs = [TowerObservation(tuple(t), amplitude=1.0 / di,
                            toa_samples=di / M_PER_SAMPLE)
           for t, di in zip(towers, d)]
    calls = []
    for name in ("solve_tdoa", "trilaterate_ratio"):
        real = getattr(locate, name)
        monkeypatch.setattr(locate, name, lambda o, real=real, name=name:
                            calls.append(name) or real(o))
    assert set(locate.SOLVERS) == {"tdoa", "ratio"}
    assert locate.SOLVERS["tdoa"](obs) == solve_tdoa(obs)
    assert locate.SOLVERS["ratio"](obs) == trilaterate_ratio(obs)
    assert calls == ["solve_tdoa", "trilaterate_ratio"]


def _pair_loop_reference(obs):
    """The ratio objective as one Python term per unordered pair, added
    left to right in (i, j) order."""
    from foldloc.locate import _scene_scale, _simplex
    pos = np.array([o.position for o in obs])
    pairs = [(i, j) for i in range(len(obs)) for j in range(i + 1, len(obs))]
    amps = [o.amplitude for o in obs]

    def objective(p):
        d = np.maximum(np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1]), 1e-9)
        total = 0.0
        for i, j in pairs:
            total += (amps[i] / amps[j] - d[j] / d[i]) ** 2
        return total
    return _simplex(objective, pos.mean(axis=0), _scene_scale(pos))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_solvers_match_pair_loop_reference_exactly(n):
    """The ratio solve is Nelder-Mead on the pair-loop objective, bit for
    bit; the TDOA solve uses no simplex."""
    rng = np.random.default_rng(n)
    towers = rng.uniform(-3000.0, 3000.0, (n, 2))
    d = _dist(towers, rng.uniform(-1000.0, 1000.0, 2))
    robs = [TowerObservation(tuple(t), amplitude=(1.0 + 0.05 * e) / di)
            for t, di, e in zip(towers, d, rng.standard_normal(n))]
    est = trilaterate_ratio(robs)
    ref, nit = _pair_loop_reference(robs)
    assert est.position == (float(ref.x[0]), float(ref.x[1]))
    assert est.iterations == nit


# ------------------------------------------------------ the simplex kernel

S5_TOWERS = np.array([[0.0, 0.0], [6000.0, 0.0], [0.0, 6000.0],
                      [6000.0, 6000.0], [3000.0, -3000.0]])


def _s5_offset_observations():
    """S5 arrivals at (2000, 2500) with frame origins 0-6000 samples left in,
    as s5_offset's fixes solve them, and their inverse-distance amplitudes."""
    d = _dist(S5_TOWERS, (2000.0, 2500.0))
    toa = d / M_PER_SAMPLE + np.array([0.0, 1500.0, 3000.0, 4500.0, 6000.0])
    noise = np.random.default_rng(25).normal(scale=0.05, size=(2, 5))
    tobs = [TowerObservation(tuple(t), toa_samples=ti + e)
            for t, ti, e in zip(S5_TOWERS, toa, noise[0])]
    robs = [TowerObservation(tuple(t), amplitude=(1.0 + e) / di)
            for t, di, e in zip(S5_TOWERS, d, noise[1])]
    return tobs, robs


def _neumaier_sum(values, start=0):
    """sum() of floats as Python 3.12 and later compute it: compensated."""
    total, comp = float(start), 0.0
    for v in values:
        t = total + v
        comp += (total - t) + v if abs(total) >= abs(v) else (v - t) + total
        total = t
    return total + comp if comp and np.isfinite(comp) else total


def test_estimates_do_not_depend_on_the_interpreters_sum(monkeypatch):
    """From Python 3.12, sum() of floats is compensated (Neumaier), so an
    objective that called it would solve differently on 3.11 and 3.12: on
    s5_offset's amplitudes it changes the position or the iteration
    count. The ratio objective adds its pair terms in an explicit loop
    instead, and the TDOA solve sums with numpy alone."""
    from foldloc import locate
    assert _neumaier_sum([1e16, 1.0, -1e16]) == 1.0
    tobs, robs = _s5_offset_observations()
    plain = solve_tdoa(tobs), trilaterate_ratio(robs)
    monkeypatch.setattr(locate, "sum", _neumaier_sum, raising=False)
    assert (solve_tdoa(tobs), trilaterate_ratio(robs)) == plain


def test_each_solve_is_four_minimize_calls(monkeypatch):
    """The benchmark wraps locate.minimize and reads each result's nit:
    locate.minimize.starts counts four calls a ratio solve, and the calls'
    nit add up to the estimate's iterations. The TDOA solve makes none."""
    from foldloc import locate
    real, nits = locate.minimize, []

    def spy(*args, **kwargs):
        res = real(*args, **kwargs)
        nits.append(res.nit)
        return res

    monkeypatch.setattr(locate, "minimize", spy)
    tobs, robs = _s5_offset_observations()
    est = trilaterate_ratio(robs)
    assert len(nits) == 4
    assert est.iterations == sum(nits)
    nits.clear()
    solve_tdoa(tobs)
    assert nits == []


def test_a_capped_best_start_is_named_in_the_warning():
    """On S5 amplitudes with 5% noise the winning start runs out of
    evaluations: the estimate is not converged, and its warning says which
    cap stopped it."""
    _tobs, robs = _s5_offset_observations()
    est = trilaterate_ratio(robs)
    assert not est.converged
    assert est.warning is not None and "evaluation cap" in est.warning
    assert "maxfev 4000" in est.warning


def test_an_iteration_capped_best_start_is_named_in_the_warning(monkeypatch):
    """No input tried stops on maxiter first, so a capped result is
    injected."""
    from foldloc import locate
    capped = locate.MinimizeResult(x=np.array([1000.0, 600.0]), fun=0.0,
                                   nit=2000, nfev=3100, status=2,
                                   success=False)
    monkeypatch.setattr(locate, "minimize", lambda *a, **k: capped)
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    est = trilaterate_ratio([TowerObservation(tuple(t), amplitude=1.0)
                             for t in towers])
    assert not est.converged
    assert est.warning == ("not converged: the best start stopped on its "
                           "iteration cap (maxiter 2000)")


def _objective_of(obs):
    """The objective, start and scene scale that trilaterate_ratio hands
    _simplex."""
    from scipy.optimize import OptimizeResult

    from foldloc import locate
    seen = []

    def capture(objective, init, scale):
        seen.append((objective, init, scale))
        return OptimizeResult(x=init, fun=0.0, success=True, status=0), 0

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(locate, "_simplex", capture)
        trilaterate_ratio(obs)
    return seen[0]


def _outside_disc(objective, center, radius, value):
    """objective inside the disc, value (inf or NaN) outside it."""
    def f(p):
        inside = np.hypot(p[0] - center[0], p[1] - center[1]) <= radius
        return objective(p) if inside else value
    return f


def _same_run(objective, x0, **options):
    """Assert that the kernel, locate.minimize, and scipy's Nelder-Mead ask
    for the same points and return the same x, fun, nit, nfev, status and
    success. Returns how many evaluations scipy's run had made by the end
    of each iteration (its callback's count)."""
    from scipy.optimize import minimize

    from foldloc import locate

    def recording(points):
        def recorded(p):
            points.append((float(p[0]), float(p[1])))
            return objective(p)
        return recorded

    ref_points, points, ends = [], [], []
    ref = minimize(recording(ref_points), x0, method="Nelder-Mead",
                   options=options,
                   callback=lambda _r: ends.append(len(ref_points)))
    res = locate.minimize(recording(points), x0, **options)
    assert points == ref_points
    assert res.x.tolist() == ref.x.tolist()
    assert res.fun == ref.fun or (np.isnan(res.fun) and np.isnan(ref.fun))
    for key in ("nit", "nfev", "status", "success"):
        assert getattr(res, key) == ref[key], key
    return ends


KERNEL = settings(max_examples=40, deadline=None, derandomize=True)


@st.composite
def _solves(draw):
    """A random geometry of 3-6 towers, its ratio objective, a start
    (perhaps with a zero coordinate) and the solver's options, with maxfev
    perhaps small enough to stop mid-iteration and maxiter perhaps small
    enough to stop first."""
    n = draw(st.integers(3, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    towers = rng.uniform(-3000.0, 3000.0, (n, 2))
    d = _dist(towers, rng.uniform(-1000.0, 1000.0, 2))
    obs = [TowerObservation(tuple(t), amplitude=(1.0 + 0.05 * e) / di)
           for t, di, e in zip(towers, d, rng.standard_normal(n))]
    objective, init, scale = _objective_of(obs)
    x0 = init + scale * 0.05 * np.array(draw(st.sampled_from(
        [(0, 0), (1, 1), (-1, 1), (1, -1)])))
    zero = draw(st.sampled_from([(), (0,), (1,), (0, 1)]))
    x0[list(zero)] = 0.0
    maxfev = draw(st.one_of(st.integers(1, 60), st.just(4000)))
    maxiter = draw(st.one_of(st.integers(1, 30), st.just(2000)))
    return objective, x0, dict(xatol=1e-6 * scale, fatol=1e-30,
                               maxiter=maxiter, maxfev=maxfev), init, scale


@KERNEL
@given(_solves())
def test_kernel_equals_scipy_nelder_mead(solve):
    """The kernel visits scipy's points and returns its x, fun, nit, nfev,
    status and success bit for bit, on the ratio objective, from starts with
    zero coordinates, with maxfev stops mid-iteration and maxiter stops.
    A scipy upgrade that changes its Nelder-Mead fails here before any
    digest moves."""
    objective, x0, options, _init, _scale = solve
    _same_run(objective, x0, **options)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@KERNEL
@given(_solves(), st.sampled_from([np.inf, np.nan]), st.floats(0.02, 0.5))
def test_kernel_equals_scipy_outside_a_disc(solve, value, frac):
    """An objective that is inf or NaN outside a disc around the tower
    centroid: NaN sorts last, fun propagates NaN as np.min does, and
    contractions onto the rim shrink the simplex."""
    objective, x0, options, init, scale = solve
    _same_run(_outside_disc(objective, init, frac * scale, value), x0,
              **options)


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("value", [None, np.inf, np.nan])
def test_kernel_shrinks_as_scipy_does(value):
    """Runs that shrink, whole and cut by maxfev at each evaluation of
    their first shrinking iteration, so a shrink's move-then-evaluate
    order is checked whatever the draws above are. scipy's callback
    marks the iterations; only a shrink evaluates four points in one."""
    _tobs, robs = _s5_offset_observations()
    objective, init, scale = _objective_of(robs)
    if value is not None:
        objective = _outside_disc(objective, init, 0.3 * scale, value)
    options = dict(xatol=1e-6 * scale, fatol=1e-30, maxiter=2000)
    steps = np.diff([3, *_same_run(objective, init, maxfev=4000, **options)])
    assert 4 in steps
    first = 3 + int(steps[:steps.tolist().index(4)].sum())
    for maxfev in range(first + 1, first + 5):
        _same_run(objective, init, maxfev=maxfev, **options)
