"""Amplitude-ratio trilateration and TDOA least-squares solvers."""
import numpy as np
import pytest

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


def test_ratio_far_estimate_is_not_converged(monkeypatch):
    """The ratio search stays near the towers on every input tried, so a
    far optimizer result is injected."""
    from scipy.optimize import OptimizeResult

    from foldloc import locate
    towers = np.array([[0.0, 0.0], [2000.0, 0.0], [1000.0, 1732.0]])
    obs = [TowerObservation(tuple(t), amplitude=1.0) for t in towers]
    far = OptimizeResult(x=np.array([1000.0, 1e6]), fun=0.0, success=True)
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


def _pair_loop_reference(obs, tdoa):
    """Both objectives as one Python term per unordered pair, in (i, j) order."""
    from foldloc.locate import _scene_scale, _simplex
    pos = np.array([o.position for o in obs])
    pairs = [(i, j) for i in range(len(obs)) for j in range(i + 1, len(obs))]
    if tdoa:
        rng_m = [sample_to_distance(o.toa_samples, FS) for o in obs]

        def objective(p):
            d = np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1])
            return sum((rng_m[j] - rng_m[i] - (d[j] - d[i])) ** 2
                       for i, j in pairs)
    else:
        amps = [o.amplitude for o in obs]

        def objective(p):
            d = np.maximum(np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1]), 1e-9)
            return sum((amps[i] / amps[j] - d[j] / d[i]) ** 2 for i, j in pairs)
    return _simplex(objective, pos.mean(axis=0), _scene_scale(pos))


@pytest.mark.parametrize("n", [3, 4, 6])
def test_solvers_match_pair_loop_reference_exactly(n):
    rng = np.random.default_rng(n)
    towers = rng.uniform(-3000.0, 3000.0, (n, 2))
    d = _dist(towers, rng.uniform(-1000.0, 1000.0, 2))
    robs = [TowerObservation(tuple(t), amplitude=(1.0 + 0.05 * e) / di)
            for t, di, e in zip(towers, d, rng.standard_normal(n))]
    tobs = [TowerObservation(tuple(t), toa_samples=di / M_PER_SAMPLE + 0.3 * e)
            for t, di, e in zip(towers, d, rng.standard_normal(n))]
    for obs, est in ((robs, trilaterate_ratio(robs)), (tobs, solve_tdoa(tobs))):
        ref, nit = _pair_loop_reference(obs, obs is tobs)
        assert est.position == (float(ref.x[0]), float(ref.x[1]))
        assert est.iterations == nit
