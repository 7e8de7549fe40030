"""Position solvers: TDOA least squares and amplitude-ratio trilateration.

Sample-delay differences constrain range differences directly:
`solve_tdoa` fits the position and the receiver clock to the arrival
times as one three-unknown least squares, from a closed-form start
refined by Levenberg-Marquardt, in numpy. Under the free-space law
received amplitude scales as 1/distance, so amplitude ratios constrain
distance ratios: `trilaterate_ratio` minimizes a smooth function of the
2-D position with derivative-free simplex descent from a handful of
deterministic starts. A far-off estimate is not converged.

The descent, which now serves only the ratio solve, is the classic
simplex of Nelder & Mead (1965), as scipy's
`minimize(method="Nelder-Mead")` runs it, in foldloc's own kernel,
`minimize`. On a 3-vertex simplex numpy's per-call cost dwarfs the
arithmetic, so the kernel works in Python floats; it does scipy's float
operations in scipy's order, so the estimates are scipy's bit for bit, and
only the tests import scipy to check that. Each start is one `minimize`
call through the module global, which is what the benchmark wraps and
counts. The ratio objective takes its tower distances with one `np.hypot`
(`math.hypot` rounds differently in the last bit) and adds its pair terms
left to right in an explicit loop, because `sum()` of floats is
compensated from Python 3.12 on and would make the estimates depend on
the interpreter; the TDOA solve sums with numpy alone.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import DETECTOR_RATE_HZ, SPEED_OF_LIGHT

_AMP_FLOOR = 1e-12
DIVERGENCE_SCALES = 10.0      # farther from the tower centroid is diverged
_MAXITER = 2000                # each Nelder-Mead start's iteration cap
_MAXFEV = 4000                 # and its evaluation cap
# solve_tdoa's Levenberg-Marquardt: the iteration cap, the step and
# gradient tests' tolerances in scene scales, the first damping as a
# fraction of J^T J's largest diagonal entry (N, the clock's: a Jacobian
# row is a unit vector and -1), and the damping's floor, which keeps
# J^T J + mu I invertible where J^T J is not
_LM_MAXITER = 50
_XTOL = 1e-12
_GTOL = 1e-10
_TAU = 1e-3
_MU_MIN = 1e-9


class InsufficientAnchorsError(ValueError):
    """Fewer than three usable tower observations."""


@dataclass(frozen=True)
class TowerObservation:
    position: tuple[float, float]
    amplitude: float = 0.0
    toa_samples: float | None = None


@dataclass
class PositionEstimate:
    position: tuple[float, float]
    objective_value: float
    iterations: int
    converged: bool
    warning: str | None = None


def sample_to_distance(delta_samples: float, sample_rate_hz: float) -> float:
    """Meters spanned by a sample-count difference at the given rate."""
    if sample_rate_hz <= 0:
        raise ValueError("sample rate must be positive")
    return delta_samples * SPEED_OF_LIGHT / sample_rate_hz


def _positions(obs) -> np.ndarray:
    if len(obs) < 3:
        raise InsufficientAnchorsError(f"need >= 3 towers, got {len(obs)}")
    return np.array([o.position for o in obs], dtype=np.float64)


def _geometry_warning(pos: np.ndarray) -> str | None:
    centered = pos - pos.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[-1] < 1e-9 * max(sv[0], 1e-30):
        return "degenerate-geometry: towers are collinear"
    return None


def _scene_scale(pos: np.ndarray) -> float:
    diffs = pos[:, None, :] - pos[None, :, :]
    return max(float(np.hypot(diffs[..., 0], diffs[..., 1]).max()), 1.0)


class _MaxFev(Exception):
    """An evaluation asked for at maxfev: it ends the iteration uncounted."""


def _before(a: float, b: float) -> bool:
    """a sorts before b in numpy's float order, where NaN is last."""
    return a < b or (b != b and a == a)


def _sort3(sim):
    """The three (f, x, y) vertices by f: a stable insertion sort, so ties
    keep their order as np.argsort keeps them on three values."""
    a, b, c = sim
    if _before(b[0], a[0]):
        a, b = b, a
    if _before(c[0], b[0]):
        b, c = c, b
        if _before(b[0], a[0]):
            a, b = b, a
    return [a, b, c]


@dataclass(frozen=True)
class MinimizeResult:
    """Where one Nelder-Mead run stopped: x, its objective fun, the
    iterations nit and evaluations nfev it took, and status 0 (converged),
    1 (evaluation cap) or 2 (iteration cap); success is status 0."""
    x: np.ndarray
    fun: float
    nit: int
    nfev: int
    status: int
    success: bool


def minimize(fun, x0, *, xatol, fatol, maxiter, maxfev) -> MinimizeResult:
    """scipy's Nelder-Mead on two parameters, from the start x0.

    This is scipy's `_minimize_neldermead` with adaptive=False, no bounds
    and the default initial simplex, in Python floats, with the same float
    operations in the same order:
    - the start moves each nonzero coordinate by 5% and a zero one to
      0.00025;
    - rho = 1, chi = 2, psi = sigma = 1/2 enter as scipy's coefficients,
      which are exact in binary (1.5 xbar - 0.5 x_worst is
      (1 + psi rho) xbar - psi rho x_worst, and so on);
    - an evaluation asked for at maxfev ends the iteration without
      counting it, and a shrink moves each vertex before it evaluates it;
    - vertices sort as a stable np.argsort does, NaN last.
    So it visits scipy's points and returns scipy's x, fun, nit, nfev,
    status and success (the tests check it against scipy's
    `minimize(method="Nelder-Mead")`). The objective gets each point as an
    (x, y) tuple.
    """
    nfev = 0

    def f(x, y):
        nonlocal nfev
        if nfev >= maxfev:
            raise _MaxFev
        nfev += 1
        return fun((x, y))

    x, y = float(x0[0]), float(x0[1])
    sim = [(np.inf, x, y),
           (np.inf, (1 + 0.05) * x if x != 0 else 0.00025, y),
           (np.inf, x, (1 + 0.05) * y if y != 0 else 0.00025)]
    try:
        for k, (_f, x, y) in enumerate(sim):
            sim[k] = (f(x, y), x, y)
    except _MaxFev:
        pass
    sim = _sort3(sim)       # scipy sorts twice; a stable sort's second is a no-op
    nit = 1
    while nfev < maxfev and nit < maxiter:
        (f0, x0, y0), (f1, x1, y1), (f2, x2, y2) = sim
        if abs(x1 - x0) <= xatol and abs(y1 - y0) <= xatol and \
                abs(x2 - x0) <= xatol and abs(y2 - y0) <= xatol and \
                abs(f0 - f1) <= fatol and abs(f0 - f2) <= fatol:
            break
        try:
            xb, yb = (x0 + x1) / 2, (y0 + y1) / 2
            # reflect: (1 + rho) xbar - rho x_worst
            xr, yr = 2 * xb - x2, 2 * yb - y2
            fr = f(xr, yr)
            shrink = False
            if fr < f0:
                # expand: (1 + rho chi) xbar - rho chi x_worst
                xe, ye = 3 * xb - 2 * x2, 3 * yb - 2 * y2
                fe = f(xe, ye)
                sim[2] = (fe, xe, ye) if fe < fr else (fr, xr, yr)
            elif fr < f1:
                sim[2] = (fr, xr, yr)
            elif fr < f2:
                # contract outside: (1 + psi rho) xbar - psi rho x_worst
                xc, yc = 1.5 * xb - 0.5 * x2, 1.5 * yb - 0.5 * y2
                fc = f(xc, yc)
                if fc <= fr:
                    sim[2] = (fc, xc, yc)
                else:
                    shrink = True
            else:
                # contract inside: (1 - psi) xbar + psi x_worst
                xc, yc = 0.5 * xb + 0.5 * x2, 0.5 * yb + 0.5 * y2
                fc = f(xc, yc)
                if fc < f2:
                    sim[2] = (fc, xc, yc)
                else:
                    shrink = True
            if shrink:          # toward the best: x0 + sigma (x_j - x0)
                for j in (1, 2):
                    fj, x, y = sim[j]
                    x, y = x0 + 0.5 * (x - x0), y0 + 0.5 * (y - y0)
                    sim[j] = (fj, x, y)     # a maxfev stop leaves it moved
                    sim[j] = (f(x, y), x, y)
            nit += 1
        except _MaxFev:
            pass
        sim = _sort3(sim)
    (f0, x0, y0), f2 = sim[0], sim[2][0]
    status = 1 if nfev >= maxfev else 2 if nit >= maxiter else 0
    # NaN sorts last, so f2 is NaN when any is: np.min(fsim) as scipy takes it
    return MinimizeResult(x=np.array([x0, y0]), fun=f2 if f2 != f2 else f0,
                          nit=nit, nfev=nfev, status=status,
                          success=status == 0)


def _simplex(objective, init: np.ndarray, scale: float):
    """Nelder-Mead from four deterministic starts; best result wins.

    Each start is one call of the module global `minimize`, so a wrapper
    bound to `locate.minimize` (the benchmark's) sees every start and its
    `nit`.
    """
    offsets = scale * 0.05 * np.array([[0, 0], [1, 1], [-1, 1], [1, -1]])
    best, total_it = None, 0
    for off in offsets:
        res = minimize(objective, init + off, xatol=1e-6 * scale,
                       fatol=1e-30, maxiter=_MAXITER, maxfev=_MAXFEV)
        total_it += res.nit
        if best is None or res.fun < best.fun:
            best = res
    return best, total_it


def _estimate(pos: np.ndarray, scale: float, x, objective_value: float,
              iterations: int, stopped: str | None,
              notes=()) -> PositionEstimate:
    """The estimate at x. stopped is None when the solver's own stopping
    tests passed, and otherwise says why they did not. The warning joins
    the geometry check, notes, stopped and a divergence note: an estimate
    more than DIVERGENCE_SCALES scene scales from the tower centroid is not
    converged, whatever the solver says."""
    centroid = pos.mean(axis=0)
    off = float(np.hypot(x[0] - centroid[0], x[1] - centroid[1]))
    diverged = off > DIVERGENCE_SCALES * scale
    notes = [_geometry_warning(pos), *notes, stopped,
             f"diverged: estimate {off:.3g} m from the tower centroid, over "
             f"{DIVERGENCE_SCALES:g}x the scene scale" if diverged else None]
    return PositionEstimate(position=(float(x[0]), float(x[1])),
                            objective_value=objective_value,
                            iterations=iterations,
                            converged=stopped is None and not diverged,
                            warning="; ".join(n for n in notes if n) or None)


def trilaterate_ratio(obs) -> PositionEstimate:
    """Minimize pairwise amplitude-ratio mismatch over position.

    With A ~ 1/d, the observable A_i/A_j equals d_j/d_i, so each unordered
    pair contributes (A_i/A_j - d_j(p)/d_i(p))^2. Nelder-Mead from the
    tower centroid (`_simplex`); the estimate is not converged when the
    winning start stopped on a cap, and its warning names the cap.
    Amplitudes are floored at 1e-12 to guard degenerate ratios.
    """
    pos = _positions(obs)
    amps = np.array([o.amplitude for o in obs], dtype=np.float64)
    floored = ["amplitude floored"] if np.any(amps < _AMP_FLOOR) else []
    amps = np.maximum(amps, _AMP_FLOOR)
    ii, jj = np.triu_indices(len(obs), 1)
    pairs = list(zip(ii.tolist(), jj.tolist(), (amps[ii] / amps[jj]).tolist()))
    px, py = pos[:, 0].copy(), pos[:, 1].copy()

    def objective(p):
        d = np.maximum(np.hypot(px - p[0], py - p[1]), 1e-9).tolist()
        total = 0.0
        for i, j, ratio in pairs:       # summed left to right, pair by pair
            r = ratio - d[j] / d[i]
            total += r * r
        return total

    scale = _scene_scale(pos)
    res, nit = _simplex(objective, pos.mean(axis=0), scale)
    capped = {1: f"evaluation cap (maxfev {_MAXFEV})",
              2: f"iteration cap (maxiter {_MAXITER})"}.get(res.status)
    return _estimate(pos, scale, res.x, float(res.fun), nit,
                     f"not converged: the best start stopped on its {capped}"
                     if capped else None, floored)


def _chan_ho(pos: np.ndarray, rng_m: np.ndarray) -> np.ndarray:
    """A closed-form position from the range differences to the first
    tower, for towers at pos relative to their centroid: Chan & Ho's
    (1994) for three towers, and with more Schau & Robinson's (1987)
    spherical intersection, the same construction over the least squares
    of the linear equations.

    With s_i = t_i - t_0, r_i = m_i - m_0 and R = |p - t_0|, tower i > 0
    gives 2 s_i.(p - t_0) = |s_i|^2 - r_i^2 - 2 r_i R, linear in p for a
    given R; its least squares is p - t_0 = u + v R, and |p - t_0| = R is
    then a quadratic in R. A root R < 0 fits only the squared equations
    and is dropped. Of two nonnegative roots, three towers keep the one
    nearer the centroid, since both fit all three arrivals exactly; more
    towers keep the one whose residuals spread least. Without a real root
    the quadratic's vertex is taken.
    """
    s = pos[1:] - pos[0]
    r = rng_m[1:] - rng_m[0]
    h = np.einsum("ij,ij->i", s, s) - r * r
    uv = np.linalg.lstsq(2.0 * s, np.column_stack((h, -2.0 * r)),
                         rcond=None)[0]
    u, v = uv[:, 0], uv[:, 1]
    a, b, c = float(v @ v) - 1.0, float(u @ v), float(u @ u)
    disc = b * b - a * c                # of a R^2 + 2 b R + c = 0
    if a == 0.0:
        roots = [-c / (2.0 * b)] if b else [0.0]
    elif disc < 0.0:
        roots = [-b / a]
    else:
        roots = [(-b + np.sqrt(disc)) / a, (-b - np.sqrt(disc)) / a]
    starts = [pos[0] + u + v * k for k in roots if k >= 0.0] or \
        [pos[0] + u + v * k for k in roots]
    if len(rng_m) == 3:
        return min(starts, key=lambda p: float(np.hypot(p[0], p[1])))

    def misfit(p):      # the residuals' spread once the clock is fitted
        e = rng_m - np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1])
        e -= e.mean()
        return float(e @ e)
    return min(starts, key=misfit)


def _damped_step(a, g, mu: float) -> tuple[float, float, float]:
    """The step s with (a + mu I) s = -g, for a 3x3 J^T J and a gradient
    g given as Python floats, by an LDL^T factorization in Python floats:
    on three unknowns numpy's per-call cost is most of a solve. a + mu I
    is positive definite for mu > 0, so no pivot vanishes."""
    (a00, a01, a02), (_, a11, a12), (_, _, a22) = a
    d0, d1 = a00 + mu, a11 + mu
    l10, l20 = a01 / d0, a02 / d0
    d1 -= l10 * a01
    e21 = a12 - l20 * a01
    l21 = e21 / d1
    d2 = a22 + mu - l20 * a02 - l21 * e21
    y0 = -g[0]
    y1 = -g[1] - l10 * y0
    y2 = -g[2] - l20 * y0 - l21 * y1
    s2 = y2 / d2
    s1 = y1 / d1 - l21 * s2
    return y0 / d0 - l10 * s1 - l20 * s2, s1, s2


def solve_tdoa(obs) -> PositionEstimate:
    """Least squares over position and receiver clock from arrival times.

    Arrival times count detector samples at DETECTOR_RATE_HZ and convert
    to ranges m_i, modelled as m_i = |p - t_i| + b with b the receiver
    clock in meters, so a bias common to every tower's arrival goes into
    b. The closed form of `_chan_ho` starts Levenberg-Marquardt over
    (x, y, b) (Marquardt 1963, with Nielsen's damping update; Foy 1976
    for the Taylor-series steps): the Jacobian is analytic and each step
    solves the damped 3x3 normal equations. With three towers the closed
    form may have two roots that both fit exactly; the one nearer the
    towers' centroid is kept. The search stops when a step is under
    _XTOL scene scales (the step test) or after _LM_MAXITER iterations.
    The estimate is converged when the step test passed, the gradient
    J^T r is under _GTOL scene scales (the gradient test) and the
    divergence test of `_estimate` holds. The objective value is the sum
    over tower pairs of squared arrival-time-difference residuals at the
    solution, in s^2: N times the residuals' squared deviations from
    their mean, summed, over c^2.
    """
    pos = _positions(obs)
    if any(o.toa_samples is None for o in obs):
        raise ValueError("every observation needs toa_samples for TDOA")
    scale = _scene_scale(pos)
    # centered, for conditioning: the clock takes up the ranges' mean
    centroid = pos.mean(axis=0)
    pos_c = pos - centroid
    px, py = pos_c[:, 0], pos_c[:, 1]
    rng_m = np.array([sample_to_distance(o.toa_samples, DETECTOR_RATE_HZ)
                      for o in obs])
    rng_m -= rng_m.mean()
    clock_col = np.full(len(obs), -1.0)

    def at(p):
        """Offsets (dx, dy) of the towers from p = (x, y, b), their
        distances d and the residuals rng_m - d - b."""
        dx, dy = px - p[0], py - p[1]
        d = np.hypot(dx, dy)
        return dx, dy, d, rng_m - d - p[2]

    def normal(dx, dy, d, r):
        """J^T J and the gradient J^T r as Python floats; a Jacobian row
        is (dx, dy)/d and -1, and (0, 0, -1) at a tower."""
        d = np.maximum(d, 1e-300)
        jt = np.array((dx / d, dy / d, clock_col))
        return (jt @ jt.T).tolist(), (jt @ r).tolist()

    x, y = _chan_ho(pos_c, rng_m)
    p = (x, y, float((rng_m - np.hypot(px - x, py - y)).mean()))
    dx, dy, d, r = at(p)
    a, g = normal(dx, dy, d, r)
    mu, nu = _TAU * len(obs), 2.0
    for it in range(1, _LM_MAXITER + 1):
        s = _damped_step(a, g, mu)
        stepped = max(abs(s[0]), abs(s[1]), abs(s[2])) <= _XTOL * scale
        if stepped:
            break
        trial = (p[0] + s[0], p[1] + s[1], p[2] + s[2])
        dx_t, dy_t, d_t, r_t = at(trial)
        # the fall in r.r, from each distance's change (q'-q).(q'+q)/(d'+d):
        # the difference of the two sums drowns in rounding within a
        # micrometre of the minimum
        change = -(s[0] * (dx + dx_t) + s[1] * (dy + dy_t)) / \
            np.maximum(d + d_t, 1e-300)
        gain = float((change + s[2]) @ (r + r_t)) / (
            s[0] * (mu * s[0] - g[0]) + s[1] * (mu * s[1] - g[1])
            + s[2] * (mu * s[2] - g[2]))
        if gain > 0.0:          # NaN compares False: a non-finite trial fails
            p, dx, dy, d, r = trial, dx_t, dy_t, d_t, r_t
            a, g = normal(dx, dy, d, r)
            mu = max(mu * max(1.0 / 3.0, 1.0 - (2.0 * gain - 1.0) ** 3),
                     _MU_MIN)
            nu = 2.0
        else:
            mu *= nu
            nu *= 2.0
    slope = max(abs(g[0]), abs(g[1]), abs(g[2]))
    stopped = None
    if not stepped:
        stopped = ("not converged: stopped on the iteration cap "
                   f"(maxiter {_LM_MAXITER})")
    elif slope > _GTOL * scale:
        stopped = f"not converged: gradient {slope:.3g} m over its tolerance"
    dev = r - r.mean()
    return _estimate(pos, scale, (p[0] + centroid[0], p[1] + centroid[1]),
                     len(obs) * float(dev @ dev) / SPEED_OF_LIGHT ** 2, it,
                     stopped)


# name -> solver, looked up at call time so a module-attribute wrapper sees it
SOLVERS = {"tdoa": lambda obs: solve_tdoa(obs),
           "ratio": lambda obs: trilaterate_ratio(obs)}
