"""Position solvers: amplitude-ratio trilateration and TDOA least squares.

Both objectives are smooth functions of a 2-D position, minimized with
derivative-free simplex descent from a handful of deterministic starts.
Under the free-space law received amplitude scales as 1/distance, so
amplitude ratios constrain distance ratios; sample-delay differences
constrain range differences directly. A far-off estimate is not converged.

The descent is the classic simplex of Nelder & Mead (1965), as scipy's
`minimize(method="Nelder-Mead")` runs it, in foldloc's own kernel,
`minimize`. On a 3-vertex simplex numpy's per-call cost dwarfs the
arithmetic, so the kernel works in Python floats; it does scipy's float
operations in scipy's order, so the estimates are scipy's bit for bit, and
only the tests import scipy to check that. Each start is one `minimize`
call through the module global, which is what the benchmark wraps and
counts. Each objective takes its tower distances with one `np.hypot`
(`math.hypot` rounds differently in the last bit) and adds its pair terms
left to right in an explicit loop, because `sum()` of floats is
compensated from Python 3.12 on and would make the estimates depend on
the interpreter.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .frontend import DETECTOR_RATE_HZ, SPEED_OF_LIGHT

_AMP_FLOOR = 1e-12
DIVERGENCE_SCALES = 10.0      # farther from the tower centroid is diverged
_MAXITER = 2000                # each start's iteration cap
_MAXFEV = 4000                 # and its evaluation cap


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


def _solve(objective, pos: np.ndarray, notes=(),
           objective_unit: float = 1.0) -> PositionEstimate:
    """Minimize from the tower centroid, reporting the objective over
    objective_unit. The warning joins the geometry check, notes, the cap
    the winning start stopped on, if any, and a divergence note: an
    estimate more than DIVERGENCE_SCALES scene scales from the centroid is
    not converged, whatever the optimizer says."""
    centroid, scale = pos.mean(axis=0), _scene_scale(pos)
    res, nit = _simplex(objective, centroid, scale)
    off = float(np.hypot(*(res.x - centroid)))
    diverged = off > DIVERGENCE_SCALES * scale
    capped = {1: f"evaluation cap (maxfev {_MAXFEV})",
              2: f"iteration cap (maxiter {_MAXITER})"}.get(res.status)
    notes = [_geometry_warning(pos), *notes,
             f"not converged: the best start stopped on its {capped}"
             if capped else None,
             f"diverged: estimate {off:.3g} m from the tower centroid, over "
             f"{DIVERGENCE_SCALES:g}x the scene scale" if diverged else None]
    return PositionEstimate(position=(float(res.x[0]), float(res.x[1])),
                            objective_value=float(res.fun) / objective_unit,
                            iterations=nit,
                            converged=bool(res.success) and not diverged,
                            warning="; ".join(n for n in notes if n) or None)


def trilaterate_ratio(obs) -> PositionEstimate:
    """Minimize pairwise amplitude-ratio mismatch over position.

    With A ~ 1/d, the observable A_i/A_j equals d_j/d_i, so each unordered
    pair contributes (A_i/A_j - d_j(p)/d_i(p))^2. Initialized at the tower
    centroid. Amplitudes are floored at 1e-12 to guard degenerate ratios.
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

    return _solve(objective, pos, floored)


def solve_tdoa(obs) -> PositionEstimate:
    """Hyperbolic least squares over all pairwise arrival-time differences.

    Arrival times count detector samples at DETECTOR_RATE_HZ; sample
    offsets convert to range differences; a uniform arrival-time
    bias across towers cancels in every pair. The search runs on residuals
    in meters for conditioning; the reported objective value is the sum of
    squared time residuals in seconds. The search starts at the tower
    centroid.
    """
    pos = _positions(obs)
    if any(o.toa_samples is None for o in obs):
        raise ValueError("every observation needs toa_samples for TDOA")
    rng_m = np.array([sample_to_distance(o.toa_samples, DETECTOR_RATE_HZ)
                      for o in obs])
    ii, jj = np.triu_indices(len(obs), 1)
    pairs = list(zip(ii.tolist(), jj.tolist(), (rng_m[jj] - rng_m[ii]).tolist()))
    px, py = pos[:, 0].copy(), pos[:, 1].copy()

    def objective(p):
        d = np.hypot(px - p[0], py - p[1]).tolist()
        total = 0.0
        for i, j, obs_dd in pairs:      # summed left to right, pair by pair
            r = obs_dd - (d[j] - d[i])
            total += r * r
        return total

    return _solve(objective, pos, objective_unit=SPEED_OF_LIGHT ** 2)


# name -> solver, looked up at call time so a module-attribute wrapper sees it
SOLVERS = {"tdoa": lambda obs: solve_tdoa(obs),
           "ratio": lambda obs: trilaterate_ratio(obs)}
