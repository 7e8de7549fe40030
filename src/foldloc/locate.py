"""Position solvers: amplitude-ratio trilateration and TDOA least squares.

Both objectives are smooth functions of a 2-D position, minimized with
derivative-free simplex descent from a handful of deterministic starts.
Under the free-space law received amplitude scales as 1/distance, so
amplitude ratios constrain distance ratios; sample-delay differences
constrain range differences directly. A far-off estimate is not converged.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .frontend import DETECTOR_RATE_HZ, SPEED_OF_LIGHT

_AMP_FLOOR = 1e-12
DIVERGENCE_SCALES = 10.0      # farther from the tower centroid is diverged


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


def _simplex(objective, init: np.ndarray, scale: float):
    """Nelder-Mead from four deterministic starts; best result wins."""
    offsets = scale * 0.05 * np.array([[0, 0], [1, 1], [-1, 1], [1, -1]])
    best, total_it = None, 0
    for off in offsets:
        res = minimize(objective, init + off, method="Nelder-Mead",
                       options=dict(xatol=1e-6 * scale, fatol=1e-30,
                                    maxiter=2000, maxfev=4000))
        total_it += res.nit
        if best is None or res.fun < best.fun:
            best = res
    return best, total_it


def _solve(objective, pos: np.ndarray, notes=(),
           objective_unit: float = 1.0) -> PositionEstimate:
    """Minimize from the tower centroid, reporting the objective over
    objective_unit. The warning joins the geometry check, notes, and a
    divergence note: an estimate more than DIVERGENCE_SCALES scene scales
    from the centroid is not converged, whatever the optimizer says."""
    centroid, scale = pos.mean(axis=0), _scene_scale(pos)
    res, nit = _simplex(objective, centroid, scale)
    off = float(np.hypot(*(res.x - centroid)))
    diverged = off > DIVERGENCE_SCALES * scale
    notes = [_geometry_warning(pos), *notes,
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
    ratios = amps[ii] / amps[jj]

    def objective(p):
        d = np.maximum(np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1]), 1e-9)
        r = ratios - d[jj] / d[ii]
        return sum((r * r).tolist())    # summed left to right, pair by pair

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
    obs_dd = rng_m[jj] - rng_m[ii]

    def objective(p):
        d = np.hypot(pos[:, 0] - p[0], pos[:, 1] - p[1])
        r = obs_dd - (d[jj] - d[ii])
        return sum((r * r).tolist())    # summed left to right, pair by pair

    return _solve(objective, pos, objective_unit=SPEED_OF_LIGHT ** 2)


# name -> solver, looked up at call time so a module-attribute wrapper sees it
SOLVERS = {"tdoa": lambda obs: solve_tdoa(obs),
           "ratio": lambda obs: trilaterate_ratio(obs)}
